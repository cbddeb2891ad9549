#include "src/stable/read_cache.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"

namespace argus {

namespace {

// All caches aggregated; per-cache numbers stay in Stats. Gauge updates are
// amortized (every 64 events) — the rate is a dashboard value, not a ledger.
struct CacheObs {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* bytes_from_medium;
  obs::Counter* readahead_blocks;
  obs::Gauge* hit_rate;

  static const CacheObs& Get() {
    static const CacheObs m{
        obs::GetCounter("stable.cache.hits"),
        obs::GetCounter("stable.cache.misses"),
        obs::GetCounter("stable.cache.bytes_from_medium"),
        obs::GetCounter("stable.cache.readahead_blocks"),
        obs::GetGauge("stable.cache.hit_rate"),
    };
    return m;
  }

  void UpdateRate() const {
    std::uint64_t h = hits->Value();
    std::uint64_t total = h + misses->Value();
    if (total != 0 && total % 64 == 0) {
      hit_rate->Set(static_cast<double>(h) / static_cast<double>(total));
    }
  }
};

}  // namespace

Result<ReadCache::View> ReadCache::Read(std::uint64_t offset, std::uint64_t len,
                                        std::uint64_t durable_limit) {
  if (offset + len > durable_limit) {
    return Status::NotFound("read past durable extent");
  }
  std::lock_guard<std::mutex> l(mu_);
  if (len == 0) {
    return View();
  }
  if (!config_.enabled) {
    ++stats_.misses;
    stats_.bytes_from_medium += len;
    CacheObs::Get().misses->Increment();
    CacheObs::Get().bytes_from_medium->Add(len);
    std::vector<std::byte> raw(len);
    Status s = medium_->ReadInto(offset, std::span<std::byte>(raw.data(), raw.size()));
    if (!s.ok()) {
      return s;
    }
    return View::FromOwned(std::move(raw));
  }
  return ReadRangeLocked(offset, len, durable_limit);
}

Result<ReadCache::View> ReadCache::ReadProbe(std::uint64_t offset, std::uint64_t min_len,
                                             std::uint64_t max_len, std::uint64_t durable_limit,
                                             bool* validated) {
  *validated = false;
  if (offset + min_len > durable_limit) {
    return Status::NotFound("read past durable extent");
  }
  std::lock_guard<std::mutex> l(mu_);
  if (!config_.enabled) {
    ++stats_.misses;
    stats_.bytes_from_medium += min_len;
    CacheObs::Get().misses->Increment();
    CacheObs::Get().bytes_from_medium->Add(min_len);
    std::vector<std::byte> raw(min_len);
    Status s = medium_->ReadInto(offset, std::span<std::byte>(raw.data(), raw.size()));
    if (!s.ok()) {
      return s;
    }
    return View::FromOwned(std::move(raw));
  }
  std::uint64_t len = std::min(max_len, durable_limit - offset);
  // Stay within one block when that still covers min_len: the view keeps a
  // stable single-block pin, which is what MarkValidated can memo.
  std::uint64_t block_end = (offset / config_.block_size + 1) * config_.block_size;
  if (block_end - offset >= min_len) {
    len = std::min(len, block_end - offset);
  }
  Result<View> view = ReadRangeLocked(offset, len, durable_limit);
  if (view.ok()) {
    *validated = IsValidatedLocked(offset);
  }
  return view;
}

Result<ReadCache::View> ReadCache::ReadRangeLocked(std::uint64_t offset, std::uint64_t len,
                                                   std::uint64_t durable_limit) {
  const std::uint64_t bs = config_.block_size;
  const std::uint64_t first = offset / bs;
  const std::uint64_t last = (offset + len - 1) / bs;

  if (first == last) {
    // Single-block fast path: one hash lookup serves the common probe hit.
    auto it = blocks_.find(first);
    if (it != blocks_.end() && it->second.data->size() >= offset + len - first * bs) {
      ++stats_.hits;
      CacheObs::Get().hits->Increment();
      CacheObs::Get().UpdateRate();
      TouchLocked(it->second, first);
      View v;
      v.pin_ = it->second.data;
      v.bytes_ = std::span<const std::byte>(it->second.data->data() + (offset - first * bs), len);
      return v;
    }
  }

  // Find the run of blocks that are missing or too short for this read.
  bool miss = false;
  std::uint64_t fill_first = 0;
  std::uint64_t fill_last = 0;
  for (std::uint64_t b = first; b <= last; ++b) {
    auto it = blocks_.find(b);
    std::uint64_t need_end = std::min(offset + len, (b + 1) * bs) - b * bs;
    if (it != blocks_.end() && it->second.data->size() >= need_end) {
      continue;
    }
    if (!miss) {
      miss = true;
      fill_first = b;
    }
    fill_last = b;
  }

  if (miss) {
    ++stats_.misses;
    CacheObs::Get().misses->Increment();
    Status s = FillRangeLocked(fill_first, fill_last, durable_limit, fill_first, fill_last);
    if (!s.ok()) {
      return s;
    }
  } else {
    ++stats_.hits;
    CacheObs::Get().hits->Increment();
  }
  CacheObs::Get().UpdateRate();

  if (first == last) {
    Block& block = blocks_.at(first);
    TouchLocked(block, first);
    View v;
    v.pin_ = block.data;
    v.bytes_ = std::span<const std::byte>(block.data->data() + (offset - first * bs), len);
    return v;
  }

  std::vector<std::byte> owned;
  owned.reserve(len);
  for (std::uint64_t b = first; b <= last; ++b) {
    Block& block = blocks_.at(b);
    TouchLocked(block, b);
    std::uint64_t begin = (b == first) ? offset - b * bs : 0;
    std::uint64_t end = std::min(offset + len, (b + 1) * bs) - b * bs;
    owned.insert(owned.end(), block.data->begin() + static_cast<std::ptrdiff_t>(begin),
                 block.data->begin() + static_cast<std::ptrdiff_t>(end));
  }
  return View::FromOwned(std::move(owned));
}

Status ReadCache::FillRangeLocked(std::uint64_t first_block, std::uint64_t last_block,
                                  std::uint64_t durable_limit, std::uint64_t demand_first,
                                  std::uint64_t demand_last) {
  const std::uint64_t bs = config_.block_size;
  const std::uint64_t ra = config_.readahead_blocks;

  // Extend the fill in the direction the scan is moving: a backward chain
  // walk touches descending adjacent blocks, a forward crash scan ascending
  // ones. Read-ahead only triggers on adjacency so random access pays
  // nothing.
  if (config_.enabled && ra > 0 && have_last_fill_) {
    if (last_block + 1 == last_fill_first_) {
      first_block = (first_block > ra) ? first_block - ra : 0;
    } else if (last_fill_last_ + 1 == first_block) {
      last_block += ra;
    }
  }
  // Clamp to the durable extent.
  std::uint64_t start = first_block * bs;
  std::uint64_t end = std::min((last_block + 1) * bs, durable_limit);
  if (start >= end) {
    return Status::NotFound("read past durable extent");
  }
  last_block = (end - 1) / bs;

  // One scatter submission for the whole run. Each block's bytes land
  // directly in its cache buffer — no staging copy — and the file medium
  // coalesces the run into one or a few preadv calls. The default
  // SubmitReads executes segments sequentially in submission order, so
  // simulated media see the exact read sequence the old per-block loop
  // issued.
  const std::size_t count = static_cast<std::size_t>(last_block - first_block + 1);
  std::vector<std::shared_ptr<std::vector<std::byte>>> buffers(count);
  std::vector<ReadRequest> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t b = first_block + i;
    std::uint64_t size = std::min(end, (b + 1) * bs) - b * bs;
    buffers[i] = std::make_shared<std::vector<std::byte>>(size);
    requests[i].offset = b * bs;
    requests[i].out = std::span<std::byte>(buffers[i]->data(), size);
  }
  Status batch = medium_->SubmitReads(std::span<ReadRequest>(requests.data(), requests.size()));
  if (!batch.ok() && std::all_of(requests.begin(), requests.end(),
                                 [](const ReadRequest& r) { return r.status.ok(); })) {
    // A medium violating the per-request contract (batch failed, every status
    // Ok) must not get its unfilled buffers cached.
    return batch;
  }

  // Install ascending up to the first failed segment, then surface that
  // segment's status — the cache ends up in the same state the serial loop
  // left it in: blocks before the failure cached, the rest untouched.
  for (std::size_t i = 0; i < count; ++i) {
    if (!requests[i].status.ok()) {
      return requests[i].status;
    }
    std::uint64_t b = first_block + i;
    std::uint64_t size = requests[i].out.size();
    stats_.bytes_from_medium += size;
    CacheObs::Get().bytes_from_medium->Add(size);
    auto [it, inserted] = blocks_.try_emplace(b);
    if (inserted) {
      lru_.push_front(b);
      it->second.lru_it = lru_.begin();
    } else {
      TouchLocked(it->second, b);
    }
    it->second.data = std::move(buffers[i]);
    // The bytes under any previously validated frame here may differ now.
    it->second.validated_frames.clear();
    if (b < demand_first || b > demand_last) {
      ++stats_.readahead_blocks;
      CacheObs::Get().readahead_blocks->Increment();
    }
  }
  have_last_fill_ = true;
  last_fill_first_ = first_block;
  last_fill_last_ = last_block;
  while (blocks_.size() > config_.max_blocks) {
    EvictLocked();
  }
  return Status::Ok();
}

Status ReadCache::AppendThrough(std::span<const std::byte> data) {
  std::lock_guard<std::mutex> l(mu_);
  Status s = medium_->Append(data);
  if (!s.ok()) {
    // The medium may hold a torn suffix; drop everything rather than reason
    // about which trailing blocks are affected.
    ClearLocked();
  }
  return s;
}

bool ReadCache::IsValidated(std::uint64_t frame_offset) const {
  std::lock_guard<std::mutex> l(mu_);
  return IsValidatedLocked(frame_offset);
}

bool ReadCache::IsValidatedLocked(std::uint64_t frame_offset) const {
  auto it = blocks_.find(frame_offset / config_.block_size);
  if (it == blocks_.end()) {
    return false;
  }
  const std::vector<std::uint64_t>& frames = it->second.validated_frames;
  return std::find(frames.begin(), frames.end(), frame_offset) != frames.end();
}

void ReadCache::MarkValidated(std::uint64_t frame_offset, std::uint64_t frame_len,
                              const View& view) {
  (void)frame_len;  // the memo is per-block; a memoized frame never spans blocks
  std::lock_guard<std::mutex> l(mu_);
  if (!config_.enabled || view.pin_ == nullptr) {
    return;  // stitched or pass-through view: no stable block identity to memo
  }
  // Only memo if the validated bytes are still the cached bytes — the block
  // may have been refilled between the read and this call.
  auto it = blocks_.find(frame_offset / config_.block_size);
  if (it == blocks_.end() || it->second.data != view.pin_) {
    return;
  }
  std::vector<std::uint64_t>& frames = it->second.validated_frames;
  if (std::find(frames.begin(), frames.end(), frame_offset) == frames.end()) {
    frames.push_back(frame_offset);
  }
}

void ReadCache::TouchLocked(Block& block, std::uint64_t index) {
  (void)index;
  if (block.lru_it != lru_.begin()) {
    // Relink the existing node — no allocation, iterator stays valid.
    lru_.splice(lru_.begin(), lru_, block.lru_it);
  }
}

void ReadCache::EvictLocked() {
  if (lru_.empty()) {
    return;
  }
  std::uint64_t victim = lru_.back();
  lru_.pop_back();
  blocks_.erase(victim);  // drops the block's validated-frame memo with it
}

void ReadCache::SetEnabled(bool enabled) {
  std::lock_guard<std::mutex> l(mu_);
  if (config_.enabled != enabled) {
    config_.enabled = enabled;
    ClearLocked();
  }
}

bool ReadCache::enabled() const {
  std::lock_guard<std::mutex> l(mu_);
  return config_.enabled;
}

void ReadCache::Clear() {
  std::lock_guard<std::mutex> l(mu_);
  ClearLocked();
}

void ReadCache::ClearLocked() {
  blocks_.clear();
  lru_.clear();
  have_last_fill_ = false;
}

ReadCache::Stats ReadCache::StatsSnapshot() const {
  std::lock_guard<std::mutex> l(mu_);
  return stats_;
}

}  // namespace argus
