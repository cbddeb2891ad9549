#include "src/log/stable_log.h"

#include "src/obs/metrics.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"

namespace argus {

namespace {

// Global log-layer aggregates, mirrored from the per-instance LogStats at the
// same tick sites. force.batch_entries is the group-commit coalescing shape;
// force.wait_ns is what an action pays from "durability requested" to
// "durable" (leaders and followers both).
struct LogObs {
  obs::Counter* entries_staged;
  obs::Counter* forces;
  obs::Counter* bytes_forced;
  obs::Counter* entries_read;
  obs::Counter* force_requests;
  obs::Counter* coalesced_requests;
  obs::Histogram* batch_entries;
  obs::Histogram* force_wait_ns;

  static const LogObs& Get() {
    static const LogObs m{
        obs::GetCounter("log.entries_staged"),
        obs::GetCounter("log.forces"),
        obs::GetCounter("log.bytes_forced"),
        obs::GetCounter("log.entries_read"),
        obs::GetCounter("log.force.requests"),
        obs::GetCounter("log.force.coalesced"),
        obs::GetHistogram("log.force.batch_entries"),
        obs::GetHistogram("log.force.wait_ns"),
    };
    return m;
  }
};

}  // namespace
namespace {

std::uint32_t LoadU32(std::span<const std::byte> bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void StoreU32(std::uint32_t v, std::vector<std::byte>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(std::byte{static_cast<std::uint8_t>(v >> (8 * i))});
  }
}

}  // namespace

StableLog::StableLog(std::unique_ptr<StableMedium> medium, ReadCache::Config cache_config)
    : medium_(std::move(medium)), cache_(medium_.get(), cache_config) {
  ARGUS_CHECK(medium_ != nullptr);
  if (medium_->durable_size() > 0) {
    // Resuming an existing log (e.g. file-backed): derive the top.
    Result<std::uint64_t> r = RecoverAfterCrash();
    ARGUS_CHECK_MSG(r.ok(), "existing log unreadable");
  }
}

LogAddress StableLog::Write(const LogEntry& entry) {
  std::lock_guard<std::mutex> l(mu_);
  return WriteLocked(entry);
}

LogAddress StableLog::WriteLocked(const LogEntry& entry) {
  std::vector<std::byte> payload = EncodeEntry(entry);
  std::uint64_t offset = medium_->durable_size() + staged_.size();

  StoreU32(static_cast<std::uint32_t>(payload.size()), staged_);
  staged_.insert(staged_.end(), payload.begin(), payload.end());
  StoreU32(Crc32(AsSpan(payload)), staged_);
  StoreU32(static_cast<std::uint32_t>(payload.size()), staged_);

  ++stats_.entries_written;
  LogObs::Get().entries_staged->Increment();
  ++staged_entry_count_;
  last_staged_ = LogAddress{offset};
  return LogAddress{offset};
}

Result<LogAddress> StableLog::ForceWrite(const LogEntry& entry) {
  std::lock_guard<std::mutex> l(mu_);
  LogAddress addr = WriteLocked(entry);
  Status s = ForceLocked();
  if (!s.ok()) {
    return s;
  }
  return addr;
}

Status StableLog::Force() {
  std::lock_guard<std::mutex> l(mu_);
  return ForceLocked();
}

Status StableLog::ForceLocked() {
  if (staged_.empty()) {
    return Status::Ok();
  }
  Status s = cache_.AppendThrough(AsSpan(staged_));
  if (!s.ok()) {
    return s;
  }
  stats_.bytes_forced += staged_.size();
  ++stats_.forces;
  stats_.max_entries_per_force = std::max(stats_.max_entries_per_force, staged_entry_count_);
  LogObs::Get().forces->Increment();
  LogObs::Get().bytes_forced->Add(staged_.size());
  LogObs::Get().batch_entries->Record(staged_entry_count_);
  staged_.clear();
  staged_entry_count_ = 0;
  last_forced_ = last_staged_;
  return Status::Ok();
}

Result<LogEntry> StableLog::Read(LogAddress address) const {
  Result<FrameView> view = ReadFrameView(address);
  if (!view.ok()) {
    return view.status();
  }
  return DecodeEntry(view.value().payload());
}

Result<StableLog::FrameView> StableLog::ReadFrameView(LogAddress address) const {
  return ReadFrameView(address, nullptr);
}

Result<StableLog::FrameView> StableLog::ReadFrameView(LogAddress address,
                                                      bool* cache_validated) const {
  std::uint64_t durable = 0;
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.entries_read;
    durable = medium_->durable_size();
    total = durable + staged_.size();
  }
  LogObs::Get().entries_read->Increment();
  return ReadFrameViewAt(address.offset, durable, total, cache_validated);
}

Result<StableLog::FrameView> StableLog::ReadFrameViewAt(std::uint64_t offset,
                                                        std::uint64_t durable,
                                                        std::uint64_t total,
                                                        bool* cache_validated) const {
  if (cache_validated != nullptr) {
    *cache_validated = false;
  }
  if (offset + kFrameOverhead > total) {
    return Status::NotFound("log address beyond end");
  }
  if (offset + kFrameOverhead > durable) {
    // The frame touches the staged tail: take the locked stitched path and
    // re-materialize the payload as an owned view.
    std::lock_guard<std::mutex> l(mu_);
    Result<LogEntry> entry = ReadFrameAt(offset, nullptr);
    if (!entry.ok()) {
      return entry.status();
    }
    FrameView view;
    view.view_ = ReadCache::View::FromOwned(EncodeEntry(entry.value()));
    view.payload_ = view.view_.bytes();
    return view;
  }

  // One cache access covers the header and, nearly always, the whole frame;
  // the memo flag comes back under the same lock that produced the view.
  bool validated = false;
  Result<ReadCache::View> probe =
      cache_.ReadProbe(offset, 4, kFrameProbeLen, durable, &validated);
  if (!probe.ok()) {
    return probe.status();
  }
  std::uint32_t len = LoadU32(probe.value().bytes());
  if (offset + kFrameOverhead + len > total) {
    return Status::Corruption("frame length exceeds log extent");
  }
  if (offset + kFrameOverhead + len > durable) {
    // Frame straddles the durable/staged boundary; locked path as above.
    std::lock_guard<std::mutex> l(mu_);
    Result<LogEntry> entry = ReadFrameAt(offset, nullptr);
    if (!entry.ok()) {
      return entry.status();
    }
    FrameView view;
    view.view_ = ReadCache::View::FromOwned(EncodeEntry(entry.value()));
    view.payload_ = view.view_.bytes();
    return view;
  }

  const std::uint64_t frame_len = kFrameOverhead + len;
  ReadCache::View frame_view;
  if (probe.value().bytes().size() >= frame_len) {
    frame_view = std::move(probe).value();
  } else {
    // Oversized frame or probe clipped at a block edge (or pass-through
    // header read with the cache disabled): fetch the exact frame.
    Result<ReadCache::View> frame = cache_.Read(offset, frame_len, durable);
    if (!frame.ok()) {
      return frame.status();
    }
    validated = cache_.IsValidated(offset);
    frame_view = std::move(frame).value();
  }
  std::span<const std::byte> bytes = frame_view.bytes().first(frame_len);
  if (cache_validated != nullptr) {
    *cache_validated = validated;
  }
  if (!validated) {
    std::span<const std::byte> payload = bytes.subspan(4, len);
    std::uint32_t crc = LoadU32(bytes.subspan(4 + len, 4));
    std::uint32_t trailer_len = LoadU32(bytes.subspan(4 + len + 4, 4));
    if (trailer_len != len) {
      return Status::Corruption("frame trailer length mismatch");
    }
    if (crc != Crc32(payload)) {
      return Status::Corruption("frame crc mismatch");
    }
    cache_.MarkValidated(offset, frame_len, frame_view);
  }
  FrameView view;
  view.view_ = std::move(frame_view);
  view.payload_ = view.view_.bytes().subspan(4, len);
  return view;
}

std::vector<Result<LogEntry>> StableLog::ReadMany(std::span<const LogAddress> addresses) const {
  std::vector<std::size_t> order(addresses.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return addresses[a].offset < addresses[b].offset;
  });
  std::vector<Result<LogEntry>> results(addresses.size(),
                                        Status::NotFound("log address beyond end"));
  for (std::size_t i : order) {
    results[i] = Read(addresses[i]);
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.read_batches;
    stats_.batched_reads += addresses.size();
  }
  return results;
}

std::optional<LogAddress> StableLog::GetTop() const {
  std::lock_guard<std::mutex> l(mu_);
  return last_forced_;
}

std::uint64_t StableLog::end_offset() const {
  std::lock_guard<std::mutex> l(mu_);
  return medium_->durable_size() + staged_.size();
}

std::uint64_t StableLog::staged_bytes() const {
  std::lock_guard<std::mutex> l(mu_);
  return staged_.size();
}

std::uint64_t StableLog::staged_entries() const {
  std::lock_guard<std::mutex> l(mu_);
  return staged_entry_count_;
}

bool StableLog::empty() const {
  std::lock_guard<std::mutex> l(mu_);
  return !last_forced_.has_value();
}

std::uint64_t StableLog::durable_size() const {
  std::lock_guard<std::mutex> l(mu_);
  return medium_->durable_size();
}

LogStats StableLog::StatsSnapshot() const {
  LogStats out;
  {
    // The medium is only ever touched under mu_ (appends in ForceLocked,
    // durable_size()); the counter read must follow the same discipline.
    std::lock_guard<std::mutex> l(mu_);
    out = stats_;
    out.physical_bytes = medium_->physical_bytes_written();
  }
  ReadCache::Stats cs = cache_.StatsSnapshot();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  out.cache_bytes_read = cs.bytes_from_medium;
  out.readahead_blocks = cs.readahead_blocks;
  return out;
}

void StableLog::RecordForceRequest(bool coalesced, std::uint64_t wait_ns) {
  std::lock_guard<std::mutex> l(mu_);
  ++stats_.force_requests;
  if (coalesced) {
    ++stats_.coalesced_requests;
    LogObs::Get().coalesced_requests->Increment();
  }
  stats_.total_force_wait_ns += wait_ns;
  LogObs::Get().force_requests->Increment();
  LogObs::Get().force_wait_ns->Record(wait_ns);
}

Result<LogEntry> StableLog::ReadFrameAt(std::uint64_t offset, std::optional<std::uint64_t>* prev,
                                        std::uint64_t* next) const {
  std::uint64_t total = medium_->durable_size() + staged_.size();
  if (offset + kFrameOverhead > total) {
    return Status::NotFound("log address beyond end");
  }

  // Reads `len` raw bytes at `at`, stitching durable medium and staged tail.
  // Durable bytes come through the cache (mu_ -> cache mutex lock order).
  auto read_raw = [&](std::uint64_t at, std::uint64_t len) -> Result<std::vector<std::byte>> {
    std::uint64_t durable = medium_->durable_size();
    if (at + len <= durable) {
      Result<ReadCache::View> v = cache_.Read(at, len, durable);
      if (!v.ok()) {
        return v.status();
      }
      std::span<const std::byte> b = v.value().bytes();
      return std::vector<std::byte>(b.begin(), b.end());
    }
    if (at >= durable) {
      if (at - durable + len > staged_.size()) {
        return Status::NotFound("read past staged tail");
      }
      return std::vector<std::byte>(
          staged_.begin() + static_cast<std::ptrdiff_t>(at - durable),
          staged_.begin() + static_cast<std::ptrdiff_t>(at - durable + len));
    }
    // Straddles the durable / staged boundary.
    Result<ReadCache::View> head = cache_.Read(at, durable - at, durable);
    if (!head.ok()) {
      return head.status();
    }
    std::uint64_t rest = len - (durable - at);
    if (rest > staged_.size()) {
      return Status::NotFound("read past staged tail");
    }
    std::span<const std::byte> hb = head.value().bytes();
    std::vector<std::byte> out(hb.begin(), hb.end());
    out.insert(out.end(), staged_.begin(), staged_.begin() + static_cast<std::ptrdiff_t>(rest));
    return out;
  };

  Result<std::vector<std::byte>> header = read_raw(offset, 4);
  if (!header.ok()) {
    return header.status();
  }
  std::uint32_t len = LoadU32(AsSpan(header.value()));
  if (offset + kFrameOverhead + len > total) {
    return Status::Corruption("frame length exceeds log extent");
  }
  Result<std::vector<std::byte>> body = read_raw(offset + 4, static_cast<std::uint64_t>(len) + 8);
  if (!body.ok()) {
    return body.status();
  }
  std::span<const std::byte> payload(body.value().data(), len);
  std::uint32_t crc = LoadU32(std::span<const std::byte>(body.value().data() + len, 4));
  std::uint32_t trailer_len = LoadU32(std::span<const std::byte>(body.value().data() + len + 4, 4));
  if (trailer_len != len) {
    return Status::Corruption("frame trailer length mismatch");
  }
  if (crc != Crc32(payload)) {
    return Status::Corruption("frame crc mismatch");
  }

  if (next != nullptr) {
    *next = offset + kFrameOverhead + len;
  }
  if (prev != nullptr) {
    if (offset == 0) {
      *prev = std::nullopt;
    } else {
      Result<std::vector<std::byte>> ptrail = read_raw(offset - 4, 4);
      if (!ptrail.ok()) {
        return ptrail.status();
      }
      std::uint32_t plen = LoadU32(AsSpan(ptrail.value()));
      if (offset < kFrameOverhead + plen) {
        return Status::Corruption("previous frame trailer out of range");
      }
      *prev = offset - kFrameOverhead - plen;
    }
  }
  return DecodeEntry(payload);
}

Result<LogEntry> StableLog::ReadFrameForCursor(std::uint64_t offset,
                                               std::optional<std::uint64_t>* prev,
                                               std::uint64_t* next) const {
  std::lock_guard<std::mutex> l(mu_);
  Result<LogEntry> entry = ReadFrameAt(offset, prev, next);
  if (entry.ok()) {
    ++stats_.entries_read;
  }
  return entry;
}

Result<std::optional<std::pair<LogAddress, LogEntry>>> StableLog::BackwardCursor::Next() {
  if (!next_.has_value()) {
    return std::optional<std::pair<LogAddress, LogEntry>>(std::nullopt);
  }
  std::optional<std::uint64_t> prev;
  Result<LogEntry> entry = log_->ReadFrameForCursor(next_->offset, &prev, nullptr);
  if (!entry.ok()) {
    return entry.status();
  }
  LogAddress at = *next_;
  next_ = prev.has_value() ? std::optional<LogAddress>(LogAddress{*prev}) : std::nullopt;
  return std::optional<std::pair<LogAddress, LogEntry>>(
      std::make_pair(at, std::move(entry).value()));
}

Result<std::optional<std::pair<LogAddress, LogEntry>>> StableLog::ForwardCursor::Next() {
  if (next_ + kFrameOverhead > log_->end_offset()) {
    return std::optional<std::pair<LogAddress, LogEntry>>(std::nullopt);
  }
  std::uint64_t after = 0;
  Result<LogEntry> entry = log_->ReadFrameForCursor(next_, nullptr, &after);
  if (!entry.ok()) {
    return entry.status();
  }
  LogAddress at{next_};
  next_ = after;
  return std::optional<std::pair<LogAddress, LogEntry>>(
      std::make_pair(at, std::move(entry).value()));
}

Result<std::uint64_t> StableLog::RecoverAfterCrash() {
  std::lock_guard<std::mutex> l(mu_);
  staged_.clear();
  staged_entry_count_ = 0;
  last_forced_ = std::nullopt;
  last_staged_ = std::nullopt;

  Status s = medium_->RecoverAfterCrash();
  if (!s.ok()) {
    return s;
  }
  // The medium may have repaired pages (re-duplexing); never serve pre-crash
  // cached bytes, and never let the cache mask decay a fresh CarefulRead
  // would report.
  cache_.Clear();

  // Scan frames forward to find the last intact entry. On atomic media the
  // scan always ends exactly at durable_size; on a plain file a torn final
  // frame is detected by CRC and logically truncated. The ascending frame
  // reads make the cache prefetch ahead of the scan.
  std::uint64_t offset = 0;
  std::uint64_t durable = medium_->durable_size();
  std::uint64_t count = 0;
  while (offset + kFrameOverhead <= durable) {
    std::uint64_t next = 0;
    Result<LogEntry> entry = ReadFrameAt(offset, nullptr, &next);
    if (!entry.ok()) {
      if (entry.status().code() == ErrorCode::kCorruption) {
        break;  // torn tail: log ends at the previous frame
      }
      return entry.status();
    }
    last_forced_ = LogAddress{offset};
    offset = next;
    ++count;
  }
  last_staged_ = last_forced_;
  return count;
}

}  // namespace argus
