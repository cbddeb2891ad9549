#include "src/log/stable_log.h"

#include "src/obs/metrics.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"

namespace argus {

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

// Checks a whole frame [len][payload][crc][len] whose leading length fits the
// extent. Every encoded entry has a kind byte, and zero-filled bytes would
// pass the other checks (the CRC of no bytes is 0), so an empty payload is
// rejected too.
Status CheckFrame(std::span<const std::byte> frame) {
  const std::size_t len = frame.size() - 12;
  if (len == 0) {
    return Status::Corruption("empty frame");
  }
  if (LoadU32(frame.subspan(4 + len + 4, 4)) != len) {
    return Status::Corruption("frame trailer length mismatch");
  }
  if (LoadU32(frame.subspan(4 + len, 4)) != Crc32(frame.subspan(4, len))) {
    return Status::Corruption("frame crc mismatch");
  }
  return Status::Ok();
}

}  // namespace

// force.batch_entries is the group-commit coalescing shape.
StableLog::Metrics::Metrics(const obs::Scope& scope)
    : entries_staged(scope.GetCounter("log.entries_staged")),
      forces(scope.GetCounter("log.forces")),
      bytes_forced(scope.GetCounter("log.bytes_forced")),
      entries_read(scope.GetCounter("log.entries_read")),
      batch_entries(scope.GetHistogram("log.force.batch_entries")) {}

StableLog::StableLog(std::unique_ptr<StableMedium> medium, obs::Scope scope)
    : scope_(std::move(scope)),
      metrics_(scope_),
      medium_(std::move(medium)),
      cache_(medium_.get(), scope_) {
  ARGUS_CHECK(medium_ != nullptr);
  durable_size_ = medium_->durable_size();
  needs_scan_ = durable_size_ > 0;
}

LogAddress StableLog::Write(const LogEntry& entry) {
  std::lock_guard<std::mutex> l(mu_);
  return WriteLocked(entry);
}

LogAddress StableLog::WriteLocked(const LogEntry& entry) {
  std::vector<std::byte> payload = EncodeEntry(entry);
  std::uint64_t offset = durable_size_ + inflight_.size() + staged_.size();

  StoreU32(static_cast<std::uint32_t>(payload.size()), staged_);
  staged_.insert(staged_.end(), payload.begin(), payload.end());
  StoreU32(Crc32(AsSpan(payload)), staged_);
  StoreU32(static_cast<std::uint32_t>(payload.size()), staged_);

  ++entries_written_;
  metrics_.entries_staged->Increment();
  ++staged_entry_count_;
  last_staged_ = LogAddress{offset};
  return LogAddress{offset};
}

Result<LogAddress> StableLog::ForceWrite(const LogEntry& entry) {
  LogAddress addr = Write(entry);
  Status s = Force();
  if (!s.ok()) {
    return s;
  }
  return addr;
}

Status StableLog::Force() {
  std::lock_guard<std::mutex> force(force_mu_);
  std::optional<LogAddress> batch_top;
  {
    std::lock_guard<std::mutex> l(mu_);
    if (needs_scan_) {
      return Status::Unavailable("log opened over existing bytes: RecoverAfterCrash() first");
    }
    if (staged_.empty()) {
      return Status::Ok();
    }
    inflight_.swap(staged_);  // the empty in-flight buffer lends staged_ its capacity
    inflight_entry_count_ = std::exchange(staged_entry_count_, 0);
    batch_top = last_staged_;
  }
  // The device write runs without mu_: stagers stage the next batch behind
  // it, and readers copy frames out of either buffer.
  Status s = cache_.AppendThrough(AsSpan(inflight_));
  std::lock_guard<std::mutex> l(mu_);
  if (!s.ok()) {
    // Nothing became durable: the batch goes back in front of whatever was
    // staged meanwhile, every frame at the address it was given.
    inflight_.insert(inflight_.end(), staged_.begin(), staged_.end());
    inflight_.swap(staged_);
    inflight_.clear();
    staged_entry_count_ += std::exchange(inflight_entry_count_, 0);
    return s;
  }
  durable_size_ += inflight_.size();
  last_forced_ = batch_top;
  metrics_.forces->Increment();
  metrics_.bytes_forced->Add(inflight_.size());
  metrics_.batch_entries->Record(std::exchange(inflight_entry_count_, 0));
  inflight_.clear();
  return Status::Ok();
}

std::pair<std::span<const std::byte>, std::uint64_t> StableLog::VolatileBytesLocked(
    std::uint64_t offset) const {
  const std::uint64_t at = offset - durable_size_;
  if (at < inflight_.size()) {
    return {AsSpan(inflight_), at};
  }
  return {AsSpan(staged_), at - inflight_.size()};
}

Result<LogEntry> StableLog::Read(LogAddress address) const {
  Result<FrameView> view = ReadFrameView(address);
  if (!view.ok()) {
    return view.status();
  }
  return DecodeEntry(view.value().payload());
}

Result<StableLog::FrameView> StableLog::ReadFrameView(LogAddress address,
                                                      bool* cache_validated) const {
  if (cache_validated != nullptr) {
    *cache_validated = false;
  }
  metrics_.entries_read->Increment();
  std::uint64_t durable = 0;
  {
    std::lock_guard<std::mutex> l(mu_);
    durable = durable_size_;
    if (address.offset >= durable) {
      // An in-flight or staged frame: copy it out before a force can move
      // the boundary.
      const auto [bytes, at] = VolatileBytesLocked(address.offset);
      if (at + kFrameOverhead > bytes.size()) {
        return Status::NotFound("log address beyond end");
      }
      std::span<const std::byte> frame = bytes.subspan(at);
      const std::uint32_t len = LoadU32(frame);
      if (at + kFrameOverhead + len > bytes.size()) {
        return Status::Corruption("frame length exceeds log extent");
      }
      if (Status s = CheckFrame(frame.first(kFrameOverhead + len)); !s.ok()) {
        return s;
      }
      std::span<const std::byte> payload = frame.subspan(4, len);
      FrameView view;
      view.view_ =
          ReadCache::View::FromOwned(std::vector<std::byte>(payload.begin(), payload.end()));
      view.payload_ = view.view_.bytes();
      return view;
    }
  }
  return ReadFrameViewAt(address.offset, durable, cache_validated);
}

Result<StableLog::FrameView> StableLog::ReadFrameViewAt(std::uint64_t offset,
                                                        std::uint64_t durable,
                                                        bool* cache_validated) const {
  // One cache access covers the header and, nearly always, the whole frame;
  // the memo flag comes back under the same lock that produced the view.
  bool validated = false;
  Result<ReadCache::View> probe =
      cache_.ReadProbe(offset, 4, kFrameProbeLen, durable, &validated);
  if (!probe.ok()) {
    return probe.status();
  }
  const std::uint32_t len = LoadU32(probe.value().bytes());
  const std::uint64_t frame_len = kFrameOverhead + len;
  if (offset + frame_len > durable) {
    return Status::Corruption("frame length exceeds log extent");
  }

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
  if (cache_validated != nullptr) {
    *cache_validated = validated;
  }
  if (!validated) {
    if (Status s = CheckFrame(frame_view.bytes().first(frame_len)); !s.ok()) {
      return s;
    }
    cache_.MarkValidated(offset, frame_len, frame_view);
  }
  FrameView view;
  view.view_ = std::move(frame_view);
  view.payload_ = view.view_.bytes().subspan(4, len);
  return view;
}

Result<std::optional<std::uint64_t>> StableLog::PreviousFrameOffset(std::uint64_t offset) const {
  if (offset == 0) {
    return std::optional<std::uint64_t>(std::nullopt);
  }
  if (offset < kFrameOverhead) {
    return Status::Corruption("previous frame trailer out of range");
  }
  std::uint64_t durable = 0;
  std::uint32_t prev_len = 0;
  {
    std::lock_guard<std::mutex> l(mu_);
    durable = durable_size_;
    if (offset > durable) {
      // The previous frame ends past the boundary, so it is in flight or
      // staged too, and whole in one buffer.
      if (offset - durable < 4) {
        return Status::Corruption("previous frame trailer out of range");
      }
      const auto [bytes, at] = VolatileBytesLocked(offset - 4);
      if (at + 4 > bytes.size()) {
        return Status::Corruption("previous frame trailer out of range");
      }
      prev_len = LoadU32(bytes.subspan(at, 4));
    }
  }
  if (offset <= durable) {
    Result<ReadCache::View> trailer = cache_.Read(offset - 4, 4, durable);
    if (!trailer.ok()) {
      return trailer.status();
    }
    prev_len = LoadU32(trailer.value().bytes());
  }
  if (offset < kFrameOverhead + prev_len) {
    return Status::Corruption("previous frame trailer out of range");
  }
  return std::optional<std::uint64_t>(offset - kFrameOverhead - prev_len);
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
  return results;
}

std::optional<LogAddress> StableLog::GetTop() const {
  std::lock_guard<std::mutex> l(mu_);
  return last_forced_;
}

std::uint64_t StableLog::end_offset() const {
  std::lock_guard<std::mutex> l(mu_);
  return durable_size_ + inflight_.size() + staged_.size();
}

std::uint64_t StableLog::staged_bytes() const {
  std::lock_guard<std::mutex> l(mu_);
  return inflight_.size() + staged_.size();
}

std::uint64_t StableLog::staged_entries() const {
  std::lock_guard<std::mutex> l(mu_);
  return inflight_entry_count_ + staged_entry_count_;
}

bool StableLog::empty() const {
  std::lock_guard<std::mutex> l(mu_);
  return !last_forced_.has_value();
}

std::uint64_t StableLog::durable_size() const {
  std::lock_guard<std::mutex> l(mu_);
  return durable_size_;
}

std::uint64_t StableLog::entries_written() const {
  std::lock_guard<std::mutex> l(mu_);
  return entries_written_;
}

Result<std::optional<std::pair<LogAddress, LogEntry>>> StableLog::BackwardCursor::Next() {
  if (!next_.has_value()) {
    return std::optional<std::pair<LogAddress, LogEntry>>(std::nullopt);
  }
  Result<LogEntry> entry = log_->Read(*next_);
  if (!entry.ok()) {
    return entry.status();
  }
  Result<std::optional<std::uint64_t>> prev = log_->PreviousFrameOffset(next_->offset);
  if (!prev.ok()) {
    return prev.status();
  }
  LogAddress at = *next_;
  next_ = prev.value().has_value() ? std::optional<LogAddress>(LogAddress{*prev.value()})
                                   : std::nullopt;
  return std::optional<std::pair<LogAddress, LogEntry>>(
      std::make_pair(at, std::move(entry).value()));
}

Result<std::optional<std::pair<LogAddress, LogEntry>>> StableLog::ForwardCursor::Next() {
  if (next_ + kFrameOverhead > log_->end_offset()) {
    return std::optional<std::pair<LogAddress, LogEntry>>(std::nullopt);
  }
  Result<FrameView> frame = log_->ReadFrameView(LogAddress{next_});
  if (!frame.ok()) {
    return frame.status();
  }
  Result<LogEntry> entry = DecodeEntry(frame.value().payload());
  if (!entry.ok()) {
    return entry.status();
  }
  LogAddress at{next_};
  next_ += kFrameOverhead + frame.value().payload().size();
  return std::optional<std::pair<LogAddress, LogEntry>>(
      std::make_pair(at, std::move(entry).value()));
}

Status StableLog::RecoverAfterCrash() {
  // A restart waits for an append in flight, and then finds the in-flight
  // buffer empty.
  std::lock_guard<std::mutex> force(force_mu_);
  std::lock_guard<std::mutex> l(mu_);
  staged_.clear();
  staged_entry_count_ = 0;
  last_forced_ = std::nullopt;
  last_staged_ = std::nullopt;
  needs_scan_ = true;

  Status s = medium_->RecoverAfterCrash();
  durable_size_ = medium_->durable_size();
  if (!s.ok()) {
    return s;
  }
  // The medium may have repaired pages (re-duplexing); never serve pre-crash
  // cached bytes, and never let the cache mask decay a fresh CarefulRead
  // would report.
  cache_.Clear();

  // Scan frames forward to find the last whole frame. The ascending frame
  // reads make the cache prefetch ahead of the scan.
  const std::uint64_t durable = durable_size_;
  std::uint64_t offset = 0;
  std::optional<LogAddress> top;
  while (offset + kFrameOverhead <= durable) {
    Result<FrameView> frame = ReadFrameViewAt(offset, durable, nullptr);
    if (!frame.ok()) {
      if (frame.status().code() != ErrorCode::kCorruption) {
        return frame.status();
      }
      break;
    }
    top = LogAddress{offset};
    offset += kFrameOverhead + frame.value().payload().size();
  }
  if (offset < durable) {
    // A force torn on its way to the medium leaves no whole frame past the
    // first frame it broke, while every acknowledged frame is whole. A whole
    // frame past the bad one is damage: report it and keep every byte.
    for (std::uint64_t at = offset + 1; at + kFrameOverhead <= durable; ++at) {
      Result<FrameView> later = ReadFrameViewAt(at, durable, nullptr);
      if (later.ok()) {
        return Status::Corruption("damaged log frame at " + std::to_string(offset) +
                                  " before a whole frame at " + std::to_string(at));
      }
      if (later.status().code() != ErrorCode::kCorruption) {
        return later.status();
      }
    }
    // Only a medium whose appends can tear cuts the bytes off; the default
    // reports them as damage.
    s = medium_->TruncateTornTail(offset);
    durable_size_ = medium_->durable_size();
    if (!s.ok()) {
      return s;
    }
    // Cached blocks may hold the dropped bytes, which the next force
    // overwrites.
    cache_.Clear();
  }
  last_forced_ = top;
  last_staged_ = top;
  needs_scan_ = false;
  return Status::Ok();
}

}  // namespace argus
