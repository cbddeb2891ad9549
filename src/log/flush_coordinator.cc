#include "src/log/flush_coordinator.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace argus {

namespace {

const obs::Scope& ScopeOf(const StableLog* log) {
  ARGUS_CHECK(log != nullptr);
  return log->scope();
}

}  // namespace

FlushCoordinator::Metrics::Metrics(const obs::Scope& scope)
    : requests(scope.GetCounter("log.force.requests")),
      coalesced(scope.GetCounter("log.force.coalesced")),
      wait_ns(scope.GetHistogram("log.force.wait_ns")),
      leader_wait_ns(scope.GetHistogram("log.force.leader_wait_ns")),
      follower_wait_ns(scope.GetHistogram("log.force.follower_wait_ns")),
      batch_requests(scope.GetHistogram("log.force.batch_requests")) {}

FlushCoordinator::FlushCoordinator(StableLog* log, FlushCoordinatorConfig config)
    : metrics_(ScopeOf(log)), log_(log), config_(config) {}

Result<LogAddress> FlushCoordinator::ForceWrite(const LogEntry& entry) {
  LogAddress addr = log_->Write(entry);
  Status s = ForceOffset(addr.offset, std::nullopt);
  if (!s.ok()) {
    return s;
  }
  return addr;
}

Status FlushCoordinator::ForceUpTo(LogAddress address) {
  return ForceOffset(address.offset, std::nullopt);
}

Status FlushCoordinator::ForceUpTo(LogAddress address, std::uint64_t epoch) {
  return ForceOffset(address.offset, epoch);
}

Status FlushCoordinator::Force() {
  std::uint64_t end = log_->end_offset();
  if (end == 0) {
    return Status::Ok();
  }
  // The last staged byte is at end-1; durable_size() > end-1 once flushed.
  return ForceOffset(end - 1, std::nullopt);
}

Status FlushCoordinator::Quiesce() {
  Status s = Force();
  if (!s.ok()) {
    return s;
  }
  std::unique_lock<std::mutex> l(mu_);
  // Only requests for pre-barrier entries can still be in flight (the caller
  // excludes staging); the Force above covered all of them, so each wakes,
  // finds its frame durable, and leaves. New arrivals in this window pass
  // through without blocking for the same reason.
  cv_.wait(l, [this] { return pending_requests_ == 0 && !flush_in_progress_; });
  return Status::Ok();
}

Status FlushCoordinator::ForceOffset(std::uint64_t offset, std::optional<std::uint64_t> epoch) {
  const auto start = std::chrono::steady_clock::now();
  bool led_flush = false;
  Status out = Status::Ok();
  {
    std::unique_lock<std::mutex> l(mu_);
    if (epoch.has_value() && *epoch != epoch_) {
      // The address belongs to a retired log generation. The swap barrier's
      // Quiesce forced that log's whole tail before the rebind, so the frame
      // is durable; waiting against the new log's offsets would be wrong
      // (a compacted log restarts at offset 0).
      return Status::Ok();
    }
    ++pending_requests_;
    cv_.notify_all();  // a lingering leader may now have a full batch
    while (log_->durable_size() <= offset) {
      if (crashed_) {
        // The guardian died under us. The frame is not durable (the loop
        // condition just said so) and never will be on this incarnation —
        // the staged tail is about to be discarded. Report the in-doubt
        // outcome instead of leading a flush on a dead guardian's behalf.
        out = Status::Crashed("guardian crashed while awaiting durability");
        break;
      }
      if (flush_in_progress_) {
        cv_.wait(l);
        continue;
      }
      // Leader election: flush on behalf of every pending request — forcing
      // one entry flushes all older staged entries (§3.1).
      led_flush = true;
      flush_in_progress_ = true;
      if (config_.batch_window.count() > 0 && pending_requests_ < config_.max_batch) {
        cv_.wait_for(l, config_.batch_window,
                     [this] { return pending_requests_ >= config_.max_batch || crashed_; });
      }
      if (crashed_) {  // crash arrived while lingering: abandon the flush
        flush_in_progress_ = false;
        cv_.notify_all();
        out = Status::Crashed("guardian crashed while awaiting durability");
        break;
      }
      std::uint64_t batch = pending_requests_;
      obs::EmitBegin("log.force.batch", batch, offset);
      // Other requesters enqueue, and stagers stage the next batch, while
      // the medium append runs: StableLog::Force releases the log mutex
      // around it. Reads that fetch a durable frame from the medium still
      // wait, on the cache mutex that ReadCache::AppendThrough holds.
      l.unlock();
      Status s = log_->Force();
      l.lock();
      metrics_.batch_requests->Record(batch);
      obs::EmitEnd("log.force.batch", batch, s.ok() ? 1 : 0);
      flush_in_progress_ = false;
      cv_.notify_all();
      if (!s.ok()) {
        out = s;
        break;
      }
      if (log_->durable_size() <= offset && log_->staged_bytes() == 0) {
        // Misuse guard: the target frame was never staged on this log.
        out = Status::InvalidArgument("force target beyond staged extent");
        break;
      }
    }
    --pending_requests_;
    if (pending_requests_ == 0) {
      cv_.notify_all();  // wake a Quiesce waiting for the drain
    }
  }
  const auto wait = std::chrono::steady_clock::now() - start;
  const std::uint64_t wait_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count());
  metrics_.requests->Increment();
  metrics_.wait_ns->Record(wait_ns);
  if (led_flush) {
    metrics_.leader_wait_ns->Record(wait_ns);
  } else {
    metrics_.coalesced->Increment();
    metrics_.follower_wait_ns->Record(wait_ns);
  }
  return out;
}

void FlushCoordinator::Crash() {
  std::lock_guard<std::mutex> l(mu_);
  crashed_ = true;
  cv_.notify_all();
}

bool FlushCoordinator::crashed() const {
  std::lock_guard<std::mutex> l(mu_);
  return crashed_;
}

void FlushCoordinator::RebindLog(StableLog* log) {
  ARGUS_CHECK(log != nullptr);
  std::lock_guard<std::mutex> l(mu_);
  ARGUS_CHECK_MSG(!flush_in_progress_ && pending_requests_ == 0,
                  "log swap under a live flush");
  log_ = log;
  ++epoch_;
}

std::uint64_t FlushCoordinator::log_epoch() const {
  std::lock_guard<std::mutex> l(mu_);
  return epoch_;
}

}  // namespace argus
