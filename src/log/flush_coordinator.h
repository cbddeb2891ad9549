// Group-commit flush coordinator.
//
// §3.1 defines force_write so that forcing one entry durably flushes *every*
// older staged entry. That contract is exactly what makes group commit sound:
// when N actions want their outcome entries durable at roughly the same time,
// one physical flush of the staged tail serves all N. This class turns the
// contract into a concurrency structure (leader/follower, after the group
// commit of LogBase and of classic commercial logging systems):
//
//   - every thread stages its entry itself (StableLog::Write is thread-safe
//     and assigns the address immediately, which the writer needs for the
//     backward outcome chain), then calls ForceUpTo(address);
//   - the first thread to find no flush in progress becomes the *leader*. It
//     may linger for `batch_window` to let more threads stage and join, then
//     performs ONE StableLog::Force covering the whole staged tail;
//   - every other thread is a *follower*: it blocks until a flush that covers
//     its address completes. A follower never touches the medium.
//
// Crash equivalence: a coalesced force is a single medium append, so a crash
// anywhere inside it is indistinguishable from a crash before the batch (the
// superblock/torn-tail machinery below discards the partial append). Group
// commit therefore changes throughput, never the set of legal recovery
// outcomes — the crash-matrix tests verify this step by step.

#ifndef SRC_LOG_FLUSH_COORDINATOR_H_
#define SRC_LOG_FLUSH_COORDINATOR_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/log/stable_log.h"

namespace argus {

struct FlushCoordinatorConfig {
  // How long a leader lingers for followers to stage their entries before
  // flushing. Zero flushes immediately (coalescing then only happens when
  // followers arrive while a flush is already running).
  std::chrono::microseconds batch_window{0};
  // The leader stops lingering early once this many force requests are
  // pending.
  std::size_t max_batch = 32;
};

class FlushCoordinator {
 public:
  // Counts force requests under `log`'s registry scope.
  explicit FlushCoordinator(StableLog* log, FlushCoordinatorConfig config = {});

  FlushCoordinator(const FlushCoordinator&) = delete;
  FlushCoordinator& operator=(const FlushCoordinator&) = delete;

  // Stages `entry` and blocks until it is durable (joining or leading a
  // coalesced flush).
  Result<LogAddress> ForceWrite(const LogEntry& entry);

  // Blocks until the entry at `address` (staged by the caller) is durable.
  Status ForceUpTo(LogAddress address);

  // Epoch-checked variant for callers that stage under an external exclusion
  // that also covers log swaps (the online checkpointer's swap barrier). The
  // caller reads log_epoch() in the same critical section as its Stage* call;
  // if a swap happened in between, the address names a frame of the RETIRED
  // log — which Quiesce() already made durable — so the wait returns Ok
  // immediately instead of misinterpreting the offset against the new log.
  Status ForceUpTo(LogAddress address, std::uint64_t epoch);

  // Durably flushes everything staged so far (leader/follower group commit).
  Status Force();

  // The swap barrier's drain: forces the bound log's whole staged tail and
  // then blocks until no force request is in flight. The caller must already
  // exclude *staging* (no new entries can appear); requests from entries
  // staged before the barrier may still arrive during the drain — they find
  // their frames durable and pass straight through. After Quiesce returns
  // with staging still excluded, RebindLog's quiescence precondition holds.
  Status Quiesce();

  // After a housekeeping log swap the coordinator must follow the writer to
  // the new log. Requires quiescence (no concurrent force requests), which
  // Quiesce() establishes under the swap barrier. Advances the log epoch.
  void RebindLog(StableLog* log);

  // Crash wakeup: marks this coordinator's guardian as crashed and wakes every
  // blocked force request. Waiters whose frame is already durable still return
  // Ok (the entry genuinely survived); everyone else — current and future —
  // returns kCrashed instead of flushing, so no thread deadlocks against a
  // log whose staged tail is about to be discarded, and no thread leads a new
  // physical flush on a dead guardian's behalf. There is deliberately no
  // "revive": a restart builds a fresh coordinator for the new incarnation.
  // A flush leader already inside the medium append finishes it (a coalesced
  // force is one atomic append; see the crash-equivalence note above) and its
  // followers whose frames that append covered return Ok.
  void Crash();

  // True once Crash() was called.
  bool crashed() const;

  // Monotone counter identifying the bound log's generation; bumped by every
  // RebindLog. Read it while holding the same exclusion as the Stage* call
  // whose address will be waited on.
  std::uint64_t log_epoch() const;

 private:
  // Waits until durable_size() exceeds `offset` — i.e. the frame starting at
  // `offset` has been appended to the medium. `epoch` of nullopt means "the
  // current log, whatever it is" (legacy single-log callers).
  Status ForceOffset(std::uint64_t offset, std::optional<std::uint64_t> epoch);

  // force.wait_ns is what an action pays from "durability requested" to
  // "durable" (leaders and followers both).
  struct Metrics {
    explicit Metrics(const obs::Scope& scope);
    obs::Counter* requests;
    obs::Counter* coalesced;
    obs::Histogram* wait_ns;
    obs::Histogram* leader_wait_ns;    // elected leaders: linger + medium append
    obs::Histogram* follower_wait_ns;  // coalesced requests: blocked on a leader
    obs::Histogram* batch_requests;    // pending requests a leader's flush served
  };

  const Metrics metrics_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  StableLog* log_;
  FlushCoordinatorConfig config_;
  bool flush_in_progress_ = false;
  bool crashed_ = false;
  std::size_t pending_requests_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace argus

#endif  // SRC_LOG_FLUSH_COORDINATOR_H_
