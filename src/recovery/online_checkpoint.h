// Online housekeeping (§5.1.1, taken off the commit path): the machinery that
// runs the three checkpoint phases around live guardian traffic.
//
// The thesis runs housekeeping as a stop-the-world operation — the guardian
// pauses, both stages run, the log is swapped. Stage 1 is the expensive part
// (it scales with the live set: a full heap traversal for the snapshot
// method, a full backward-chain replay for compaction), yet it only reads
// state that is immutable once the marker is recorded. OnlineCheckpointer
// exploits that: it captures the marker and table copies under a brief
// exclusion (phase 1), builds the stage-1 prefix concurrently with committing
// actions (phase 2), and re-enters exclusion only for the swap barrier
// (phase 3), whose cost is bounded by the activity since the capture.
//
// The caller supplies the exclusion as a callback (ExclusiveSection) because
// the guardian's action path owns the lock — Guardian::mutex, which the
// workload driver's local commits take, or a test's scheduler.
//
// CheckpointService runs an OnlineCheckpointer on a PeriodicService that
// polls a CheckpointPolicy, turning housekeeping into a maintenance activity
// the commit path never sees (except for the bounded swap pause).
//
// Pause accounting lives in the registry, under the guardian's scope:
// checkpoint.count and the checkpoint.{capture,build,swap,pause}_ns
// histograms. `pause` covers only time spent inside the caller's exclusive
// section (what the commit path actually observes): the longer of capture and
// swap in online mode, the whole checkpoint in stop-the-world mode. `build`
// is the concurrent phase-2 work (wall time, not a pause, except in
// stop-the-world mode where it happens inside the pause too).

#ifndef SRC_RECOVERY_ONLINE_CHECKPOINT_H_
#define SRC_RECOVERY_ONLINE_CHECKPOINT_H_

#include "src/common/periodic_service.h"
#include "src/obs/metrics.h"
#include "src/recovery/checkpoint_policy.h"
#include "src/recovery/recovery_system.h"

namespace argus {

enum class CheckpointMode {
  // All three phases run back to back under one exclusive section — the
  // thesis behaviour, kept as the baseline the benchmark compares against.
  kStopTheWorld,
  // Only phases 1 and 3 run under exclusion; stage 1 builds concurrently.
  kOnline,
};

class OnlineCheckpointer {
 public:
  // `rs` must outlive this object; the checkpointer counts under its
  // guardian's scope. `exclusive` must be re-entrant-safe in the sense that
  // RunOnce may invoke it twice per checkpoint (online mode).
  OnlineCheckpointer(RecoverySystem* rs, ExclusiveSection exclusive, CheckpointMode mode);

  OnlineCheckpointer(const OnlineCheckpointer&) = delete;
  OnlineCheckpointer& operator=(const OnlineCheckpointer&) = delete;

  // Runs one full checkpoint. Online mode requires group commit to be
  // configured on `rs` when any thread waits for durability outside the
  // exclusive section (see LogWriter::WaitDurable's epoch variant).
  Status RunOnce(HousekeepingMethod method);

 private:
  struct Metrics {
    explicit Metrics(const obs::Scope& scope);
    obs::Counter* checkpoints;
    obs::Histogram* capture_ns;
    obs::Histogram* build_ns;
    obs::Histogram* swap_ns;
    obs::Histogram* pause_ns;
  };
  void RecordPhases(std::uint64_t capture_ns, std::uint64_t build_ns, std::uint64_t swap_ns,
                    std::uint64_t pause_ns) const;

  RecoverySystem* rs_;
  ExclusiveSection exclusive_;
  CheckpointMode mode_;
  const Metrics metrics_;
};

// Checkpoints whenever `policy` says the log has grown enough, polling it
// every PeriodicService::kPoll. Start() spawns the thread; Stop() (or the
// destructor) joins it. The first checkpoint error stops the service and is
// reported by last_error().
class CheckpointService {
 public:
  // Fairness floor: after a checkpoint ends, the next poll waits this long.
  // An eager policy (entries_since_checkpoint = 0) would otherwise re-enter
  // the guardian's exclusive section on every poll and starve the commit
  // path on small hosts (the ConcurrentCheckpointWorkloadTest stall).
  static constexpr std::chrono::milliseconds kMinCheckpointGap{5};

  // All pointees must outlive the service. `policy` is driven (polled and
  // re-armed) only by the service thread once Start() is called.
  CheckpointService(RecoverySystem* rs, CheckpointPolicy* policy, ExclusiveSection exclusive,
                    CheckpointMode mode);

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }

  Status last_error() const { return loop_.last_error(); }

 private:
  std::optional<PeriodicService::Clock::duration> Pass();

  RecoverySystem* rs_;
  CheckpointPolicy* policy_;
  OnlineCheckpointer checkpointer_;
  // Declared last: stopped before the members its pass uses are destroyed.
  PeriodicService loop_;
};

}  // namespace argus

#endif  // SRC_RECOVERY_ONLINE_CHECKPOINT_H_
