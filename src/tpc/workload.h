// A reusable mixed-workload driver over a SimWorld.
//
// Generates the banking-style workload the thesis's introduction motivates:
// distributed top-level actions touching a few objects at 1..k guardians,
// with configurable abort probability, early-prepare probability, crash
// probability, and automatic checkpointing. Used by the stress tests and the
// workload benchmark; it also maintains a model of the committed state so
// callers can verify the recovered world.
//
// The concurrent driver commits each action through Guardian::CommitLocal, the
// one local-commit path, under one durability rule for every shard count: a
// commit record may not become durable before the commit records, in other
// shard logs, of the actions it read from (DESIGN.md D10). After a crash one
// strict oracle reconciles each guardian against its journal: prefix closure
// per home shard, plus read-from closure (see ReconcileOneGuardian).

#ifndef SRC_TPC_WORKLOAD_H_
#define SRC_TPC_WORKLOAD_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/obs/trace.h"
#include "src/recovery/checkpoint_policy.h"
#include "src/recovery/online_checkpoint.h"
#include "src/tpc/crash_controller.h"
#include "src/tpc/sim_world.h"

namespace argus {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::size_t objects_per_guardian = 8;
  std::size_t max_participants = 2;      // guardians touched per action
  double abort_probability = 0.05;       // client-requested aborts
  double early_prepare_probability = 0.0;
  // Per-action chance of a crash. Serial driver: one guardian crashes
  // mid-protocol and restarts. Concurrent driver: the whole world crashes
  // coherently at that worker's next preemption point (see CrashController),
  // restarts through full recovery, and every per-thread oracle is reconciled
  // against the durable prefix before traffic resumes.
  double crash_probability = 0.0;
  // Concurrent driver only: media faults armed on every replica except the
  // highest-index one of every guardian's replicated store for the duration
  // of post-crash recovery (cleared once the world is back up), exercising
  // quorum careful-read fallback and re-duplexing under recovery reads. The
  // last replica stays healthy, so recovery always has an intact copy — at
  // N=2 this is the historical "disk A decays, B stays healthy". Requires a
  // replicated medium (kDuplexed/kReplicated) and crash_probability > 0.
  std::optional<DiskFaultPlan> recovery_faults;
  // If set, the driver attaches this policy to every guardian
  // (Guardian::ConfigureMaintenance) and each guardian housekeeps when its
  // policy fires. The serial driver ticks the policies inline between
  // actions (stop-the-world); the concurrent driver hands each guardian's
  // policy to a CheckpointService thread that runs it according to
  // `checkpoint_mode`, racing the worker threads.
  std::optional<CheckpointPolicyConfig> checkpoint;
  // How the concurrent driver's checkpoint service pauses writers: kOnline
  // pauses only for capture and the swap barrier; kStopTheWorld holds the
  // guardian mutex across the whole checkpoint (the baseline to beat).
  CheckpointMode checkpoint_mode = CheckpointMode::kOnline;
  // ---- Partial-world outages (concurrent driver only) ----
  //
  // Per-action chance that a worker requests a partial-world crash: a random
  // subset of 1..N-1 guardians dies at the controller's rendezvous while the
  // survivors keep committing. Requires >= 2 guardians.
  double partial_crash_probability = 0.0;
  // Per-action chance, while an outage is active AND the survivor-liveness
  // floor has been met, that a worker requests the recover event: partitions
  // heal, the dead subset restarts through recovery, and every victim is
  // reconciled against its journal's durable prefix.
  double partial_recover_probability = 0.0;
  // Also network-Partition() the victims for the outage's duration (healed by
  // the recover event): messages toward the dead subset drop instead of
  // queueing, as §2.2.1 assumes.
  bool partition_during_outage = false;
  // Survivor-liveness floor: the recover event refuses to run (and asserts,
  // if somehow reached) until the world-wide committed count has grown by at
  // least this much since the outage began. This is the liveness property:
  // a partial crash must not stop the survivors from committing.
  std::uint64_t min_survivor_commits = 1;
  // 0 (default) runs the serial, network-driven driver. >= 1 switches Run()
  // to the concurrent driver: that many OS threads issue single-guardian
  // actions in parallel, staging under the guardian's exclusion
  // (Guardian::mutex) and waiting for durability outside it (the group-commit
  // coalescing point). Concurrent mode ignores max_participants (every action
  // stays on one guardian — the simulated network is single-threaded).
  // Checkpointing IS supported concurrently, but requires group commit on
  // every guardian: workers wait for durability outside the exclusion, and
  // only the coordinator's epoch check resolves waits that race a log swap.
  std::size_t threads = 0;
  // When set, called once per committed action in the concurrent driver with
  // the action's end-to-end latency (stage through durable) in nanoseconds.
  // Invoked concurrently from worker threads — must be thread-safe.
  std::function<void(std::uint64_t)> commit_latency_ns;
  // ---- Residency (beyond-RAM object store) ----
  //
  // The memory budget is SimWorldConfig::mem_budget_bytes. For every guardian
  // whose recovery system has a ResidencyManager, the concurrent driver runs
  // one ResidencyService (exclusive section = the guardian's exclusion),
  // the serial driver runs an inline eviction pass between actions, and
  // SnapshotLiveStats reports its resident bytes.
};

struct WorkloadStats {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t crashes = 0;
  // Checkpoints taken, summed over the guardians' policies.
  std::uint64_t checkpoints = 0;
  // Concurrent actions whose durability wait was interrupted by a coherent
  // crash (kCrashed): the outcome is legal either way, and the post-crash
  // reconciliation — not the worker — decides whether the action survived.
  std::uint64_t in_doubt = 0;
  // Concurrent mode: per worker thread, how many of its actions ended in a
  // non-Ok status (in-doubt outcomes included). Sized `threads` by Run().
  std::vector<std::uint64_t> per_thread_failures;
  // Partial-world outages completed (crash side / recover side). A storm that
  // ends mid-outage recovers the victims at teardown without counting a
  // recovery, so these can differ by one.
  std::uint64_t partial_crashes = 0;
  std::uint64_t partial_recoveries = 0;
  // Minimum survivor commit growth observed across recovered outages — the
  // liveness witness. ~0 until the first recover event runs.
  std::uint64_t min_outage_survivor_commits = ~std::uint64_t{0};
};

class WorkloadDriver {
 public:
  WorkloadDriver(SimWorld* world, WorkloadConfig config);

  // Creates the per-guardian object populations ("slot0".."slotN").
  Status Setup();

  // Runs `actions` top-level actions (plus injected crashes/restarts).
  Status Run(std::size_t actions);

  // Compares every guardian's committed stable state against the model.
  // Crashes and restarts all guardians first, so the check goes through
  // recovery. Returns the number of objects checked.
  Result<std::size_t> VerifyAfterCrash();

  const WorkloadStats& stats() const { return stats_; }

  // ---- Mid-run observation (thread-safe) ----

  // A point-in-time view of one guardian while a concurrent Run() is in
  // flight: volatile commits that touched it so far, and whether it is
  // currently down in a partial-world outage.
  struct LiveGuardianStats {
    std::uint64_t committed = 0;
    bool crashed = false;
    // Last sampled residency gauge (0 when residency is disabled or the
    // guardian is down). Sampled by workers after each action, so a snapshot
    // lags live eviction by at most one action.
    std::uint64_t resident_bytes = 0;
  };

  // Snapshot of every guardian's live stats. Safe to call from any thread at
  // any time (the liveness assertions and the stress tests poll it mid-run);
  // counters are monotone, so two snapshots bracket the commits in between.
  std::vector<LiveGuardianStats> SnapshotLiveStats() const;

  // World-wide volatile commits so far (the sum of the per-guardian
  // counters, maintained separately so the liveness floor is one load).
  std::uint64_t live_committed_total() const {
    return live_total_committed_.load(std::memory_order_relaxed);
  }

  // Flight-recorder dump captured by the crash executor at the most recent
  // full or partial crash, while every worker was parked at the rendezvous —
  // the per-thread event windows as of the instant the world died. The
  // executor keeps the raw capture; this formats it. Empty when no crash has
  // fired.
  std::string last_crash_dump() const;

 private:
  std::string SlotName(std::size_t i) const { return "slot" + std::to_string(i); }

  // Runs one action; updates the model on commit.
  Status RunOneAction();

  // Concurrent mode (config_.threads >= 1).
  Status RunConcurrent(std::size_t actions);
  Status RunOneConcurrentAction(Rng& rng, WorkloadStats& local, bool journal);
  // The action body, once a guardian is picked (errors come back bare; the
  // caller attaches the guardian/thread/ordinal context).
  Status RunOnGuardian(Rng& rng, std::uint32_t g, WorkloadStats& local, bool journal);

  // ---- Crash-storm oracle (concurrent driver; see DESIGN.md) ----

  // One write of a journaled commit: the slot, the unique value written, and
  // the committed value it replaced, which is what the action read.
  struct JournalWrite {
    std::size_t slot = 0;
    std::int64_t value = 0;
    std::int64_t replaced = 0;
  };

  // One volatile commit, journaled in the staging order of commit records.
  // Workers keep a pointer to their record across releasing the guardian's
  // exclusion and set `durable` after WaitDurable returns Ok; the crash executor
  // reads the journal only while every worker is parked at the controller's
  // barrier (which is also the happens-before edge that makes the plain-field
  // reads race-free — `durable` is atomic because it is written outside any
  // lock).
  struct CommittedRecord {
    std::vector<JournalWrite> writes;
    std::uint32_t home_shard = 0;  // the shard its commit record went to
    std::atomic<bool> durable{false};
  };

  // Durable-prefix reconciliation for one guardian after a coherent crash.
  // Each home shard forces its commit records in staging order, so on every
  // home shard the surviving records are a prefix of the journal: the prefix
  // up to the newest record that is durable-confirmed or visible (a
  // recovered slot holds one of its values, which are unique). The recovered
  // committed state must equal the replay of the base plus exactly those
  // records in journal order — zero lost committed work, no partial or
  // invented action, and prefix closure per home shard. The replay also
  // holds every survivor to read-from closure: each of its writes must
  // replace exactly the value the survivors before it leave in that slot, so
  // a surviving record that read from a commit the crash lost fails. In-doubt
  // records beyond a prefix vanished with the staged tail. On success,
  // rebases crash_base_/model_ on the recovered state and clears the journal.
  //
  // `require_full_replay` is the survivor variant: a guardian that did NOT
  // crash must match the replay of its ENTIRE journal — no record may have
  // vanished. Used by the partial-recover event on every survivor.
  Status ReconcileOneGuardian(std::uint32_t g, bool require_full_replay = false);

  // Picks 1..N-1 distinct victims for a partial-world crash.
  std::vector<std::uint32_t> PickVictims(Rng& rng) const;

  // The guardians not down in a partial-world outage, in index order.
  std::vector<std::uint32_t> LiveGuardians() const;

  SimWorld* world_;
  WorkloadConfig config_;
  Rng rng_;
  WorkloadStats stats_;
  // model_[guardian][slot] = committed value
  std::vector<std::map<std::size_t, std::int64_t>> model_;
  // Per-guardian journal of volatile commits since the last reconciliation
  // point (deque: stable element addresses while workers append).
  std::vector<std::deque<CommittedRecord>> journal_;
  // Committed state at the last reconciliation point — the replay base.
  std::vector<std::vector<std::int64_t>> crash_base_;
  // Concurrent-mode action sequences: above Setup's per-guardian sequences,
  // and persistent across Run() calls so an ActionId is never reused.
  std::atomic<std::uint64_t> next_concurrent_sequence_{std::uint64_t{1} << 20};
  // Concurrent-mode write values: globally unique (a shared monotone counter,
  // seeded above every base value when a concurrent run starts), so the
  // reconciler can identify which journal record produced a recovered slot
  // value.
  std::atomic<std::int64_t> next_unique_value_{1};
  // Written only by the event executor.
  std::optional<obs::FlightRecorderCapture> last_crash_capture_;

  // ---- Per-guardian live state and the partial-world outage ----
  //
  // The atomics are read by running workers and by SnapshotLiveStats callers.
  // Workers write the counters and the residency samples; the elected event
  // executor writes `crashed` and the outage state while every worker is
  // parked (the barrier mutex is the happens-before edge). outage_victims_ is
  // executor/teardown only and needs no synchronization.
  struct LiveGuardian {
    std::atomic<std::uint64_t> committed{0};
    std::atomic<bool> crashed{false};
    std::atomic<std::uint64_t> resident_bytes{0};
  };
  std::vector<LiveGuardian> live_;
  std::atomic<std::uint64_t> live_total_committed_{0};
  std::atomic<bool> outage_active_{false};
  std::atomic<std::uint64_t> outage_baseline_{0};  // total commits at outage start
  std::vector<std::uint32_t> outage_victims_;
};

}  // namespace argus

#endif  // SRC_TPC_WORKLOAD_H_
