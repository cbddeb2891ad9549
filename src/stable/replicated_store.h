// N-way replicated atomic page store with online background repair.
//
// Generalizes the Lampson-Sturgis duplexed pair (§1.1 of the thesis): every
// logical page is represented by N physical pages on disks with independent
// failure modes. Writes update the replicas in fixed index order, so a crash
// anywhere in the chain leaves a prefix holding the new value and a suffix
// holding the old one — at least one intact replica either way. Quorum
// careful reads probe the replicas in the same fixed order and take the first
// CRC-valid copy, which is therefore the newest intact value; replicas that
// had to be skipped over (decay, torn write) are marked dirty so the online
// repair loop can heal them without waiting for a restart.
//
// Two repair flavours, deliberately distinct:
//  - Repair() is the crash-time pass the duplexed store always had: heal
//    corrupt or diverged replicas from the newest intact copy, report a page
//    lost on every replica as corruption. Its N=2 behaviour is operation-for-
//    operation identical to the historical duplexed store's Repair
//    (tests/replicated_store_test.cc keeps a transcription of it).
//  - RepairPage()/ScrubRange() are the online pass (RADON-style repairable
//    atomic object): same healing, page-granular locking so commits interleave
//    between pages, and additionally fills replicas that never received a page
//    at all — which is exactly what re-silvering a freshly attached blank
//    replica needs, so replica replacement rides the same scrub machinery.
//
// ReplicaRepairService runs the online pass on a PeriodicService: each pass
// drains the dirty-page queue, advances an in-flight re-silver, and scrubs
// the next window of the full page range.
//
// Thread safety: every public operation serializes on one internal mutex, so
// the store is shareable between the commit path and the repair thread. With
// no repair thread running, a single-threaded caller sees exactly the same
// disk-operation (and fault-rng) sequence as the historical duplexed store.

#ifndef SRC_STABLE_REPLICATED_STORE_H_
#define SRC_STABLE_REPLICATED_STORE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/common/periodic_service.h"
#include "src/obs/metrics.h"
#include "src/stable/careful_disk.h"
#include "src/stable/simulated_disk.h"

namespace argus {

class ReplicatedStore {
 public:
  // Replica i's disk is seeded `seed * 2 + 1 + i`, so the N=2 configuration
  // reproduces the historical duplexed pair (seed*2+1, seed*2+2) bit for bit.
  ReplicatedStore(std::size_t page_count, std::uint32_t replicas, std::uint64_t seed = 0);

  std::size_t page_count() const;
  std::uint32_t replica_count() const;
  void EnsurePageCount(std::size_t n);

  // Atomic logical write: careful-writes every replica in index order. After
  // a crash at any point, AtomicRead returns either the old value or the new
  // value, never garbage.
  Status AtomicWrite(std::size_t page_index, std::span<const std::byte> data);

  // Quorum careful read: probes replicas in index order, first CRC-valid copy
  // wins (the newest intact value, because writes go in the same order). A
  // replica skipped over because of confirmed decay is marked dirty for the
  // online repair loop. kNotFound if no replica was ever written.
  Result<std::vector<std::byte>> AtomicRead(std::size_t page_index);

  // AtomicRead without the allocation: fills `out` (>= kDiskPageSize).
  Status AtomicReadInto(std::size_t page_index, std::span<std::byte> out);

  // Crash-time pass: for every page whose replicas disagree (torn write on a
  // prefix or decay), copies the newest intact replica over the bad ones.
  // Never-written replicas are left alone (nothing to re-duplex — the online
  // pass handles those). Returns pages repaired; corruption if some page is
  // CRC-bad on every replica.
  Result<std::size_t> Repair();

  // Online heal of one page under the store mutex: corrupt and diverged
  // replicas are rewritten from the newest intact copy, and replicas missing
  // the page entirely (blank after ReplaceReplica/AttachReplica, or a write
  // chain torn before first reaching them) are filled too. Returns replica
  // copies written (0 = page already converged). Corruption if the page is
  // CRC-bad on every replica that holds it.
  Result<std::size_t> RepairPage(std::size_t page_index);

  // Online scrub of [begin, end): RepairPage per page, releasing the mutex
  // between pages so commits interleave. Pages lost on every replica are
  // counted (stable.repair.pages_lost) but do not stop the scan — the scrub
  // must keep healing what is healable. Returns replica copies written.
  Result<std::size_t> ScrubRange(std::size_t begin, std::size_t end);

  // ---- Dirty-page queue (read path -> repair loop) ----

  std::vector<std::size_t> TakeDirtyPages();
  std::size_t dirty_pages() const;

  // ---- Whole-disk loss and re-silvering ----

  // Replaces replica `replica`'s disk with a fresh blank one (whole-disk
  // loss). The replica immediately participates in write-all again; its
  // historical pages read as never-written until the repair loop (or an
  // explicit ScrubRange) re-silvers them from the peers.
  void ReplaceReplica(std::uint32_t replica, std::uint64_t seed);

  // Attaches one more blank replica at the end of the probe order (N grows
  // by one). Returns the new replica's index.
  std::uint32_t AttachReplica(std::uint64_t seed);

  // True while a replaced/attached replica has not yet been re-silvered end
  // to end. ReplicaRepairService polls this to prioritize the re-silver scan.
  bool resilver_pending() const;
  // Marks the in-flight re-silver complete (the repair service calls this
  // after a full-range scrub with the silvering replica attached).
  void FinishResilver();

  // ---- Fault-plan plumbing (thread-safe variant of disk(i).set_fault_plan)
  // Storm tests arm and clear decay plans mid-run; going through the store
  // mutex keeps that race-free against concurrent committers and the repair
  // thread.
  void SetReplicaFaultPlan(std::uint32_t replica, const DiskFaultPlan& plan);

  // ---- Convergence oracle (test/property hook) ----
  //
  // Non-perturbing check (no fault rng rolls): every page must be CRC-intact
  // on every replica that holds it, all held copies byte-identical, and —
  // once no re-silver is pending — held by either every replica or none.
  // Returns pages checked.
  Result<std::size_t> VerifyConverged() const;

  // ---- Accessors ----

  // Test hooks. The references are only stable until the next AttachReplica/
  // ReplaceReplica; mutating fault plans through them is only safe while the
  // store is otherwise quiescent (use SetReplicaFaultPlan mid-run).
  SimulatedDisk& disk(std::uint32_t replica);
  SimulatedDisk& disk_a() { return disk(0); }
  SimulatedDisk& disk_b() { return disk(1); }

  // Physical page writes summed over all N replicas.
  std::uint64_t physical_writes() const;

 private:
  struct Replica {
    std::unique_ptr<SimulatedDisk> disk;
    std::unique_ptr<CarefulDisk> careful;
    bool silvering = false;  // blank attach/replace not yet re-silvered
  };

  // Online heal of one page; caller holds mu_.
  Result<std::size_t> RepairPageLocked(std::size_t page_index);

  mutable std::mutex mu_;
  std::size_t page_count_;
  std::uint64_t seed_;
  std::vector<Replica> replicas_;
  std::set<std::size_t> dirty_;
  bool resilver_pending_ = false;
};

// ---------------------------------------------------------------------------
// Background repair
// ---------------------------------------------------------------------------

struct ReplicaRepairConfig {
  // Pages scrubbed per pass of the rolling full-range scan (0 disables the
  // background scan; the pass then only drains the dirty queue).
  std::size_t scrub_pages_per_pass = 64;
};

// A background thread that heals a ReplicatedStore while commits continue:
// every PeriodicService::kPoll, a pass drains the dirty-page queue fed by
// quorum-read fallbacks, then either advances an in-flight re-silver or
// scrubs the next window of the rolling full-range scan. An error stops
// nothing — scrub continues past lost pages — but the last one is retained
// for last_error(). Passes, drained dirty pages and completed re-silvers are
// counted under the service's scope (stable.repair.scans, .dirty_drained,
// .resilvers); healed copies are counted by the store
// (stable.repair.pages_repaired and .resilver_pages).
class ReplicaRepairService {
 public:
  // `store` must outlive the service.
  ReplicaRepairService(ReplicatedStore* store, ReplicaRepairConfig config,
                       const obs::Scope& scope = {});

  ReplicaRepairService(const ReplicaRepairService&) = delete;
  ReplicaRepairService& operator=(const ReplicaRepairService&) = delete;

  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }

  // One repair pass, runnable inline for deterministic tests (also the body
  // the background thread loops). Safe to call while the thread runs.
  Status RunPass();

  Status last_error() const { return loop_.last_error(); }

 private:
  struct Metrics {
    explicit Metrics(const obs::Scope& scope);
    obs::Counter* scans;          // repair passes started
    obs::Counter* dirty_drained;  // dirty-queue pages a pass repaired
    obs::Counter* resilvers;      // re-silvers a pass completed
    obs::Histogram* pass_ns;      // wall time per repair pass
  };

  ReplicatedStore* store_;
  ReplicaRepairConfig config_;
  const Metrics metrics_;

  std::mutex mu_;  // guards the cursors
  std::size_t scrub_cursor_ = 0;
  std::size_t resilver_cursor_ = 0;
  // Declared last: stopped before the members its pass uses are destroyed.
  PeriodicService loop_;
};

}  // namespace argus

#endif  // SRC_STABLE_REPLICATED_STORE_H_
