// Beyond-RAM object store: the residency subsystem.
//
// The paper keeps every guardian object in the volatile heap and uses the
// stable log only for recovery. The ResidencyManager inverts that: RAM is a
// cache over the log. It tracks approximate bytes resident in the
// VolatileHeap against a configurable budget, runs second-chance (clock)
// eviction over committed base versions when the budget's high watermark is
// crossed, and demotes a cold object by replacing its in-heap Value with a
// compact stub <uid, log-address, size> — the address the writer/recovery
// already surfaced on the object (RecoverableObject::stable_address). A touch
// of an evicted object faults it back through the batched validated read path
// (StableLog::ReadMany into the ReadCache).
//
// Eligibility. Only quiet durable state is ever demoted: the object must be
// committed (no tentative version), unlocked/unseized, unpinned (no in-flight
// action touched it), fully restored, and its stable address must point below
// the owning shard's durable size — forces land on frame boundaries, so an
// address below durable_size() names a wholly durable frame the ReadCache can
// serve. The root object (stable variables) is never demoted.
//
// Thread-safety: the manager is externally serialized — every call
// (FaultIn from a bound ActionContext, RunEvictionPass from the
// ResidencyService's exclusive section, MaterializeAll from checkpoint
// capture) runs under the same per-guardian exclusion the caller already
// holds for heap access. resident_bytes() alone is safe to read concurrently
// (it is an atomic; live dashboards poll it). It is the heap's count as of
// the last pass or fault batch.

#ifndef SRC_RESIDENCY_RESIDENCY_MANAGER_H_
#define SRC_RESIDENCY_RESIDENCY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/log/stable_log.h"
#include "src/object/heap.h"
#include "src/object/residency_hooks.h"
#include "src/obs/metrics.h"
#include "src/stable/shard_map.h"

namespace argus {

struct ResidencyConfig {
  // 0 disables residency entirely: nothing is ever evicted (the paper's
  // all-resident behavior).
  std::uint64_t mem_budget_bytes = 0;
  // Cap on demotions per pass; 0 = until the low watermark is reached.
  std::uint64_t max_evictions_per_pass = 0;
};

// Decodes the payload of a frame an evicted object's stub points at: the
// flattened value inside a DataEntry, BaseCommittedEntry, or
// PreparedDataEntry (the three entry kinds whose address ever lands in a
// stable-address slot). References come back as UidRef placeholders.
Result<Value> DecodeStubPayload(const LogEntry& entry, Uid expected);

class ResidencyManager : public ResidencyPager {
 public:
  // An eviction pass starts demoting when resident bytes exceed
  // kHighWatermark * budget and stops once they drop below kLowWatermark *
  // budget (hysteresis keeps passes from thrashing at the boundary).
  static constexpr double kHighWatermark = 0.90;
  static constexpr double kLowWatermark = 0.70;

  // `logs[shard]` must be the guardian's shard logs in `router` order; they
  // must outlive the manager (RebindLog re-points a shard after a checkpoint
  // swap). The manager counts under `scope` (its guardian).
  ResidencyManager(VolatileHeap* heap, std::vector<StableLog*> logs, ShardRouter router,
                   ResidencyConfig config, const obs::Scope& scope = {});

  // ---- ResidencyPager ----
  Status FaultIn(RecoverableObject* object) override;
  Status FaultInBatch(std::span<RecoverableObject* const> objects) override;

  // One clock pass: settles the heap's running count of resident bytes
  // (recounting only objects whose versions changed since the last settle),
  // and if the high watermark is crossed, sweeps the uid-ordered ring
  // demoting eligible objects (second chance: a set reference bit buys one
  // more lap) until the low watermark or the per-pass cap. Returns the number
  // of evictions.
  std::uint64_t RunEvictionPass();

  // Rematerializes every evicted object (checkpoint capture and swap need the
  // whole heap resident; so does a reconciler about to read base versions).
  Status MaterializeAll();

  // A checkpoint swap retired the old log; the caller has already
  // materialized everything and wiped the per-object addresses.
  void RebindLog(std::uint32_t shard, StableLog* log);

  std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t high_watermark_bytes() const {
    return static_cast<std::uint64_t>(static_cast<double>(config_.mem_budget_bytes) *
                                      kHighWatermark);
  }
  std::uint64_t low_watermark_bytes() const {
    return static_cast<std::uint64_t>(static_cast<double>(config_.mem_budget_bytes) *
                                      kLowWatermark);
  }
  bool enabled() const { return config_.mem_budget_bytes > 0; }
  const ResidencyConfig& config() const { return config_; }

 private:
  bool EvictionEligible(const RecoverableObject& obj,
                        const std::vector<std::uint64_t>& durable_sizes) const;
  // Stores `resident` in the atomic and the gauge.
  void PublishResidentBytes(std::uint64_t resident);
  // Reads the frames of `targets` (evicted objects) with one ReadMany per
  // shard and materializes them; stops at the first failure.
  Status ReadAndMaterialize(const std::vector<RecoverableObject*>& targets);

  VolatileHeap* heap_;
  std::vector<StableLog*> logs_;
  ShardRouter router_;
  ResidencyConfig config_;

  struct Metrics {
    explicit Metrics(const obs::Scope& scope);
    obs::Gauge* resident_bytes;
    obs::Counter* evictions;
    obs::Counter* faults;         // objects rematerialized
    obs::Counter* fault_batches;  // per-shard ReadMany submissions
    obs::Counter* fault_reads;    // frames fetched by those submissions
    obs::Counter* pinned_skips;   // clock visits refused by pin/lock state
    obs::Counter* eviction_passes;
    obs::Histogram* fault_ns;
  };
  const Metrics metrics_;

  // The clock ring: every object but the root, in uid order. It is kept
  // between passes and rebuilt only when the heap's object count changes;
  // the heap never erases an object, so the pointers stay valid.
  std::vector<RecoverableObject*> ring_;
  // Clock hand: the uid the next sweep resumes at.
  Uid clock_hand_ = Uid::Root();

  std::atomic<std::uint64_t> resident_bytes_{0};
};

}  // namespace argus

#endif  // SRC_RESIDENCY_RESIDENCY_MANAGER_H_
