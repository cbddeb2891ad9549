// Process-wide metrics registry: cheap thread-safe counters, gauges, and
// fixed-bucket latency histograms, registered by name (with optional labels)
// and exportable as one JSON snapshot.
//
// Design rules, in tension and resolved in this order:
//  1. Hot paths stay hot. A Counter::Add is one relaxed atomic add behind one
//     relaxed flag load; handles are resolved once (registry mutex) and cached
//     by the instrumented site, so steady state never touches a map or lock.
//  2. Snapshots are advisory. Counters tick with relaxed ordering, so a JSON
//     snapshot taken while writers run is a consistent-enough view for
//     dashboards and benches, not a linearizable cut. Tests that assert exact
//     values quiesce the writers first (join threads).
//  3. Handles are immortal. The registry never deallocates a metric, so a
//     cached Counter* outlives every instrumented object; re-registering the
//     same name returns the same handle.
//  4. The registry is the only accounting path. An instrumented instance
//     counts through handles its Scope resolved when it was built (see Scope
//     below); it keeps no private stats struct.
//
// One disable path (the ≤5% bench_log_ops budget): SetEnabled(false) turns
// Add/Set/Record into a flag test. Nothing that decides what the system does
// may read a metric: with metrics disabled it would read a frozen value.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace argus::obs {

namespace detail {
// Single global switch for every metric and trace emission point.
extern std::atomic<bool> g_enabled;
}  // namespace detail

inline bool Enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

// Runtime toggle. Disabling does not clear accumulated values; it stops new
// ones. Returns the previous state (benches flip it around a hot loop).
bool SetEnabled(bool enabled);

// A monotone event count.
class Counter {
 public:
  void Add(std::uint64_t delta) {
    if (Enabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
      if (total_ != nullptr) {
        total_->value_.fetch_add(delta, std::memory_order_relaxed);
      }
    }
  }
  void Increment() { Add(1); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
  Counter* total_ = nullptr;  // the unlabelled entry a scoped handle also adds into
};

// A point-in-time double (sizes, rates, ratios). Last write wins.
class Gauge {
 public:
  void Set(double value) {
    if (Enabled()) {
      value_.store(value, std::memory_order_relaxed);
      if (total_ != nullptr) {
        total_->value_.store(value, std::memory_order_relaxed);
      }
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  friend class Registry;
  std::atomic<double> value_{0.0};
  Gauge* total_ = nullptr;
};

// A fixed-bucket histogram on power-of-two boundaries: bucket 0 counts value
// 0, bucket i counts [2^(i-1), 2^i). 48 buckets cover [0, 2^47) — enough for
// any nanosecond latency (≈39 h) or batch size this system produces; larger
// values clamp into the last bucket. Recording is wait-free (two relaxed adds
// plus a CAS-free max update); percentiles are bucket upper bounds, which is
// the right fidelity for a registry snapshot — benches that need exact order
// statistics keep their sample vectors and feed this as a mirror.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void Record(std::uint64_t value) {
    if (!Enabled()) {
      return;
    }
    RecordOne(value);
    if (total_ != nullptr) {
      total_->RecordOne(value);
    }
  }

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t BucketCount(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  // Upper bound of the bucket holding the p-th percentile sample (p in
  // [0, 100]); 0 when empty.
  std::uint64_t ApproxPercentile(double p) const;

  // Inclusive upper bound of bucket `index` (0 for bucket 0).
  static std::uint64_t BucketUpperBound(int index);

  void Reset();

 private:
  friend class Registry;
  static int BucketIndex(std::uint64_t value);

  void RecordOne(std::uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  Histogram* total_ = nullptr;
};

// Formats "name{k1=v1,k2=v2}" — the registry's labeling convention. Metrics
// with different labels are distinct entries under the same base name.
std::string Labeled(std::string_view name,
                    std::initializer_list<std::pair<std::string_view, std::string_view>> labels);

// The process-wide registry. Lookup is by full (labeled) name; the maps are
// ordered so JSON snapshots are deterministic.
class Registry {
 public:
  static Registry& Global();

  // `total`, when set, is the entry the new one also adds into (or, for a
  // gauge, also sets); it is fixed when the name is first registered.
  Counter* GetCounter(const std::string& name, Counter* total = nullptr);
  Gauge* GetGauge(const std::string& name, Gauge* total = nullptr);
  Histogram* GetHistogram(const std::string& name, Histogram* total = nullptr);

  // One JSON object: {"schema":"argus.metrics.v1","counters":{...},
  // "gauges":{...},"histograms":{name:{count,sum,max,p50,p99,p999,
  // buckets:[[upper,count],...]}}}. Zero-valued counters/gauges and empty
  // histograms are included — a registered name is part of the contract.
  std::string ToJson() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Shorthands for the global registry (resolve once, cache the pointer).
inline Counter* GetCounter(const std::string& name) {
  return Registry::Global().GetCounter(name);
}
inline Gauge* GetGauge(const std::string& name) { return Registry::Global().GetGauge(name); }
inline Histogram* GetHistogram(const std::string& name) {
  return Registry::Global().GetHistogram(name);
}

// Who an instrumented instance counts for: a guardian and, for the per-shard
// layers (log, read cache, flush coordinator, repair service), a shard. A
// handle resolved through a scope is the labelled entry
// "name{guardian=g,shard=s}" ("name{guardian=g}" without a shard), and every
// Add/Record on it also lands in the unlabelled entry "name", so the process
// totals count exactly what they would without labels; a scoped gauge also
// sets the unlabelled one (last write wins). A Scope without a guardian is
// unscoped: its handles are the unlabelled entries themselves. An instance
// resolves its handles once, when it is built; no hot path resolves one.
// Labelled values are cumulative for the process, like the totals: a test or
// bench that wants one phase takes a delta.
struct Scope {
  std::optional<std::uint32_t> guardian = std::nullopt;
  std::optional<std::uint32_t> shard = std::nullopt;

  // The registry name this scope counts `name` under.
  std::string Name(std::string_view name) const;

  Counter* GetCounter(std::string_view name) const;
  Gauge* GetGauge(std::string_view name) const;
  Histogram* GetHistogram(std::string_view name) const;
};

}  // namespace argus::obs

#endif  // SRC_OBS_METRICS_H_
