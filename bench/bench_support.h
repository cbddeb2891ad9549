// Shared workload builders for the benchmark harness, a thread-safe latency
// recorder for tail-latency counters, and the common main() that adds a
// --json flag (writes BENCH_<name>.json via benchmark's JSON reporter, plus
// BENCH_<name>.metrics.json — the obs registry snapshot).

#ifndef BENCH_BENCH_SUPPORT_H_
#define BENCH_BENCH_SUPPORT_H_

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/object/action_context.h"
#include "src/obs/metrics.h"
#include "src/recovery/recovery_system.h"

namespace argus {

// Collects per-operation latency samples from concurrent threads and reports
// order statistics. Tail latency is the whole point of the online-checkpoint
// work — averages hide a 10 ms stop-the-world pause behind thousands of
// sub-µs commits, percentiles don't.
//
// Every sample is mirrored into a registry histogram (`metric`, default
// "bench.latency_ns") so the BENCH_<name>.metrics.json snapshot carries the
// distribution alongside the exact percentile counters.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(const char* metric = "bench.latency_ns")
      : hist_(obs::GetHistogram(metric)) {}

  void Record(std::uint64_t ns) {
    hist_->Record(ns);
    std::lock_guard<std::mutex> l(mu_);
    samples_.push_back(ns);
  }

  std::size_t Count() const {
    std::lock_guard<std::mutex> l(mu_);
    return samples_.size();
  }

  // p in [0, 100]; p=50 median, p=100 max. 0 when no samples.
  std::uint64_t PercentileNs(double p) const {
    std::lock_guard<std::mutex> l(mu_);
    if (samples_.empty()) {
      return 0;
    }
    std::vector<std::uint64_t> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    std::size_t index = static_cast<std::size_t>(rank + 0.5);
    return sorted[std::min(index, sorted.size() - 1)];
  }

  std::uint64_t MaxNs() const { return PercentileNs(100.0); }

  void Reset() {
    std::lock_guard<std::mutex> l(mu_);
    samples_.clear();
  }

  // Publishes the standard percentile counters (µs) on a benchmark state.
  void ExportCounters(benchmark::State& state, const std::string& prefix) const {
    state.counters[prefix + "_p50_us"] =
        benchmark::Counter(static_cast<double>(PercentileNs(50.0)) / 1e3);
    state.counters[prefix + "_p99_us"] =
        benchmark::Counter(static_cast<double>(PercentileNs(99.0)) / 1e3);
    state.counters[prefix + "_max_us"] =
        benchmark::Counter(static_cast<double>(MaxNs()) / 1e3);
  }

 private:
  obs::Histogram* hist_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> samples_;
};

// main() body shared by every bench binary: strips our --json flag and, when
// present, injects benchmark's JSON reporter args so the run also writes
// BENCH_<name>.json next to the working directory (machine-readable snapshot
// for EXPERIMENTS.md and CI).
inline int RunBenchMain(const char* bench_name, int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 2);
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json = true;
      continue;
    }
    storage.emplace_back(argv[i]);
  }
  if (json) {
    std::string name = bench_name;
    if (name.rfind("bench_", 0) == 0) {
      name = name.substr(6);  // BENCH_workload.json, not BENCH_bench_workload.json
    }
    storage.push_back("--benchmark_out=BENCH_" + name + ".json");
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) {
    args.push_back(s.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (json) {
    // Registry snapshot alongside the benchmark output: every counter, gauge,
    // and histogram the run touched, in the argus.metrics.v1 schema
    // (schema-checked by tools/check_metrics_schema.py in CI).
    std::string name = bench_name;
    if (name.rfind("bench_", 0) == 0) {
      name = name.substr(6);
    }
    std::string path = "BENCH_" + name + ".metrics.json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out != nullptr) {
      std::string doc = obs::Registry::Global().ToJson();
      std::fwrite(doc.data(), 1, doc.size(), out);
      std::fputc('\n', out);
      std::fclose(out);
    }
  }
  return 0;
}

// The registry counter `name` as `scope` counts it (the unlabelled process
// total for an unscoped Scope). Values are cumulative for the process, so a
// bench reads it before and after the work it reports.
inline std::uint64_t CounterValue(std::string_view name, const obs::Scope& scope = {}) {
  return scope.GetCounter(name)->Value();
}

// A BenchGuardian, and guardian 0 of a SimWorld, counts its one log here.
inline const obs::Scope kGuardian0Log{.guardian = 0, .shard = 0};

inline RecoverySystemConfig BenchConfig(LogMode mode) {
  RecoverySystemConfig config;
  config.mode = mode;
  config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
  return config;
}

// A guardian storage stack for benchmarks: heap + recovery system + per-action
// contexts, with `object_count` stable atomic objects "obj<i>" of `value_size`
// bytes payload.
class BenchGuardian {
 public:
  BenchGuardian(LogMode mode, std::size_t object_count, std::size_t value_size)
      : BenchGuardian(BenchConfig(mode), object_count, value_size) {}

  // Full-config variant (duplexed media, group commit, ...).
  BenchGuardian(const RecoverySystemConfig& config, std::size_t object_count,
                std::size_t value_size)
      : mode_(config.mode), object_count_(object_count), value_size_(value_size) {
    heap_ = std::make_unique<VolatileHeap>();
    rs_ = std::make_unique<RecoverySystem>(config, heap_.get());
    ActionId t0 = NewAction();
    ActionContext ctx(t0);
    Value::Record root;
    objects_.reserve(object_count);
    for (std::size_t i = 0; i < object_count; ++i) {
      RecoverableObject* obj = ctx.CreateAtomic(*heap_, MakeValue(0));
      objects_.push_back(obj);
      root["obj" + std::to_string(i)] = Value::Ref(obj);
    }
    Status s = ctx.UpdateObject(heap_->root(), [&](Value& r) { r.as_record() = root; });
    ARGUS_CHECK(s.ok());
    s = rs_->Prepare(t0, ctx.TakeMos());
    ARGUS_CHECK(s.ok());
    s = rs_->Commit(t0);
    ARGUS_CHECK(s.ok());
    ctx.CommitVolatile(*heap_);
  }

  // A string payload of value_size bytes tagged with `v`.
  Value MakeValue(std::int64_t v) {
    std::string payload(value_size_, 'x');
    return Value::OfRecord({{"v", Value::Int(v)}, {"pad", Value::Str(std::move(payload))}});
  }

  ActionId NewAction() { return ActionId{GuardianId{0}, next_seq_++}; }

  // One committed action modifying `writes` distinct objects.
  void CommitAction(Rng& rng, std::size_t writes) {
    ActionId aid = NewAction();
    ActionContext ctx(aid);
    for (std::size_t i = 0; i < writes; ++i) {
      std::size_t index =
          static_cast<std::size_t>((rng.NextU64() % object_count_ + i) % object_count_);
      Status s = ctx.WriteObject(objects_[index],
                                 MakeValue(static_cast<std::int64_t>(rng.NextU64() % 1000)));
      if (!s.ok()) {
        continue;  // self-conflict on duplicate index; skip
      }
    }
    Status s = rs_->Prepare(aid, ctx.TakeMos());
    ARGUS_CHECK(s.ok());
    s = rs_->Commit(aid);
    ARGUS_CHECK(s.ok());
    ctx.CommitVolatile(*heap_);
  }

  RecoverySystem& rs() { return *rs_; }
  VolatileHeap& heap() { return *heap_; }
  LogMode mode() const { return mode_; }

  // Crash and hand the surviving log to the caller.
  std::unique_ptr<StableLog> CrashAndTakeLog() {
    std::unique_ptr<StableLog> log = rs_->TakeLog();
    rs_.reset();
    heap_.reset();
    objects_.clear();
    return log;
  }

 private:
  LogMode mode_;
  std::size_t object_count_;
  std::size_t value_size_;
  std::unique_ptr<VolatileHeap> heap_;
  std::unique_ptr<RecoverySystem> rs_;
  std::vector<RecoverableObject*> objects_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace argus

// Replaces BENCHMARK_MAIN(): `./bench_foo --json` additionally writes
// BENCH_foo.json (pass the bare binary name, no quotes).
#define ARGUS_BENCH_MAIN(name)                                  \
  int main(int argc, char** argv) {                             \
    return ::argus::RunBenchMain(#name, argc, argv);            \
  }

#endif  // BENCH_BENCH_SUPPORT_H_
