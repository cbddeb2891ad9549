// E17 — the beyond-RAM object store. A working set several times larger than
// the memory budget runs a skewed read/write mix; the ResidencyManager demotes
// cold committed objects to log stubs and faults them back through the
// batched validated read path. Reported per budget ratio (arg 0 = the
// all-resident paper baseline):
//   - throughput (actions/s) vs the baseline
//   - resident_mb and under_watermark (1 when the budget held after warm-up)
//   - faults, fault_batches, reads_per_fault (batching efficiency: ~1 frame
//     per faulted object, never 2+)
//   - fault latency percentiles (also residency.fault_ns in the metrics
//     snapshot, alongside the residency.* counters)
//
// `./bench_residency --json` writes BENCH_residency.json +
// BENCH_residency.metrics.json (schema-checked in CI with
// `--require residency.`).

#include <chrono>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"
#include "src/residency/residency_manager.h"

namespace argus {
namespace {

constexpr std::size_t kObjects = 1024;
constexpr std::size_t kValueBytes = 2048;

// Object pointers survive eviction (the stub keeps the RecoverableObject
// alive), so collecting them once from the root record is safe.
std::vector<RecoverableObject*> CollectObjects(BenchGuardian& guard) {
  std::vector<RecoverableObject*> out;
  out.reserve(kObjects);
  const Value::Record& root = guard.heap().root()->base_version().as_record();
  for (std::size_t i = 0; i < kObjects; ++i) {
    out.push_back(root.at("obj" + std::to_string(i)).as_ref());
  }
  return out;
}

// A BenchGuardian is guardian 0; its residency manager counts here.
const obs::Scope kGuardian0{.guardian = 0};

// What that manager has counted; the difference of two reads is what
// happened between them.
struct ResidencyCounts {
  std::uint64_t evictions = CounterValue("residency.evictions", kGuardian0);
  std::uint64_t faults = CounterValue("residency.faults", kGuardian0);
  std::uint64_t fault_batches = CounterValue("residency.fault_batches", kGuardian0);
  std::uint64_t fault_reads = CounterValue("residency.fault_reads", kGuardian0);

  ResidencyCounts operator-(const ResidencyCounts& base) const {
    ResidencyCounts d = *this;
    d.evictions -= base.evictions;
    d.faults -= base.faults;
    d.fault_batches -= base.fault_batches;
    d.fault_reads -= base.fault_reads;
    return d;
  }
};

// arg: working-set-to-budget ratio; 0 = no budget (all resident).
void BM_ResidencyWorkload(benchmark::State& state) {
  const std::uint64_t ratio = static_cast<std::uint64_t>(state.range(0));
  RecoverySystemConfig config = BenchConfig(LogMode::kHybrid);
  if (ratio > 0) {
    config.residency.mem_budget_bytes = (kObjects * kValueBytes) / ratio;
  }
  const ResidencyCounts before;
  BenchGuardian guard(config, kObjects, kValueBytes);
  ResidencyManager* rm = guard.rs().residency();
  std::vector<RecoverableObject*> objects = CollectObjects(guard);

  // Warm up: one pass demotes the cold bulk before timing starts, so the
  // steady state (not the initial drain) is what the loop measures.
  if (rm != nullptr) {
    rm->RunEvictionPass();
  }

  LatencyRecorder fault_latency("residency.bench_fault_ns");
  Rng rng(1234);
  std::uint64_t actions = 0;
  std::uint64_t over_watermark_checks = 0;
  for (auto _ : state) {
    ActionId aid = guard.NewAction();
    ActionContext ctx(aid);
    if (rm != nullptr) {
      ctx.BindResidency(rm);
    }
    // Skewed touch pattern: half the traffic hits an 1/8th-sized hot set, so
    // the clock has a real cold tail to demote.
    std::size_t hot = kObjects / 8;
    std::size_t index = rng.NextBool(0.5) ? rng.NextU64() % hot : rng.NextU64() % kObjects;
    RecoverableObject* obj = objects[index];
    bool was_evicted = obj->evicted();
    auto fault_start = std::chrono::steady_clock::now();
    Status s = ctx.WriteObject(obj, guard.MakeValue(static_cast<std::int64_t>(actions)));
    ARGUS_CHECK_MSG(s.ok(), s.message().c_str());
    if (was_evicted) {
      fault_latency.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - fault_start)
              .count()));
    }
    s = guard.rs().Prepare(aid, ctx.TakeMos());
    ARGUS_CHECK(s.ok());
    s = guard.rs().Commit(aid);
    ARGUS_CHECK(s.ok());
    ctx.CommitVolatile(guard.heap());

    ++actions;
    if (rm != nullptr && actions % 8 == 0) {
      rm->RunEvictionPass();
      if (rm->resident_bytes() > rm->high_watermark_bytes()) {
        ++over_watermark_checks;
      }
    }
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(actions));
  if (rm != nullptr) {
    const ResidencyCounts rs = ResidencyCounts() - before;
    state.counters["resident_mb"] =
        benchmark::Counter(static_cast<double>(rm->resident_bytes()) / (1024.0 * 1024.0));
    state.counters["budget_mb"] = benchmark::Counter(
        static_cast<double>(rm->config().mem_budget_bytes) / (1024.0 * 1024.0));
    state.counters["under_watermark"] =
        benchmark::Counter(over_watermark_checks == 0 ? 1.0 : 0.0);
    state.counters["evictions"] = benchmark::Counter(static_cast<double>(rs.evictions));
    state.counters["faults"] = benchmark::Counter(static_cast<double>(rs.faults));
    state.counters["fault_batches"] =
        benchmark::Counter(static_cast<double>(rs.fault_batches));
    state.counters["reads_per_fault"] = benchmark::Counter(
        rs.faults == 0 ? 0.0
                       : static_cast<double>(rs.fault_reads) / static_cast<double>(rs.faults));
    fault_latency.ExportCounters(state, "fault");
  } else {
    state.counters["resident_mb"] = benchmark::Counter(0.0);  // unbounded baseline
  }
}

BENCHMARK(BM_ResidencyWorkload)
    ->Arg(0)   // all resident: the paper's baseline
    ->Arg(4)   // working set 4x the budget
    ->Arg(8)   // 8x
    ->Unit(benchmark::kMicrosecond);

// Cold-scan fault storm: after the working set is fully demoted, touch every
// object once in uid order; reads_per_fault shows one validated frame read
// per rematerialized object.
void BM_ResidencyColdScan(benchmark::State& state) {
  const std::uint64_t ratio = static_cast<std::uint64_t>(state.range(0));
  RecoverySystemConfig config = BenchConfig(LogMode::kHybrid);
  config.residency.mem_budget_bytes = (kObjects * kValueBytes) / ratio;
  const ResidencyCounts before;
  BenchGuardian guard(config, kObjects, kValueBytes);
  ResidencyManager* rm = guard.rs().residency();
  ARGUS_CHECK(rm != nullptr);
  std::vector<RecoverableObject*> objects = CollectObjects(guard);

  std::uint64_t scans = 0;
  for (auto _ : state) {
    state.PauseTiming();
    while (rm->RunEvictionPass() > 0) {
    }
    state.ResumeTiming();
    ActionId aid = guard.NewAction();
    ActionContext ctx(aid);
    ctx.BindResidency(rm);
    for (RecoverableObject* obj : objects) {
      Result<const Value*> v = ctx.ReadObject(obj);
      ARGUS_CHECK_MSG(v.ok(), v.status().message().c_str());
      benchmark::DoNotOptimize(*v.value());
    }
    ctx.AbortVolatile(guard.heap());
    ++scans;
  }

  const ResidencyCounts rs = ResidencyCounts() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(scans * kObjects));
  state.counters["faults"] = benchmark::Counter(static_cast<double>(rs.faults));
  state.counters["reads_per_fault"] = benchmark::Counter(
      rs.faults == 0 ? 0.0
                     : static_cast<double>(rs.fault_reads) / static_cast<double>(rs.faults));
}

BENCHMARK(BM_ResidencyColdScan)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_residency)
