// Experiment E14 — shard-scaling of guardian recovery (DESIGN.md "Sharded
// logs").
//
// One guardian's stable state partitioned across N ∈ {1, 2, 4, 8} log shards
// over duplexed media wrapped in a LatencyStableMedium: every block fill pays
// a fixed device latency, so recovery is I/O-bound the way a disk-backed
// restart is. The same seeded workload is committed at every N (the shard
// map just spreads it), then the guardian crashes and the timed region runs
// RecoverHybridLog over the N shards with N workers against cold caches.
// Per-shard scan (head find plus decision pass) and apply (walk) timings land
// in the metrics registry (recovery.shard.{scan,apply}_ns labeled by shard),
// the build phase's force counts come from the registry too (the log.* totals
// and each shard's {guardian=0,shard=s} entries), and both ship in
// BENCH_shard_scaling.metrics.json when run with --json.
//
// ARGUS_BENCH_LARGE=1 selects the large configuration the E14 acceptance
// criterion is measured on (N=4 must recover ≥2x faster than N=1).
//
// BM_ShardedLocalCommit prices the write side's dependency rule (DESIGN.md
// D10) on the concurrent workload driver.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_support.h"

#include "src/recovery/recovery_algorithms.h"
#include "src/stable/duplexed_medium.h"
#include "src/stable/latency_medium.h"
#include "src/tpc/workload.h"

namespace argus {
namespace {

struct ShardBenchConfig {
  std::size_t objects = 24;
  std::size_t value_size = 256;
  std::size_t actions = 150;
  std::size_t writes_per_action = 2;
  std::chrono::microseconds read_latency{300};
};

ShardBenchConfig PickConfig() {
  ShardBenchConfig config;
  const char* large = std::getenv("ARGUS_BENCH_LARGE");
  if (large != nullptr && large[0] == '1') {
    config.objects = 48;
    config.value_size = 1024;
    config.actions = 600;
    config.writes_per_action = 3;
    config.read_latency = std::chrono::microseconds{1000};
  }
  return config;
}

// The guardian under test: hybrid mode, N shards, duplexed media behind the
// latency decorator. Appends stay free so the build phase is fast; only the
// recovery reads pay the device cost.
RecoverySystemConfig ShardedConfig(std::uint32_t shards, const ShardBenchConfig& bench) {
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  config.log_shards = shards;
  config.shard_salt = 0x5eedu;
  config.medium_factory = [latency = bench.read_latency] {
    return std::make_unique<LatencyStableMedium>(std::make_unique<DuplexedStableMedium>(),
                                                 latency);
  };
  return config;
}

void BM_ShardedRecovery(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const ShardBenchConfig bench = PickConfig();

  // Build the same committed history at every N, crash, and make the logs
  // readable again (RecoverAfterCrash also drops their block caches). Shard
  // s of the guardian counts under {guardian=0, shard=s} at every N, so the
  // build phase's largest force batch is read from histograms reset here.
  std::vector<obs::Histogram*> batch_entries;
  for (std::uint32_t s = 0; s < shards; ++s) {
    batch_entries.push_back(
        obs::Scope{.guardian = 0, .shard = s}.GetHistogram("log.force.batch_entries"));
    batch_entries.back()->Reset();
  }
  const std::uint64_t forces_before = CounterValue("log.forces");
  const std::uint64_t staged_before = CounterValue("log.entries_staged");
  RecoverySystem::SurvivingState surviving;
  {
    BenchGuardian guardian(ShardedConfig(shards, bench), bench.objects, bench.value_size);
    Rng rng(0xe14);
    for (std::size_t i = 0; i < bench.actions; ++i) {
      guardian.CommitAction(rng, bench.writes_per_action);
    }
    surviving = guardian.rs().TakeSurvivingState();
  }
  const std::uint64_t forces = CounterValue("log.forces") - forces_before;
  const std::uint64_t staged = CounterValue("log.entries_staged") - staged_before;
  std::uint64_t max_entries_per_force = 0;
  for (const obs::Histogram* h : batch_entries) {
    max_entries_per_force = std::max(max_entries_per_force, h->Max());
  }
  std::vector<StableLog*> raw;
  std::uint64_t total_durable = 0;
  std::uint64_t max_durable = 0;
  for (const auto& log : surviving.logs) {
    ARGUS_CHECK(log->RecoverAfterCrash().ok());
    total_durable += log->durable_size();
    max_durable = std::max(max_durable, log->durable_size());
    raw.push_back(log.get());
  }

  std::uint64_t recovered_objects = 0;
  for (auto _ : state) {
    // Cold-cache recovery each iteration: every block fill goes back to the
    // latency-charged medium, as it would on a real restart.
    for (StableLog* log : raw) {
      log->read_cache().Clear();
    }
    VolatileHeap heap;
    Result<RecoveryResult> result = RecoverHybridLog(raw, heap, shards);
    ARGUS_CHECK(result.ok());
    recovered_objects = result.value().ot.size();
  }

  state.counters["shards"] = benchmark::Counter(static_cast<double>(shards));
  state.counters["durable_bytes"] = benchmark::Counter(static_cast<double>(total_durable));
  // max/avg durable bytes: 1.0 means perfectly balanced shards; the skew is
  // the ceiling on parallel-recovery speedup.
  state.counters["shard_skew"] = benchmark::Counter(
      static_cast<double>(max_durable) /
      (static_cast<double>(total_durable) / static_cast<double>(raw.size())));
  state.counters["recovered_objects"] =
      benchmark::Counter(static_cast<double>(recovered_objects));
  state.counters["forces"] = benchmark::Counter(static_cast<double>(forces));
  state.counters["entries_per_force"] = benchmark::Counter(
      forces == 0 ? 0.0 : static_cast<double>(staged) / static_cast<double>(forces));
  state.counters["max_entries_per_force"] =
      benchmark::Counter(static_cast<double>(max_entries_per_force));
}
BENCHMARK(BM_ShardedRecovery)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.4);

// What the dependency rule costs (DESIGN.md D10): one guardian's concurrent
// local commits through the workload driver, with group commit and no linger
// on duplexed media, at 1 and 4 shards. At 4 shards a commit that touched an
// object whose last writer's commit record is still unforced on another
// shard waits for it first; waited_share is the share of commits that did.
// At 1 shard nothing waits.
void BM_ShardedLocalCommit(benchmark::State& state) {
  constexpr std::size_t kActions = 256;
  SimWorldConfig world_config;
  world_config.mode = LogMode::kHybrid;
  world_config.medium = MediumKind::kDuplexed;
  world_config.seed = 0xe14;
  world_config.group_commit = FlushCoordinatorConfig{};
  world_config.log_shards = static_cast<std::uint32_t>(state.range(0));
  SimWorld world(world_config);
  WorkloadConfig config;
  config.seed = 0xe14;
  config.abort_probability = 0.0;
  config.threads = static_cast<std::size_t>(state.range(1));
  config.objects_per_guardian = static_cast<std::size_t>(state.range(2));
  WorkloadDriver driver(&world, config);
  ARGUS_CHECK(driver.Setup().ok());
  const obs::Scope scope{.guardian = 0};
  const std::uint64_t waits_before = CounterValue("tpc.local.dependency_waits", scope);
  for (auto _ : state) {
    ARGUS_CHECK(driver.Run(kActions).ok());
  }
  const double committed = static_cast<double>(driver.stats().committed);
  const double waits =
      static_cast<double>(CounterValue("tpc.local.dependency_waits", scope) - waits_before);
  state.counters["commits"] = benchmark::Counter(committed, benchmark::Counter::kIsRate);
  state.counters["waited_share"] = benchmark::Counter(committed == 0 ? 0.0 : waits / committed);
}
BENCHMARK(BM_ShardedLocalCommit)
    ->ArgNames({"shards", "threads", "objects"})
    ->ArgsProduct({{1, 4}, {3, 4}, {8, 64}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_shard_scaling)
