// Experiment E9 — group commit under concurrent guardians.
//
// Measures commits/sec and physical log forces as the number of client
// threads grows (1..16), with and without the flush coordinator. The claim
// under test: §3.1's force_write contract (forcing one entry flushes every
// older staged entry) lets N concurrent actions share one physical flush, so
// physical forces grow sublinearly in committed actions while throughput
// scales. Run with --benchmark_format=json for machine-readable output.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

#include "src/tpc/workload.h"

namespace argus {
namespace {

constexpr std::size_t kActionsPerIteration = 256;

void RunGroupCommit(benchmark::State& state, MediumKind medium) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const bool grouped = state.range(1) != 0;

  SimWorldConfig world_config;
  world_config.guardian_count = 1;  // one log: the contended resource
  world_config.mode = LogMode::kHybrid;
  world_config.medium = medium;
  world_config.seed = 47;
  if (grouped) {
    FlushCoordinatorConfig gc;
    // Linger briefly so followers can stage; stop early once every client
    // thread has a request pending.
    gc.batch_window = std::chrono::microseconds(100);
    gc.max_batch = threads;
    world_config.group_commit = gc;
  }
  // The guardian's log counts under kGuardian0Log; the counters below cover
  // its whole life, setup included.
  const obs::Histogram* wait_ns = kGuardian0Log.GetHistogram("log.force.wait_ns");
  const std::uint64_t forces_before = CounterValue("log.forces", kGuardian0Log);
  const std::uint64_t requests_before = CounterValue("log.force.requests", kGuardian0Log);
  const std::uint64_t coalesced_before = CounterValue("log.force.coalesced", kGuardian0Log);
  const std::uint64_t wait_ns_before = wait_ns->Sum();
  SimWorld world(world_config);

  WorkloadConfig config;
  config.seed = 47;
  config.abort_probability = 0.0;
  config.threads = threads;
  WorkloadDriver driver(&world, config);
  Status s = driver.Setup();
  ARGUS_CHECK(s.ok());

  for (auto _ : state) {
    s = driver.Run(kActionsPerIteration);
    ARGUS_CHECK(s.ok());
  }

  const double entries =
      static_cast<double>(world.guardian(0u).recovery().log().entries_written());
  const double forces =
      static_cast<double>(CounterValue("log.forces", kGuardian0Log) - forces_before);
  const double requests =
      static_cast<double>(CounterValue("log.force.requests", kGuardian0Log) - requests_before);
  const double coalesced =
      static_cast<double>(CounterValue("log.force.coalesced", kGuardian0Log) - coalesced_before);
  const double committed = static_cast<double>(driver.stats().committed);
  state.counters["commits"] = benchmark::Counter(committed, benchmark::Counter::kIsRate);
  state.counters["forces"] = benchmark::Counter(forces);
  state.counters["entries_per_force"] = benchmark::Counter(forces == 0 ? 0.0 : entries / forces);
  state.counters["commits_per_force"] =
      benchmark::Counter(forces == 0 ? 0.0 : committed / forces);
  state.counters["coalesced_share"] =
      benchmark::Counter(requests == 0 ? 0.0 : coalesced / requests);
  state.counters["avg_force_wait_us"] = benchmark::Counter(
      requests == 0 ? 0.0 : static_cast<double>(wait_ns->Sum() - wait_ns_before) / 1e3 / requests);
}

void BM_GroupCommitInMemory(benchmark::State& state) {
  RunGroupCommit(state, MediumKind::kInMemory);
}
void BM_GroupCommitDuplexed(benchmark::State& state) {
  RunGroupCommit(state, MediumKind::kDuplexed);
}

void ThreadSweep(benchmark::internal::Benchmark* b) {
  b->ArgNames({"threads", "grouped"});
  for (std::int64_t threads : {1, 2, 4, 8, 16}) {
    b->Args({threads, 0});
    b->Args({threads, 1});
  }
  b->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(BM_GroupCommitInMemory)->Apply(ThreadSweep);
BENCHMARK(BM_GroupCommitDuplexed)->Apply(ThreadSweep);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_group_commit)
