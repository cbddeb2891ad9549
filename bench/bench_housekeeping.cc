// Experiment E3 — housekeeping cost (§5.3).
//
// Claim: "the snapshot takes an amount of time roughly proportional to the
// number of accessible recoverable objects; the compaction method would take
// much longer since it must process all outcome entries as well as all
// accessible objects."
//
// Two sweeps: (a) fixed live set, growing history — compaction cost grows,
// snapshot cost stays flat; (b) fixed history, growing live set — both grow.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

namespace argus {
namespace {

constexpr std::size_t kValueSize = 64;
constexpr std::size_t kWritesPerAction = 4;

void RunHousekeepingSweep(benchmark::State& state, HousekeepingMethod method,
                          bool sweep_history) {
  std::size_t live = sweep_history ? 32 : static_cast<std::size_t>(state.range(0));
  std::size_t history = sweep_history ? static_cast<std::size_t>(state.range(0)) : 512;

  std::uint64_t new_entries = 0;
  std::uint64_t checkpointed = 0;
  std::uint64_t old_cache_hits = 0;
  std::uint64_t old_cache_misses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // The guardian's log counts under kGuardian0Log, and so does the log a
    // checkpoint swaps in. The swap only appends to the new log, so the
    // cache reads counted over the guardian's life up to the swap are the
    // old log's: stage 1's replay reads (ReadOldData) among them.
    const std::uint64_t hits_before = CounterValue("stable.cache.hits", kGuardian0Log);
    const std::uint64_t misses_before = CounterValue("stable.cache.misses", kGuardian0Log);
    BenchGuardian guardian(LogMode::kHybrid, live, kValueSize);
    Rng rng(5);
    for (std::size_t i = 0; i < history; ++i) {
      guardian.CommitAction(rng, kWritesPerAction);
    }
    state.ResumeTiming();
    Status s = guardian.rs().Housekeep(method);
    ARGUS_CHECK(s.ok());
    state.PauseTiming();
    new_entries = guardian.rs().log().entries_written();
    checkpointed = guardian.rs().log().durable_size();
    old_cache_hits += CounterValue("stable.cache.hits", kGuardian0Log) - hits_before;
    old_cache_misses += CounterValue("stable.cache.misses", kGuardian0Log) - misses_before;
    state.ResumeTiming();
  }
  state.counters["new_log_entries"] = benchmark::Counter(static_cast<double>(new_entries));
  state.counters["new_log_bytes"] = benchmark::Counter(static_cast<double>(checkpointed));
  std::uint64_t old_reads = old_cache_hits + old_cache_misses;
  state.counters["old_log_cache_hit_rate"] = benchmark::Counter(
      old_reads == 0 ? 0.0
                     : static_cast<double>(old_cache_hits) / static_cast<double>(old_reads));
}

void BM_CompactionByHistory(benchmark::State& state) {
  RunHousekeepingSweep(state, HousekeepingMethod::kCompaction, true);
}
void BM_SnapshotByHistory(benchmark::State& state) {
  RunHousekeepingSweep(state, HousekeepingMethod::kSnapshot, true);
}
void BM_CompactionByLiveSet(benchmark::State& state) {
  RunHousekeepingSweep(state, HousekeepingMethod::kCompaction, false);
}
void BM_SnapshotByLiveSet(benchmark::State& state) {
  RunHousekeepingSweep(state, HousekeepingMethod::kSnapshot, false);
}

// Iterations are capped explicitly: each iteration rebuilds the whole
// history outside the timed region, which dominates wall-clock if
// google-benchmark is left to chase its min_time on the (cheap) timed part.
BENCHMARK(BM_CompactionByHistory)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotByHistory)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompactionByLiveSet)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotByLiveSet)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_housekeeping)
