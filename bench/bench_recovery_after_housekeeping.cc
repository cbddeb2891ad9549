// Experiment E4 — recovery before vs after a checkpoint (ch. 5 intro).
//
// Claim: housekeeping bounds the log a recovery must look at. For the same
// history length we recover (a) the raw log and (b) the checkpointed log, and
// report entries examined + time.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"
#include "src/recovery/recovery_algorithms.h"

namespace argus {
namespace {

constexpr std::size_t kLiveObjects = 32;
constexpr std::size_t kValueSize = 64;

std::unique_ptr<StableLog> BuildLog(std::size_t history, bool housekeep,
                                    HousekeepingMethod method) {
  BenchGuardian guardian(LogMode::kHybrid, kLiveObjects, kValueSize);
  Rng rng(13);
  for (std::size_t i = 0; i < history; ++i) {
    guardian.CommitAction(rng, 4);
  }
  if (housekeep) {
    Status s = guardian.rs().Housekeep(method);
    ARGUS_CHECK(s.ok());
  }
  std::unique_ptr<StableLog> log = guardian.CrashAndTakeLog();
  ARGUS_CHECK(log->RecoverAfterCrash().ok());
  return log;
}

void RunRecovery(benchmark::State& state, bool housekeep, HousekeepingMethod method) {
  std::unique_ptr<StableLog> log =
      BuildLog(static_cast<std::size_t>(state.range(0)), housekeep, method);
  std::uint64_t entries = 0;
  for (auto _ : state) {
    VolatileHeap heap;
    Result<RecoveryResult> r = RecoverHybridLog(*log, heap);
    ARGUS_CHECK(r.ok());
    entries = r.value().entries_examined;
    benchmark::DoNotOptimize(r.value().ot.size());
  }
  state.counters["entries_examined"] = benchmark::Counter(static_cast<double>(entries));
  state.counters["log_bytes"] = benchmark::Counter(static_cast<double>(log->durable_size()));
}

void BM_RecoveryRawLog(benchmark::State& state) {
  RunRecovery(state, false, HousekeepingMethod::kCompaction);
}
void BM_RecoveryAfterCompaction(benchmark::State& state) {
  RunRecovery(state, true, HousekeepingMethod::kCompaction);
}
void BM_RecoveryAfterSnapshot(benchmark::State& state) {
  RunRecovery(state, true, HousekeepingMethod::kSnapshot);
}

BENCHMARK(BM_RecoveryRawLog)->Arg(512)->Arg(2048)->Arg(8192)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RecoveryAfterCompaction)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RecoveryAfterSnapshot)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_recovery_after_housekeeping)
