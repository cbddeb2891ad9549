// Experiment E2 — recovery cost (§1.2.2, §4.1) — and E11 — the hybrid
// restart with and without the block read cache.
//
// E2 claim: simple-log recovery "tends to be slow because the entire log must
// be consulted"; hybrid recovery is faster (it walks only the outcome chain
// and dereferences the data entries it actually copies); shadowing recovery is
// fastest (read the map). We build a history of `history_len` committed
// actions over a small live set and measure time plus entries examined.
//
// E11 claim: the hybrid restart is a streaming read workload, so a block
// cache with chain-directed read-ahead pays wherever medium reads cost
// something. Both variants run the same serial chain walk with the same CRC
// implementation; the only difference is the cache (off: two medium reads
// per frame). Measured on in-memory and duplexed media; the large history
// (~10^6 log entries, ARGUS_BENCH_LARGE=1) is recorded in BENCH_recovery.json.
// Run each variant in its own process (--benchmark_filter): in one process
// the large rows move with run order.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"
#include "src/recovery/recovery_algorithms.h"
#include "src/shadow/shadow_store.h"
#include "src/stable/duplexed_medium.h"

namespace argus {
namespace {

constexpr std::size_t kLiveObjects = 64;
constexpr std::size_t kValueSize = 64;
constexpr std::size_t kWritesPerAction = 4;

std::unique_ptr<StableLog> BuildHistory(LogMode mode, std::size_t history_len) {
  BenchGuardian guardian(mode, kLiveObjects, kValueSize);
  Rng rng(7);
  for (std::size_t i = 0; i < history_len; ++i) {
    guardian.CommitAction(rng, kWritesPerAction);
  }
  std::unique_ptr<StableLog> log = guardian.CrashAndTakeLog();
  ARGUS_CHECK(log->RecoverAfterCrash().ok());
  return log;
}

void RunRecovery(benchmark::State& state, LogMode mode) {
  std::size_t history_len = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<StableLog> log = BuildHistory(mode, history_len);
  std::uint64_t entries = 0;
  std::uint64_t data_reads = 0;
  for (auto _ : state) {
    VolatileHeap heap;
    Result<RecoveryResult> r = mode == LogMode::kSimple ? RecoverSimpleLog(*log, heap)
                                                        : RecoverHybridLog(*log, heap);
    ARGUS_CHECK(r.ok());
    entries = r.value().entries_examined;
    data_reads = r.value().data_entries_read;
    benchmark::DoNotOptimize(r.value().ot.size());
  }
  state.counters["entries_examined"] = benchmark::Counter(static_cast<double>(entries));
  state.counters["data_entries_read"] = benchmark::Counter(static_cast<double>(data_reads));
  state.counters["log_bytes"] = benchmark::Counter(static_cast<double>(log->durable_size()));
}

void BM_SimpleLogRecovery(benchmark::State& state) { RunRecovery(state, LogMode::kSimple); }
void BM_HybridLogRecovery(benchmark::State& state) { RunRecovery(state, LogMode::kHybrid); }

void BM_ShadowRecovery(benchmark::State& state) {
  std::size_t history_len = static_cast<std::size_t>(state.range(0));
  ShadowStore store(std::make_unique<InMemoryStableMedium>());
  std::vector<std::byte> payload(kValueSize, std::byte{'x'});
  Rng rng(7);
  for (std::size_t i = 0; i < kLiveObjects; ++i) {
    ActionId t{GuardianId{0}, i + 1};
    ARGUS_CHECK(store.Prepare(t, {{Uid{i}, payload}}).ok());
    ARGUS_CHECK(store.Commit(t).ok());
  }
  for (std::size_t i = 0; i < history_len; ++i) {
    ActionId t{GuardianId{0}, 1000 + i};
    std::vector<std::pair<Uid, std::vector<std::byte>>> versions;
    for (std::size_t j = 0; j < kWritesPerAction; ++j) {
      versions.emplace_back(Uid{rng.NextU64() % kLiveObjects}, payload);
    }
    ARGUS_CHECK(store.Prepare(t, versions).ok());
    ARGUS_CHECK(store.Commit(t).ok());
  }
  for (auto _ : state) {
    Result<std::size_t> r = store.Recover();
    ARGUS_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value());
  }
  state.counters["entries_examined"] =
      benchmark::Counter(static_cast<double>(kLiveObjects));  // the map entries
}

BENCHMARK(BM_SimpleLogRecovery)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HybridLogRecovery)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ShadowRecovery)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

// ---- E11: hybrid restart, cache off vs on --------------------------------

RecoverySystemConfig HybridConfig(bool duplexed) {
  RecoverySystemConfig config;
  config.mode = LogMode::kHybrid;
  if (duplexed) {
    config.medium_factory = [] { return std::make_unique<DuplexedStableMedium>(); };
  } else {
    config.medium_factory = [] { return std::make_unique<InMemoryStableMedium>(); };
  }
  return config;
}

// Histories are expensive to build (the large one is ~10^6 entries on
// duplexed media) and both cache variants must recover the *same* log, so
// each (medium, history) log is built once and shared.
StableLog* SharedHybridLog(bool duplexed, std::size_t history_len) {
  static std::map<std::pair<bool, std::size_t>, std::unique_ptr<StableLog>> logs;
  auto key = std::make_pair(duplexed, history_len);
  auto it = logs.find(key);
  if (it == logs.end()) {
    BenchGuardian guardian(HybridConfig(duplexed), kLiveObjects, kValueSize);
    Rng rng(7);
    for (std::size_t i = 0; i < history_len; ++i) {
      guardian.CommitAction(rng, kWritesPerAction);
    }
    std::unique_ptr<StableLog> log = guardian.CrashAndTakeLog();
    ARGUS_CHECK(log->RecoverAfterCrash().ok());
    it = logs.emplace(key, std::move(log)).first;
  }
  return it->second.get();
}

void RunHybridVariant(benchmark::State& state, bool duplexed, bool cached) {
  StableLog* log = SharedHybridLog(duplexed, static_cast<std::size_t>(state.range(0)));
  // The log's read cache counts under the log's scope.
  auto counted = [log](const char* name) {
    return static_cast<double>(log->scope().GetCounter(name)->Value());
  };
  const double bytes_before = counted("stable.cache.bytes_from_medium");
  const double hits_before = counted("stable.cache.hits");
  const double misses_before = counted("stable.cache.misses");
  const double readahead_before = counted("stable.cache.readahead_blocks");
  std::uint64_t entries = 0;
  std::uint64_t data_reads = 0;
  for (auto _ : state) {
    // Cold restart each iteration: a fresh process has no cached blocks.
    log->read_cache().Clear();
    log->read_cache().SetEnabled(cached);
    VolatileHeap heap;
    Result<RecoveryResult> r = RecoverHybridLog(*log, heap);
    ARGUS_CHECK(r.ok());
    entries = r.value().entries_examined;
    data_reads = r.value().data_entries_read;
    benchmark::DoNotOptimize(r.value().ot.size());
  }
  double iters = static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  auto delta = [&](const char* name, double before) { return (counted(name) - before) / iters; };
  state.counters["entries_examined"] = benchmark::Counter(static_cast<double>(entries));
  state.counters["data_entries_read"] = benchmark::Counter(static_cast<double>(data_reads));
  state.counters["log_bytes"] = benchmark::Counter(static_cast<double>(log->durable_size()));
  double hits = delta("stable.cache.hits", hits_before);
  double misses = delta("stable.cache.misses", misses_before);
  state.counters["medium_bytes_read"] =
      benchmark::Counter(delta("stable.cache.bytes_from_medium", bytes_before));
  state.counters["cache_misses"] = benchmark::Counter(misses);
  state.counters["cache_hit_rate"] =
      benchmark::Counter(hits + misses == 0 ? 0.0 : hits / (hits + misses));
  state.counters["readahead_blocks"] =
      benchmark::Counter(delta("stable.cache.readahead_blocks", readahead_before));
}

void BM_HybridRestartUncached_Mem(benchmark::State& state) {
  RunHybridVariant(state, /*duplexed=*/false, /*cached=*/false);
}
void BM_HybridRestartCached_Mem(benchmark::State& state) {
  RunHybridVariant(state, /*duplexed=*/false, /*cached=*/true);
}
void BM_HybridRestartUncached_Duplexed(benchmark::State& state) {
  RunHybridVariant(state, /*duplexed=*/true, /*cached=*/false);
}
void BM_HybridRestartCached_Duplexed(benchmark::State& state) {
  RunHybridVariant(state, /*duplexed=*/true, /*cached=*/true);
}

// ~6 log entries per action (4 data + prepared + committed): the default arg
// is a quick smoke; ARGUS_BENCH_LARGE=1 adds the >=10^6-entry north-star log.
void HybridRestartArgs(benchmark::internal::Benchmark* b) {
  b->Arg(4096)->Unit(benchmark::kMillisecond);
  if (std::getenv("ARGUS_BENCH_LARGE") != nullptr) {
    b->Arg(175000);
  }
}

BENCHMARK(BM_HybridRestartUncached_Mem)->Apply(HybridRestartArgs);
BENCHMARK(BM_HybridRestartCached_Mem)->Apply(HybridRestartArgs);
BENCHMARK(BM_HybridRestartUncached_Duplexed)->Apply(HybridRestartArgs);
BENCHMARK(BM_HybridRestartCached_Duplexed)->Apply(HybridRestartArgs);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_recovery)
