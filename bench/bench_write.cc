// Experiment E1 — writing cost (§1.2.2, §4.1).
//
// Claim: "Log ⇒ fast writing … Shadowing ⇒ slow writing"; the hybrid log
// writes "almost as fast as the pure log". Shadowing's commit cost grows with
// the TOTAL number of objects (the whole map is rewritten per commit), while
// both log organizations pay only for the modified set.
//
// Each benchmark commits one action that modifies `writes_per_action` objects
// out of `total_objects`, and reports bytes_forced/commit — the stable-storage
// currency the thesis argues in.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"
#include "src/shadow/shadow_store.h"

namespace argus {
namespace {

constexpr std::size_t kWritesPerAction = 8;
constexpr std::size_t kValueSize = 64;

void RunLogCommit(benchmark::State& state, LogMode mode) {
  std::size_t total_objects = static_cast<std::size_t>(state.range(0));
  // forces/commit counts every force of the guardian's life, setup included.
  const std::uint64_t forces_before = CounterValue("log.forces", kGuardian0Log);
  BenchGuardian guardian(mode, total_objects, kValueSize);
  Rng rng(42);
  std::uint64_t bytes_before = CounterValue("log.bytes_forced", kGuardian0Log);
  std::uint64_t commits = 0;
  for (auto _ : state) {
    guardian.CommitAction(rng, kWritesPerAction);
    ++commits;
  }
  std::uint64_t bytes = CounterValue("log.bytes_forced", kGuardian0Log) - bytes_before;
  state.counters["bytes/commit"] =
      benchmark::Counter(static_cast<double>(bytes) / static_cast<double>(commits));
  state.counters["forces/commit"] = benchmark::Counter(
      static_cast<double>(CounterValue("log.forces", kGuardian0Log) - forces_before) /
      static_cast<double>(commits));
}

void BM_SimpleLogCommit(benchmark::State& state) { RunLogCommit(state, LogMode::kSimple); }
void BM_HybridLogCommit(benchmark::State& state) { RunLogCommit(state, LogMode::kHybrid); }

void BM_ShadowCommit(benchmark::State& state) {
  std::size_t total_objects = static_cast<std::size_t>(state.range(0));
  auto medium = std::make_unique<InMemoryStableMedium>();
  InMemoryStableMedium* medium_ptr = medium.get();
  ShadowStore store(std::move(medium));
  std::vector<std::byte> payload(kValueSize, std::byte{'x'});
  // Install the full object population first.
  for (std::uint64_t i = 0; i < total_objects; ++i) {
    ActionId t{GuardianId{0}, i + 1};
    Status s = store.Prepare(t, {{Uid{i}, payload}});
    ARGUS_CHECK(s.ok());
    s = store.Commit(t);
    ARGUS_CHECK(s.ok());
  }
  Rng rng(42);
  std::uint64_t seq = total_objects + 1;
  std::uint64_t bytes_before = medium_ptr->physical_bytes_written();
  std::uint64_t commits = 0;
  for (auto _ : state) {
    ActionId t{GuardianId{0}, seq++};
    std::vector<std::pair<Uid, std::vector<std::byte>>> versions;
    versions.reserve(kWritesPerAction);
    for (std::size_t i = 0; i < kWritesPerAction; ++i) {
      versions.emplace_back(Uid{rng.NextU64() % total_objects}, payload);
    }
    Status s = store.Prepare(t, versions);
    ARGUS_CHECK(s.ok());
    s = store.Commit(t);
    ARGUS_CHECK(s.ok());
    ++commits;
  }
  std::uint64_t bytes = medium_ptr->physical_bytes_written() - bytes_before;
  state.counters["bytes/commit"] =
      benchmark::Counter(static_cast<double>(bytes) / static_cast<double>(commits));
}

BENCHMARK(BM_SimpleLogCommit)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_HybridLogCommit)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_ShadowCommit)->Arg(64)->Arg(512)->Arg(4096);

// Sweep the write-set size at fixed population: log cost tracks the write
// set; shadow cost stays dominated by the map.
void BM_HybridLogCommitByWriteSet(benchmark::State& state) {
  BenchGuardian guardian(LogMode::kHybrid, 1024, kValueSize);
  Rng rng(42);
  std::uint64_t bytes_before = CounterValue("log.bytes_forced", kGuardian0Log);
  std::uint64_t commits = 0;
  for (auto _ : state) {
    guardian.CommitAction(rng, static_cast<std::size_t>(state.range(0)));
    ++commits;
  }
  std::uint64_t bytes = CounterValue("log.bytes_forced", kGuardian0Log) - bytes_before;
  state.counters["bytes/commit"] =
      benchmark::Counter(static_cast<double>(bytes) / static_cast<double>(commits));
}
BENCHMARK(BM_HybridLogCommitByWriteSet)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_write)
