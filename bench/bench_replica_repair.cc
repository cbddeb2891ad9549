// Experiment E16 — online replica repair (DESIGN.md "Replicated stable
// storage").
//
// Three questions:
//   1. What does a decay storm cost the commit path when the background
//      repair loop is healing it, vs. letting the damage accumulate?
//      (BM_RepairStorm, repair on/off at N = 2, 3, 5.)
//   2. How long does re-silvering a blank replacement replica take as N
//      grows, and do writes keep flowing while it runs? (BM_OnlineResilver:
//      the measured region is exactly the resilver, with a mutator thread
//      committing throughout; its writes inside that region are exported as
//      a counter.)
//   3. What does the always-on repair service cost the full stack when
//      nothing is broken? (BM_WorkloadWithRepair, service on/off.)

#include <atomic>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

#include "src/stable/replicated_store.h"
#include "src/tpc/workload.h"

namespace argus {
namespace {

std::vector<std::byte> PageOf(std::uint8_t fill) {
  return std::vector<std::byte>(kDiskPageSize, std::byte{fill});
}

// ---------------------------------------------------------------------------
// 1. Commit traffic through a decay storm, repair on vs off
// ---------------------------------------------------------------------------

constexpr std::size_t kStormPages = 256;
constexpr int kStormOps = 4000;

void RunRepairStorm(benchmark::State& state, bool repair_on) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t ops = 0;
  std::uint64_t copies_healed = 0;
  std::uint64_t passes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ReplicatedStore store(kStormPages, n, 9);
    for (std::size_t p = 0; p < kStormPages; ++p) {
      ARGUS_CHECK(store.AtomicWrite(p, AsSpan(PageOf(static_cast<std::uint8_t>(p)))).ok());
    }
    // Decay on every replica but the last: a quorum winner always exists.
    DiskFaultPlan storm;
    storm.decay_on_read_probability = 0.02;
    for (std::uint32_t r = 0; r + 1 < n; ++r) {
      store.SetReplicaFaultPlan(r, storm);
    }
    ReplicaRepairConfig repair_config;
    repair_config.scrub_pages_per_pass = 64;
    // Passes are driven inline between batches of commit traffic rather than
    // from the background thread: the measured window then deterministically
    // includes the repair work the storm induces, independent of how the
    // scheduler happens to slice a short run.
    ReplicaRepairService service(&store, repair_config);
    // The service counts passes (unscoped: the process totals); the store
    // counts the copies it heals.
    auto healed = [] {
      return CounterValue("stable.repair.pages_repaired") +
             CounterValue("stable.repair.resilver_pages");
    };
    const std::uint64_t healed_before = healed();
    const std::uint64_t passes_before = CounterValue("stable.repair.scans");
    Rng rng(9);
    state.ResumeTiming();

    for (int i = 0; i < kStormOps; ++i) {
      std::size_t page = rng.NextBelow(kStormPages);
      if (rng.NextBool(0.3)) {
        ARGUS_CHECK(store.AtomicWrite(page, AsSpan(PageOf(static_cast<std::uint8_t>(i)))).ok());
      } else {
        Result<std::vector<std::byte>> r = store.AtomicRead(page);
        ARGUS_CHECK(r.ok());
      }
      if (repair_on && (i + 1) % 250 == 0) {
        ARGUS_CHECK(service.RunPass().ok());
      }
    }

    state.PauseTiming();
    copies_healed += healed() - healed_before;
    passes += CounterValue("stable.repair.scans") - passes_before;
    ops += kStormOps;
    // The storm must always be healable: clear the plans, scrub, converge.
    for (std::uint32_t r = 0; r < n; ++r) {
      store.SetReplicaFaultPlan(r, DiskFaultPlan{});
    }
    ARGUS_CHECK(store.ScrubRange(0, store.page_count()).ok());
    ARGUS_CHECK(store.VerifyConverged().ok());
    state.ResumeTiming();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["copies_healed"] =
      benchmark::Counter(static_cast<double>(copies_healed) / iters);
  state.counters["repair_passes"] = benchmark::Counter(static_cast<double>(passes) / iters);
}

void BM_RepairStormHealed(benchmark::State& state) { RunRepairStorm(state, true); }
void BM_RepairStormUnhealed(benchmark::State& state) { RunRepairStorm(state, false); }

BENCHMARK(BM_RepairStormHealed)->Arg(2)->Arg(3)->Arg(5)->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepairStormUnhealed)->Arg(2)->Arg(3)->Arg(5)->Iterations(3)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// 2. Online re-silver: measured window = blank replica -> fully silvered,
//    with a mutator committing the whole time
// ---------------------------------------------------------------------------

constexpr std::size_t kResilverPages = 1024;

void BM_OnlineResilver(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t writes_during = 0;
  std::uint64_t resilver_copies = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ReplicatedStore store(kResilverPages, n, 11);
    for (std::size_t p = 0; p < kResilverPages; ++p) {
      ARGUS_CHECK(store.AtomicWrite(p, AsSpan(PageOf(static_cast<std::uint8_t>(p)))).ok());
    }
    ReplicaRepairConfig repair_config;
    repair_config.scrub_pages_per_pass = 128;
    ReplicaRepairService service(&store, repair_config);  // driven inline below
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> mutator_writes{0};
    std::thread mutator([&] {
      Rng rng(13);
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t page = rng.NextBelow(kResilverPages);
        ARGUS_CHECK(store.AtomicWrite(page, AsSpan(PageOf(0xee))).ok());
        mutator_writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
    state.ResumeTiming();

    store.ReplaceReplica(0, 4242);
    // The counted window opens after the swap: the replacement disk starts
    // with a zeroed write counter, so a pre-swap snapshot would double-count
    // the old replica's history (and underflow the delta).
    const std::uint64_t writes_before = store.physical_writes();
    const std::uint64_t mutator_before = mutator_writes.load();
    while (store.resilver_pending()) {
      ARGUS_CHECK(service.RunPass().ok());
    }
    // ...and closes when the re-silver completes, before the mutator stops.
    writes_during += mutator_writes.load() - mutator_before;
    resilver_copies += store.physical_writes() - writes_before;

    state.PauseTiming();
    stop = true;
    mutator.join();
    ARGUS_CHECK(store.ScrubRange(0, store.page_count()).ok());
    ARGUS_CHECK(store.VerifyConverged().ok());
    state.ResumeTiming();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["pages"] = benchmark::Counter(static_cast<double>(kResilverPages));
  state.counters["mutator_writes_during"] =
      benchmark::Counter(static_cast<double>(writes_during) / iters);
  state.counters["physical_writes_in_window"] =
      benchmark::Counter(static_cast<double>(resilver_copies) / iters);
}

BENCHMARK(BM_OnlineResilver)->Arg(2)->Arg(3)->Arg(5)->Iterations(3)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// 3. Full stack: the always-on repair service's overhead on healthy media
// ---------------------------------------------------------------------------

constexpr std::size_t kWorkloadActions = 150;

void BM_WorkloadWithRepair(benchmark::State& state) {
  const bool repair_on = state.range(0) != 0;
  std::uint64_t committed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimWorldConfig world_config;
    world_config.guardian_count = 2;
    world_config.mode = LogMode::kHybrid;
    world_config.medium = MediumKind::kReplicated;
    world_config.replicas = 3;
    if (repair_on) {
      world_config.repair = ReplicaRepairConfig{};
    }
    world_config.seed = 7;
    world_config.group_commit = FlushCoordinatorConfig{};
    SimWorld world(world_config);
    WorkloadConfig config;
    config.seed = 7;
    config.threads = 3;
    config.abort_probability = 0.05;
    WorkloadDriver driver(&world, config);
    Status s = driver.Setup();
    ARGUS_CHECK(s.ok());
    state.ResumeTiming();

    s = driver.Run(kWorkloadActions);
    ARGUS_CHECK(s.ok());

    state.PauseTiming();
    committed += driver.stats().committed;
    state.ResumeTiming();
  }
  state.counters["actions_per_s"] =
      benchmark::Counter(static_cast<double>(committed), benchmark::Counter::kIsRate);
}

// Arg: 1 = background repair service on, 0 = off (baseline).
BENCHMARK(BM_WorkloadWithRepair)->Arg(0)->Arg(1)->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_replica_repair)
