// Experiment E10 — online checkpointing vs stop-the-world.
//
// The claim under test: housekeeping's cost need not be paid on the commit
// path. A stop-the-world checkpoint holds the guardian's staging mutex across
// capture + stage 1 + swap, so every concurrent committer stalls for the full
// checkpoint; the online path (capture / concurrent build / swap barrier)
// pauses writers only for the capture and the bounded stage-2 carry-over.
// Averages cannot see this — a handful of long pauses vanish among thousands
// of sub-millisecond commits — so the benchmark reports commit-latency
// percentiles (p50/p99/max) plus the longest single writer-visible pause.
//
// Sweep: client threads {1,2,4,8,16} × checkpoint mode {none, stop-the-world,
// online} on the duplexed medium with group commit. `none` is the latency
// floor and shows the price of never checkpointing: the post-run recovery
// counter (entries_examined) keeps growing, while both checkpointing modes
// keep it bounded.
//
// Run with --json to also write BENCH_bench_online_checkpoint.json.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

#include "src/tpc/workload.h"

namespace argus {
namespace {

constexpr std::size_t kActionsPerIteration = 256;

enum CheckpointArm : std::int64_t {
  kNone = 0,
  kStopWorld = 1,
  kOnline = 2,
};

void RunOnlineCheckpoint(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const CheckpointArm arm = static_cast<CheckpointArm>(state.range(1));

  SimWorldConfig world_config;
  world_config.guardian_count = 1;  // one log: the contended resource
  world_config.mode = LogMode::kHybrid;
  world_config.medium = MediumKind::kDuplexed;
  world_config.seed = 53;
  FlushCoordinatorConfig gc;
  gc.batch_window = std::chrono::microseconds(100);
  gc.max_batch = threads;
  world_config.group_commit = gc;
  SimWorld world(world_config);

  LatencyRecorder commit_latency;
  WorkloadConfig config;
  config.seed = 53;
  config.abort_probability = 0.0;
  // A live set big enough that stage 1 (writing every object's committed
  // version to the new log, duplexed) dominates the checkpoint — that is the
  // work the online mode takes off the commit path.
  config.objects_per_guardian = 2048;
  config.threads = threads;
  config.commit_latency_ns = [&commit_latency](std::uint64_t ns) { commit_latency.Record(ns); };
  if (arm != kNone) {
    CheckpointPolicyConfig checkpoint;
    checkpoint.log_growth_bytes = 32 * 1024;
    checkpoint.entries_since_checkpoint = 0;
    config.checkpoint = checkpoint;
    config.checkpoint_mode =
        arm == kOnline ? CheckpointMode::kOnline : CheckpointMode::kStopTheWorld;
  }
  WorkloadDriver driver(&world, config);
  Status s = driver.Setup();
  ARGUS_CHECK(s.ok());
  // The pause table is guardian 0's checkpoint histograms, reset for this
  // run: checkpoint.pause_ns holds each checkpoint's longest exclusive
  // section; the time spent inside them is the capture and swap phases in
  // online mode, the whole checkpoint in stop-the-world mode.
  const obs::Scope guardian0{.guardian = 0};
  obs::Histogram* capture_ns = guardian0.GetHistogram("checkpoint.capture_ns");
  obs::Histogram* build_ns = guardian0.GetHistogram("checkpoint.build_ns");
  obs::Histogram* swap_ns = guardian0.GetHistogram("checkpoint.swap_ns");
  obs::Histogram* pause_ns = guardian0.GetHistogram("checkpoint.pause_ns");
  for (obs::Histogram* h : {capture_ns, build_ns, swap_ns, pause_ns}) {
    h->Reset();
  }

  for (auto _ : state) {
    s = driver.Run(kActionsPerIteration);
    ARGUS_CHECK_MSG(s.ok(), s.ToString().c_str());
  }

  commit_latency.ExportCounters(state, "commit");
  state.counters["commits"] = benchmark::Counter(static_cast<double>(driver.stats().committed),
                                                 benchmark::Counter::kIsRate);
  const std::uint64_t pause_total_ns =
      arm == kOnline ? capture_ns->Sum() + swap_ns->Sum() : pause_ns->Sum();
  state.counters["checkpoints"] =
      benchmark::Counter(static_cast<double>(driver.stats().checkpoints));
  state.counters["pause_max_us"] = benchmark::Counter(static_cast<double>(pause_ns->Max()) / 1e3);
  state.counters["pause_total_us"] = benchmark::Counter(static_cast<double>(pause_total_ns) / 1e3);
  state.counters["capture_max_us"] =
      benchmark::Counter(static_cast<double>(capture_ns->Max()) / 1e3);
  state.counters["build_max_us"] = benchmark::Counter(static_cast<double>(build_ns->Max()) / 1e3);
  state.counters["swap_max_us"] = benchmark::Counter(static_cast<double>(swap_ns->Max()) / 1e3);

  // The reason checkpointing exists at all (§5.1): recovery reads the whole
  // log. Crash and recover once after the run to show the bound.
  world.guardian(0u).Crash();
  Result<RecoveryInfo> info = world.guardian(0u).Restart();
  ARGUS_CHECK(info.ok());
  state.counters["recovery_entries_examined"] =
      benchmark::Counter(static_cast<double>(info.value().entries_examined));
}

void Sweep(benchmark::internal::Benchmark* b) {
  b->ArgNames({"threads", "checkpoint"});
  for (std::int64_t threads : {1, 2, 4, 8, 16}) {
    b->Args({threads, kNone});
    b->Args({threads, kStopWorld});
    b->Args({threads, kOnline});
  }
  b->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(RunOnlineCheckpoint)->Apply(Sweep);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_online_checkpoint)
