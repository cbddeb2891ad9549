// Experiment E6 — stable-log operation costs (§3.1, §1.1).
//
// write vs force_write (force batches all older staged entries — group
// commit), backward/forward scan rates, and the ~2x physical write
// amplification of the duplexed Lampson-Sturgis medium.

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

#include "src/common/crc32.h"
#include "src/log/stable_log.h"
#include "src/obs/metrics.h"
#include "src/stable/duplexed_medium.h"
#include "src/stable/stable_medium.h"

namespace argus {
namespace {

DataEntry MakeEntry(std::size_t size) {
  DataEntry e;
  e.kind = ObjectKind::kAtomic;
  e.value = std::vector<std::byte>(size, std::byte{0x5a});
  return e;
}

void BM_StagedWrite(benchmark::State& state) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  LogEntry entry(MakeEntry(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Write(entry));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * state.range(0)));
}
BENCHMARK(BM_StagedWrite)->Arg(64)->Arg(512)->Arg(4096);

void BM_ForceWriteEveryEntry(benchmark::State& state) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  LogEntry entry(MakeEntry(static_cast<std::size_t>(state.range(0))));
  const std::uint64_t forces_before = CounterValue("log.forces");
  for (auto _ : state) {
    Result<LogAddress> r = log.ForceWrite(entry);
    ARGUS_CHECK(r.ok());
  }
  state.counters["forces"] =
      benchmark::Counter(static_cast<double>(CounterValue("log.forces") - forces_before));
}
BENCHMARK(BM_ForceWriteEveryEntry)->Arg(64)->Arg(512);

// Group commit: N staged writes then one force. Forces/entry drops with the
// batch size — why §3.1 defines force_write to flush older entries.
void BM_GroupCommit(benchmark::State& state) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  LogEntry entry(MakeEntry(128));
  std::int64_t batch = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i + 1 < batch; ++i) {
      log.Write(entry);
    }
    Result<LogAddress> r = log.ForceWrite(entry);
    ARGUS_CHECK(r.ok());
  }
  state.counters["forces/entry"] =
      benchmark::Counter(1.0 / static_cast<double>(batch));
}
BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(8)->Arg(64);

void BM_BackwardScan(benchmark::State& state) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  LogEntry entry(MakeEntry(128));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    log.Write(entry);
  }
  ARGUS_CHECK(log.Force().ok());
  for (auto _ : state) {
    StableLog::BackwardCursor cursor = log.ReadBackwardFromTop();
    std::size_t n = 0;
    while (true) {
      auto next = cursor.Next();
      ARGUS_CHECK(next.ok());
      if (!next.value().has_value()) {
        break;
      }
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.counters["entries"] = benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_BackwardScan)->Arg(1024)->Arg(8192)->Unit(benchmark::kMicrosecond);

void BM_ForwardScan(benchmark::State& state) {
  StableLog log(std::make_unique<InMemoryStableMedium>());
  LogEntry entry(MakeEntry(128));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    log.Write(entry);
  }
  ARGUS_CHECK(log.Force().ok());
  for (auto _ : state) {
    StableLog::ForwardCursor cursor = log.ReadForwardFrom(0);
    std::size_t n = 0;
    while (true) {
      auto next = cursor.Next();
      ARGUS_CHECK(next.ok());
      if (!next.value().has_value()) {
        break;
      }
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ForwardScan)->Arg(1024)->Arg(8192)->Unit(benchmark::kMicrosecond);

// Observability overhead on the hottest log path: the same staged-write loop
// with the metrics registry runtime-enabled (the default everywhere) vs
// runtime-disabled. The instrumented path costs one relaxed flag load plus a
// handful of relaxed counter adds per op; the acceptance budget for
// enabled-vs-disabled is ≤5%. Compare ObsEnabled/ObsDisabled rows directly.
void BM_StagedWriteObsEnabled(benchmark::State& state) {
  bool prev = obs::SetEnabled(true);
  {
    StableLog log(std::make_unique<InMemoryStableMedium>());
    LogEntry entry(MakeEntry(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state) {
      benchmark::DoNotOptimize(log.Write(entry));
    }
  }
  obs::SetEnabled(prev);
}
BENCHMARK(BM_StagedWriteObsEnabled)->Arg(128);

void BM_StagedWriteObsDisabled(benchmark::State& state) {
  bool prev = obs::SetEnabled(false);
  {
    StableLog log(std::make_unique<InMemoryStableMedium>());
    LogEntry entry(MakeEntry(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state) {
      benchmark::DoNotOptimize(log.Write(entry));
    }
  }
  obs::SetEnabled(prev);
}
BENCHMARK(BM_StagedWriteObsDisabled)->Arg(128);

void BM_GroupCommitObsEnabled(benchmark::State& state) {
  bool prev = obs::SetEnabled(true);
  {
    StableLog log(std::make_unique<InMemoryStableMedium>());
    LogEntry entry(MakeEntry(128));
    for (auto _ : state) {
      for (int i = 0; i < 7; ++i) {
        log.Write(entry);
      }
      Result<LogAddress> r = log.ForceWrite(entry);
      ARGUS_CHECK(r.ok());
    }
  }
  obs::SetEnabled(prev);
}
BENCHMARK(BM_GroupCommitObsEnabled);

void BM_GroupCommitObsDisabled(benchmark::State& state) {
  bool prev = obs::SetEnabled(false);
  {
    StableLog log(std::make_unique<InMemoryStableMedium>());
    LogEntry entry(MakeEntry(128));
    for (auto _ : state) {
      for (int i = 0; i < 7; ++i) {
        log.Write(entry);
      }
      Result<LogAddress> r = log.ForceWrite(entry);
      ARGUS_CHECK(r.ok());
    }
  }
  obs::SetEnabled(prev);
}
BENCHMARK(BM_GroupCommitObsDisabled);

// CRC dispatch, paired before/after rows: the same forced-write loop (every
// frame CRC'd on write, re-CRC'd by the duplexed page store) under the
// portable slice-by-8 kernel vs the hardware (PCLMULQDQ / ARMv8 CRC32)
// fast path. On a machine without the instructions the two rows coincide —
// kHardware silently degrades to slice-by-8.
void RunForcedWritesWithImpl(benchmark::State& state, Crc32Impl impl) {
  Crc32Impl prev = GetCrc32Impl();
  SetCrc32Impl(impl);
  {
    StableLog log(std::make_unique<DuplexedStableMedium>());
    LogEntry entry(MakeEntry(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state) {
      Result<LogAddress> r = log.ForceWrite(entry);
      ARGUS_CHECK(r.ok());
    }
  }
  SetCrc32Impl(prev);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * state.range(0)));
  state.counters["hw_available"] =
      benchmark::Counter(Crc32HardwareAvailable() ? 1.0 : 0.0);
}

void BM_ForceWriteCrcSliceBy8(benchmark::State& state) {
  RunForcedWritesWithImpl(state, Crc32Impl::kSliceBy8);
}
BENCHMARK(BM_ForceWriteCrcSliceBy8)->Arg(512)->Arg(4096);

void BM_ForceWriteCrcHardware(benchmark::State& state) {
  RunForcedWritesWithImpl(state, Crc32Impl::kHardware);
}
BENCHMARK(BM_ForceWriteCrcHardware)->Arg(512)->Arg(4096);

// Duplexed medium: physical bytes per logical byte (§1.1 — "the extra memory
// and I/O involved in maintaining a second copy").
void BM_DuplexedAmplification(benchmark::State& state) {
  std::size_t logical = 0;
  std::uint64_t physical = 0;
  for (auto _ : state) {
    StableLog log(std::make_unique<DuplexedStableMedium>());
    LogEntry entry(MakeEntry(static_cast<std::size_t>(state.range(0))));
    for (int i = 0; i < 32; ++i) {
      Result<LogAddress> r = log.ForceWrite(entry);
      ARGUS_CHECK(r.ok());
    }
    logical = log.durable_size();
    physical = log.medium().physical_bytes_written();
  }
  state.counters["amplification"] =
      benchmark::Counter(static_cast<double>(physical) / static_cast<double>(logical));
}
BENCHMARK(BM_DuplexedAmplification)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_log_ops)
