// Experiment E15 — file-backed recovery over the batched read interface.
//
// Claim: once the log lives on a real filesystem, restart cost is dominated
// by how the bytes are fetched, not how they are decoded. The per-page pread
// baseline (cache off, one synchronous pread per frame probe) reproduces the
// pre-batching stack; the cached variant fills the block cache with
// demand+readahead runs that the file medium coalesces into preadv calls.
// Both run the same serial chain walk. Each variant runs against a tmpfs file
// (/dev/shm — syscall cost isolated from device cost) and a file in the
// working directory (whatever storage CI gives us). The metrics snapshot
// carries stable.file.batch_ns, the per-SubmitReads latency histogram.
//
// The acceptance datapoint (ARGUS_BENCH_LARGE=1, >=10^6-entry log): batched
// file-backed recovery must beat the per-page pread baseline by >=1.5x.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_support.h"
#include "src/recovery/recovery_algorithms.h"
#include "src/stable/file_medium.h"

namespace argus {
namespace {

constexpr std::size_t kLiveObjects = 64;
constexpr std::size_t kValueSize = 64;
constexpr std::size_t kWritesPerAction = 4;

// One in-memory history per length, dumped to raw bytes once — every file
// variant must recover the *same* log, and the builder is the slow part.
const std::vector<std::byte>& SharedHistoryBytes(std::size_t history_len) {
  static std::map<std::size_t, std::vector<std::byte>> histories;
  auto it = histories.find(history_len);
  if (it == histories.end()) {
    BenchGuardian guardian(LogMode::kHybrid, kLiveObjects, kValueSize);
    Rng rng(7);
    for (std::size_t i = 0; i < history_len; ++i) {
      guardian.CommitAction(rng, kWritesPerAction);
    }
    std::unique_ptr<StableLog> log = guardian.CrashAndTakeLog();
    Result<std::uint64_t> r = log->RecoverAfterCrash();
    ARGUS_CHECK(r.ok());
    std::vector<std::byte> raw(log->medium().durable_size());
    Status s = log->medium().ReadInto(0, std::span<std::byte>(raw.data(), raw.size()));
    ARGUS_CHECK(s.ok());
    it = histories.emplace(history_len, std::move(raw)).first;
  }
  return it->second;
}

// Lazily materializes the history file for a (directory, length) pair; all
// variants over that pair share one file. Returns "" when the directory is
// unusable (no /dev/shm on exotic CI hosts).
std::string HistoryFile(const std::string& dir, std::size_t history_len) {
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0) {
    return "";
  }
  static std::map<std::pair<std::string, std::size_t>, std::string> files;
  auto key = std::make_pair(dir, history_len);
  auto it = files.find(key);
  if (it == files.end()) {
    const std::vector<std::byte>& raw = SharedHistoryBytes(history_len);
    std::string path = dir + "/argus_e15_" + std::to_string(history_len) + ".log";
    std::remove(path.c_str());
    Result<std::unique_ptr<FileStableMedium>> writer = FileStableMedium::Open(path);
    ARGUS_CHECK(writer.ok());
    ARGUS_CHECK(writer.value()->Append(std::span<const std::byte>(raw.data(), raw.size())).ok());
    it = files.emplace(key, std::move(path)).first;
  }
  return it->second;
}

void RunFileRestart(benchmark::State& state, const std::string& dir, bool cached) {
  std::size_t history_len = static_cast<std::size_t>(state.range(0));
  std::string path = HistoryFile(dir, history_len);
  if (path.empty()) {
    state.SkipWithError(("directory unavailable: " + dir).c_str());
    return;
  }
  Result<std::unique_ptr<FileStableMedium>> medium = FileStableMedium::Open(path);
  ARGUS_CHECK(medium.ok());
  StableLog log(std::move(medium).value());
  ARGUS_CHECK(!log.empty());

  obs::Counter* preads = obs::GetCounter("stable.file.preads");
  obs::Counter* preadv_calls = obs::GetCounter("stable.file.preadv_calls");
  obs::Counter* batched_blocks = obs::GetCounter("stable.file.batched_blocks");
  const std::uint64_t preads0 = preads->Value();
  const std::uint64_t preadv0 = preadv_calls->Value();
  const std::uint64_t blocks0 = batched_blocks->Value();

  std::uint64_t entries = 0;
  for (auto _ : state) {
    // Cold restart each iteration: a fresh process has no cached blocks.
    log.read_cache().Clear();
    log.read_cache().SetEnabled(cached);
    VolatileHeap heap;
    Result<RecoveryResult> r = RecoverHybridLog(log, heap);
    ARGUS_CHECK(r.ok());
    entries = r.value().entries_examined;
    benchmark::DoNotOptimize(r.value().ot.size());
  }

  double iters = static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
  state.counters["entries_examined"] = benchmark::Counter(static_cast<double>(entries));
  state.counters["log_bytes"] = benchmark::Counter(static_cast<double>(log.durable_size()));
  state.counters["preads"] =
      benchmark::Counter(static_cast<double>(preads->Value() - preads0) / iters);
  state.counters["preadv_calls"] =
      benchmark::Counter(static_cast<double>(preadv_calls->Value() - preadv0) / iters);
  state.counters["batched_blocks"] =
      benchmark::Counter(static_cast<double>(batched_blocks->Value() - blocks0) / iters);
}

void BM_FileRestartBaselinePread_Shm(benchmark::State& state) {
  RunFileRestart(state, "/dev/shm", /*cached=*/false);
}
void BM_FileRestartCachedPreadv_Shm(benchmark::State& state) {
  RunFileRestart(state, "/dev/shm", /*cached=*/true);
}
void BM_FileRestartBaselinePread_Disk(benchmark::State& state) {
  RunFileRestart(state, ".", /*cached=*/false);
}
void BM_FileRestartCachedPreadv_Disk(benchmark::State& state) {
  RunFileRestart(state, ".", /*cached=*/true);
}

// ~6 log entries per action (4 data + prepared + committed): the default arg
// is a quick smoke; ARGUS_BENCH_LARGE=1 adds the >=10^6-entry acceptance log.
void FileRestartArgs(benchmark::internal::Benchmark* b) {
  b->Arg(4096)->Unit(benchmark::kMillisecond);
  if (std::getenv("ARGUS_BENCH_LARGE") != nullptr) {
    b->Arg(175000);
  }
}

BENCHMARK(BM_FileRestartBaselinePread_Shm)->Apply(FileRestartArgs);
BENCHMARK(BM_FileRestartCachedPreadv_Shm)->Apply(FileRestartArgs);
BENCHMARK(BM_FileRestartBaselinePread_Disk)->Apply(FileRestartArgs);
BENCHMARK(BM_FileRestartCachedPreadv_Disk)->Apply(FileRestartArgs);

}  // namespace
}  // namespace argus

ARGUS_BENCH_MAIN(bench_file_recovery)
