// Workload `restart`: reopening a file-backed log, the deployment path.
//
// Set-up gives one guardian about 40 MB of history over 4096 objects (64-byte
// payloads, 4 writes per action, no checkpoint) — more than the 16 MiB
// ReadCache. The history is built on an in-memory medium and laid down in the
// log file with one forced append. The log file is a memfd, a tmpfs file that
// lives inside the benchmark process: fdatasync on the host's disk moved
// commit p50 by ±25% between runs, and the benchmark writes nothing outside
// its checkout. Each timed restart then closes the log, reopens the file through
// FileStableMedium (default batch mode: io_uring when the kernel allows it,
// else preadv) and recovers; the top scan runs twice on this path, once in
// StableLog's constructor and once inside Recover(). After every restart the
// oracle compares the recovered state with the model, and a short seeded
// burst of commits feeds commit latency: it catches work a change moves out
// of the restart into first access.

#include <sys/mman.h>
#include <unistd.h>

#include <cmath>

#include "perfbench/src/harness.h"
#include "src/stable/file_medium.h"

namespace perfbench {

namespace {

constexpr std::size_t kObjects = 4096;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kWrites = 4;
constexpr std::uint64_t kHistoryBytes = 40'000'000;
constexpr std::size_t kBurst = 32;
// Fixed work: timed restarts per second of --seconds (about --seconds of
// restarts and bursts on a 4-core host).
constexpr double kRestartsPerSecond = 1.5;
// Rounds of identical shape (fresh set-up, a share of the restarts, oracle),
// so set-up is timed several times per run.
constexpr int kRounds = 3;

// Opens the log file and recovers the guardian over it: the restart_ms region.
Result<argus::RecoveryInfo> Reopen(LocalGuardian& g, const std::string& path,
                                   bool* io_uring_active) {
  std::unique_ptr<argus::FileStableMedium> file;
  {
    Span open(SpanName::kOpen);
    Result<std::unique_ptr<argus::FileStableMedium>> opened = argus::FileStableMedium::Open(path);
    if (!opened.ok()) {
      return opened.status();
    }
    file = std::move(opened.value());
  }
  *io_uring_active = file->io_uring_active();
  std::unique_ptr<argus::StableLog> log;
  {
    Span open(SpanName::kLogOpen);
    log = std::make_unique<argus::StableLog>(std::make_unique<MeteredMedium>(std::move(file)));
  }
  return g.Recover(std::move(log));
}

void Close(LocalGuardian& g) {
  g.rs.reset();
  g.heap.reset();
}

// Writes the in-memory log's bytes to `path` with one forced append.
Status LayDown(argus::StableMedium& medium, const std::string& path) {
  std::vector<std::byte> bytes(medium.durable_size());
  Status s = medium.ReadInto(0, std::span<std::byte>(bytes.data(), bytes.size()));
  if (!s.ok()) {
    return s;
  }
  Result<std::unique_ptr<argus::FileStableMedium>> file = argus::FileStableMedium::Open(path);
  if (!file.ok()) {
    return file.status();
  }
  return file.value()->Append(std::span<const std::byte>(bytes.data(), bytes.size()));
}

}  // namespace

Status RunRestart(const Options& options, PassResult* out) {
  const std::uint64_t history = options.small ? (2u << 20) : kHistoryBytes;
  const std::size_t burst = options.small ? 16 : kBurst;
  const auto restarts = static_cast<std::size_t>(std::max<long long>(
      1, options.small ? 2 : std::llround(options.seconds * kRestartsPerSecond / kRounds)));
  out->stamp["history_bytes"] = std::to_string(history);
  out->stamp["restarts"] = std::to_string(restarts * static_cast<std::size_t>(kRounds));
  out->stamp["burst_actions"] = std::to_string(burst);
  out->stamp["objects"] = std::to_string(kObjects);
  out->stamp["payload_bytes"] = std::to_string(kPayload);
  out->stamp["medium"] = "file on tmpfs (memfd)";
  out->stamp["device_append_us"] = "0";
  out->stamp["rounds"] = std::to_string(kRounds);

  bool io_uring = false;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t round_start = NowNs();
    const std::uint64_t round_seed = Mix(options.seed, static_cast<std::uint64_t>(round));
    const int memfd = ::memfd_create("perfbench-restart-log", MFD_CLOEXEC);
    if (memfd < 0) {
      return Status::IoError("memfd_create failed");
    }
    const std::string path = "/proc/self/fd/" + std::to_string(memfd);

    LocalGuardian g;
    g.config.mode = argus::LogMode::kHybrid;
    g.config.medium_factory = [] { return std::make_unique<argus::InMemoryStableMedium>(); };
    Status s = g.Create(kObjects, kPayload, Mix(round_seed, 1));
    argus::Rng rng(Mix(round_seed, 2));
    const std::uint64_t stream = Mix(round_seed, 3);
    std::uint64_t n = 0;
    PassResult history_tally;
    while (s.ok() && g.rs->log().durable_size() < history) {
      s = g.Act(rng, kWrites, Mix(stream, n++), false, nullptr, &history_tally);
    }
    if (s.ok()) {
      s = LayDown(g.rs->log().medium(), path);
    }
    if (!s.ok()) {
      out->Fail("set-up: " + s.ToString());
      return s;
    }
    Close(g);
    // Warm-up restart: the first open of the file and first run of every
    // recovery path, outside the timed region.
    Result<argus::RecoveryInfo> warm = Reopen(g, path, &io_uring);
    s = warm.ok() ? g.ResolveAndCheck() : warm.status();
    ++out->attempted;
    if (!s.ok()) {
      out->Fail("warm-up restart: " + s.ToString());
      return s;
    }
    out->setup_s.push_back(static_cast<double>(NowNs() - round_start) / 1e9);

    const std::size_t first_sample = out->commit_us.size();
    const std::uint64_t committed_before = out->committed;
    double round_s = 0;
    for (std::size_t r = 0; r < restarts; ++r) {
      Close(g);
      const MediaSnapshot media0 = SnapshotMedia();
      const RegistrySnapshot registry0 = SnapshotRegistry();
      {
        TraceWindow window(options.trace);
        if (!TimedRestart(out, [&] { return Reopen(g, path, &io_uring); }).ok()) {
          return Status::IoError("restart failed");
        }
      }
      out->EndRestartEvent(out->restart_ms.size() - 1);
      ++out->attempted;
      s = g.ResolveAndCheck();
      if (!s.ok()) {
        out->Fail("oracle: " + s.ToString());
        return s;
      }
      const std::int64_t t0 = NowNs();
      {
        TraceWindow window(options.trace);
        for (std::size_t b = 0; b < burst; ++b) {
          (void)g.Act(rng, kWrites, Mix(stream, n++), true, nullptr, out);
        }
      }
      round_s += static_cast<double>(NowNs() - t0) / 1e9;
      out->media += SnapshotMedia() - media0;
      out->registry += SnapshotRegistry() - registry0;
    }
    out->EndRound(first_sample, round_s, out->committed - committed_before);
    // The last burst's commits must survive too.
    Close(g);
    Result<argus::RecoveryInfo> last = Reopen(g, path, &io_uring);
    s = last.ok() ? g.ResolveAndCheck() : last.status();
    ++out->attempted;
    if (!s.ok()) {
      out->Fail("final oracle: " + s.ToString());
    }
    Close(g);
    ::close(memfd);
  }
  out->stamp["io_uring"] = io_uring ? "active" : "inactive (preadv)";
  return Status::Ok();
}

}  // namespace perfbench
