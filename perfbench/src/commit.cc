// Workload `commit`: group commit against a device-bound force.
//
// One hybrid-log guardian on a duplexed medium, wrapped in the benchmark's
// device model: every Append first sleeps 100 µs, as a forced write to a
// device with a fixed service time does. A CPU-bound version of this workload
// (no device model) gave a bimodal p50 and a p99 that moved 2x between runs
// on a shared 4-core host, and real fdatasync drifted by nearly 2x over six
// runs; with the device fixed, concurrency is measured against the force, and
// a change that only saves CPU should not move this workload.
//
// Closed loop: min(4, nproc) client threads, each running a fixed number of
// actions. An action writes 4 distinct objects of 4096, with 64-byte payloads;
// it stages under the per-guardian exclusion and waits for durability outside
// it, so concurrent commits coalesce in the FlushCoordinator (no linger
// window, max batch = client count).
//
// A run is fifteen rounds, each a fresh guardian and a fifteenth of the
// actions; after each, the durability oracle restarts the guardian twice over
// its whole log (about 18 MB at --seconds 45), and the faster of the two is
// the round's restart sample. Many short rounds rather than three long ones
// spread the restarts over the run, so a spell of load on a shared host moves
// few of them.

#include <barrier>
#include <cmath>
#include <thread>

#include "perfbench/src/harness.h"
#include "src/stable/duplexed_medium.h"

namespace perfbench {

namespace {

constexpr std::size_t kObjects = 4096;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kWrites = 4;
constexpr std::chrono::microseconds kDeviceAppend{100};
// Fixed work: actions per second of --seconds, sized so a run's timed phase
// lasts about --seconds on a 4-core host.
constexpr double kActionsPerSecond = 10000.0;
constexpr int kRounds = 15;
constexpr int kOracleRestartsPerRound = 2;

}  // namespace

Status RunCommit(const Options& options, PassResult* out) {
  const unsigned clients = std::min(4u, HostCpus());
  const std::size_t total =
      options.small ? 1200 : static_cast<std::size_t>(std::llround(options.seconds * kActionsPerSecond));
  const std::size_t per_client =
      std::max<std::size_t>(1, total / static_cast<std::size_t>(kRounds) / clients);
  const std::size_t warmup = options.small ? 16 : 256;
  out->stamp["device_append_us"] = std::to_string(kDeviceAppend.count()) + " (sleep)";
  out->stamp["clients"] = std::to_string(clients);
  out->stamp["actions"] = std::to_string(per_client * clients * static_cast<std::size_t>(kRounds));
  out->stamp["objects"] = std::to_string(kObjects);
  out->stamp["payload_bytes"] = std::to_string(kPayload);
  out->stamp["medium"] = "duplexed + device model";
  out->stamp["rounds"] = std::to_string(kRounds);

  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t round_start = NowNs();
    const std::uint64_t round_seed = Mix(options.seed, static_cast<std::uint64_t>(round));
    MeteredMedium* medium = nullptr;  // set by the factory, owned by the log
    LocalGuardian g;
    g.config.mode = argus::LogMode::kHybrid;
    g.config.medium_factory = [&medium, round_seed] {
      auto m = std::make_unique<MeteredMedium>(
          std::make_unique<argus::DuplexedStableMedium>(round_seed), kDeviceAppend);
      medium = m.get();
      return m;
    };
    argus::FlushCoordinatorConfig group_commit;
    group_commit.batch_window = std::chrono::microseconds(0);
    group_commit.max_batch = clients;
    g.config.group_commit = group_commit;
    Status s = g.Create(kObjects, kPayload, Mix(round_seed, 1));
    if (!s.ok()) {
      out->Fail("set-up: " + s.ToString());
      return s;
    }

    // Two rendezvous: warm-up done (main snapshots the counters and opens the
    // trace window), then go.
    std::barrier sync(static_cast<std::ptrdiff_t>(clients) + 1);
    std::vector<PassResult> tallies(clients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        argus::Rng rng(Mix(round_seed, 100 + c));
        const std::uint64_t stream = Mix(round_seed, 200 + c);
        for (std::size_t n = 0; n < warmup; ++n) {
          (void)g.Act(rng, kWrites, Mix(stream, n), false, medium, &tallies[c]);
        }
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        for (std::size_t n = 0; n < per_client; ++n) {
          (void)g.Act(rng, kWrites, Mix(stream, warmup + n), true, medium, &tallies[c]);
        }
      });
    }
    sync.arrive_and_wait();
    const MediaSnapshot media0 = SnapshotMedia();
    const RegistrySnapshot registry0 = SnapshotRegistry();
    const std::int64_t t0 = NowNs();
    out->setup_s.push_back(static_cast<double>(t0 - round_start) / 1e9);
    {
      TraceWindow window(options.trace);
      sync.arrive_and_wait();
      for (std::thread& t : threads) {
        t.join();
      }
    }
    const double round_s = static_cast<double>(NowNs() - t0) / 1e9;
    out->media += SnapshotMedia() - media0;
    out->registry += SnapshotRegistry() - registry0;
    const std::size_t first_sample = out->commit_us.size();
    const std::uint64_t committed_before = out->committed;
    for (const PassResult& tally : tallies) {
      out->MergeActions(tally);
    }
    out->EndRound(first_sample, round_s, out->committed - committed_before);

    // Durability oracle: crash, recover (timed for restart_ms), compare every
    // object with the last acknowledged commit.
    const std::size_t first_restart = out->restart_ms.size();
    for (int k = 0; k < kOracleRestartsPerRound; ++k) {
      std::unique_ptr<argus::StableLog> log = g.Crash();
      TraceWindow window(options.trace);
      if (!TimedRestart(out, [&] { return g.Recover(std::move(log)); }).ok()) {
        break;
      }
      ++out->attempted;
      Status check = g.ResolveAndCheck();
      if (!check.ok()) {
        out->Fail("oracle: " + check.ToString());
      }
    }
    out->EndRestartEvent(first_restart);
  }
  return Status::Ok();
}

}  // namespace perfbench
