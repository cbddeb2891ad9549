// Shared machinery of the commit/restart benchmark: options, the metered
// StableMedium decorator, in-memory trace spans, registry snapshots, the
// single-guardian action loop with its durability oracle, and the per-pass
// result every workload fills.
//
// The benchmark changes no layer. Every number it reports comes from timing
// calls into a layer's public functions, from MeteredMedium (handed to the
// recovery system through medium_factory), or from the obs registry.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/recovery/recovery_system.h"
#include "src/stable/stable_medium.h"

namespace perfbench {

using argus::Result;
using argus::Status;

std::int64_t NowNs();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Determinism self-test mode: a few hundred actions per workload.
  bool small = false;
};

// Where the trace dump goes, relative to the repository root.
inline constexpr const char* kDataDir = ".bench_build/perfbench-data";

// Splits a 64-bit seed into independent streams (splitmix64 finalizer).
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

// ---- Stable-medium decorator ------------------------------------------------

// Process-wide tallies of every MeteredMedium.
struct MediaSnapshot {
  std::uint64_t appends = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t physical_bytes = 0;  // all replicas, as the inner medium reports
  std::uint64_t reads = 0;           // Read + ReadInto + SubmitReads calls
  std::uint64_t read_bytes = 0;
  std::uint64_t read_ns = 0;

  MediaSnapshot operator-(const MediaSnapshot& base) const;
  MediaSnapshot& operator+=(const MediaSnapshot& other);
};
MediaSnapshot SnapshotMedia();

// How the device model waits out its service time: asleep, so other threads
// can run meanwhile, or spinning, which needs no wake-up that a loaded host
// can delay.
enum class DeviceWait { kSleep, kSpin };

// Counts and times every call into the wrapped medium. With a non-zero
// `append_delay` it is also the device model: each Append first waits that
// long, as a forced write to a device with a fixed service time would.
class MeteredMedium final : public argus::StableMedium {
 public:
  MeteredMedium(std::unique_ptr<argus::StableMedium> inner,
                std::chrono::nanoseconds append_delay = std::chrono::nanoseconds{0},
                DeviceWait wait = DeviceWait::kSleep);

  Status Append(std::span<const std::byte> data) override;
  Result<std::vector<std::byte>> Read(std::uint64_t offset, std::uint64_t len) override;
  Status ReadInto(std::uint64_t offset, std::span<std::byte> out) override;
  Status SubmitReads(std::span<argus::ReadRequest> requests) override;
  std::uint64_t durable_size() const override { return inner_->durable_size(); }
  Status RecoverAfterCrash() override { return inner_->RecoverAfterCrash(); }
  std::uint64_t physical_bytes_written() const override {
    return inner_->physical_bytes_written();
  }

  // Durable bytes, readable without the log's mutex (space samples taken by
  // client threads while another thread forces).
  std::uint64_t durable_bytes() const { return durable_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<argus::StableMedium> inner_;
  std::chrono::nanoseconds append_delay_;
  DeviceWait wait_;
  std::atomic<std::uint64_t> durable_;
};

// ---- Trace spans -------------------------------------------------------------

// Every span the benchmark records, one per layer boundary it calls across.
// The text before the first '.' names the layer.
enum class SpanName : std::uint16_t {
  kAction,          // bench.action: one action, from its start to its durable ack
  kRestart,         // bench.restart: opening the medium to Recover() returning
  kExclusionWait,   // bench.exclusion_wait: waiting for the per-guardian exclusion
  kObjectWrite,     // object.write: ActionContext::WriteObject
  kCommitVolatile,  // object.commit_volatile: ActionContext::CommitVolatile
  kStage,           // recovery.stage: StagePrepare + StageCommit, or an early prepare
  kDurableWait,     // log.durable_wait: RecoverySystem::WaitDurable
  kLookup,          // tpc.lookup: Guardian::GetStableVariable
  kProtocol,        // tpc.protocol: RequestCommit/AbortTopAction + message delivery
  kResidencyPass,   // residency.pass: ResidencyManager::RunEvictionPass (own root)
  kCheckpoint,      // recovery.checkpoint: CheckpointPolicy::MaybeHousekeep (own root)
  kOpen,            // stable.open: FileStableMedium::Open
  kLogOpen,         // log.open: StableLog construction over a non-empty medium
  kRecover,         // recovery.recover: RecoverySystem construction + Recover()
  kAppend,          // stable.append: MeteredMedium::Append
  kRead,            // stable.read: MeteredMedium reads
};
const char* SpanNameText(SpanName name);
std::string SpanLayer(SpanName name);

// Records [start, end) of a call on the calling thread, nested under the
// innermost open span. Root spans (action, restart, residency pass,
// checkpoint) open a tree; any other span records only inside one, so set-up
// and oracle work never enters the trace. A no-op while tracing is off.
class Span {
 public:
  explicit Span(SpanName name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void* buffer_ = nullptr;
  std::int32_t index_ = -1;
};

void SetTracing(bool on);
bool Tracing();
// Drops every recorded span.
void ClearSpans();

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;  // summed durations
  double self_ns = 0;   // durations minus the durations of child spans
};
struct TraceSummary {
  std::map<SpanName, SpanTotals> by_name;
  // Self time per layer, counted only under commit and restart roots (the
  // end-to-end spans); the roots' own self time is the unattributed part.
  std::map<std::string, double> layer_self_ns;
  double e2e_ns = 0;
  double unattributed_ns = 0;
  std::uint64_t spans = 0;
};
TraceSummary SummarizeSpans();
// Writes every span as CSV (thread,index,parent,name,root,start_ns,end_ns).
Status DumpSpans(const std::string& path);

// ---- Registry snapshots ------------------------------------------------------

struct RegistrySnapshot {
  std::map<std::string, double> values;  // counters; histograms as .sum/.count
  RegistrySnapshot operator-(const RegistrySnapshot& base) const;
  RegistrySnapshot& operator+=(const RegistrySnapshot& other);
  double operator[](const std::string& name) const;
};
RegistrySnapshot SnapshotRegistry();
// Total time residency faults have taken (registry residency.fault_ns).
double ResidencyFaultNs();

// ---- Pass results ------------------------------------------------------------

// Everything one pass (all rounds of one workload) measured.
struct PassResult {
  std::vector<double> commit_us;    // commit latencies of timed actions
  // Per-round figures; the run reports their medians, so a transient stall
  // of the host that hits one round does not move the run's result.
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  std::vector<double> round_tput;
  std::vector<double> restart_ms;   // timed restarts
  // Per restart event (one state restarted back to back, usually twice): its
  // fastest trial. A neighbour on a shared host lengthens one of two
  // back-to-back trials far more often than both. restart_ms is their mean:
  // one restart of a given log took anywhere from 0.7x to 1.4x its typical
  // time, and the median of ten such samples jumped about between runs.
  std::vector<double> restart_event_ms;
  std::vector<double> setup_s;      // one per round
  std::uint64_t committed = 0;      // actions committed in timed phases
  std::uint64_t attempted = 0;      // actions + restarts + oracle checks
  std::uint64_t failed = 0;
  std::uint64_t client_aborts = 0;
  double space_sum = 0;             // Σ durable log bytes ÷ live payload bytes
  std::uint64_t space_samples = 0;
  std::uint64_t payload_bytes = 0;  // user payload committed in timed phases
  std::uint64_t checkpoints = 0;
  // Residency faults taken inside WriteObject: their time, and that time less
  // the medium reads inside it (which stable.read spans already own).
  double write_fault_ns = 0;
  double write_fault_self_ns = 0;
  MediaSnapshot media;              // timed phases
  RegistrySnapshot registry;        // timed phases
  // Restarts that feed restart_ms, with what they cost below.
  std::uint64_t restarts = 0;
  std::uint64_t entries_examined = 0;
  std::uint64_t data_entries_read = 0;
  MediaSnapshot restart_media;
  RegistrySnapshot restart_registry;
  std::vector<std::string> errors;
  std::map<std::string, std::string> stamp;  // workload set-up, printed with the result

  void Fail(const std::string& what);
  // Adds the action tallies of a client thread.
  void MergeActions(const PassResult& other);
  // Books the round whose timed commit latencies start at commit_us[first].
  void EndRound(std::size_t first, double round_timed_s, std::uint64_t round_committed);
  // Books the restart event whose trials start at restart_ms[first].
  void EndRestartEvent(std::size_t first);
};

// Runs one restart in the timed region and books it: `restart` performs it
// and returns the recovery info (its own spans nest under bench.restart).
template <typename Fn>
Status TimedRestart(PassResult* out, Fn&& restart);

// ---- Single-guardian actions (commit and restart workloads) ------------------

std::string SlotName(std::size_t slot);
// A payload of exactly `size` bytes that names the write it came from.
std::string MakePayload(std::size_t size, std::uint64_t tag);

// One guardian driven directly through RecoverySystem, with the benchmark's
// model of every acknowledged commit.
struct LocalGuardian {
  argus::RecoverySystemConfig config;
  std::unique_ptr<argus::VolatileHeap> heap;
  std::unique_ptr<argus::RecoverySystem> rs;
  std::vector<argus::RecoverableObject*> slots;
  std::vector<std::string> model;  // committed payload per slot
  std::size_t payload = 64;
  // The per-guardian exclusion: heap mutation, staging and the model stay in
  // staging order under it; durability is awaited outside it.
  std::mutex exclusion;
  std::uint64_t next_sequence = 1;  // guarded by `exclusion`

  // Fresh guardian holding `objects` stable variables of `payload` bytes.
  Status Create(std::size_t objects, std::size_t payload_bytes, std::uint64_t tag);
  // One action writing `writes` distinct objects. When `timed`, books its
  // latency, payload and a space sample (log bytes from `space_probe`, else
  // from the log) into `tally`; attempts and failures are booked either way.
  Status Act(argus::Rng& rng, std::size_t writes, std::uint64_t tag, bool timed,
             const MeteredMedium* space_probe, PassResult* tally);
  // Crash: fails the force queue and surrenders the stable log.
  std::unique_ptr<argus::StableLog> Crash();
  // Restart over a surviving log (the part restart_ms times).
  Result<argus::RecoveryInfo> Recover(std::unique_ptr<argus::StableLog> log);
  // Rebinds `slots` to the recovered heap and compares every committed
  // version with the model (the durability oracle).
  Status ResolveAndCheck();
  std::uint64_t live_payload_bytes() const { return slots.size() * payload; }
};

// Turns tracing on for a timed region (when `on`) and off again at scope end.
class TraceWindow {
 public:
  explicit TraceWindow(bool on) { SetTracing(on); }
  ~TraceWindow() { SetTracing(false); }
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;
};

// ---- Helpers -----------------------------------------------------------------

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
double Percentile(std::vector<double> v, double p);
double PeakRssMiB();
unsigned HostCpus();

// The metrics of one workload run.
using Metrics = std::map<std::string, std::pair<double, std::string>>;  // name → value, unit

Metrics EndToEnd(const PassResult& r);
Metrics PerLayer(const PassResult& traced, const TraceSummary& trace);

// ---- Workloads ----------------------------------------------------------------

Status RunCommit(const Options& options, PassResult* out);
Status RunTwoPhase(const Options& options, PassResult* out);
Status RunRestart(const Options& options, PassResult* out);

// ---- Template definitions ---------------------------------------------------

template <typename Fn>
Status TimedRestart(PassResult* out, Fn&& restart) {
  const MediaSnapshot media0 = SnapshotMedia();
  const RegistrySnapshot registry0 = SnapshotRegistry();
  ++out->attempted;
  std::optional<Result<argus::RecoveryInfo>> info;
  const std::int64_t t0 = NowNs();
  {
    Span span(SpanName::kRestart);
    info.emplace(restart());
  }
  const std::int64_t t1 = NowNs();
  if (!info->ok()) {
    out->Fail("restart: " + info->status().ToString());
    return info->status();
  }
  out->restart_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  ++out->restarts;
  out->entries_examined += info->value().entries_examined;
  out->data_entries_read += info->value().data_entries_read;
  out->restart_media += SnapshotMedia() - media0;
  out->restart_registry += SnapshotRegistry() - registry0;
  return Status::Ok();
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
