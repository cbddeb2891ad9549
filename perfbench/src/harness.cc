#include "perfbench/src/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "src/object/action_context.h"
#include "src/obs/metrics.h"

namespace perfbench {

using argus::ActionContext;
using argus::ActionId;
using argus::GuardianId;
using argus::LogAddress;
using argus::RecoverableObject;
using argus::Value;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- Media -------------------------------------------------------------------

namespace {

struct MediaCounters {
  std::atomic<std::uint64_t> appends{0};
  std::atomic<std::uint64_t> append_bytes{0};
  std::atomic<std::uint64_t> append_ns{0};
  std::atomic<std::uint64_t> physical_bytes{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> read_ns{0};
};

MediaCounters& Media() {
  static MediaCounters counters;
  return counters;
}

void BookRead(std::uint64_t bytes, std::int64_t start) {
  MediaCounters& m = Media();
  m.reads.fetch_add(1, std::memory_order_relaxed);
  m.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  m.read_ns.fetch_add(static_cast<std::uint64_t>(NowNs() - start), std::memory_order_relaxed);
}

}  // namespace

MediaSnapshot MediaSnapshot::operator-(const MediaSnapshot& base) const {
  MediaSnapshot d;
  d.appends = appends - base.appends;
  d.append_bytes = append_bytes - base.append_bytes;
  d.append_ns = append_ns - base.append_ns;
  d.physical_bytes = physical_bytes - base.physical_bytes;
  d.reads = reads - base.reads;
  d.read_bytes = read_bytes - base.read_bytes;
  d.read_ns = read_ns - base.read_ns;
  return d;
}

MediaSnapshot& MediaSnapshot::operator+=(const MediaSnapshot& other) {
  appends += other.appends;
  append_bytes += other.append_bytes;
  append_ns += other.append_ns;
  physical_bytes += other.physical_bytes;
  reads += other.reads;
  read_bytes += other.read_bytes;
  read_ns += other.read_ns;
  return *this;
}

MediaSnapshot SnapshotMedia() {
  const MediaCounters& m = Media();
  MediaSnapshot s;
  s.appends = m.appends.load(std::memory_order_relaxed);
  s.append_bytes = m.append_bytes.load(std::memory_order_relaxed);
  s.append_ns = m.append_ns.load(std::memory_order_relaxed);
  s.physical_bytes = m.physical_bytes.load(std::memory_order_relaxed);
  s.reads = m.reads.load(std::memory_order_relaxed);
  s.read_bytes = m.read_bytes.load(std::memory_order_relaxed);
  s.read_ns = m.read_ns.load(std::memory_order_relaxed);
  return s;
}

MeteredMedium::MeteredMedium(std::unique_ptr<argus::StableMedium> inner,
                             std::chrono::nanoseconds append_delay, DeviceWait wait)
    : inner_(std::move(inner)),
      append_delay_(append_delay),
      wait_(wait),
      durable_(inner_->durable_size()) {}

Status MeteredMedium::Append(std::span<const std::byte> data) {
  Span span(SpanName::kAppend);
  const std::int64_t start = NowNs();
  if (append_delay_.count() > 0 && wait_ == DeviceWait::kSleep) {
    std::this_thread::sleep_for(append_delay_);
  } else if (append_delay_.count() > 0) {
    while (NowNs() - start < append_delay_.count()) {
    }
  }
  const std::uint64_t physical_before = inner_->physical_bytes_written();
  Status s = inner_->Append(data);
  MediaCounters& m = Media();
  m.appends.fetch_add(1, std::memory_order_relaxed);
  m.append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  m.physical_bytes.fetch_add(inner_->physical_bytes_written() - physical_before,
                             std::memory_order_relaxed);
  durable_.store(inner_->durable_size(), std::memory_order_relaxed);
  m.append_ns.fetch_add(static_cast<std::uint64_t>(NowNs() - start), std::memory_order_relaxed);
  return s;
}

Result<std::vector<std::byte>> MeteredMedium::Read(std::uint64_t offset, std::uint64_t len) {
  Span span(SpanName::kRead);
  const std::int64_t start = NowNs();
  Result<std::vector<std::byte>> r = inner_->Read(offset, len);
  BookRead(len, start);
  return r;
}

Status MeteredMedium::ReadInto(std::uint64_t offset, std::span<std::byte> out) {
  Span span(SpanName::kRead);
  const std::int64_t start = NowNs();
  Status s = inner_->ReadInto(offset, out);
  BookRead(out.size(), start);
  return s;
}

Status MeteredMedium::SubmitReads(std::span<argus::ReadRequest> requests) {
  Span span(SpanName::kRead);
  const std::int64_t start = NowNs();
  Status s = inner_->SubmitReads(requests);
  std::uint64_t bytes = 0;
  for (const argus::ReadRequest& request : requests) {
    bytes += request.out.size();
  }
  BookRead(bytes, start);
  return s;
}

// ---- Spans -------------------------------------------------------------------

namespace {

struct SpanRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::kAction;
  std::uint64_t root = 0;
};

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  // indices of the spans open on this thread
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_generation{1};
std::atomic<std::uint64_t> g_next_root{1};
std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_threads_mu
thread_local ThreadSpans* tl_spans = nullptr;
thread_local std::uint64_t tl_generation = 0;

ThreadSpans* LocalSpans() {
  const std::uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (tl_spans == nullptr || tl_generation != generation) {
    std::lock_guard<std::mutex> l(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    tl_spans = g_threads.back().get();
    tl_spans->thread = static_cast<std::uint32_t>(g_threads.size() - 1);
    tl_spans->spans.reserve(std::size_t{1} << 16);
    tl_generation = generation;
  }
  return tl_spans;
}

bool IsRoot(SpanName name) {
  return name == SpanName::kAction || name == SpanName::kRestart ||
         name == SpanName::kResidencyPass || name == SpanName::kCheckpoint;
}

bool IsEndToEndRoot(SpanName name) {
  return name == SpanName::kAction || name == SpanName::kRestart;
}

}  // namespace

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kAction: return "bench.action";
    case SpanName::kRestart: return "bench.restart";
    case SpanName::kExclusionWait: return "bench.exclusion_wait";
    case SpanName::kObjectWrite: return "object.write";
    case SpanName::kCommitVolatile: return "object.commit_volatile";
    case SpanName::kStage: return "recovery.stage";
    case SpanName::kDurableWait: return "log.durable_wait";
    case SpanName::kLookup: return "tpc.lookup";
    case SpanName::kProtocol: return "tpc.protocol";
    case SpanName::kResidencyPass: return "residency.pass";
    case SpanName::kCheckpoint: return "recovery.checkpoint";
    case SpanName::kOpen: return "stable.open";
    case SpanName::kLogOpen: return "log.open";
    case SpanName::kRecover: return "recovery.recover";
    case SpanName::kAppend: return "stable.append";
    case SpanName::kRead: return "stable.read";
  }
  return "unknown";
}

std::string SpanLayer(SpanName name) {
  std::string text = SpanNameText(name);
  return text.substr(0, text.find('.'));
}

Span::Span(SpanName name) {
  if (!g_tracing.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadSpans* t = LocalSpans();
  const std::int32_t parent = t->open.empty() ? -1 : t->open.back();
  if (parent < 0 && !IsRoot(name)) {
    return;
  }
  SpanRecord record;
  record.parent = parent;
  record.name = name;
  record.root = parent < 0 ? g_next_root.fetch_add(1, std::memory_order_relaxed)
                           : t->spans[static_cast<std::size_t>(parent)].root;
  index_ = static_cast<std::int32_t>(t->spans.size());
  t->open.push_back(index_);
  buffer_ = t;
  record.start = NowNs();
  t->spans.push_back(record);
}

Span::~Span() {
  if (buffer_ == nullptr) {
    return;
  }
  ThreadSpans* t = static_cast<ThreadSpans*>(buffer_);
  t->spans[static_cast<std::size_t>(index_)].end = NowNs();
  t->open.pop_back();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void ClearSpans() {
  std::lock_guard<std::mutex> l(g_threads_mu);
  g_threads.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

TraceSummary SummarizeSpans() {
  std::lock_guard<std::mutex> l(g_threads_mu);
  TraceSummary summary;
  for (const auto& t : g_threads) {
    const std::vector<SpanRecord>& spans = t->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::size_t> top(spans.size(), 0);
    // Parents are recorded before their children.
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration = static_cast<double>(spans[i].end - spans[i].start);
      if (spans[i].parent >= 0) {
        const auto parent = static_cast<std::size_t>(spans[i].parent);
        child_ns[parent] += duration;
        top[i] = top[parent];
      } else {
        top[i] = i;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration = static_cast<double>(spans[i].end - spans[i].start);
      const double self = duration - child_ns[i];
      SpanTotals& totals = summary.by_name[spans[i].name];
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += self;
      ++summary.spans;
      if (!IsEndToEndRoot(spans[top[i]].name)) {
        continue;
      }
      if (top[i] == i) {
        summary.e2e_ns += duration;
        summary.unattributed_ns += self;
      } else {
        summary.layer_self_ns[SpanLayer(spans[i].name)] += self;
      }
    }
  }
  return summary;
}

Status DumpSpans(const std::string& path) {
  std::lock_guard<std::mutex> l(g_threads_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write " + path);
  }
  std::fprintf(f, "thread,index,parent,name,root,start_ns,end_ns\n");
  for (const auto& t : g_threads) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      std::fprintf(f, "%u,%zu,%d,%s,%llu,%lld,%lld\n", t->thread, i, s.parent,
                   SpanNameText(s.name), static_cast<unsigned long long>(s.root),
                   static_cast<long long>(s.start), static_cast<long long>(s.end));
    }
  }
  return std::fclose(f) == 0 ? Status::Ok() : Status::IoError("cannot write " + path);
}

// ---- Registry ------------------------------------------------------------------

namespace {

const char* const kCounters[] = {
    "log.forces",           "log.entries_staged",   "log.bytes_forced",
    "stable.cache.hits",    "stable.cache.misses",  "residency.faults",
    "residency.fault_reads", "residency.evictions", "tpc.net.sent",
};
const char* const kHistograms[] = {
    "recovery.find_head_ns", "recovery.walk_apply_ns", "recovery.finalize_ns",
    "residency.fault_ns",
};

}  // namespace

RegistrySnapshot RegistrySnapshot::operator-(const RegistrySnapshot& base) const {
  RegistrySnapshot d = *this;
  for (auto& [name, value] : d.values) {
    value -= base[name];
  }
  return d;
}

RegistrySnapshot& RegistrySnapshot::operator+=(const RegistrySnapshot& other) {
  for (const auto& [name, value] : other.values) {
    values[name] += value;
  }
  return *this;
}

double RegistrySnapshot::operator[](const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

RegistrySnapshot SnapshotRegistry() {
  RegistrySnapshot s;
  for (const char* name : kCounters) {
    s.values[name] = static_cast<double>(argus::obs::GetCounter(name)->Value());
  }
  for (const char* name : kHistograms) {
    const argus::obs::Histogram* h = argus::obs::GetHistogram(name);
    s.values[std::string(name) + ".sum"] = static_cast<double>(h->Sum());
    s.values[std::string(name) + ".count"] = static_cast<double>(h->Count());
  }
  return s;
}

double ResidencyFaultNs() {
  static const argus::obs::Histogram* faults = argus::obs::GetHistogram("residency.fault_ns");
  return static_cast<double>(faults->Sum());
}

// ---- Pass results ----------------------------------------------------------------

void PassResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 16) {
    errors.push_back(what);
  }
}

void PassResult::MergeActions(const PassResult& other) {
  commit_us.insert(commit_us.end(), other.commit_us.begin(), other.commit_us.end());
  committed += other.committed;
  attempted += other.attempted;
  failed += other.failed;
  space_sum += other.space_sum;
  space_samples += other.space_samples;
  payload_bytes += other.payload_bytes;
  for (const std::string& e : other.errors) {
    if (errors.size() < 16) {
      errors.push_back(e);
    }
  }
}

void PassResult::EndRound(std::size_t first, double round_timed_s,
                          std::uint64_t round_committed) {
  const std::vector<double> round(commit_us.begin() + static_cast<std::ptrdiff_t>(first),
                                  commit_us.end());
  round_p50_us.push_back(Percentile(round, 50.0));
  round_p99_us.push_back(Percentile(round, 99.0));
  round_tput.push_back(round_timed_s > 0 ? static_cast<double>(round_committed) / round_timed_s
                                         : 0.0);
}

void PassResult::EndRestartEvent(std::size_t first) {
  if (first < restart_ms.size()) {
    restart_event_ms.push_back(
        *std::min_element(restart_ms.begin() + static_cast<std::ptrdiff_t>(first), restart_ms.end()));
  }
}

// ---- Single-guardian actions -------------------------------------------------------

std::string SlotName(std::size_t slot) { return "s" + std::to_string(slot); }

std::string MakePayload(std::size_t size, std::uint64_t tag) {
  std::string s(size, static_cast<char>('a' + tag % 26));
  const std::string id = std::to_string(tag);
  s.replace(0, std::min(id.size(), size), id, 0, std::min(id.size(), size));
  return s;
}

Status LocalGuardian::Create(std::size_t objects, std::size_t payload_bytes, std::uint64_t tag) {
  constexpr std::size_t kObjectsPerAction = 256;
  payload = payload_bytes;
  heap = std::make_unique<argus::VolatileHeap>();
  rs = std::make_unique<argus::RecoverySystem>(config, heap.get());
  slots.assign(objects, nullptr);
  model.assign(objects, std::string());
  for (std::size_t first = 0; first < objects; first += kObjectsPerAction) {
    ActionId aid{GuardianId{0}, next_sequence++};
    ActionContext ctx(aid);
    for (std::size_t i = first; i < std::min(objects, first + kObjectsPerAction); ++i) {
      model[i] = MakePayload(payload, Mix(tag, i));
      RecoverableObject* obj = ctx.CreateAtomic(*heap, Value::Str(model[i]));
      Status s = ctx.UpdateObject(heap->root(), [&](Value& root) {
        root.as_record()[SlotName(i)] = Value::Ref(obj);
      });
      if (!s.ok()) {
        return s;
      }
      slots[i] = obj;
    }
    Status s = rs->Prepare(aid, ctx.TakeMos());
    if (s.ok()) {
      s = rs->Commit(aid);
    }
    if (!s.ok()) {
      return s;
    }
    ctx.CommitVolatile(*heap);
  }
  return Status::Ok();
}

Status LocalGuardian::Act(argus::Rng& rng, std::size_t writes, std::uint64_t tag, bool timed,
                          const MeteredMedium* space_probe, PassResult* tally) {
  ++tally->attempted;
  std::vector<std::size_t> chosen;
  while (chosen.size() < writes) {
    const auto slot = static_cast<std::size_t>(rng.NextBelow(slots.size()));
    if (std::find(chosen.begin(), chosen.end(), slot) == chosen.end()) {
      chosen.push_back(slot);
    }
  }
  std::vector<std::string> values;
  for (std::size_t k = 0; k < writes; ++k) {
    values.push_back(MakePayload(payload, Mix(tag, k)));
  }

  Status status = Status::Ok();
  std::int64_t start = 0;
  std::int64_t end = 0;
  {
    Span action(SpanName::kAction);
    start = NowNs();
    LogAddress commit_address;
    std::uint64_t epoch = 0;
    {
      std::unique_lock<std::mutex> lock(exclusion, std::defer_lock);
      {
        Span wait(SpanName::kExclusionWait);
        lock.lock();
      }
      ActionContext ctx(ActionId{GuardianId{0}, next_sequence++});
      for (std::size_t k = 0; k < writes && status.ok(); ++k) {
        Span write(SpanName::kObjectWrite);
        status = ctx.WriteObject(slots[chosen[k]], Value::Str(values[k]));
      }
      if (status.ok()) {
        Span stage(SpanName::kStage);
        Result<LogAddress> prepared = rs->StagePrepare(ctx.aid(), ctx.TakeMos());
        if (!prepared.ok()) {
          status = prepared.status();
        } else {
          Result<LogAddress> committed = rs->StageCommit(ctx.aid());
          if (committed.ok()) {
            commit_address = committed.value();
          } else {
            status = committed.status();
          }
        }
      }
      if (!status.ok()) {
        ctx.AbortVolatile(*heap);
        tally->Fail("action: " + status.ToString());
        return status;
      }
      epoch = rs->durability_epoch();
      {
        Span commit(SpanName::kCommitVolatile);
        ctx.CommitVolatile(*heap);
      }
      for (std::size_t k = 0; k < writes; ++k) {
        model[chosen[k]] = std::move(values[k]);
      }
    }
    Span wait(SpanName::kDurableWait);
    status = rs->WaitDurable(commit_address, epoch);
    end = NowNs();
  }
  if (!status.ok()) {
    tally->Fail("durable wait: " + status.ToString());
    return status;
  }
  if (timed) {
    tally->commit_us.push_back(static_cast<double>(end - start) / 1e3);
    ++tally->committed;
    tally->payload_bytes += writes * payload;
    const std::uint64_t log_bytes =
        space_probe != nullptr ? space_probe->durable_bytes() : rs->log().durable_size();
    tally->space_sum += static_cast<double>(log_bytes) / static_cast<double>(live_payload_bytes());
    ++tally->space_samples;
  }
  return Status::Ok();
}

std::unique_ptr<argus::StableLog> LocalGuardian::Crash() {
  rs->CrashCoordinators();
  std::unique_ptr<argus::StableLog> log = rs->TakeLog();
  rs.reset();
  heap.reset();
  std::fill(slots.begin(), slots.end(), nullptr);
  return log;
}

Result<argus::RecoveryInfo> LocalGuardian::Recover(std::unique_ptr<argus::StableLog> log) {
  Span span(SpanName::kRecover);
  heap = std::make_unique<argus::VolatileHeap>();
  rs = std::make_unique<argus::RecoverySystem>(config, heap.get(), std::move(log));
  return rs->Recover();
}

Status LocalGuardian::ResolveAndCheck() {
  const Value& root = heap->root()->base_version();
  if (!root.is_record()) {
    return Status::Corruption("recovered root is not a record");
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    auto it = root.as_record().find(SlotName(i));
    if (it == root.as_record().end() || !it->second.is_ref()) {
      return Status::Corruption("stable variable " + SlotName(i) + " lost");
    }
    slots[i] = it->second.as_ref();
    const Value& v = slots[i]->base_version();
    if (!v.is_str() || v.as_str() != model[i]) {
      return Status::Corruption("stable variable " + SlotName(i) +
                                " differs from its last acknowledged commit");
    }
  }
  return Status::Ok();
}

// ---- Helpers ---------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double PeakRssMiB() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

unsigned HostCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) {
    return 1;
  }
  return static_cast<unsigned>(CPU_COUNT(&cpus));
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Metrics EndToEnd(const PassResult& r) {
  Metrics m;
  m["commit_p50_us"] = {Median(r.round_p50_us), "us"};
  m["commit_p99_us"] = {Median(r.round_p99_us), "us"};
  m["commit_tput"] = {Median(r.round_tput), "actions/s"};
  m["restart_ms"] = {Mean(r.restart_event_ms), "ms"};
  m["space_amp"] = {Ratio(r.space_sum, static_cast<double>(r.space_samples)), "ratio"};
  m["write_amp"] = {Ratio(static_cast<double>(r.media.physical_bytes),
                          static_cast<double>(r.payload_bytes)),
                    "ratio"};
  m["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
  m["setup_s"] = {Median(r.setup_s), "s"};
  return m;
}

Metrics PerLayer(const PassResult& r, const TraceSummary& trace) {
  auto total_ns = [&](SpanName name) {
    auto it = trace.by_name.find(name);
    return it == trace.by_name.end() ? 0.0 : it->second.total_ns;
  };
  auto self_ns = [&](SpanName name) {
    auto it = trace.by_name.find(name);
    return it == trace.by_name.end() ? 0.0 : it->second.self_ns;
  };
  auto count = [&](SpanName name) {
    auto it = trace.by_name.find(name);
    return it == trace.by_name.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double committed = static_cast<double>(r.committed);
  const double restarts = static_cast<double>(r.restarts);
  const RegistrySnapshot& g = r.registry;
  const RegistrySnapshot& rg = r.restart_registry;

  Metrics m;
  // stable
  m["stable.append_us"] = {Ratio(static_cast<double>(r.media.append_ns) / 1e3,
                                 static_cast<double>(r.media.appends)),
                           "us"};
  m["stable.write_bytes_per_action"] = {Ratio(static_cast<double>(r.media.physical_bytes),
                                              committed),
                                        "bytes"};
  m["stable.open_ms"] = {Ratio(total_ns(SpanName::kOpen) / 1e6, restarts), "ms"};
  m["stable.read_calls_per_restart"] = {Ratio(static_cast<double>(r.restart_media.reads),
                                              restarts),
                                        "count"};
  m["stable.read_mb_per_restart"] = {
      Ratio(static_cast<double>(r.restart_media.read_bytes) / 1048576.0, restarts), "MiB"};
  m["stable.read_ms_per_restart"] = {
      Ratio(static_cast<double>(r.restart_media.read_ns) / 1e6, restarts), "ms"};
  m["stable.cache_hit_rate"] = {
      Ratio(g["stable.cache.hits"], g["stable.cache.hits"] + g["stable.cache.misses"]),
      "ratio"};
  // log
  m["log.forces_per_action"] = {Ratio(g["log.forces"], committed), "count"};
  m["log.entries_per_force"] = {Ratio(g["log.entries_staged"], g["log.forces"]), "count"};
  m["log.bytes_per_action"] = {Ratio(g["log.bytes_forced"], committed), "bytes"};
  m["log.durable_wait_us"] = {Ratio(total_ns(SpanName::kDurableWait) / 1e3, committed), "us"};
  const double stage_ns = rg["recovery.find_head_ns.sum"] + rg["recovery.walk_apply_ns.sum"] +
                          rg["recovery.finalize_ns.sum"];
  m["log.top_scan_ms"] = {
      Ratio((total_ns(SpanName::kLogOpen) + self_ns(SpanName::kRecover) - stage_ns) / 1e6,
            restarts),
      "ms"};
  // recovery
  m["recovery.stage_us"] = {Ratio(total_ns(SpanName::kStage) / 1e3, committed), "us"};
  m["recovery.find_head_ms"] = {Ratio(rg["recovery.find_head_ns.sum"] / 1e6, restarts), "ms"};
  m["recovery.walk_ms"] = {Ratio(rg["recovery.walk_apply_ns.sum"] / 1e6, restarts), "ms"};
  m["recovery.finalize_ms"] = {Ratio(rg["recovery.finalize_ns.sum"] / 1e6, restarts), "ms"};
  m["recovery.entries_examined"] = {Ratio(static_cast<double>(r.entries_examined), restarts),
                                    "count"};
  m["recovery.data_entries_read"] = {Ratio(static_cast<double>(r.data_entries_read), restarts),
                                     "count"};
  m["recovery.checkpoint_ms"] = {
      Ratio(total_ns(SpanName::kCheckpoint) / 1e6, count(SpanName::kCheckpoint)), "ms"};
  m["recovery.checkpoints"] = {static_cast<double>(r.checkpoints), "count"};
  // object
  m["object.write_us"] = {
      Ratio((total_ns(SpanName::kObjectWrite) - r.write_fault_ns) / 1e3, committed), "us"};
  m["object.commit_volatile_us"] = {Ratio(total_ns(SpanName::kCommitVolatile) / 1e3, committed),
                                    "us"};
  // residency
  m["residency.pass_us"] = {
      Ratio(total_ns(SpanName::kResidencyPass) / 1e3, count(SpanName::kResidencyPass)), "us"};
  m["residency.faults_per_action"] = {Ratio(g["residency.faults"], committed), "count"};
  m["residency.reads_per_fault"] = {Ratio(g["residency.fault_reads"], g["residency.faults"]),
                                    "count"};
  m["residency.evictions_per_action"] = {Ratio(g["residency.evictions"], committed), "count"};
  m["residency.fault_us"] = {
      Ratio(g["residency.fault_ns.sum"] / 1e3, g["residency.fault_ns.count"]), "us"};
  // tpc
  m["tpc.msgs_per_action"] = {Ratio(g["tpc.net.sent"], committed), "count"};
  m["tpc.lookup_us"] = {Ratio(total_ns(SpanName::kLookup) / 1e3, committed), "us"};
  m["tpc.protocol_us"] = {Ratio(self_ns(SpanName::kProtocol) / 1e3, committed), "us"};
  // bench
  m["bench.exclusion_wait_us"] = {Ratio(total_ns(SpanName::kExclusionWait) / 1e3, committed),
                                  "us"};
  m["bench.unattributed_frac"] = {Ratio(trace.unattributed_ns, trace.e2e_ns), "ratio"};
  for (const char* layer : {"stable", "log", "recovery", "object", "residency", "tpc", "bench"}) {
    auto it = trace.layer_self_ns.find(layer);
    const double self = it == trace.layer_self_ns.end() ? 0.0 : it->second;
    m[std::string(layer) + ".self_frac"] = {Ratio(self, trace.e2e_ns), "ratio"};
  }
  return m;
}

}  // namespace perfbench
