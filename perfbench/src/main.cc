// perfbench: the repository's commit and restart benchmark.
//
//   perfbench --workload commit|twophase|restart --seed N --seconds S --trace 0|1
//             [--small]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same inputs
// twice, untraced then traced, checks that both passes did the same work
// (appends, forces, bytes forced, entries examined), and prints the per-layer
// metrics of the traced pass, each layer's self time and the tracing
// overhead. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/prctl.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "perfbench/src/harness.h"
#include "src/common/crc32.h"

namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload commit|twophase|restart --seed N --seconds S "
               "--trace 0|1 [--small]\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--small") {
      o->small = true;
    } else if (arg == "--workload" && (v = next())) {
      o->workload = v;
    } else if (arg == "--seed" && (v = next())) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = next())) {
      o->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = next())) {
      o->trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return (o->workload == "commit" || o->workload == "twophase" || o->workload == "restart") &&
         o->seconds > 0;
}

Status RunPass(const Options& o, PassResult* r) {
  ClearSpans();
  if (o.workload == "commit") {
    return RunCommit(o, r);
  }
  if (o.workload == "twophase") {
    return RunTwoPhase(o, r);
  }
  return RunRestart(o, r);
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

const char* CrcName() {
  switch (argus::GetCrc32Impl()) {
    case argus::Crc32Impl::kHardware:
      return argus::Crc32HardwareAvailable() ? "hardware" : "slice-by-8 (no hardware CRC)";
    case argus::Crc32Impl::kSliceBy8:
      return "slice-by-8";
    case argus::Crc32Impl::kByteTable:
      return "byte-table";
  }
  return "unknown";
}

// The counts a traced pass must share with the untraced pass of the same
// inputs. Forces (and so appends) are set by thread timing on `commit`, where
// only their equality within each pass is required.
int Reconcile(const std::string& workload, const PassResult& plain, const PassResult& traced) {
  int mismatches = 0;
  auto check = [&](const char* what, double a, double b) {
    if (a != b) {
      std::printf("reconcile MISMATCH %s: untraced %.17g traced %.17g\n", what, a, b);
      ++mismatches;
    } else {
      std::printf("reconcile ok %s: %.17g\n", what, a);
    }
  };
  for (const PassResult* r : {&plain, &traced}) {
    check(r == &plain ? "untraced appends == forces" : "traced appends == forces",
          static_cast<double>(r->media.appends), r->registry["log.forces"]);
  }
  check("bytes forced", plain.registry["log.bytes_forced"], traced.registry["log.bytes_forced"]);
  check("entries examined", static_cast<double>(plain.entries_examined),
        static_cast<double>(traced.entries_examined));
  if (workload != "commit") {
    check("appends", static_cast<double>(plain.media.appends),
          static_cast<double>(traced.media.appends));
    check("forces", plain.registry["log.forces"], traced.registry["log.forces"]);
  } else {
    std::printf("reconcile info forces (timing-dependent on commit): untraced %.17g traced %.17g\n",
                plain.registry["log.forces"], traced.registry["log.forces"]);
  }
  return mismatches;
}

int Main(int argc, char** argv) {
  // Sleeps in the device model should last what they ask for: without this,
  // the default 50 µs timer slack is half the modeled service time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    Usage();
    return 2;
  }
  ::mkdir(".bench_build", 0755);
  ::mkdir(kDataDir, 0755);

  PassResult plain;
  Options untraced = o;
  untraced.trace = false;
  Status s = RunPass(untraced, &plain);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
  }

  Metrics metrics;
  PassResult traced;
  TraceSummary trace;
  int mismatches = 0;
  const PassResult* counted = &plain;
  if (!o.trace) {
    metrics = EndToEnd(plain);
  } else {
    Status traced_status = RunPass(o, &traced);
    if (!traced_status.ok()) {
      std::fprintf(stderr, "perfbench: traced pass: %s\n", traced_status.ToString().c_str());
      s = s.ok() ? traced_status : s;
    }
    trace = SummarizeSpans();
    // Residency faults run inside WriteObject, where no benchmark span reaches.
    trace.layer_self_ns["object"] -= traced.write_fault_self_ns;
    trace.layer_self_ns["residency"] += traced.write_fault_self_ns;
    const std::string dump = std::string(kDataDir) + "/trace-" + o.workload + ".csv";
    Status d = DumpSpans(dump);
    std::printf("trace %llu spans written to %s%s\n",
                static_cast<unsigned long long>(trace.spans), dump.c_str(),
                d.ok() ? "" : " (FAILED)");
    metrics = PerLayer(traced, trace);
    mismatches = Reconcile(o.workload, plain, traced);
    metrics["bench.reconcile_mismatches"] = {static_cast<double>(mismatches), "count"};
    const Metrics e2e_plain = EndToEnd(plain);
    const Metrics e2e_traced = EndToEnd(traced);
    const char* base = o.workload == "restart" ? "restart_ms" : "commit_p50_us";
    const double before = e2e_plain.at(base).first;
    metrics["bench.trace_overhead_frac"] = {
        before > 0 ? (e2e_traced.at(base).first - before) / before : 0.0, "ratio"};
    std::printf("layer self time (traced pass, under commit and restart spans):\n");
    for (const auto& [layer, ns] : trace.layer_self_ns) {
      std::printf("  %-10s %12.3f ms  %6.2f%%\n", layer.c_str(), ns / 1e6,
                  trace.e2e_ns > 0 ? 100.0 * ns / trace.e2e_ns : 0.0);
    }
    std::printf("  %-10s %12.3f ms  %6.2f%%\n", "(none)", trace.unattributed_ns / 1e6,
                trace.e2e_ns > 0 ? 100.0 * trace.unattributed_ns / trace.e2e_ns : 0.0);
    counted = &traced;
  }

  const std::uint64_t attempted = plain.attempted + (o.trace ? traced.attempted : 0);
  const std::uint64_t failed = plain.failed + (o.trace ? traced.failed : 0);
  const bool correct = s.ok() && failed == 0 && mismatches == 0 && attempted > 0;

  // Stamp: the host and set-up these numbers belong to.
  std::map<std::string, std::string> stamp = counted->stamp;
  stamp["nproc"] = std::to_string(HostCpus());
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  stamp["crc32"] = CrcName();
  // Every log in every workload uses the default ReadCache configuration.
  const argus::ReadCache::Config cache;
  stamp["read_cache"] = std::string(cache.enabled ? "on, " : "off, ") +
                        std::to_string(cache.block_size * cache.max_blocks) + " bytes";
  if (stamp.find("io_uring") == stamp.end()) {
    stamp["io_uring"] = "n/a (no file medium)";
  }
  std::string stamp_json = "{";
  for (const auto& [k, v] : stamp) {
    stamp_json += (stamp_json.size() > 1 ? ", " : "") + Quote(k) + ": " + Quote(v);
  }
  stamp_json += "}";

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d small=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.small ? 1 : 0);
  std::printf("stamp %s\n", stamp_json.c_str());
  for (const auto& [name, value] : metrics) {
    std::printf("metric %-36s %16.6f %s\n", name.c_str(), value.first, value.second.c_str());
  }
  if (!o.trace) {
    std::printf("  (commit samples n=%zu, restarts n=%zu in %zu events, set-ups n=%zu)\n",
                plain.commit_us.size(), plain.restart_ms.size(), plain.restart_event_ms.size(),
                plain.setup_s.size());
    std::printf("  restart_ms samples:");
    for (double v : plain.restart_ms) {
      std::printf(" %.1f", v);
    }
    std::printf("\n  setup_s samples:");
    for (double v : plain.setup_s) {
      std::printf(" %.4f", v);
    }
    std::printf("\n");
  }
  std::printf("metric %-36s %16.6f ratio  (%llu failed of %llu attempted; %llu client aborts)\n",
              "failed_frac",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(plain.client_aborts));
  for (const PassResult* r : {&plain, &traced}) {
    for (const std::string& e : r->errors) {
      std::printf("error %s\n", e.c_str());
    }
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += (first ? "" : ", ") + Quote(name) + ": {\"value\": " + Number(value.first) +
            ", \"unit\": " + Quote(value.second) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  // A run that went wrong still reports: "correct" carries the verdict.
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
