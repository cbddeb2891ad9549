// Trace events with logical timestamps, and the per-thread flight recorder.
//
// Events carry NO wall-clock time. Each event is stamped with (tid, seq):
// `tid` is a small dense index assigned in ring-registration order and `seq`
// is that thread's monotone event counter. Two runs of the same seeded
// workload therefore emit byte-identical event sequences — wall-clock cost
// lives in registry histograms (src/obs/metrics.h), never in the trace.
// Durations in a trace are *intervals between logical events*, which is what
// crash forensics needs: not "how long", but "in what order, with what state".
//
// The flight recorder keeps the last kCapacity events per thread in a lock-
// free single-writer ring. Dumps happen at three moments:
//  - on a coherent crash (the workload driver's crash executor snapshots all
//    rings while workers are parked at the rendezvous);
//  - on a fatal ARGUS_CHECK failure (a hook installed into CheckFailed);
//  - on property-test failure (tests/test_support.h
//    ScopedFlightRecorderDumpOnFailure).
//
// Concurrency contract: Append is called only by the ring's owning thread.
// Snapshot from another thread is exact when the owner is quiescent (parked,
// joined, or dead) and best-effort — torn but memory-safe, via relaxed
// atomics — when racing a live owner (the fatal-error path).
//
// Event payloads (a, b, c) are raw u64s whose meaning is per event name; the
// catalog lives in DESIGN.md "Observability". Names must be string literals
// with static storage duration — the ring stores the pointer.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/metrics.h"  // Enabled()

namespace argus::obs {

enum class EventKind : std::uint8_t {
  kInstant = 0,
  kBegin = 1,
  kEnd = 2,
};

struct TraceEvent {
  const char* name = nullptr;  // static string literal
  std::uint64_t seq = 0;       // per-thread logical timestamp
  std::uint32_t tid = 0;       // dense thread index (registration order)
  EventKind kind = EventKind::kInstant;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

// "t<tid> #<seq> I|B|E <name> a=<a> b=<b> c=<c>" — the dump line format.
std::string FormatEvent(const TraceEvent& e);

// Emit one event on the calling thread's ring (and the test sink, if set).
// No-ops when obs is disabled. `name` must be a static literal.
void Emit(const char* name, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0);
void EmitBegin(const char* name, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0);
void EmitEnd(const char* name, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0);

// RAII begin/end pair. The end event repeats `a` so dumps pair up without
// a matching stack.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t a = 0, std::uint64_t b = 0)
      : name_(name), a_(a) {
    EmitBegin(name, a, b);
  }
  ~TraceSpan() { EmitEnd(name_, a_); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t a_;
};

// ---- Flight recorder ----

// Events kept per thread. Sized to hold a few dozen commit lifecycles — the
// window the reconciler needs to see every staged-but-undurable entry of the
// crashing batch.
inline constexpr std::size_t kFlightRecorderCapacity = 512;

// Rings of exited threads that dumps keep: a thread that exits past this
// many drops the oldest retired ring. Live rings always stay, so a dump still
// shows every parked worker and the last run's exited threads. Without the
// cap, a process that restarts its service threads at every crash formats
// hundreds of dead rings in each crash dump.
inline constexpr std::size_t kMaxRetiredFlightRecorders = 64;

// Snapshot of every kept ring (live, and the newest retired ones), oldest
// event first within each thread, threads in tid order. Exact when owners are
// quiescent (see header comment).
std::vector<TraceEvent> SnapshotFlightRecorders();

// The same snapshot plus the number of rings it read: everything a dump
// shows, before any formatting. A caller that may never read its dump keeps
// this and formats it only when asked.
struct FlightRecorderCapture {
  std::size_t threads = 0;
  std::vector<TraceEvent> events;
};
FlightRecorderCapture CaptureFlightRecorders();

// The standard dump: FormatEvent per line, one block per thread, prefixed
// with "=== flight recorder (N threads) ===". DumpFlightRecorders() formats
// a fresh capture.
std::string FormatFlightRecorders(const FlightRecorderCapture& capture);
std::string DumpFlightRecorders();
void DumpFlightRecordersTo(std::FILE* out);

// Clears every ring and resets the logical clock so a subsequent run emits
// the same (tid, seq) stamps as a fresh process: retired rings (dead threads)
// are unregistered, surviving rings are emptied with their seq reset to 0,
// and the next fresh thread gets tid = live ring count. Call only while no
// other thread is emitting (between runs).
void ResetTraceForTest();

// Test sink: receives every event as emitted, before ring insertion. Serial
// (single-threaded) workloads use it to capture complete sequences that
// outgrow the ring. Invoked under an internal mutex; keep it cheap and do not
// emit events from inside it. Pass nullptr to clear.
using TraceSink = void (*)(void* ctx, const TraceEvent& event);
void SetTraceSink(TraceSink sink, void* ctx);

}  // namespace argus::obs

#endif  // SRC_OBS_TRACE_H_
