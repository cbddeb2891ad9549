#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <deque>
#include <memory>
#include <mutex>

#include "src/common/result.h"

namespace argus::obs {

namespace {

// One thread's ring. Slots are relaxed atomics so a best-effort cross-thread
// snapshot of a live ring is memory-safe (possibly torn) instead of UB; the
// owning thread is the only writer, so its own view is always exact.
struct Ring {
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> c{0};
  };

  std::uint32_t tid = 0;
  std::uint64_t next_seq = 0;  // owner-thread only
  std::atomic<std::uint64_t> head{0};
  Slot slots[kFlightRecorderCapacity];

  void Append(const char* name, EventKind kind, std::uint64_t a, std::uint64_t b,
              std::uint64_t c, std::uint64_t seq) {
    std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& s = slots[h % kFlightRecorderCapacity];
    s.name.store(name, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_relaxed);
    s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
    s.a.store(a, std::memory_order_relaxed);
    s.b.store(b, std::memory_order_relaxed);
    s.c.store(c, std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  void SnapshotInto(std::vector<TraceEvent>& out) const {
    std::uint64_t h = head.load(std::memory_order_acquire);
    std::uint64_t n = std::min<std::uint64_t>(h, kFlightRecorderCapacity);
    for (std::uint64_t i = h - n; i < h; ++i) {
      const Slot& s = slots[i % kFlightRecorderCapacity];
      TraceEvent e;
      e.name = s.name.load(std::memory_order_relaxed);
      e.seq = s.seq.load(std::memory_order_relaxed);
      e.tid = tid;
      e.kind = static_cast<EventKind>(s.kind.load(std::memory_order_relaxed));
      e.a = s.a.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      e.c = s.c.load(std::memory_order_relaxed);
      if (e.name != nullptr) {
        out.push_back(e);
      }
    }
  }

  void Clear() {
    for (Slot& s : slots) {
      s.name.store(nullptr, std::memory_order_relaxed);
    }
    head.store(0, std::memory_order_relaxed);
    next_seq = 0;
  }
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> live;    // rings of running threads
  std::deque<std::shared_ptr<Ring>> retired;  // exited threads' rings, oldest first
  std::uint32_t next_tid = 0;
};

RingRegistry& Rings() {
  static RingRegistry* r = new RingRegistry();
  return *r;
}

void CheckFailureDump() {
  std::fputs(DumpFlightRecorders().c_str(), stderr);
  std::fflush(stderr);
}

// Retires the ring when its thread exits: the registry keeps it for
// post-mortem dumps, and drops the oldest retired ring past the cap.
struct ThreadRingHandle {
  std::shared_ptr<Ring> ring;
  ~ThreadRingHandle() {
    if (!ring) {
      return;
    }
    RingRegistry& reg = Rings();
    std::lock_guard<std::mutex> l(reg.mu);
    std::erase(reg.live, ring);
    reg.retired.push_back(std::move(ring));
    if (reg.retired.size() > kMaxRetiredFlightRecorders) {
      reg.retired.pop_front();
    }
  }
};

Ring* ThisThreadRing() {
  thread_local ThreadRingHandle handle;
  if (!handle.ring) {
    auto ring = std::make_shared<Ring>();
    RingRegistry& reg = Rings();
    {
      std::lock_guard<std::mutex> l(reg.mu);
      ring->tid = reg.next_tid++;
      reg.live.push_back(ring);
    }
    // Fatal errors anywhere in the process should come with event history;
    // install once, as soon as any thread traces.
    static std::once_flag hook_once;
    std::call_once(hook_once, [] { SetCheckFailureHook(&CheckFailureDump); });
    handle.ring = std::move(ring);
  }
  return handle.ring.get();
}

struct SinkState {
  std::mutex mu;
  TraceSink sink = nullptr;
  void* ctx = nullptr;
};

SinkState& Sink() {
  static SinkState* s = new SinkState();
  return *s;
}

std::atomic<bool> g_sink_active{false};

// Every kept ring, live and retired, in tid order.
std::vector<std::shared_ptr<Ring>> KeptRings() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& reg = Rings();
    std::lock_guard<std::mutex> l(reg.mu);
    rings = reg.live;
    rings.insert(rings.end(), reg.retired.begin(), reg.retired.end());
  }
  std::sort(rings.begin(), rings.end(),
            [](const auto& x, const auto& y) { return x->tid < y->tid; });
  return rings;
}

void EmitImpl(const char* name, EventKind kind, std::uint64_t a, std::uint64_t b,
              std::uint64_t c) {
  if (!Enabled()) {
    return;
  }
  Ring* ring = ThisThreadRing();
  std::uint64_t seq = ring->next_seq++;
  ring->Append(name, kind, a, b, c, seq);
  if (g_sink_active.load(std::memory_order_acquire)) {
    TraceEvent e{name, seq, ring->tid, kind, a, b, c};
    SinkState& s = Sink();
    std::lock_guard<std::mutex> l(s.mu);
    if (s.sink != nullptr) {
      s.sink(s.ctx, e);
    }
  }
}

}  // namespace

std::string FormatEvent(const TraceEvent& e) {
  char buf[160];
  const char* kind = e.kind == EventKind::kBegin ? "B" : e.kind == EventKind::kEnd ? "E" : "I";
  std::snprintf(buf, sizeof(buf),
                "t%" PRIu32 " #%" PRIu64 " %s %s a=%" PRIu64 " b=%" PRIu64 " c=%" PRIu64,
                e.tid, e.seq, kind, e.name != nullptr ? e.name : "?", e.a, e.b, e.c);
  return buf;
}

void Emit(const char* name, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  EmitImpl(name, EventKind::kInstant, a, b, c);
}

void EmitBegin(const char* name, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  EmitImpl(name, EventKind::kBegin, a, b, c);
}

void EmitEnd(const char* name, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  EmitImpl(name, EventKind::kEnd, a, b, c);
}

std::vector<TraceEvent> SnapshotFlightRecorders() { return CaptureFlightRecorders().events; }

FlightRecorderCapture CaptureFlightRecorders() {
  const std::vector<std::shared_ptr<Ring>> rings = KeptRings();
  FlightRecorderCapture capture;
  capture.threads = rings.size();
  for (const auto& ring : rings) {
    ring->SnapshotInto(capture.events);
  }
  return capture;
}

std::string FormatFlightRecorders(const FlightRecorderCapture& capture) {
  std::string out = "=== flight recorder (" + std::to_string(capture.threads) + " threads) ===\n";
  std::uint32_t current_tid = 0;
  bool first = true;
  for (const TraceEvent& e : capture.events) {
    if (first || e.tid != current_tid) {
      out += "--- thread " + std::to_string(e.tid) + " ---\n";
      current_tid = e.tid;
      first = false;
    }
    out += FormatEvent(e);
    out += '\n';
  }
  return out;
}

std::string DumpFlightRecorders() { return FormatFlightRecorders(CaptureFlightRecorders()); }

void DumpFlightRecordersTo(std::FILE* out) {
  std::fputs(DumpFlightRecorders().c_str(), out);
  std::fflush(out);
}

void ResetTraceForTest() {
  RingRegistry& reg = Rings();
  std::lock_guard<std::mutex> l(reg.mu);
  reg.retired.clear();
  for (auto& ring : reg.live) {
    ring->Clear();
  }
  // Surviving rings keep their tids; fresh threads continue just past them so
  // a re-run hands out the same dense tids as the first run did.
  std::uint32_t max_tid = 0;
  for (const auto& ring : reg.live) {
    max_tid = std::max(max_tid, ring->tid + 1);
  }
  reg.next_tid = max_tid;
}

void SetTraceSink(TraceSink sink, void* ctx) {
  SinkState& s = Sink();
  std::lock_guard<std::mutex> l(s.mu);
  s.sink = sink;
  s.ctx = ctx;
  g_sink_active.store(sink != nullptr, std::memory_order_release);
}

}  // namespace argus::obs
