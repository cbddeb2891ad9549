// The observability subsystem: registry semantics (counters, gauges,
// histograms, JSON snapshot shape), trace events with logical timestamps,
// the per-thread flight recorder, and the determinism contract — two runs of
// the same seeded workload emit identical event sequences.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tpc/workload.h"
#include "tests/test_support.h"

namespace argus {
namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsCounter, AddAndResetSemantics) {
  obs::Counter* c = obs::GetCounter("test.counter.basic");
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(ObsCounter, SameNameSameHandle) {
  obs::Counter* a = obs::GetCounter("test.counter.identity");
  obs::Counter* b = obs::GetCounter("test.counter.identity");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct metrics under the same base name.
  obs::Counter* labeled =
      obs::GetCounter(obs::Labeled("test.counter.identity", {{"g", "0"}}));
  EXPECT_NE(a, labeled);
}

TEST(ObsCounter, RuntimeDisableStopsAccumulation) {
  obs::Counter* c = obs::GetCounter("test.counter.disable");
  c->Reset();
  bool prev = obs::SetEnabled(false);
  c->Add(7);
  EXPECT_EQ(c->Value(), 0u);
  obs::SetEnabled(true);
  c->Add(7);
  EXPECT_EQ(c->Value(), 7u);
  obs::SetEnabled(prev);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge* g = obs::GetGauge("test.gauge.basic");
  g->Set(0.25);
  g->Set(0.75);
  EXPECT_DOUBLE_EQ(g->Value(), 0.75);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(ObsHistogram, PowerOfTwoBuckets) {
  obs::Histogram* h = obs::GetHistogram("test.hist.buckets");
  h->Reset();
  h->Record(0);     // bucket 0: exactly zero
  h->Record(1);     // bucket 1: [1, 1]
  h->Record(2);     // bucket 2: [2, 3]
  h->Record(3);     // bucket 2
  h->Record(1000);  // bucket 10: [512, 1023]
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_EQ(h->Sum(), 1006u);
  EXPECT_EQ(h->Max(), 1000u);
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 2u);
  EXPECT_EQ(h->BucketCount(10), 1u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(10), 1023u);
}

TEST(ObsHistogram, ApproxPercentileReturnsBucketUpperBounds) {
  obs::Histogram* h = obs::GetHistogram("test.hist.percentile");
  h->Reset();
  EXPECT_EQ(h->ApproxPercentile(50.0), 0u);  // empty
  for (int i = 0; i < 99; ++i) {
    h->Record(1);
  }
  h->Record(1 << 20);
  EXPECT_EQ(h->ApproxPercentile(50.0), 1u);
  // The single outlier owns the very top of the distribution.
  EXPECT_GE(h->ApproxPercentile(99.95), std::uint64_t{1} << 20);
}

TEST(ObsHistogram, OverflowClampsIntoLastBucket) {
  obs::Histogram* h = obs::GetHistogram("test.hist.clamp");
  h->Reset();
  h->Record(~std::uint64_t{0});
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_EQ(h->BucketCount(obs::Histogram::kBuckets - 1), 1u);
}

TEST(ObsRegistry, LabeledNameFormat) {
  EXPECT_EQ(obs::Labeled("log.forces", {{"guardian", "3"}}), "log.forces{guardian=3}");
  EXPECT_EQ(obs::Labeled("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
  EXPECT_EQ(obs::Labeled("bare", {}), "bare");
}

TEST(ObsRegistry, JsonSnapshotShape) {
  obs::GetCounter("test.json.counter")->Reset();
  obs::GetCounter("test.json.counter")->Add(3);
  obs::GetGauge("test.json.gauge")->Set(0.5);
  obs::Histogram* h = obs::GetHistogram("test.json.hist");
  h->Reset();
  h->Record(100);

  std::string doc = obs::Registry::Global().ToJson();
  EXPECT_NE(doc.find("\"schema\":\"argus.metrics.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"test.json.hist\":{\"count\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"buckets\":["), std::string::npos);
  // Instrumented layers register at first touch; the storage stack built by
  // other tests in this binary (and the workload below) guarantees the core
  // names are present in any full-suite snapshot.
}

// ---------------------------------------------------------------------------
// Trace events and the flight recorder
// ---------------------------------------------------------------------------

TEST(ObsTrace, LogicalTimestampsAndFormat) {
  obs::ResetTraceForTest();
  obs::Emit("test.ev", 1, 2, 3);
  obs::EmitBegin("test.span", 9);
  obs::EmitEnd("test.span", 9);
  std::vector<obs::TraceEvent> events = obs::SnapshotFlightRecorders();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "test.ev");
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kInstant);
  EXPECT_EQ(events[1].kind, obs::EventKind::kBegin);
  EXPECT_EQ(events[2].kind, obs::EventKind::kEnd);
  EXPECT_EQ(FormatEvent(events[0]), "t0 #0 I test.ev a=1 b=2 c=3");
  EXPECT_EQ(FormatEvent(events[1]), "t0 #1 B test.span a=9 b=0 c=0");
}

TEST(ObsTrace, DumpGroupsByThread) {
  obs::ResetTraceForTest();
  obs::Emit("test.dump.ev", 5);
  std::string dump = obs::DumpFlightRecorders();
  EXPECT_NE(dump.find("=== flight recorder (1 threads) ==="), std::string::npos);
  EXPECT_NE(dump.find("--- thread 0 ---"), std::string::npos);
  EXPECT_NE(dump.find("test.dump.ev a=5"), std::string::npos);
}

TEST(ObsTrace, RingKeepsOnlyTheLastCapacityEvents) {
  obs::ResetTraceForTest();
  for (std::uint64_t i = 0; i < obs::kFlightRecorderCapacity + 10; ++i) {
    obs::Emit("test.ring.ev", i);
  }
  std::vector<obs::TraceEvent> events = obs::SnapshotFlightRecorders();
  ASSERT_EQ(events.size(), obs::kFlightRecorderCapacity);
  // Oldest first, and the window ends at the most recent emission.
  EXPECT_EQ(events.front().a, 10u);
  EXPECT_EQ(events.back().a, obs::kFlightRecorderCapacity + 9);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

// The thread count in a dump's "=== flight recorder (N threads) ===" header.
std::size_t DumpedThreads(const std::string& dump) {
  const std::string header = "=== flight recorder (";
  EXPECT_EQ(dump.rfind(header, 0), 0u) << dump.substr(0, 80);
  return std::stoul(dump.substr(header.size()));
}

TEST(ObsTrace, DumpKeepsOnlyTheNewestRetiredRings) {
  obs::ResetTraceForTest();
  obs::Emit("test.retire.main");  // registers this thread's ring
  // After the reset only live rings remain: in a fresh process, this thread's.
  const std::size_t live = DumpedThreads(obs::DumpFlightRecorders());
  constexpr std::size_t kExited = obs::kMaxRetiredFlightRecorders + 8;
  for (std::size_t i = 0; i < kExited; ++i) {
    std::thread([i] { obs::Emit("test.retire.ev", i); }).join();
  }
  const std::string dump = obs::DumpFlightRecorders();
  EXPECT_LE(DumpedThreads(dump), obs::kMaxRetiredFlightRecorders + live);
  EXPECT_NE(dump.find("test.retire.ev a=" + std::to_string(kExited - 1) + " "),
            std::string::npos);
  EXPECT_EQ(dump.find("test.retire.ev a=0 "), std::string::npos);
  EXPECT_NE(dump.find("test.retire.main"), std::string::npos);
}

TEST(ObsTrace, DisabledEmitsNothing) {
  obs::ResetTraceForTest();
  bool prev = obs::SetEnabled(false);
  obs::Emit("test.disabled.ev");
  obs::SetEnabled(prev);
  // The emit above must not have registered a ring entry.
  EXPECT_TRUE(obs::SnapshotFlightRecorders().empty());
}

// ---------------------------------------------------------------------------
// Trace determinism: same seed, same event sequence
// ---------------------------------------------------------------------------

void CaptureSink(void* ctx, const obs::TraceEvent& e) {
  static_cast<std::vector<std::string>*>(ctx)->push_back(FormatEvent(e));
}

// Runs the serial (single-threaded, network-driven) workload and captures the
// COMPLETE emitted event sequence via the test sink (the ring only keeps a
// window).
std::vector<std::string> SerialWorkloadTrace(std::uint64_t seed) {
  obs::ResetTraceForTest();
  std::vector<std::string> lines;
  obs::SetTraceSink(&CaptureSink, &lines);
  SimWorldConfig wc;
  wc.guardian_count = 2;
  wc.mode = LogMode::kHybrid;
  wc.seed = seed;
  SimWorld world(wc);
  WorkloadConfig config;
  config.seed = seed;
  config.crash_probability = 0.05;
  WorkloadDriver driver(&world, config);
  EXPECT_TRUE(driver.Setup().ok());
  EXPECT_TRUE(driver.Run(40).ok());
  obs::SetTraceSink(nullptr, nullptr);
  return lines;
}

TEST(ObsTraceDeterminism, SameSeedSameEventSequence) {
  std::vector<std::string> first = SerialWorkloadTrace(2026);
  std::vector<std::string> second = SerialWorkloadTrace(2026);
  ASSERT_GT(first.size(), 100u);  // the workload actually traced
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "divergence at event " << i;
  }
  // And a different seed takes a different path (the test is not vacuous).
  std::vector<std::string> other = SerialWorkloadTrace(2027);
  EXPECT_NE(first, other);
}

}  // namespace
}  // namespace argus
