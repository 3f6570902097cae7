// Observability suite: the sharded metrics registry (counter exactness
// under contention, histogram bucket boundaries and quantile accuracy,
// node-stable registry pointers) and the trace-span writer (structural
// shape of the emitted Chrome trace_event JSON, torn-tail line discipline).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace byterobust {
namespace {

// Every test that records must enable metrics; the flag is process-global
// and off by default (the CLI only flips it for --trace / serve).
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override { obs::SetMetricsEnabled(false); }
};

// --------------------------------------------------------------------------
// Counter
// --------------------------------------------------------------------------
TEST_F(ObsMetricsTest, CounterIsExactUnderContention) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(ObsMetricsTest, CounterDisabledPathIsANoOp) {
  obs::Counter counter;
  obs::SetMetricsEnabled(false);
  counter.Add(42);
  EXPECT_EQ(counter.Value(), 0u);
  obs::SetMetricsEnabled(true);
  counter.Add(42);
  EXPECT_EQ(counter.Value(), 42u);
}

// --------------------------------------------------------------------------
// Gauge
// --------------------------------------------------------------------------
TEST_F(ObsMetricsTest, GaugeSetAndAdd) {
  obs::Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);
  obs::SetMetricsEnabled(false);
  gauge.Set(99);
  EXPECT_EQ(gauge.Value(), -3);
}

// --------------------------------------------------------------------------
// LatencyHistogram
// --------------------------------------------------------------------------
TEST_F(ObsMetricsTest, HistogramBucketBoundsDouble) {
  EXPECT_DOUBLE_EQ(obs::LatencyHistogram::BucketUpperBoundS(0),
                   obs::LatencyHistogram::kFirstBucketS);
  for (std::size_t i = 1; i + 1 < obs::LatencyHistogram::kBuckets; ++i) {
    EXPECT_DOUBLE_EQ(obs::LatencyHistogram::BucketUpperBoundS(i),
                     2.0 * obs::LatencyHistogram::BucketUpperBoundS(i - 1));
  }
  EXPECT_TRUE(std::isinf(obs::LatencyHistogram::BucketUpperBoundS(
      obs::LatencyHistogram::kBuckets - 1)));
}

TEST_F(ObsMetricsTest, HistogramBoundaryObservationsLandInclusive) {
  // An observation exactly on a bucket's upper bound belongs to that bucket.
  obs::LatencyHistogram hist;
  hist.Observe(obs::LatencyHistogram::kFirstBucketS);        // bucket 0
  hist.Observe(obs::LatencyHistogram::kFirstBucketS * 1.01);  // bucket 1
  hist.Observe(obs::LatencyHistogram::BucketUpperBoundS(3));  // bucket 3
  hist.Observe(1e9);                                          // overflow
  const auto snap = hist.Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[obs::LatencyHistogram::kBuckets - 1], 1u);
}

TEST_F(ObsMetricsTest, HistogramQuantilesTrackSortedReference) {
  // Quantile error is bounded by the width of the holding bucket; check
  // p50/p90/p99 against the exact sorted reference with that tolerance.
  obs::LatencyHistogram hist;
  std::vector<double> values;
  std::uint64_t state = 0x243f6a8885a308d3ULL;  // deterministic xorshift
  for (int i = 0; i < 5000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    // Latencies spread over ~[0.1ms, 6.5s), log-uniform-ish.
    const double v = obs::LatencyHistogram::kFirstBucketS *
                     std::pow(2.0, static_cast<double>(state % 1600) / 100.0);
    values.push_back(v);
    hist.Observe(v);
  }
  std::sort(values.begin(), values.end());
  const auto snap = hist.Snap();
  ASSERT_EQ(snap.count, values.size());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double est = snap.QuantileS(q);
    // The bucket holding `exact` spans [upper/2, upper]; the estimate must
    // land within one bucket of the true value.
    EXPECT_GE(est, exact * 0.5) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
  }
  // max is recorded with microsecond granularity.
  EXPECT_NEAR(snap.max_s, values.back(), 1e-6);
}

TEST_F(ObsMetricsTest, HistogramQuantileNeverExceedsMax) {
  // One sample: interpolation inside its bucket must not read above the
  // recorded max (p50 > max would be nonsense in the status report).
  obs::LatencyHistogram hist;
  hist.Observe(0.0032);
  const auto snap = hist.Snap();
  EXPECT_EQ(snap.count, 1u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_LE(snap.QuantileS(q), snap.max_s) << "q=" << q;
    EXPECT_GT(snap.QuantileS(q), 0.0) << "q=" << q;
  }
}

TEST_F(ObsMetricsTest, HistogramEmptySnapshotIsZero) {
  const obs::LatencyHistogram hist;
  const auto snap = hist.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.QuantileS(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.max_s, 0.0);
}

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------
TEST_F(ObsMetricsTest, RegistryPointersAreStableAndShared) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x");
  // Later registrations must not move earlier instruments (node-stable map).
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("x"), a);
  a->Add(3);
  const auto snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("x"), 3u);
  EXPECT_EQ(snap.counters.size(), 101u);
}

TEST_F(ObsMetricsTest, RegistryConcurrentGetAndRecord) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared")->Add();
        registry.GetHistogram("lat")->Observe(0.001);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("shared"), 8000u);
  EXPECT_EQ(snap.histograms.at("lat").count, 8000u);
}

// --------------------------------------------------------------------------
// Trace writer
// --------------------------------------------------------------------------
std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ObsTraceTest, WriterEmitsBalancedWellFormedArray) {
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  std::string error;
  ASSERT_TRUE(obs::StartTrace(path, &error)) << error;
  ASSERT_TRUE(obs::TraceEnabled());
  {
    const obs::ScopedSpan outer("outer", "test");
    const obs::ScopedSpan inner("inner", "test", 7);
    obs::TraceInstant("tick", "test");
  }
  obs::TraceComplete("window", "test", 0.0, 0.001);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      const obs::ScopedSpan span("worker", "test");
      obs::TraceInstantArg("mark", "test", 1);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  obs::StopTrace();
  EXPECT_FALSE(obs::TraceEnabled());

  const std::string text = ReadAll(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  // Closes the array and ends with a newline (one event per line).
  const std::string tail = text.substr(text.find_last_not_of(" \n"));
  EXPECT_EQ(tail.substr(0, 1), "]");
  EXPECT_EQ(CountOccurrences(text, "\"ph\":\"B\""),
            CountOccurrences(text, "\"ph\":\"E\""));
  EXPECT_EQ(CountOccurrences(text, "\"ph\":\"B\""), 6u);  // outer+inner+4 workers
  EXPECT_EQ(CountOccurrences(text, "\"ph\":\"i\""), 5u);  // tick + 4 marks
  EXPECT_EQ(CountOccurrences(text, "\"ph\":\"X\""), 1u);
  EXPECT_NE(text.find("\"name\":\"trace_end\""), std::string::npos);
}

TEST(ObsTraceTest, EveryEventLineEndsWithCommaUntilFooter) {
  // The torn-tail contract: each event line is self-contained and ends
  // with "," so a hard kill truncates at a line boundary and
  // tools/trace_validate.py can repair the file by dropping one line.
  const std::string path = ::testing::TempDir() + "/obs_trace_torn.json";
  std::string error;
  ASSERT_TRUE(obs::StartTrace(path, &error)) << error;
  {
    const obs::ScopedSpan span("span", "test");
    obs::TraceInstant("tick", "test");
  }
  obs::StopTrace();

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
  // All events but the footer end with a trailing comma; the footer line
  // (the trace_end meta event) must not, so the array parses when intact.
  for (std::size_t i = 1; i + 2 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].back(), ',') << "line " << i << ": " << lines[i];
  }
  const std::string& footer = lines[lines.size() - 2];
  EXPECT_NE(footer.back(), ',') << footer;
  EXPECT_NE(footer.find("trace_end"), std::string::npos);
}

// Calibrates the peak-RSS probe that tools/perf_smoke.py gates memory on:
// faulting in a known 32 MB block must raise the reading by at least 30 MB,
// and the trace footer must carry the reading. A probe that reads the wrong
// field, the wrong process or nothing fails here instead of passing every
// RSS gate unmeasured.
TEST(ObsTraceTest, PeakRssProbeSeesAKnownAllocation) {
  const std::uint64_t before_kb = obs::PeakRssKb();
  ASSERT_GT(before_kb, 0u);
  std::vector<unsigned char> block(32u << 20);
  std::fill(block.begin(), block.end(), 1);  // touch every page
  asm volatile("" : : "r"(block.data()) : "memory");
  EXPECT_GE(obs::PeakRssKb(), before_kb + 30u * 1024u);

  const std::string path = ::testing::TempDir() + "/obs_trace_rss.json";
  std::string error;
  ASSERT_TRUE(obs::StartTrace(path, &error)) << error;
  obs::StopTrace();
  EXPECT_NE(ReadAll(path).find("\"name\":\"process.peak_rss_kb\""),
            std::string::npos);
}

TEST(ObsTraceTest, StopTraceIsIdempotentAndDisabledSpansAreFree) {
  obs::StopTrace();  // no trace running: must be a safe no-op
  ASSERT_FALSE(obs::TraceEnabled());
  {
    // Spans constructed while disabled never emit, even if a trace were
    // started mid-scope (active_ is latched at construction).
    const obs::ScopedSpan span("ghost", "test");
    obs::TraceInstant("ghost", "test");
  }
  obs::StopTrace();
}

}  // namespace
}  // namespace byterobust
