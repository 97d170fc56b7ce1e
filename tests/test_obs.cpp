// Tests for the observability layer: span rings and the process-wide
// tracer, the Chrome trace exporter, the metrics registry, the
// CampaignMetrics registry round trip (bit-compatibility), tracing a real
// campaign, and the latency histogram's edge cases.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <cstdint>

#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/planner.hpp"
#include "coupling/study.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "support/latency_histogram.hpp"

namespace kcoup::obs {
namespace {

/// The tracer is process-wide; every test that records spans starts from a
/// clean, disabled state and leaves it that way.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

TEST_F(TracerTest, DisabledSpanRecordsNothing) {
  {
    ScopedSpan span("noop", "test");
    EXPECT_FALSE(span.active());
    span.annotate("ignored", std::uint64_t{7});
  }
  EXPECT_EQ(Tracer::instance().spans_recorded(), 0u);
}

TEST_F(TracerTest, EnabledSpanIsRecordedWithAnnotations) {
  Tracer::instance().enable();
  {
    ScopedSpan span("work", "test");
    EXPECT_TRUE(span.active());
    span.annotate("text", std::string_view("hello"));
    span.annotate("count", std::uint64_t{42});
    span.annotate("flag", true);
    span.annotate("literal", "predict");  // const char* must not become bool
  }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().spans_recorded(), 1u);
  EXPECT_EQ(Tracer::instance().spans_dropped(), 0u);

  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"text\":\"hello\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":\"42\""), std::string::npos);
  EXPECT_NE(json.find("\"flag\":\"true\""), std::string::npos);
  EXPECT_NE(json.find("\"literal\":\"predict\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST_F(TracerTest, RecordFlagFalseStaysInertWhileEnabled) {
  Tracer::instance().enable();
  {
    ScopedSpan span("skipped", "test", /*record=*/false);
    EXPECT_FALSE(span.active());
  }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().spans_recorded(), 0u);
}

TEST_F(TracerTest, FinishEndsTheSpanOnceAndEarly) {
  Tracer::instance().enable();
  {
    ScopedSpan span("early", "test");
    span.finish();
    EXPECT_FALSE(span.active());
    span.finish();  // idempotent: the destructor must not double-commit
  }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().spans_recorded(), 1u);
}

TEST_F(TracerTest, OversizedAnnotationsAreTruncatedNotCorrupted) {
  Tracer::instance().enable();
  const std::string long_value(200, 'v');
  {
    ScopedSpan span("trunc", "test");
    span.annotate("this-key-is-much-longer-than-the-buffer",
                  std::string_view(long_value));
    // Over the per-span annotation cap: extras are dropped silently.
    for (int i = 0; i < 10; ++i) span.annotate("extra", std::uint64_t{1});
  }
  Tracer::instance().disable();
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  // Keys cap at 23 chars + NUL, values at 47 + NUL.
  EXPECT_NE(json.find("\"this-key-is-much-longer\""), std::string::npos);
  EXPECT_NE(json.find('"' + std::string(47, 'v') + '"'), std::string::npos);
  EXPECT_EQ(json.find(std::string(48, 'v')), std::string::npos);
}

TEST_F(TracerTest, AnnotationValuesAreJsonEscaped) {
  Tracer::instance().enable();
  {
    ScopedSpan span("escape", "test");
    span.annotate("quote", std::string_view("a\"b\\c\nd"));
  }
  Tracer::instance().disable();
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  EXPECT_NE(out.str().find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST_F(TracerTest, RingWrapDropsOldestAndCountsThem) {
  Tracer::instance().enable();
  const std::uint64_t total = SpanRing::kCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    ScopedSpan span("wrap", "test");
  }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().spans_recorded(), total);
  EXPECT_EQ(Tracer::instance().spans_dropped(), 100u);
}

TEST_F(TracerTest, ConcurrentWritersEachGetTheirOwnRing) {
  Tracer::instance().enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("threaded", "test");
        span.annotate("i", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().spans_recorded(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(Tracer::instance().spans_dropped(), 0u);

  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  // Every event serialized, start-time sorted, one JSON object each.
  std::size_t events = 0;
  for (std::size_t p = out.str().find("\"ph\":\"X\""); p != std::string::npos;
       p = out.str().find("\"ph\":\"X\"", p + 1)) {
    ++events;
  }
  EXPECT_EQ(events, static_cast<std::size_t>(kThreads) * kSpansPerThread);
}

TEST_F(TracerTest, ClearDropsRecordedSpans) {
  Tracer::instance().enable();
  { ScopedSpan span("gone", "test"); }
  Tracer::instance().disable();
  ASSERT_EQ(Tracer::instance().spans_recorded(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().spans_recorded(), 0u);
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  EXPECT_EQ(out.str().find("\"name\":\"gone\""), std::string::npos);
}

// --- Metrics registry --------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(reg.counter("x").value(), 5u);

  Gauge& g = reg.gauge("y");
  g.set(0.1 + 0.2);  // not representable as a round number
  EXPECT_EQ(reg.gauge("y").value(), 0.1 + 0.2);  // bit-exact round trip

  Histogram& h = reg.histogram("z");
  h.record(0.5);
  EXPECT_EQ(reg.histogram("z").snapshot().count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record(0.25);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b");
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentCounterAddsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// --- CampaignMetrics <-> registry round trip ---------------------------------

TEST(CampaignMetricsRegistryTest, PublishThenReadBackIsBitIdentical) {
  campaign::CampaignMetrics m;
  m.studies = 3;
  m.workers = 7;
  m.tasks_requested = 41;
  m.tasks_planned = 29;
  m.tasks_deduplicated = 12;
  m.cache_hits = 5;
  m.journal_hits = 2;
  m.tasks_executed = 22;
  m.tasks_retried = 4;
  m.tasks_failed = 1;
  m.handles_created = 9;
  m.handles_reused = 13;
  m.plan_s = 0.1 + 0.2;
  m.measure_s = 1.0 / 3.0;
  m.assemble_s = 2.0 / 7.0;
  m.wall_s = 0.7071067811865476;
  m.task_min_s = 1e-7;
  m.task_max_s = 3.3333333333333335;
  m.task_mean_s = 0.12345678901234567;

  MetricsRegistry reg;
  m.publish(reg);
  const campaign::CampaignMetrics back =
      campaign::CampaignMetrics::from_registry(reg);
  // The renderers are the compatibility contract: identical output means
  // the registry indirection changed nothing.
  EXPECT_EQ(back.to_csv(), m.to_csv());
  EXPECT_EQ(back.to_jsonl(), m.to_jsonl());
  EXPECT_EQ(back.to_table().to_string(), m.to_table().to_string());
}

// --- Tracing a real campaign -------------------------------------------------

/// Minimal deterministic app so the campaign below has real tasks.
struct SyntheticOwner {
  std::vector<std::unique_ptr<coupling::CallableKernel>> kernels;
  coupling::LoopApplication inner;

  explicit SyntheticOwner(std::size_t loop_size) {
    inner.name = "synthetic";
    inner.iterations = 3;
    for (std::size_t k = 0; k < loop_size; ++k) {
      std::string name = "k";
      name += std::to_string(k);
      kernels.push_back(std::make_unique<coupling::CallableKernel>(
          std::move(name),
          [k] { return static_cast<double>(k + 1) * 0.001; }));
      inner.loop.push_back(kernels.back().get());
    }
  }
  [[nodiscard]] const coupling::LoopApplication& app() const { return inner; }
};

campaign::CampaignSpec synthetic_spec() {
  campaign::CampaignSpec spec;
  campaign::CampaignStudy cell;
  cell.application = "A";
  cell.config = "C";
  cell.ranks = 1;
  cell.factory = [] {
    return campaign::own_app(std::make_unique<SyntheticOwner>(3));
  };
  spec.studies.push_back(std::move(cell));
  spec.chain_lengths = {2};
  return spec;
}

TEST_F(TracerTest, TracedCampaignMatchesUntracedBitForBit) {
  const campaign::CampaignResult baseline =
      campaign::run_campaign(synthetic_spec(), 1);

  Tracer::instance().enable();
  const campaign::CampaignResult traced =
      campaign::run_campaign(synthetic_spec(), 1);
  Tracer::instance().disable();

  ASSERT_EQ(traced.studies.size(), baseline.studies.size());
  EXPECT_EQ(traced.studies[0].actual_s, baseline.studies[0].actual_s);
  EXPECT_EQ(traced.studies[0].summation_s, baseline.studies[0].summation_s);
  ASSERT_EQ(traced.studies[0].by_length.size(),
            baseline.studies[0].by_length.size());
  EXPECT_EQ(traced.studies[0].by_length[0].prediction_s,
            baseline.studies[0].by_length[0].prediction_s);
  EXPECT_EQ(traced.metrics.tasks_executed, baseline.metrics.tasks_executed);

  // Every executed task shows up as a span, plus the phase + plan spans.
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  std::size_t task_spans = 0;
  for (std::size_t p = json.find("\"name\":\"task\""); p != std::string::npos;
       p = json.find("\"name\":\"task\"", p + 1)) {
    ++task_spans;
  }
  EXPECT_EQ(task_spans, traced.metrics.tasks_executed);
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"measure_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"assemble_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"measure\""), std::string::npos);
}

TEST_F(TracerTest, ExecutorPopulatesExternalRegistryLive) {
  MetricsRegistry reg;
  const campaign::CampaignResult result =
      campaign::run_campaign(synthetic_spec(), 1, nullptr, &reg);
  EXPECT_EQ(reg.counter("campaign.tasks_executed").value(),
            result.metrics.tasks_executed);
  EXPECT_EQ(reg.counter("campaign.tasks_failed").value(), 0u);
  EXPECT_EQ(reg.histogram("campaign.task_seconds").snapshot().count(),
            result.metrics.tasks_executed);
  // The returned metrics ARE the registry view.
  EXPECT_EQ(campaign::CampaignMetrics::from_registry(reg).to_csv(),
            result.metrics.to_csv());
}

// --- LatencyHistogram edge cases ---------------------------------------------

TEST(LatencyHistogramEdgeTest, ExactBucketBoundariesLandInRange) {
  support::LatencyHistogram h;
  // Exact powers of two at the range edges and a mid-range boundary.
  h.record(std::ldexp(1.0, support::LatencyHistogram::kMinExponent));  // 2^-20
  h.record(1.0);
  h.record(std::ldexp(1.0, support::LatencyHistogram::kMaxExponent - 1));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), std::ldexp(1.0, -20));
  EXPECT_EQ(h.max(), std::ldexp(1.0, 7));
  // Quantiles stay clamped to the observed range.
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), h.max());
}

TEST(LatencyHistogramEdgeTest, ClampsBelowAndAboveTheBucketRange) {
  support::LatencyHistogram h;
  h.record(1e-9);   // far below 2^-20 s: clamps into the bottom bucket
  h.record(1000.0); // far above 256 s: clamps into the top bucket
  h.record(0.0);    // zero is a valid sample (bottom bucket)
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1000.0);
  // The quantile midpoint of an edge bucket is clamped to observed extremes.
  EXPECT_EQ(h.quantile(1.0), 1000.0);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);
}

TEST(LatencyHistogramEdgeTest, NanAndNegativeSamplesAreDropped) {
  support::LatencyHistogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(-1.0);
  h.record(-0.0);  // negative zero satisfies >= 0: kept
  EXPECT_EQ(h.count(), 1u);
  h.record(0.5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 0.5);
}

TEST(LatencyHistogramEdgeTest, MergePreservesMinMaxWhenOneSideIsEmpty) {
  support::LatencyHistogram filled;
  filled.record(0.25);
  filled.record(2.0);

  support::LatencyHistogram empty;
  filled.merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_EQ(filled.min(), 0.25);
  EXPECT_EQ(filled.max(), 2.0);

  support::LatencyHistogram target;
  target.merge(filled);  // merging INTO an empty one adopts min/max
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), 0.25);
  EXPECT_EQ(target.max(), 2.0);

  support::LatencyHistogram other;
  other.record(0.125);
  other.record(4.0);
  target.merge(other);
  EXPECT_EQ(target.count(), 4u);
  EXPECT_EQ(target.min(), 0.125);
  EXPECT_EQ(target.max(), 4.0);
  EXPECT_EQ(target.mean(), (0.25 + 2.0 + 0.125 + 4.0) / 4.0);
}

// --- Windowed stores --------------------------------------------------------
//
// now_s is caller-supplied (monotonic seconds), so these tests drive time
// deterministically instead of sleeping.

TEST(WindowedCounterTest, SumsOnlyEpochsInsideTheWindow) {
  WindowedCounter c;
  c.add(10, 3);
  c.add(11, 5);
  c.add(19, 7);
  // Window (now - w, now]: at now=19 the 1 s window is just second 19.
  EXPECT_EQ(c.sum(19, 1), 7u);
  EXPECT_EQ(c.sum(19, 10), 15u);  // seconds 10..19: 11 and 19 → 5 + 7
  EXPECT_EQ(c.sum(19, 60), 15u);
  EXPECT_EQ(c.sum(20, 10), 12u);  // second 10 ages out
  EXPECT_EQ(c.sum(100, 60), 0u);  // everything aged out
}

TEST(WindowedCounterTest, SlotRecycleReplacesStaleEpochNotAccumulates) {
  WindowedCounter c;
  c.add(5, 100);
  // 64 slots: second 69 lands on the same slot as second 5 and must reset
  // it, not add to it.
  c.add(5 + WindowedCounter::kSlots, 1);
  EXPECT_EQ(c.sum(5 + WindowedCounter::kSlots, 1), 1u);
  EXPECT_EQ(c.sum(5 + WindowedCounter::kSlots, 60), 1u);
}

TEST(WindowedHistogramTest, CollectMergesShardsWithoutDoubleCounting) {
  WindowedHistogram shard_a;
  WindowedHistogram shard_b;
  for (int i = 0; i < 10; ++i) shard_a.record(100, 0.001);
  for (int i = 0; i < 20; ++i) shard_b.record(100, 0.004);
  support::LatencyHistogram merged;
  shard_a.collect(100, 10, &merged);
  shard_b.collect(100, 10, &merged);
  EXPECT_EQ(merged.count(), 30u);
  // A second independent read sees the identical window — reading never
  // consumes or double-counts.
  support::LatencyHistogram again;
  shard_a.collect(100, 10, &again);
  shard_b.collect(100, 10, &again);
  EXPECT_EQ(again.count(), 30u);
  EXPECT_EQ(again.quantile(0.5), merged.quantile(0.5));
}

TEST(WindowedHistogramTest, RollingQuantileShedsWarmupCumulativeStaysPolluted) {
  // The reason rolling windows exist: a slow warmup phase pollutes the
  // cumulative p99 forever, while the rolling 10 s p99 converges to the
  // injected steady-state latency once the warmup ages out.
  WindowedHistogram rolling;
  support::LatencyHistogram cumulative;
  for (std::int64_t t = 0; t < 10; ++t) {  // warmup: 0.5 s requests
    for (int i = 0; i < 20; ++i) {
      rolling.record(t, 0.5);
      cumulative.record(0.5);
    }
  }
  for (std::int64_t t = 30; t <= 50; ++t) {  // steady state: 2 ms injected
    for (int i = 0; i < 200; ++i) {
      rolling.record(t, 0.002);
      cumulative.record(0.002);
    }
  }
  support::LatencyHistogram window;
  rolling.collect(50, 10, &window);
  EXPECT_EQ(window.count(), 2000u);
  EXPECT_NEAR(window.quantile(0.99), 0.002, 0.002 * 0.07);  // converged
  // Cumulative: 200 of 4400 samples are warmup (4.5 %), so its p99 still
  // sits in the warmup mass.
  EXPECT_GT(cumulative.quantile(0.99), 0.4);
}

TEST(WindowedStoresConcurrentReaderTest, ReadsRaceFreeAgainstOneWriter) {
  // Single-writer / any-reader contract: a reader merging the window while
  // the writer records must be race-free (TSan) and never observe torn
  // values.  Totals are checked after the writer finishes.
  WindowedCounter counter;
  WindowedHistogram histogram;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)counter.sum(5, 60);
      support::LatencyHistogram h;
      histogram.collect(5, 60, &h);
    }
  });
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t now_s = i % 8;  // a few distinct seconds, no aging
    counter.add(now_s);
    histogram.record(now_s, 0.001);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(counter.sum(7, 60), 20000u);
  support::LatencyHistogram all;
  histogram.collect(7, 60, &all);
  EXPECT_EQ(all.count(), 20000u);
}

// --- Prometheus text exposition ---------------------------------------------

TEST(PrometheusTest, NameMappingFollowsTheMetricCharset) {
  EXPECT_EQ(prometheus_name("serve.request_seconds"),
            "serve_request_seconds");
  EXPECT_EQ(prometheus_name("a:b_c9"), "a:b_c9");  // legal chars unchanged
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");  // leading digit guarded
  EXPECT_EQ(prometheus_name("sp ace-dash"), "sp_ace_dash");
}

TEST(PrometheusTest, CounterAndGaugeRenderIsBitExact) {
  MetricsRegistry registry;
  registry.counter("serve.requests").add(3);
  registry.gauge("serve.uptime_seconds").set(1.5);
  const std::string out = render_prometheus(registry.snapshot());
  EXPECT_EQ(out,
            "# TYPE serve_requests counter\n"
            "serve_requests 3\n"
            "# TYPE serve_uptime_seconds gauge\n"
            "serve_uptime_seconds 1.5\n");
  // Deterministic: an identical snapshot renders identical bytes.
  EXPECT_EQ(out, render_prometheus(registry.snapshot()));
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndComplete) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("serve.request_seconds");
  h.record(0.001);
  h.record(0.004);
  h.record(2.0);
  const std::string out = render_prometheus(registry.snapshot());
  EXPECT_NE(out.find("# TYPE serve_request_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("serve_request_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("serve_request_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("serve_request_seconds_sum "), std::string::npos);
  // Cumulative invariant: bucket counts never decrease as le grows.
  std::uint64_t last = 0;
  std::size_t at = 0;
  const std::string needle = "serve_request_seconds_bucket{le=\"";
  while ((at = out.find(needle, at)) != std::string::npos) {
    const std::size_t space = out.find("} ", at);
    ASSERT_NE(space, std::string::npos);
    const std::uint64_t n = std::stoull(out.substr(space + 2));
    EXPECT_GE(n, last);
    last = n;
    at = space;
  }
  EXPECT_EQ(last, 3u);  // the +Inf bucket holds every sample
}

// --- Tracer metrics export (SpanRing wrap accounting) ------------------------

TEST_F(TracerTest, ExportTracerMetricsPublishesRingWrapDrops) {
  Tracer::instance().enable();
  const std::uint64_t total = SpanRing::kCapacity + 123;
  for (std::uint64_t i = 0; i < total; ++i) {
    ScopedSpan span("wrap_export", "test");
  }
  Tracer::instance().disable();
  MetricsRegistry registry;
  export_tracer_metrics(registry);
  EXPECT_EQ(registry.gauge("obs.trace.spans_recorded").value(),
            static_cast<double>(total));
  EXPECT_EQ(registry.gauge("obs.trace.dropped_spans").value(), 123.0);
}

}  // namespace
}  // namespace kcoup::obs
