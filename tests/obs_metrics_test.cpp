// obs/metrics.h — the serving tier's metrics registry.
//
// The contract under test: counters lose nothing under concurrent hammering
// (run under TSAN in CI), histogram boundary values land in the bucket they
// bound, snapshots taken mid-increment are internally consistent and
// monotonic, and render_text / parse_text are exact inverses — the scrape
// path depends on a worker's exposition rebuilding bit-for-bit into the
// same samples on the far side.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace {

using namespace polarice::obs;

#if POLARICE_METRICS

TEST(ObsMetrics, CounterConcurrentIncrementsAreExact) {
  Registry registry;
  Counter& counter = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snapshot = registry.snapshot();
  const auto* sample = snapshot.find_counter("hits");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsMetrics, SnapshotDuringIncrementsIsMonotonicAndBounded) {
  Registry registry;
  Counter& counter = registry.counter("inflight_work");
  constexpr std::uint64_t kTotal = 200000;

  std::thread writer([&counter] {
    for (std::uint64_t i = 0; i < kTotal; ++i) counter.add();
  });

  // Successive snapshots race the writer: each must be between the last
  // observed value and the final total — a torn or decreasing read would
  // betray a non-atomic fold.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snapshot = registry.snapshot();
    const auto* sample = snapshot.find_counter("inflight_work");
    ASSERT_NE(sample, nullptr);
    EXPECT_GE(sample->value, last);
    EXPECT_LE(sample->value, kTotal);
    last = sample->value;
  }
  writer.join();
  const auto final_snapshot = registry.snapshot();
  EXPECT_EQ(final_snapshot.find_counter("inflight_work")->value, kTotal);
}

TEST(ObsMetrics, HistogramBoundaryValuesLandInBoundingBucket) {
  Registry registry;
  const std::vector<double> bounds{0.001, 0.01, 0.1, 1.0};
  Histogram& histogram = registry.histogram("lat", bounds);

  // bounds are *inclusive* upper bounds: observe(bounds[i]) must count in
  // bucket i, not i+1 — the exposition's le="..." semantics.
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(histogram.bucket_index(bounds[i]), i) << bounds[i];
    histogram.observe(bounds[i]);
  }
  EXPECT_EQ(histogram.bucket_index(bounds.back() + 1.0), bounds.size());
  histogram.observe(bounds.back() + 1.0);  // +Inf bucket
  EXPECT_EQ(histogram.bucket_index(0.0), 0u);

  const auto snapshot = registry.snapshot();
  const auto* sample = snapshot.find_histogram("lat");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->counts.size(), bounds.size() + 1);
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    EXPECT_EQ(sample->counts[i], 1u) << "bucket " << i;
  }
  EXPECT_EQ(sample->count, bounds.size() + 1);
}

TEST(ObsMetrics, HistogramConcurrentObservationsLoseNothing) {
  Registry registry;
  Histogram& histogram = registry.histogram("concurrent_lat");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(1e-4 * (1 + (t + i) % 7));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto snapshot = registry.snapshot();
  const auto* sample = snapshot.find_histogram("concurrent_lat");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto c : sample->counts) bucket_total += c;
  EXPECT_EQ(bucket_total, sample->count);
}

TEST(ObsMetrics, PercentileInterpolatesSanely) {
  Registry registry;
  Histogram& histogram = registry.histogram("pctl");
  // 1000 observations uniform on (0, 100ms]: p50 ~ 50ms, p99 ~ 99ms.
  for (int i = 1; i <= 1000; ++i) histogram.observe(i * 1e-4);

  const auto snapshot = registry.snapshot();
  const auto* sample = snapshot.find_histogram("pctl");
  ASSERT_NE(sample, nullptr);
  const double p50 = sample->percentile(0.50);
  const double p99 = sample->percentile(0.99);
  // The ladder's 1.25 factor bounds the estimate to ~±25% of truth.
  EXPECT_GT(p50, 0.035);
  EXPECT_LT(p50, 0.070);
  EXPECT_GT(p99, 0.075);
  EXPECT_LT(p99, 0.130);
  EXPECT_LE(p50, p99);
  EXPECT_DOUBLE_EQ(HistogramSample{}.percentile(0.5), 0.0);
}

TEST(ObsMetrics, LatencyLadderIsStrictlyAscending) {
  const auto& bounds = latency_buckets_seconds();
  ASSERT_GT(bounds.size(), 60u);
  EXPECT_NEAR(bounds.front(), 1e-5, 1e-9);
  EXPECT_GT(bounds.back(), 100.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]) << i;
  }
}

TEST(ObsMetrics, InstrumentsInternByName) {
  Registry registry;
  EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
  EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
  // Re-interning an existing histogram with different bounds is a bug at
  // the call site, not a silent second instrument.
  EXPECT_THROW((void)registry.histogram("h", {1.0, 2.0}),
               std::invalid_argument);
}

TEST(ObsMetrics, RenderParseRoundTripIsExact) {
  Registry registry;
  registry.counter("requests_total").add(12345);
  registry.gauge("resident_bytes").set(1.5e9);
  Histogram& histogram = registry.histogram("e2e_seconds");
  for (int i = 0; i < 500; ++i) histogram.observe(1e-3 * (1 + i % 40));

  const Snapshot original = registry.snapshot();
  const Snapshot parsed = parse_text(render_text(original));

  ASSERT_EQ(parsed.counters.size(), original.counters.size());
  EXPECT_EQ(parsed.find_counter("requests_total")->value, 12345u);
  ASSERT_NE(parsed.find_gauge("resident_bytes"), nullptr);
  EXPECT_DOUBLE_EQ(parsed.find_gauge("resident_bytes")->value, 1.5e9);

  const auto* h0 = original.find_histogram("e2e_seconds");
  const auto* h1 = parsed.find_histogram("e2e_seconds");
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->count, h0->count);
  EXPECT_EQ(h1->counts, h0->counts);
  ASSERT_EQ(h1->bounds.size(), h0->bounds.size());
  for (std::size_t i = 0; i < h0->bounds.size(); ++i) {
    // Bounds travel as printed decimals; they must survive to the same
    // double so bucket_index agrees on both sides of the scrape.
    EXPECT_DOUBLE_EQ(h1->bounds[i], h0->bounds[i]) << i;
  }
  EXPECT_DOUBLE_EQ(h1->percentile(0.99), h0->percentile(0.99));
}

TEST(ObsMetrics, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_text("this is not an exposition\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("lat_bucket{le=\"oops\"} 3\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("lat_bucket{le=\"0.5\"} not_a_number\n"),
               std::runtime_error);
  // Cumulative bucket counts that decrease cannot come from a real
  // histogram.
  EXPECT_THROW(
      (void)parse_text("lat_bucket{le=\"0.5\"} 5\n"
                       "lat_bucket{le=\"1\"} 3\n"
                       "lat_bucket{le=\"+Inf\"} 5\n"
                       "lat_sum 1.0\nlat_count 5\n"),
      std::runtime_error);
  EXPECT_TRUE(parse_text("").counters.empty());

  // Histogram shape is validated, not just line syntax: every accepted
  // histogram has finite, strictly ascending bounds and exactly one +Inf
  // bucket, last, so counts.size() == bounds.size() + 1 and percentile()
  // cannot index before bounds[0] on anything a scrape returns.
  const char* malformed[] = {
      // Three +Inf buckets.
      "h_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"+Inf\"} 2\n"
      "h_bucket{le=\"+Inf\"} 3\nh_count 3\n",
      // No +Inf bucket.
      "h_bucket{le=\"0.5\"} 1\nh_bucket{le=\"1\"} 2\nh_count 2\n",
      // A bucket after +Inf.
      "h_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"1\"} 1\nh_count 1\n",
      // Bounds not strictly ascending.
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
      "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
      // Non-finite bounds.
      "h_bucket{le=\"nan\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
      "h_bucket{le=\"-Inf\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
  };
  for (const char* text : malformed) {
    EXPECT_THROW((void)parse_text(text), std::runtime_error) << text;
  }
  // _count is not required to equal the bucket total: snapshot() reads the
  // two as separate relaxed atomics, so a live scrape may disagree.
  const Snapshot skewed = parse_text(
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 5\n");
  const auto* h = skewed.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->counts.size(), h->bounds.size() + 1);
  EXPECT_GE(h->percentile(0.99), 0.0);
}

// Deterministic fuzz over a real exposition: every single-bit flip and
// every truncated prefix of render_text must either parse into
// structurally valid histograms (percentile() safe) or throw
// std::runtime_error — never another exception type or an out-of-bounds
// read.
TEST(ObsMetrics, ParseFuzzYieldsValidSnapshotOrRuntimeError) {
  Registry registry;
  registry.counter("requests_total").add(42);
  registry.gauge("leases").set(2.5);
  Histogram& histogram = registry.histogram("e2e_seconds", {1e-3, 1e-2, 0.1});
  for (int i = 0; i < 20; ++i) histogram.observe(1e-3 * (1 + i * i));
  const Snapshot snapshot = registry.snapshot();
  const std::string pristine = render_text(snapshot);

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const std::string& text) {
    Snapshot parsed;
    try {
      parsed = parse_text(text);
    } catch (const std::runtime_error&) {
      ++rejected;
      return;
    }
    ++accepted;
    for (const auto& h : parsed.histograms) {
      ASSERT_EQ(h.counts.size(), h.bounds.size() + 1) << text;
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        ASSERT_TRUE(std::isfinite(h.bounds[i])) << text;
        if (i > 0) {
          ASSERT_LT(h.bounds[i - 1], h.bounds[i]) << text;
        }
      }
      for (const double q : {0.0, 0.5, 0.99, 1.0}) (void)h.percentile(q);
      (void)h.bucket_index(0.05);
    }
  };
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = pristine;
      mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
      check(mutant);
    }
  }
  for (std::size_t n = 0; n <= pristine.size(); ++n) {
    check(pristine.substr(0, n));
  }
  // Both outcomes occur: the loop exercises the parser, not just its
  // first-line rejection.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ObsMetrics, CallbackGaugesSampleAtSnapshotAndSumDuplicates) {
  Registry registry;
  double a = 3.0;
  {
    GaugeHandle handle_a =
        registry.register_gauge("leases", [&a] { return a; });
    GaugeHandle handle_b = registry.register_gauge("leases", [] { return 2.0; });

    const auto snapshot = registry.snapshot();
    const auto* sample = snapshot.find_gauge("leases");
    ASSERT_NE(sample, nullptr);
    EXPECT_DOUBLE_EQ(sample->value, 5.0);  // duplicates sum

    a = 10.0;  // sampled at snapshot time, not registration time
    const auto resampled = registry.snapshot();
    EXPECT_DOUBLE_EQ(resampled.find_gauge("leases")->value, 12.0);
  }
  // Both handles out of scope: the gauge is gone, not stuck at its last
  // value.
  const auto after_release = registry.snapshot();
  EXPECT_EQ(after_release.find_gauge("leases"), nullptr);
}

TEST(ObsMetrics, HistogramDeltaScopesAWindow) {
  Registry registry;
  Histogram& histogram = registry.histogram("windowed");
  histogram.observe(0.001);
  histogram.observe(0.002);
  const auto before = registry.snapshot();

  histogram.observe(0.004);
  histogram.observe(0.004);
  histogram.observe(0.008);
  const auto after = registry.snapshot();

  const HistogramSample delta = histogram_delta(
      *after.find_histogram("windowed"), *before.find_histogram("windowed"));
  EXPECT_EQ(delta.count, 3u);
  EXPECT_NEAR(delta.sum, 0.016, 1e-12);
  std::uint64_t total = 0;
  for (const auto c : delta.counts) total += c;
  EXPECT_EQ(total, 3u);
}

#else  // POLARICE_METRICS == 0

TEST(ObsMetrics, CompiledOutMutatorsAreNoOps) {
  Registry registry;
  registry.counter("c").add(5);
  EXPECT_EQ(registry.counter("c").value(), 0u);
  registry.histogram("h").observe(1.0);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_histogram("h")->count, 0u);
}

#endif  // POLARICE_METRICS

}  // namespace
