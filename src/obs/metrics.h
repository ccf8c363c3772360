#pragma once
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms for the serving tier.
//
// Design constraints, in order:
//   * Hot-path cost. `Counter::add` / `Histogram::observe` are a relaxed
//     fetch_add on a cacheline-padded shard selected by thread — a few ns,
//     no locks, no false sharing between worker threads. TSAN-clean.
//   * Consistent snapshots. `Registry::snapshot()` folds the shards and
//     samples registered gauge callbacks under the registry mutex; a
//     snapshot taken concurrently with increments sees each instrument at
//     some value between the call's start and end (counters are monotonic,
//     so deltas between two snapshots are always >= 0).
//   * Stable references. Instruments are interned by name and never
//     deallocated while the registry lives, so call sites resolve a name
//     once and keep the pointer.
//
// The exposition format is Prometheus-flavoured text (`render_text`), with
// cumulative `_bucket{le="..."}` lines for histograms; `parse_text` is the
// inverse, used by `tools/polarice_stat` to rebuild a snapshot scraped off
// a live worker.
//
// Compile-out: building with -DPOLARICE_METRICS=0 turns the hot-path
// mutators (`add`, `observe`, `set`) into no-ops while keeping the types
// and the registry API, so instrumented call sites need no #ifdefs and the
// serve overhead of the registry can be measured against a true zero
// (docs/PERF.md).

#ifndef POLARICE_METRICS
#define POLARICE_METRICS 1
#endif

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace polarice::obs {

namespace detail {
inline constexpr std::size_t kCacheline = 64;
inline constexpr std::size_t kShards = 8;

/// Stable small integer for the calling thread, assigned on first use.
/// Threads map round-robin onto shards so a pool of N workers spreads
/// across all of them instead of hashing onto a few.
[[nodiscard]] std::size_t thread_shard() noexcept;
}  // namespace detail

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotonic counter. add() is wait-free; value() folds the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
#if POLARICE_METRICS
    shards_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(detail::kCacheline) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// Point-in-time value, set by whoever owns the quantity. For values that
/// are cheap to read on demand prefer a callback gauge
/// (Registry::register_gauge), which samples at snapshot time instead.
class Gauge {
 public:
  void set(double v) noexcept {
#if POLARICE_METRICS
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
/// order; one implicit +Inf bucket catches the overflow. observe() is a
/// binary search plus one relaxed fetch_add on the caller's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  /// Index of the bucket `v` falls into (0..bounds.size(); the last index
  /// is the +Inf bucket). Boundary values land in the bucket they bound:
  /// observe(bounds[i]) counts in bucket i.
  [[nodiscard]] std::size_t bucket_index(double v) const noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

 private:
  friend class Registry;

  struct Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  // One heap allocation per shard keeps shards on distinct cachelines.
  std::array<std::unique_ptr<Shard>, detail::kShards> shards_;
};

/// Default latency bucket ladder: geometric from 10 us to ~2 minutes,
/// factor 1.25 (~77 buckets) — fine enough that "within one bucket"
/// agreement between two percentile estimators is a tight check.
[[nodiscard]] const std::vector<double>& latency_buckets_seconds();

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;        // inclusive upper bounds
  std::vector<std::uint64_t> counts; // per-bucket (NOT cumulative), size bounds+1
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate from the bucket counts: finds the bucket holding
  /// rank q*(count-1) and interpolates linearly inside it. Returns 0 when
  /// empty.
  [[nodiscard]] double percentile(double q) const noexcept;

  /// Bucket index a value falls into (same boundary rule as
  /// Histogram::bucket_index).
  [[nodiscard]] std::size_t bucket_index(double v) const noexcept;
};

/// Counts/sums of `later` minus `earlier` (same instrument, two points in
/// time). Used to scope a process-global histogram to one load window.
[[nodiscard]] HistogramSample histogram_delta(const HistogramSample& later,
                                              const HistogramSample& earlier);

struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookups return pointers into this snapshot, so they are lvalue-only:
  /// `registry.snapshot().find_gauge(...)` would dangle at the end of the
  /// full expression and does not compile.
  [[nodiscard]] const CounterSample* find_counter(
      const std::string& name) const&;
  [[nodiscard]] const GaugeSample* find_gauge(const std::string& name) const&;
  [[nodiscard]] const HistogramSample* find_histogram(
      const std::string& name) const&;
  const CounterSample* find_counter(const std::string&) const&& = delete;
  const GaugeSample* find_gauge(const std::string&) const&& = delete;
  const HistogramSample* find_histogram(const std::string&) const&& = delete;
};

/// Prometheus-flavoured text exposition (sorted by name; histograms emit
/// cumulative buckets, `_sum`, `_count`).
[[nodiscard]] std::string render_text(const Snapshot& snapshot);

/// Inverse of render_text. Throws std::runtime_error on lines it cannot
/// parse — a scrape that decodes garbage should fail loudly, like the wire
/// layer does.
[[nodiscard]] Snapshot parse_text(const std::string& text);

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class Registry;

/// RAII registration of a callback gauge; unregisters on destruction so a
/// component can expose internal state for exactly its own lifetime.
class GaugeHandle {
 public:
  GaugeHandle() = default;
  GaugeHandle(GaugeHandle&& other) noexcept { *this = std::move(other); }
  GaugeHandle& operator=(GaugeHandle&& other) noexcept;
  GaugeHandle(const GaugeHandle&) = delete;
  GaugeHandle& operator=(const GaugeHandle&) = delete;
  ~GaugeHandle() { reset(); }

  void reset() noexcept;

 private:
  friend class Registry;
  GaugeHandle(Registry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}

  Registry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Interns by name: the first call creates, later calls return the same
  /// instrument. `histogram` with mismatched bounds for an existing name
  /// throws std::invalid_argument.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    return histogram(name, latency_buckets_seconds());
  }

  /// Registers a sampled-at-snapshot gauge. Multiple registrations under
  /// one name sum (several servers in one test process). The callback runs
  /// under the registry mutex: keep it a cheap atomic read and never call
  /// back into the registry. Exceptions are swallowed (sample skipped).
  [[nodiscard]] GaugeHandle register_gauge(const std::string& name,
                                           std::function<double()> fn);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  friend class GaugeHandle;
  void unregister_gauge(std::uint64_t id) noexcept;

  struct CallbackGauge {
    std::uint64_t id = 0;
    std::string name;
    std::function<double()> fn;
  };

  mutable std::mutex mutex_;
  // node-based maps would also give stable addresses; unique_ptr keeps the
  // instruments alive even through rehash and makes the guarantee explicit.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<CallbackGauge> callbacks_;
  std::uint64_t next_callback_id_ = 1;
};

/// The process-wide default registry every serving component publishes
/// into — what a kMetricsRequest scrape exposes.
[[nodiscard]] Registry& registry();

}  // namespace polarice::obs
