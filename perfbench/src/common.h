#pragma once
// Shared vocabulary of the workflow benchmark: run options, the report a
// run prints, and the small statistics and thread-count helpers every
// workload uses. See perfbench/README.md for what each metric means.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "img/image.h"
#include "par/thread_pool.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured window
  bool trace = false;     // traced run: per-layer metrics instead of e2e
  std::string out_dir;    // trace JSON and result files
  int nproc = 1;          // hardware threads available to the process
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints. `attempted`/`failed` count the workload's
/// operations (corpus passes, training jobs, requests).
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines, in order

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CORRECTNESS FAILURE: " + why);
  }
  void note(const std::string& line) { notes.push_back(line); }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Worker pool for the batch jobs. The submitting thread joins in every
/// parallel_for, so nproc - 1 workers keep compute threads at nproc.
[[nodiscard]] inline std::unique_ptr<polarice::par::ThreadPool> make_pool(
    int workers) {
  if (workers < 1) return nullptr;
  return std::make_unique<polarice::par::ThreadPool>(
      static_cast<std::size_t>(workers));
}

/// Median wall time in ms of `reps` calls of `fn` after `warmup` calls.
template <typename Fn>
[[nodiscard]] double median_ms(int warmup, int reps, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(samples));
}

// Workloads (workloads.cpp, serve.cpp) and the layer replays (probes.cpp).
void run_corpus_label(const Options& opt, Tracer& tracer, Report& report);
void run_train_unet(const Options& opt, Tracer& tracer, Report& report);
void run_serve(const Options& opt, Tracer& tracer, Report& report);
void run_layer_probes(const Options& opt, Tracer& tracer, Report& report);
/// `count` distinct scenes of the serving workloads' size (serve.cpp).
std::vector<polarice::img::ImageU8> make_serve_scenes(
    std::size_t count, std::uint64_t seed, polarice::par::ThreadPool* pool);
/// Per-layer serving telemetry for a traced run: the cache-hit path from a
/// short phase at the hot rate over cached scenes, and, if `batching`,
/// batching and queue metrics from a short serve_unique-shaped phase (for
/// workloads whose own window does not serve).
void run_serve_probes(const Options& opt, Tracer& tracer, Report& report,
                      bool batching);

}  // namespace perfbench
