// The two batch jobs of the paper's Fig 2 workflow: auto-labeling a scene
// corpus (corpus_label) and training the U-Net on it (train_unet). Both are
// closed loops of whole jobs: the next job starts when the previous one
// ends, until the measured window is used up.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/corpus.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "trace.h"
#include "util/mem_stats.h"
#include "workload_config.h"

namespace perfbench {

namespace core = polarice::core;
namespace nn = polarice::nn;
namespace par = polarice::par;
namespace util = polarice::util;

namespace {

/// One measured window of whole jobs.
struct JobWindow {
  std::vector<double> job_ms;  // latency of each job
  double work_mpx = 0.0;       // megapixels of work completed
  double work_s = 0.0;         // seconds the work took (throughput base)
  std::size_t peak_bytes = 0;  // Image/Tensor high water above the start
};

/// Runs `job` until `seconds` have passed (at least once). `job` returns
/// the megapixels and seconds it contributes to throughput.
template <typename Job>
JobWindow run_jobs(double seconds, Job&& job) {
  JobWindow w;
  const auto start = Clock::now();
  do {
    util::mem_reset_peak();
    const std::size_t base = util::mem_current_bytes();
    const auto t0 = Clock::now();
    const auto [mpx, work_s] = job();
    w.job_ms.push_back(ms_between(t0, Clock::now()));
    w.work_mpx += mpx;
    w.work_s += work_s;
    w.peak_bytes = std::max(w.peak_bytes, util::mem_peak_bytes() - base);
  } while (seconds_between(start, Clock::now()) < seconds);
  return w;
}

/// Untraced runs measure one window. Traced runs split it: an untraced
/// half, then a traced half, and report the ratio of their median job
/// latencies as the tracing overhead.
template <typename Job>
JobWindow measure(const Options& opt, Tracer& tracer, Report& report,
                  Job&& job) {
  if (!opt.trace) return run_jobs(opt.seconds, job);
  JobWindow plain = run_jobs(opt.seconds / 2, job);
  tracer.set_enabled(true);
  JobWindow traced = run_jobs(opt.seconds / 2, job);
  tracer.set_enabled(false);
  report.layer("trace.overhead_ratio",
               median(traced.job_ms) / median(plain.job_ms), "x");
  report.note("tracing overhead: median job " +
              std::to_string(median(plain.job_ms)) + " ms untraced, " +
              std::to_string(median(traced.job_ms)) + " ms traced");
  plain.job_ms.insert(plain.job_ms.end(), traced.job_ms.begin(),
                      traced.job_ms.end());
  plain.work_mpx += traced.work_mpx;
  plain.work_s += traced.work_s;
  plain.peak_bytes = std::max(plain.peak_bytes, traced.peak_bytes);
  return plain;
}

void emit_e2e(Report& report, const JobWindow& w, double quality) {
  report.e2e("mpx_per_s", w.work_mpx / w.work_s, "Mpx/s");
  report.e2e("p50_ms", quantile(w.job_ms, 0.50), "ms");
  report.e2e("p95_ms", quantile(w.job_ms, 0.95), "ms");
  report.e2e("quality", quality, "frac");
  report.e2e("peak_mb", static_cast<double>(w.peak_bytes) / 1e6, "MB");
  std::string jobs;
  for (const double ms : w.job_ms) jobs += " " + std::to_string(ms);
  report.note("job latencies ms:" + jobs);
}

bool same_tile(const core::LabeledTile& a, const core::LabeledTile& b) {
  return a.rgb == b.rgb && a.rgb_filtered == b.rgb_filtered &&
         a.rgb_clean == b.rgb_clean && a.truth == b.truth &&
         a.auto_labels == b.auto_labels && a.manual_labels == b.manual_labels &&
         a.cloud_fraction == b.cloud_fraction && a.tile_x == b.tile_x &&
         a.tile_y == b.tile_y;
}

}  // namespace

// ---------------------------------------------------------------------------
// corpus_label
// ---------------------------------------------------------------------------

void run_corpus_label(const Options& opt, Tracer& tracer, Report& report) {
  const core::CorpusConfig config =
      corpus_config(opt.seed, kCorpusScenes, kCorpusSceneSize);
  // The reference fleet: one cloudy and one clear scene of the full fleet,
  // each prepared alone and sequentially.
  const std::vector<int> reference_scenes = {0, kCorpusScenes - 1};

  struct State {
    std::unique_ptr<par::ThreadPool> pool;
    std::vector<std::vector<core::LabeledTile>> reference;
  };
  auto state = timed_setup<State>(opt, report, [&] {
    auto s = std::make_unique<State>();
    s->pool = make_pool(opt.nproc - 1);
    for (const int index : reference_scenes) {
      s->reference.push_back(
          core::prepare_corpus(single_scene_config(config, index)));
    }
    return s;
  });

  const par::ExecutionContext ctx(state->pool.get());
  // One untimed pass first: it grows the heap to the corpus's size and pays
  // the page faults that every later pass of a long-lived process skips.
  (void)core::prepare_corpus(config, ctx);
  const std::size_t per_scene =
      static_cast<std::size_t>(config.acquisition.tiles_per_scene());
  const double scene_mpx =
      kCorpusScenes * static_cast<double>(kCorpusSceneSize) * kCorpusSceneSize /
      1e6;
  double agreement = 0.0;

  JobWindow w = measure(opt, tracer, report, [&] {
    std::vector<core::LabeledTile> tiles;
    const auto t0 = Clock::now();
    {
      Span span(tracer, "core.prepare_corpus");
      tiles = core::prepare_corpus(config, ctx);
    }
    const double seconds = seconds_between(t0, Clock::now());
    ++report.attempted;

    bool ok = tiles.size() == per_scene * kCorpusScenes;
    for (std::size_t r = 0; ok && r < reference_scenes.size(); ++r) {
      const auto first =
          static_cast<std::size_t>(reference_scenes[r]) * per_scene;
      for (std::size_t i = 0; ok && i < per_scene; ++i) {
        ok = same_tile(tiles[first + i], state->reference[r][i]) &&
             tiles[first + i].scene_index == reference_scenes[r];
      }
    }
    if (!ok) {
      ++report.failed;
      report.fail("pooled corpus differs from the sequential reference scenes");
    }

    std::size_t agree = 0, pixels = 0;
    for (const auto& tile : tiles) {
      const auto* a = tile.auto_labels.data();
      const auto* t = tile.truth.data();
      for (std::size_t i = 0; i < tile.truth.size(); ++i) agree += a[i] == t[i];
      pixels += tile.truth.size();
    }
    agreement = pixels == 0 ? 0.0 : static_cast<double>(agree) / pixels;
    return std::pair{scene_mpx, seconds};
  });
  emit_e2e(report, w, agreement);
  report.note("autolabel_agreement (quality): " + std::to_string(agreement));
}

// ---------------------------------------------------------------------------
// train_unet
// ---------------------------------------------------------------------------

void run_train_unet(const Options& opt, Tracer& tracer, Report& report) {
  struct State {
    std::unique_ptr<par::ThreadPool> pool;
    core::ArtifactStore store;
  };
  auto state = timed_setup<State>(opt, report, [&] {
    auto s = std::make_unique<State>();
    s->pool = make_pool(kModelPoolWorkers);
    const par::ExecutionContext ctx(s->pool.get());
    s->store.put(core::keys::kCorpusTiles, core::prepare_corpus(
        corpus_config(opt.seed, kTrainScenes, kTrainSceneSize), ctx));
    core::TrainTestSplitStage(kTrainFraction, opt.seed).run(ctx, s->store);
    return s;
  });

  const par::ExecutionContext ctx(state->pool.get());
  core::ArtifactStore& store = state->store;
  const auto train_tiles =
      store.get<std::vector<core::LabeledTile>>(core::keys::kTrainTiles).size();
  const double mpx_per_epoch =
      static_cast<double>(train_tiles) * kTile * kTile / 1e6;

  core::TrainStage train("auto", unet_config(), train_config(),
                         core::LabelSource::kAuto,
                         core::ImageVariant::kFiltered);
  core::EvaluateStage evaluate("auto", core::keys::kTestTiles,
                               core::ImageVariant::kFiltered, "auto_filtered");

  bool have_first = false;
  float first_loss = 0.0f;
  double first_accuracy = 0.0;
  float final_loss = 0.0f;
  double accuracy = 0.0;
  JobWindow w = measure(opt, tracer, report, [&] {
    const auto t0 = Clock::now();
    {
      Span span(tracer, "core.TrainStage.run");
      train.run(ctx, store);
    }
    const double train_s = seconds_between(t0, Clock::now());
    {
      Span span(tracer, "core.EvaluateStage.run");
      evaluate.run(ctx, store);
    }
    ++report.attempted;
    const auto& history = store.get<std::vector<nn::EpochStats>>(
        core::keys::kHistoryPrefix + "auto");
    final_loss = history.empty() ? NAN : history.back().mean_loss;
    accuracy = store.get<core::Evaluation>(core::keys::kEvalPrefix +
                                           "auto_filtered")
                   .accuracy;
    std::string problem;
    if (!std::isfinite(final_loss))
      problem = "final training loss is not finite";
    else if (accuracy < kMinTestAccuracy)
      problem = "test accuracy " + std::to_string(accuracy) + " below floor " +
                std::to_string(kMinTestAccuracy);
    else if (have_first &&
             (final_loss != first_loss || accuracy != first_accuracy))
      problem = "a repeated training job with the same seeds gave a different "
                "model";
    if (!problem.empty()) {
      ++report.failed;
      report.fail(problem);
    }
    if (!have_first) {
      have_first = true;
      first_loss = final_loss;
      first_accuracy = accuracy;
    }
    return std::pair{mpx_per_epoch * kTrainEpochs, train_s};
  });
  emit_e2e(report, w, accuracy);
  report.note("test_accuracy (quality): " + std::to_string(accuracy));
  report.note("train_final_loss: " + std::to_string(final_loss));
  report.note("train_tiles_per_s: " +
              std::to_string(static_cast<double>(train_tiles) * kTrainEpochs *
                             static_cast<double>(w.job_ms.size()) / w.work_s));
}

}  // namespace perfbench
