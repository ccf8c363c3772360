#pragma once
// Fixed shapes of the four workloads. Only the seed varies between runs;
// README.md says why each shape was chosen.

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/corpus.h"
#include "nn/trainer.h"
#include "nn/unet.h"

namespace perfbench {

inline constexpr int kSetupReps = 3;  // setup_s is the median of these
inline constexpr int kTile = 64;

// Workers of the intra-op pool that runs the U-Net jobs: train_unet's
// TrainStage and the scene server (whose other compute threads are the
// scheduler, which filters, and one inference worker). The depth-2 U-Net's
// small convolutions gain little from more threads, while a virtual machine
// charges every worker wake-up. On a 4-core host, training with 3 workers
// took 8.5-14.0 s per job over five jobs and with 1 worker 6.7-7.9 s; the
// server's serve_unique p95 ranged 48-132 ms over three runs with 2 workers
// and 51-55 ms with 1. The corpus job keeps nproc - 1 workers: its parallel
// loops are per scene and per row of a 1024² scene.
inline constexpr int kModelPoolWorkers = 1;

// corpus_label: Fig 2's front half at scene scale.
inline constexpr int kCorpusScenes = 8;
inline constexpr int kCorpusSceneSize = 1024;

// train_unet: Fig 2's back half.
inline constexpr int kTrainScenes = 6;
inline constexpr int kTrainSceneSize = 256;
inline constexpr double kTrainFraction = 0.8;
inline constexpr int kTrainEpochs = 8;
inline constexpr int kTrainBatch = 4;
inline constexpr float kTrainLearningRate = 2e-3f;
inline constexpr double kMinTestAccuracy = 0.80;

// Serving (Fig 9 as a service).
inline constexpr int kServeSceneSize = 128;
inline constexpr int kServeBatchTiles = 8;
inline constexpr int kHotScenes = 8;

inline polarice::core::CorpusConfig corpus_config(std::uint64_t seed,
                                                  int scenes, int size) {
  polarice::core::CorpusConfig config;
  config.acquisition.num_scenes = scenes;
  config.acquisition.scene_size = size;
  config.acquisition.tile_size = kTile;
  config.acquisition.cloudy_scene_fraction = 0.5;
  config.acquisition.seed = seed;
  config.manual.seed = seed + 7919;
  return config;
}

/// A one-scene fleet that reproduces scene `index` of `full`: scene i of a
/// fleet uses scene seed and annotator seed `seed + i`, and the first
/// round(fraction * scenes) scenes are cloudy (AcquireStage).
inline polarice::core::CorpusConfig single_scene_config(
    const polarice::core::CorpusConfig& full, int index) {
  polarice::core::CorpusConfig config = full;
  const auto& acq = full.acquisition;
  const int cloudy = static_cast<int>(
      acq.cloudy_scene_fraction * static_cast<double>(acq.num_scenes) + 0.5);
  config.acquisition.num_scenes = 1;
  config.acquisition.seed = acq.seed + static_cast<std::uint64_t>(index);
  config.acquisition.cloudy_scene_fraction = index < cloudy ? 1.0 : 0.0;
  config.manual.seed = full.manual.seed + static_cast<std::uint64_t>(index);
  return config;
}

// The model's initial weights and the shuffle order keep their library
// defaults on every seed: --seed picks the scenes, so test accuracy moves
// with the data only, not with the initialisation too.

/// The U-Net every workload trains, replays or serves.
inline polarice::nn::UNetConfig unet_config() {
  polarice::nn::UNetConfig config;
  config.depth = 2;
  config.base_channels = 8;
  return config;
}

inline polarice::nn::TrainConfig train_config() {
  polarice::nn::TrainConfig config;
  config.epochs = kTrainEpochs;
  config.batch_size = kTrainBatch;
  config.learning_rate = kTrainLearningRate;
  return config;
}

/// Median of `reps` setups, each building the workload state from nothing;
/// reported as setup_s.
template <typename State, typename Setup>
std::unique_ptr<State> timed_setup(const Options& opt, Report& report,
                                   Setup&& setup) {
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = setup();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  report.e2e("setup_s", median(std::move(seconds)), "s");
  return state;
}

}  // namespace perfbench
