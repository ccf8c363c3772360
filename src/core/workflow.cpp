#include "core/workflow.h"

#include <stdexcept>

#include "core/streaming.h"
#include "s2/tiles.h"
#include "util/log.h"

namespace polarice::core {

void WorkflowConfig::validate() const {
  acquisition.validate();
  model.validate();
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("WorkflowConfig: train_fraction in (0,1)");
  }
  if (acquisition.tile_size % model.spatial_divisor() != 0) {
    throw std::invalid_argument(
        "WorkflowConfig: tile_size must be divisible by the model's 2^depth");
  }
  if (cloud_split_threshold < 0.0 || cloud_split_threshold > 1.0) {
    throw std::invalid_argument("WorkflowConfig: bad cloud_split_threshold");
  }
  corpus_execution.validate();
}

TrainingWorkflow::TrainingWorkflow(WorkflowConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

Evaluation TrainingWorkflow::evaluate(nn::UNet& model,
                                      const std::vector<LabeledTile>& tiles,
                                      ImageVariant variant,
                                      const par::ExecutionContext& ctx) {
  return evaluate_model(model, tiles, variant, ctx);
}


Pipeline TrainingWorkflow::build_pipeline() const {
  const auto& cfg = config_;
  Pipeline pipeline;

  // Corpus preparation: the paper's data-prep order of operations (filter
  // and segment the LARGE scenes, then tile).
  if (cfg.corpus_execution.mode == CorpusExecution::Mode::kStreaming) {
    // The whole sub-graph as one bounded-residency stage: scene planes
    // never enter the store, so there is nothing to drop afterwards.
    pipeline.emplace<StreamingCorpusStage>(cfg.corpus_config(),
                                           cfg.corpus_execution.window);
  } else {
    for (auto& stage : make_corpus_stages(cfg.corpus_config())) {
      pipeline.add(std::move(stage));
    }
    // The corpus tiles carry everything training needs; release the
    // scene-level planes so they don't sit in the store through training
    // and the twelve evaluations.
    std::vector<std::string> scene_keys{keys::kScenes, keys::kAutoLabels,
                                        keys::kManualLabels};
    if (cfg.autolabel.apply_filter) {
      scene_keys.push_back(keys::kFilteredImages);
    }
    pipeline.emplace<DropArtifactsStage>(std::move(scene_keys));
  }
  pipeline.emplace<TrainTestSplitStage>(cfg.train_fraction, cfg.split_seed);

  // Two trainings: both models see the filtered imagery (the filter is part
  // of the paper's pipeline); only the supervision differs.
  auto auto_model_cfg = cfg.model;
  auto_model_cfg.seed += 1;  // independent init, as two separate trainings
  pipeline.emplace<TrainStage>("man", cfg.model, cfg.training,
                               LabelSource::kManual, ImageVariant::kFiltered);
  pipeline.emplace<TrainStage>("auto", auto_model_cfg, cfg.training,
                               LabelSource::kAuto, ImageVariant::kFiltered);

  // Table IV evaluations (whole test split) and the Table V / Fig 13 cloud
  // buckets.
  pipeline.emplace<CloudBucketStage>(cfg.cloud_split_threshold);
  struct Sweep {
    const char* model;
    const std::string* tiles;
    ImageVariant variant;
    const char* out;
  };
  const Sweep sweeps[] = {
      {"man", &keys::kTestTiles, ImageVariant::kOriginal, "man_original"},
      {"man", &keys::kTestTiles, ImageVariant::kFiltered, "man_filtered"},
      {"auto", &keys::kTestTiles, ImageVariant::kOriginal, "auto_original"},
      {"auto", &keys::kTestTiles, ImageVariant::kFiltered, "auto_filtered"},
      {"man", &keys::kTestTilesCloudy, ImageVariant::kOriginal,
       "man_cloudy_original"},
      {"man", &keys::kTestTilesCloudy, ImageVariant::kFiltered,
       "man_cloudy_filtered"},
      {"auto", &keys::kTestTilesCloudy, ImageVariant::kOriginal,
       "auto_cloudy_original"},
      {"auto", &keys::kTestTilesCloudy, ImageVariant::kFiltered,
       "auto_cloudy_filtered"},
      {"man", &keys::kTestTilesClear, ImageVariant::kOriginal,
       "man_clear_original"},
      {"man", &keys::kTestTilesClear, ImageVariant::kFiltered,
       "man_clear_filtered"},
      {"auto", &keys::kTestTilesClear, ImageVariant::kOriginal,
       "auto_clear_original"},
      {"auto", &keys::kTestTilesClear, ImageVariant::kFiltered,
       "auto_clear_filtered"},
  };
  for (const auto& sweep : sweeps) {
    pipeline.emplace<EvaluateStage>(sweep.model, *sweep.tiles, sweep.variant,
                                    sweep.out);
  }
  return pipeline;
}

TrainingWorkflowResult TrainingWorkflow::run(const par::ExecutionContext& ctx) {
  LOG_INFO() << "workflow: preparing " << config_.acquisition.total_tiles()
             << " tiles from " << config_.acquisition.num_scenes << " scenes";
  const Pipeline pipeline = build_pipeline();
  ArtifactStore store;
  pipeline.run(ctx, store);

  TrainingWorkflowResult result;
  result.unet_man =
      store.get<std::shared_ptr<nn::UNet>>(keys::kModelPrefix + "man");
  result.unet_auto =
      store.get<std::shared_ptr<nn::UNet>>(keys::kModelPrefix + "auto");
  result.man_history =
      store.get<std::vector<nn::EpochStats>>(keys::kHistoryPrefix + "man");
  result.auto_history =
      store.get<std::vector<nn::EpochStats>>(keys::kHistoryPrefix + "auto");

  const auto eval = [&](const char* id) {
    return store.get<Evaluation>(keys::kEvalPrefix + id);
  };
  result.man_original = eval("man_original");
  result.man_filtered = eval("man_filtered");
  result.auto_original = eval("auto_original");
  result.auto_filtered = eval("auto_filtered");
  result.man_cloudy_original = eval("man_cloudy_original");
  result.man_cloudy_filtered = eval("man_cloudy_filtered");
  result.auto_cloudy_original = eval("auto_cloudy_original");
  result.auto_cloudy_filtered = eval("auto_cloudy_filtered");
  result.man_clear_original = eval("man_clear_original");
  result.man_clear_filtered = eval("man_clear_filtered");
  result.auto_clear_original = eval("auto_clear_original");
  result.auto_clear_filtered = eval("auto_clear_filtered");
  result.test_tiles_cloudy =
      store.get<std::vector<LabeledTile>>(keys::kTestTilesCloudy).size();
  result.test_tiles_clear =
      store.get<std::vector<LabeledTile>>(keys::kTestTilesClear).size();
  return result;
}


InferenceWorkflow::InferenceWorkflow(nn::UNet& model,
                                     CloudFilterConfig filter_config,
                                     int tile_size, int batch_tiles)
    : model_(model),
      filter_(filter_config),  // validates the config at construction
      tile_size_(tile_size),
      batch_tiles_(batch_tiles) {
  require_tile_compatible(model, tile_size, "InferenceWorkflow");
  if (batch_tiles_ < 1) {
    throw std::invalid_argument("InferenceWorkflow: batch_tiles < 1");
  }
}

img::ImageU8 InferenceWorkflow::classify_scene(const img::ImageU8& scene_rgb,
                                               const par::ExecutionContext& ctx) {
  if (scene_rgb.channels() != 3) {
    throw std::invalid_argument("InferenceWorkflow: expected RGB scene");
  }
  if (scene_rgb.width() % tile_size_ != 0 ||
      scene_rgb.height() % tile_size_ != 0) {
    throw std::invalid_argument(
        "InferenceWorkflow: scene size must be a tile multiple");
  }
  // Fig 9, with the corpus lesson applied: filter the big scene once, then
  // split, infer per tile batch, and stitch.
  const img::ImageU8 filtered = filter_.apply(scene_rgb, ctx);
  const auto tile_planes =
      infer_scene_tiles(model_, filtered, tile_size_, batch_tiles_, ctx);
  return s2::stitch_labels(tile_planes, filtered.width() / tile_size_,
                           filtered.height() / tile_size_);
}


}  // namespace polarice::core
