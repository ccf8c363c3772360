#pragma once
// Canned stage graphs gluing the substrates together.
//
// TrainingWorkflow = the paper's Fig 2 as a core::Pipeline: acquire scenes,
// filter, auto/manual label, tile, split, train U-Net-Man and U-Net-Auto,
// and evaluate both on the held-out split against ground truth, on original
// and filtered imagery, overall (Table IV) and bucketed by cloud cover
// (Table V, Fig 13). The graph is assembled in build_pipeline(); run() is
// now "run the pipeline, read the artifacts".
//
// InferenceWorkflow = Fig 9, serially: big scene -> thin-cloud/shadow
// filter -> 256x256 tiles -> batched U-Net inference -> stitched scene
// classification. It is the reference every concurrent path is checked
// against; for concurrent serving use serve::SceneServer.

#include <memory>
#include <vector>

#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "metrics/metrics.h"
#include "nn/trainer.h"
#include "nn/unet.h"
#include "par/context.h"
#include "s2/acquisition.h"

namespace polarice::core {

struct WorkflowConfig {
  s2::AcquisitionConfig acquisition;   // data source
  nn::UNetConfig model;                // architecture family member
  nn::TrainConfig training;            // epochs / batch / lr
  AutoLabelConfig autolabel;           // auto-label pipeline (with filter)
  s2::ManualLabelConfig manual;        // simulated annotator
  double train_fraction = 0.8;         // paper: 80/20 split
  std::uint64_t split_seed = 77;       // tile shuffle before splitting
  double cloud_split_threshold = 0.10; // Table V bucket boundary
  // How the corpus sub-graph executes: whole-fleet batch stages (default)
  // or CorpusExecution::streaming(window) — O(window) peak plane memory,
  // bit-identical tiles/split/models either way.
  CorpusExecution corpus_execution;

  void validate() const;

  /// The corpus slice of this config (what prepare_corpus and the
  /// streaming executor consume).
  [[nodiscard]] CorpusConfig corpus_config() const {
    return CorpusConfig{acquisition, autolabel, manual, corpus_execution};
  }
};

struct TrainingWorkflowResult {
  std::shared_ptr<nn::UNet> unet_man;
  std::shared_ptr<nn::UNet> unet_auto;
  std::vector<nn::EpochStats> man_history;
  std::vector<nn::EpochStats> auto_history;

  // Table IV: overall test accuracy.
  Evaluation man_original, man_filtered;
  Evaluation auto_original, auto_filtered;

  // Table V / Fig 13: split by cloud cover (> / <= threshold).
  Evaluation man_cloudy_original, man_cloudy_filtered;
  Evaluation auto_cloudy_original, auto_cloudy_filtered;
  Evaluation man_clear_original, man_clear_filtered;
  Evaluation auto_clear_original, auto_clear_filtered;

  std::size_t test_tiles_cloudy = 0;
  std::size_t test_tiles_clear = 0;
};

class TrainingWorkflow {
 public:
  explicit TrainingWorkflow(WorkflowConfig config);

  /// Assembles the Fig 2 stage graph for this config. Exposed so callers
  /// can inspect or extend the graph before running it; run() uses exactly
  /// this pipeline.
  [[nodiscard]] Pipeline build_pipeline() const;

  /// Runs the whole Fig 2 pipeline on the context (pool parallelizes data
  /// preparation and evaluation; cancellation and progress are honoured
  /// throughout).
  TrainingWorkflowResult run(const par::ExecutionContext& ctx = {});


  /// Evaluates an already-trained model on prepared tiles against ground
  /// truth. Exposed for the benches (Table V / Fig 13 sweeps re-use the
  /// models trained once).
  static Evaluation evaluate(nn::UNet& model,
                             const std::vector<LabeledTile>& tiles,
                             ImageVariant variant,
                             const par::ExecutionContext& ctx = {});


  [[nodiscard]] const WorkflowConfig& config() const noexcept {
    return config_;
  }

 private:
  WorkflowConfig config_;
};

class InferenceWorkflow {
 public:
  /// `model` must outlive the workflow. tile_size must be compatible with
  /// the model's spatial divisor; the filter config is validated here.
  /// `batch_tiles` is the number of tiles per forward pass (results are
  /// bit-identical for every value; it only trades memory for amortized
  /// dispatch).
  InferenceWorkflow(nn::UNet& model, CloudFilterConfig filter_config,
                    int tile_size, int batch_tiles = 8);

  /// Classifies a full scene (dimensions must be tile multiples); returns a
  /// scene-sized class-id plane. Not thread-safe — the model's forward
  /// caches are stateful; use serve::SceneServer for concurrent serving.
  img::ImageU8 classify_scene(const img::ImageU8& scene_rgb,
                              const par::ExecutionContext& ctx = {});


  [[nodiscard]] int tile_size() const noexcept { return tile_size_; }
  [[nodiscard]] int batch_tiles() const noexcept { return batch_tiles_; }
  [[nodiscard]] const CloudFilterConfig& filter_config() const noexcept {
    return filter_.config();
  }

 private:
  nn::UNet& model_;
  CloudShadowFilter filter_;
  int tile_size_;
  int batch_tiles_;
};

}  // namespace polarice::core
