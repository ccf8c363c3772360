#pragma once
// The typed stages behind the paper's Fig 2 workflow, and the tile
// inference helpers behind Fig 9.
//
// Fig 2 (training):  AcquireStage -> CloudFilterStage -> AutoLabelStage ->
//                    ManualLabelStage -> TileSplitStage ->
//                    TrainTestSplitStage -> TrainStage x2 ->
//                    CloudBucketStage -> EvaluateStage x N
//
// Fig 9 (inference) is not a stage graph: InferenceWorkflow::classify_scene
// (serial) and serve::SceneServer (concurrent) both call the building blocks
// at the end of this header (infer_scene_tiles, stage_tile, pred_plane)
// between CloudShadowFilter and s2::stitch_labels.
//
// Every stage reads/writes the keys in core::keys. Per-scene collections
// are parallelized over the context's pool; outputs are deterministic and
// bit-identical to the pre-pipeline monolithic implementations.
//
// AutoLabelStage carries an execution policy — the paper's three labeling
// deployments (sequential, multiprocessing pool, PySpark map-reduce) are
// the SAME stage with different policies, not three separate APIs.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/autolabel.h"
#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "core/pipeline.h"
#include "metrics/metrics.h"
#include "mr/spark_context.h"
#include "nn/trainer.h"
#include "nn/unet.h"
#include "s2/acquisition.h"

namespace polarice::core {

namespace keys {
// Training-side artifacts.
inline const std::string kScenes = "s2.scenes";          // std::vector<s2::Scene>
// Image-list keys may hold std::vector<img::ImageU8>; stages that read RGB
// lists (CloudFilterStage, AutoLabelStage, TileSplitStage) also accept
// kScenes itself and read each Scene's rgb plane in place, so the corpus
// graph never duplicates scene imagery.
inline const std::string kSceneImages = "scenes.rgb";    // std::vector<img::ImageU8>
inline const std::string kFilteredImages = "scenes.filtered";
inline const std::string kAutoLabels = "labels.auto";    // std::vector<img::ImageU8>
inline const std::string kManualLabels = "labels.manual";
inline const std::string kCorpusTiles = "corpus.tiles";  // std::vector<LabeledTile>
inline const std::string kTrainTiles = "corpus.train";
inline const std::string kTestTiles = "corpus.test";
inline const std::string kTestTilesCloudy = "corpus.test_cloudy";
inline const std::string kTestTilesClear = "corpus.test_clear";
inline const std::string kModelPrefix = "model.";        // std::shared_ptr<nn::UNet>
inline const std::string kHistoryPrefix = "history.";    // std::vector<nn::EpochStats>
inline const std::string kEvalPrefix = "eval.";          // Evaluation
}  // namespace keys

/// Metrics of one model on one image variant, against ground truth.
struct Evaluation {
  double accuracy = 0.0;
  double precision = 0.0;  // macro
  double recall = 0.0;     // macro
  double f1 = 0.0;         // macro
  metrics::ConfusionMatrix confusion{s2::kNumClasses};
};

// ---------------------------------------------------------------------------
// Per-scene execution surface (batch Pipeline AND the streaming executor).
// ---------------------------------------------------------------------------

/// Per-scene artifact scope for the corpus sub-graph: every plane one scene
/// accumulates on its way from Acquire to TileSplit lives here instead of
/// under a global ArtifactStore key. The batch Pipeline materializes slots
/// transiently while looping a stage over the fleet; the StreamingExecutor
/// keeps at most `window` slots alive at once, and release_planes() frees a
/// finished scene's imagery the moment its tiles are cut — the streaming
/// path's replacement for DropArtifactsStage.
struct SceneSlot {
  std::size_t index = 0;          // scene position in the fleet

  s2::Scene scene;                // owned after AcquireStage
  img::ImageU8 filtered;          // CloudFilterStage output (empty = no filter)
  img::ImageU8 auto_labels;       // AutoLabelStage output
  img::ImageU8 manual_labels;     // ManualLabelStage output
  std::vector<LabeledTile> tiles; // TileSplitStage output (survives release)

  /// The image the labeler/tiler should segment: the filtered plane when
  /// the filter ran, else the raw scene RGB — the per-scene analogue of the
  /// batch graph's `segmented_key` wiring.
  [[nodiscard]] const img::ImageU8& segmented() const noexcept {
    return filtered.empty() ? scene.rgb : filtered;
  }

  /// Frees every scene-level plane; only the tiles remain.
  void release_planes() {
    scene = s2::Scene{};
    filtered = img::ImageU8{};
    auto_labels = img::ImageU8{};
    manual_labels = img::ImageU8{};
  }
};

/// A Stage whose corpus work decomposes scene-by-scene. run_scene()
/// processes exactly one scene inside its SceneSlot — the unit the
/// StreamingExecutor pipelines under a bounded residency window — and the
/// store-based run() is a loop over the same per-scene kernel, so batch and
/// streaming execution share one implementation and stay bit-identical by
/// construction (the per-scene kernels are pool-invariant, so it does not
/// matter which path supplies the intra-scene parallelism).
class SceneStage : public Stage {
 public:
  virtual void run_scene(const par::ExecutionContext& ctx,
                         SceneSlot& slot) const = 0;
};

// ---------------------------------------------------------------------------
// Acquisition & labeling stages (Fig 2 front half / corpus preparation).
// ---------------------------------------------------------------------------

/// Generates the scene fleet (the GEE-download stand-in). Scene i uses seed
/// `config.seed + i`; the first cloudy_scene_fraction of scenes carry
/// atmosphere. Downstream image stages read the RGB planes from kScenes in
/// place — no duplicated imagery artifact.
class AcquireStage : public SceneStage {
 public:
  explicit AcquireStage(s2::AcquisitionConfig config);

  [[nodiscard]] std::string name() const override { return "acquire"; }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kScenes};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;
  void run_scene(const par::ExecutionContext& ctx,
                 SceneSlot& slot) const override;

  [[nodiscard]] const s2::AcquisitionConfig& config() const noexcept {
    return config_;
  }

 private:
  s2::AcquisitionConfig config_;
};

/// Applies the thin-cloud/shadow filter to a list of RGB images. Items are
/// processed in parallel on the context pool; a single item is instead
/// filtered with intra-image row parallelism (the inference-serving shape).
class CloudFilterStage : public SceneStage {
 public:
  explicit CloudFilterStage(CloudFilterConfig config = {},
                            std::string input_key = keys::kSceneImages,
                            std::string output_key = keys::kFilteredImages);

  [[nodiscard]] std::string name() const override { return "cloud_filter"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {input_key_};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {output_key_};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;
  void run_scene(const par::ExecutionContext& ctx,
                 SceneSlot& slot) const override;

 private:
  CloudFilterConfig config_;
  std::string input_key_, output_key_;
};

/// How an AutoLabelStage batch is executed. The paper's three §III.B
/// deployments map onto the three kinds.
struct AutoLabelPolicy {
  enum class Kind {
    kContext,  // parallelize items over the context's pool (or sequential)
    kPool,     // dedicated ThreadPool of `workers` threads (Table I)
    kSpark,    // mr::SparkContext load -> map(UDF) -> collect (Table II)
  };
  Kind kind = Kind::kContext;
  std::size_t workers = 1;       // kPool: 1 = sequential
  mr::ClusterConfig cluster;     // kSpark

  static AutoLabelPolicy context() { return {}; }
  static AutoLabelPolicy pool(std::size_t workers) {
    AutoLabelPolicy p;
    p.kind = Kind::kPool;
    p.workers = workers;
    return p;
  }
  static AutoLabelPolicy spark(mr::ClusterConfig cluster) {
    AutoLabelPolicy p;
    p.kind = Kind::kSpark;
    p.cluster = cluster;
    return p;
  }
};

/// Timing/accounting of one label_batch call.
struct AutoLabelBatchStats {
  double seconds = 0.0;
  std::size_t items = 0;
  std::optional<mr::JobTimes> spark;  // set by the kSpark policy
};

/// Color-segmentation auto-labeling of an image list — one labeling
/// implementation (core::AutoLabeler) behind three execution policies.
/// Results are in input order regardless of policy. run_scene() labels the
/// slot's segmented plane directly (the streaming path is scene-at-a-time,
/// so the batch-shaped pool/spark policies do not apply to it).
class AutoLabelStage : public SceneStage {
 public:
  explicit AutoLabelStage(AutoLabelConfig config = {},
                          AutoLabelPolicy policy = {},
                          std::string input_key = keys::kFilteredImages,
                          std::string output_key = keys::kAutoLabels);

  [[nodiscard]] std::string name() const override { return "auto_label"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {input_key_};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {output_key_};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;
  void run_scene(const par::ExecutionContext& ctx,
                 SceneSlot& slot) const override;

  /// The underlying batch entry point (what the Table I / Table II benches
  /// and the Fig 10 sweep call directly).
  [[nodiscard]] std::vector<AutoLabelResult> label_batch(
      const std::vector<img::ImageU8>& images, const par::ExecutionContext& ctx,
      AutoLabelBatchStats* stats = nullptr) const;

  /// Zero-copy variant over borrowed images (what run() uses internally so
  /// scene RGB planes are labeled in place).
  [[nodiscard]] std::vector<AutoLabelResult> label_batch(
      const std::vector<const img::ImageU8*>& images,
      const par::ExecutionContext& ctx,
      AutoLabelBatchStats* stats = nullptr) const;

  [[nodiscard]] const AutoLabelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const AutoLabelPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  AutoLabelConfig config_;
  AutoLabelPolicy policy_;
  std::string input_key_, output_key_;
};

/// Simulated human annotation of the ground-truth planes (scene i uses
/// annotator seed `config.seed + i`, as prepare_corpus always did).
class ManualLabelStage : public SceneStage {
 public:
  explicit ManualLabelStage(s2::ManualLabelConfig config = {});

  [[nodiscard]] std::string name() const override { return "manual_label"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {keys::kScenes};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kManualLabels};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;
  void run_scene(const par::ExecutionContext& ctx,
                 SceneSlot& slot) const override;

 private:
  s2::ManualLabelConfig config_;
};

/// Splits the scene-level planes into LabeledTiles (the paper's 2048 -> 8x8
/// grid). `filtered_key` may point at the raw RGB list when the workflow
/// runs without the filter.
class TileSplitStage : public SceneStage {
 public:
  TileSplitStage(int tile_size,
                 std::string filtered_key = keys::kFilteredImages);

  [[nodiscard]] std::string name() const override { return "tile_split"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {keys::kScenes, filtered_key_, keys::kAutoLabels,
            keys::kManualLabels};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kCorpusTiles};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;
  void run_scene(const par::ExecutionContext& ctx,
                 SceneSlot& slot) const override;

 private:
  /// The shared per-scene kernel: cuts one scene (and its label/imagery
  /// planes) into LabeledTiles in row-major tile order.
  [[nodiscard]] std::vector<LabeledTile> split_one(
      const s2::Scene& scene, const img::ImageU8& segmented,
      const img::ImageU8& auto_labels, const img::ImageU8& manual_labels,
      int scene_index) const;

  int tile_size_;
  std::string filtered_key_;
};

/// Releases large intermediates whose last consumer has run — e.g. the
/// scene-level planes once TileSplitStage produced the corpus, so they do
/// not sit in the store through training and evaluation. Declaring the
/// keys as consumed makes validate() prove they exist by this point;
/// validation does not model the erasure, so place this stage after the
/// true last consumer.
class DropArtifactsStage : public Stage {
 public:
  explicit DropArtifactsStage(std::vector<std::string> keys);

  [[nodiscard]] std::string name() const override { return "drop_artifacts"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return keys_;
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;

 private:
  std::vector<std::string> keys_;
};

// ---------------------------------------------------------------------------
// Training & evaluation stages (Fig 2 back half).
// ---------------------------------------------------------------------------

/// Shuffles the corpus with `seed` and splits train/test at `fraction`.
class TrainTestSplitStage : public Stage {
 public:
  TrainTestSplitStage(double train_fraction, std::uint64_t seed);

  [[nodiscard]] std::string name() const override { return "train_test_split"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {keys::kCorpusTiles};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kTrainTiles, keys::kTestTiles};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;

 private:
  double train_fraction_;
  std::uint64_t seed_;
};

/// Buckets the test tiles by cloud cover (Table V's > / <= threshold).
class CloudBucketStage : public Stage {
 public:
  explicit CloudBucketStage(double threshold);

  [[nodiscard]] std::string name() const override { return "cloud_bucket"; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {keys::kTestTiles};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kTestTilesCloudy, keys::kTestTilesClear};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;

 private:
  double threshold_;
};

/// Trains one U-Net on the train tiles under the chosen supervision and
/// imagery variant. Produces `model.<id>` (std::shared_ptr<nn::UNet>) and
/// `history.<id>` (std::vector<nn::EpochStats>).
class TrainStage : public Stage {
 public:
  TrainStage(std::string model_id, nn::UNetConfig model_config,
             nn::TrainConfig train_config, LabelSource labels,
             ImageVariant images,
             std::string tiles_key = keys::kTrainTiles);

  [[nodiscard]] std::string name() const override {
    return "train:" + model_id_;
  }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {tiles_key_};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kModelPrefix + model_id_, keys::kHistoryPrefix + model_id_};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;

 private:
  std::string model_id_;
  nn::UNetConfig model_config_;
  nn::TrainConfig train_config_;
  LabelSource labels_;
  ImageVariant images_;
  std::string tiles_key_;
};

/// Evaluates `model.<id>` on a tile set against ground truth. Produces
/// `eval.<out_id>` (Evaluation).
class EvaluateStage : public Stage {
 public:
  EvaluateStage(std::string model_id, std::string tiles_key,
                ImageVariant images, std::string out_id);

  [[nodiscard]] std::string name() const override { return "eval:" + out_id_; }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return {keys::kModelPrefix + model_id_, tiles_key_};
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return {keys::kEvalPrefix + out_id_};
  }
  void run(const par::ExecutionContext& ctx, ArtifactStore& store) override;

 private:
  std::string model_id_;
  std::string tiles_key_;
  ImageVariant images_;
  std::string out_id_;
};

/// Shared evaluation routine (stage + TrainingWorkflow::evaluate shim).
Evaluation evaluate_model(nn::UNet& model,
                          const std::vector<LabeledTile>& tiles,
                          ImageVariant variant,
                          const par::ExecutionContext& ctx);

// ---------------------------------------------------------------------------
// Fig 9 inference building blocks (workflow, server).
// ---------------------------------------------------------------------------

/// Tiles `filtered` (dimensions must be tile multiples), runs batched
/// forward passes of up to `batch_tiles` tiles, and returns the per-tile
/// class-id planes in row-major tile order. Bit-identical for every
/// batch_tiles value (the conv path processes batch samples serially).
/// Checks the context's cancellation token between batches.
std::vector<img::ImageU8> infer_scene_tiles(nn::UNet& model,
                                            const img::ImageU8& filtered,
                                            int tile_size, int batch_tiles,
                                            const par::ExecutionContext& ctx);

/// Throws std::invalid_argument unless tile_size is positive and divisible
/// by the model's 2^depth — the shared precondition of every tile-serving
/// entry point (`who` prefixes the message: the workflow and the server
/// enforce the same rule through this one check).
void require_tile_compatible(const nn::UNet& model, int tile_size,
                             const char* who);

/// Copies the tile whose top-left corner is (x0, y0) out of `filtered` into
/// sample `sample` of the NCHW batch tensor `x`, applying the model input
/// normalization (/255). Shared by infer_scene_tiles and the SceneServer's
/// cross-scene batch fill so both paths stage pixels identically.
void stage_tile(const img::ImageU8& filtered, int x0, int y0, int tile_size,
                tensor::Tensor& x, int sample);

/// Converts sample `sample` of the per-pixel argmax indices `pred` (layout:
/// sample-major planes of tile_size * tile_size) into a single-channel
/// class-id plane — the inverse of stage_tile on the label side.
img::ImageU8 pred_plane(const int* pred, int sample, int tile_size);

}  // namespace polarice::core
