#include "core/stages.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "img/ops.h"
#include "mr/rdd.h"
#include "par/parallel_for.h"
#include "s2/scene.h"
#include "s2/tiles.h"
#include "tensor/conv.h"
#include "util/rng.h"
#include "util/timer.h"

namespace polarice::core {

namespace {

/// Borrowed views of an image-list artifact. The key may hold a
/// std::vector<img::ImageU8> or be keys::kScenes (std::vector<s2::Scene>),
/// whose rgb planes are read in place — the corpus graph never copies
/// scene imagery between stages.
std::vector<const img::ImageU8*> rgb_inputs(const ArtifactStore& store,
                                            const std::string& key) {
  std::vector<const img::ImageU8*> views;
  if (const auto* images = store.try_get<std::vector<img::ImageU8>>(key)) {
    views.reserve(images->size());
    for (const auto& image : *images) views.push_back(&image);
    return views;
  }
  if (const auto* scenes = store.try_get<std::vector<s2::Scene>>(key)) {
    views.reserve(scenes->size());
    for (const auto& scene : *scenes) views.push_back(&scene.rgb);
    return views;
  }
  throw std::logic_error("stages: artifact '" + key +
                         "' holds neither an image list nor scenes");
}

}  // namespace

// ---------------------------------------------------------------------------
// AcquireStage
// ---------------------------------------------------------------------------

AcquireStage::AcquireStage(s2::AcquisitionConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

void AcquireStage::run_scene(const par::ExecutionContext& ctx,
                             SceneSlot& slot) const {
  ctx.throw_if_cancelled("acquire");
  slot.scene =
      s2::SceneGenerator(config_.scene_config(static_cast<int>(slot.index)))
          .generate();
}

void AcquireStage::run(const par::ExecutionContext& ctx,
                       ArtifactStore& store) {
  const auto num_scenes = static_cast<std::size_t>(config_.num_scenes);
  std::vector<s2::Scene> scenes(num_scenes);
  par::parallel_for(
      ctx.pool(), 0, num_scenes,
      [&](std::size_t i) {
        SceneSlot slot;
        slot.index = i;
        run_scene(ctx, slot);
        scenes[i] = std::move(slot.scene);
      },
      /*grain=*/1);
  store.put(keys::kScenes, std::move(scenes));
}

// ---------------------------------------------------------------------------
// CloudFilterStage
// ---------------------------------------------------------------------------

CloudFilterStage::CloudFilterStage(CloudFilterConfig config,
                                   std::string input_key,
                                   std::string output_key)
    : config_(config),
      input_key_(std::move(input_key)),
      output_key_(std::move(output_key)) {
  config_.validate();
}

void CloudFilterStage::run_scene(const par::ExecutionContext& ctx,
                                 SceneSlot& slot) const {
  ctx.throw_if_cancelled("cloud_filter");
  // Intra-scene row parallelism from the caller's pool; the filter output
  // is pool-invariant, so this matches the batch path bit for bit.
  slot.filtered = CloudShadowFilter(config_).apply(slot.scene.rgb, ctx);
}

void CloudFilterStage::run(const par::ExecutionContext& ctx,
                           ArtifactStore& store) {
  const auto images = rgb_inputs(store, input_key_);
  const CloudShadowFilter filter(config_);
  std::vector<img::ImageU8> filtered(images.size());
  if (images.size() == 1) {
    // Serving shape: one scene, intra-image row parallelism.
    filtered[0] = filter.apply(*images[0], ctx);
  } else {
    // A loop over the per-scene kernel, parallel across scenes and
    // sequential inside each (the batch shape).
    const par::ExecutionContext scene_ctx = ctx.with_pool(nullptr);
    par::parallel_for(
        ctx.pool(), 0, images.size(),
        [&](std::size_t i) {
          ctx.throw_if_cancelled("cloud_filter");
          filtered[i] = filter.apply(*images[i], scene_ctx);
        },
        /*grain=*/1);
  }
  store.put(output_key_, std::move(filtered));
}

// ---------------------------------------------------------------------------
// AutoLabelStage
// ---------------------------------------------------------------------------

AutoLabelStage::AutoLabelStage(AutoLabelConfig config, AutoLabelPolicy policy,
                               std::string input_key, std::string output_key)
    : config_(std::move(config)),
      policy_(policy),
      input_key_(std::move(input_key)),
      output_key_(std::move(output_key)) {}

std::vector<AutoLabelResult> AutoLabelStage::label_batch(
    const std::vector<img::ImageU8>& images, const par::ExecutionContext& ctx,
    AutoLabelBatchStats* stats) const {
  std::vector<const img::ImageU8*> views;
  views.reserve(images.size());
  for (const auto& image : images) views.push_back(&image);
  return label_batch(views, ctx, stats);
}

std::vector<AutoLabelResult> AutoLabelStage::label_batch(
    const std::vector<const img::ImageU8*>& images,
    const par::ExecutionContext& ctx, AutoLabelBatchStats* stats) const {
  const AutoLabeler labeler(config_);
  std::vector<AutoLabelResult> results(images.size());
  std::optional<mr::JobTimes> spark_times;

  // One shared child context for every tile: sequential inside a tile
  // (parallelism is across tiles), same cancellation token as the caller,
  // and no per-tile context allocation on the hot path.
  const par::ExecutionContext tile_ctx = ctx.with_pool(nullptr);
  util::WallTimer timer;
  const auto label_over = [&](par::ThreadPool* pool) {
    par::parallel_for(
        pool, 0, images.size(),
        [&](std::size_t i) {
          ctx.throw_if_cancelled("auto_label");
          results[i] = labeler.label(*images[i], tile_ctx);
        },
        /*grain=*/1);
  };

  switch (policy_.kind) {
    case AutoLabelPolicy::Kind::kContext:
      label_over(ctx.pool());
      break;
    case AutoLabelPolicy::Kind::kPool: {
      if (policy_.workers == 0) {
        throw std::invalid_argument("AutoLabelStage: workers must be >= 1");
      }
      if (policy_.workers == 1) {
        label_over(nullptr);
      } else {
        par::ThreadPool pool(policy_.workers);
        label_over(&pool);
      }
      break;
    }
    case AutoLabelPolicy::Kind::kSpark: {
      // Load -> map(UDF) -> collect. The lineage carries (index, borrowed
      // image) pairs — the tiles themselves are not copied into the RDD —
      // and the index brings results back to input order regardless of the
      // round-robin partitioning. Borrowing is safe: collect() completes
      // before this scope ends.
      mr::SparkContext context(policy_.cluster);
      context.set_cancellation(ctx.cancellation());
      std::vector<std::pair<std::size_t, const img::ImageU8*>> indexed;
      indexed.reserve(images.size());
      for (std::size_t i = 0; i < images.size(); ++i) {
        indexed.emplace_back(i, images[i]);
      }
      auto rdd = context.parallelize(std::move(indexed));
      auto labeled = rdd.map(
          [&labeler, &tile_ctx](
              const std::pair<std::size_t, const img::ImageU8*>& item) {
            return std::make_pair(item.first,
                                  labeler.label(*item.second, tile_ctx));
          });
      for (auto& [index, result] : labeled.collect()) {
        results[index] = std::move(result);
      }
      spark_times = context.last_job();
      break;
    }
  }

  if (stats != nullptr) {
    stats->seconds = timer.seconds();
    stats->items = images.size();
    stats->spark = spark_times;
  }
  return results;
}

void AutoLabelStage::run_scene(const par::ExecutionContext& ctx,
                               SceneSlot& slot) const {
  ctx.throw_if_cancelled("auto_label");
  // Same fused labeler as label_batch; its output is pool-invariant, so the
  // streaming path may use intra-scene row parallelism freely.
  slot.auto_labels = AutoLabeler(config_).label(slot.segmented(), ctx).labels;
}

void AutoLabelStage::run(const par::ExecutionContext& ctx,
                         ArtifactStore& store) {
  auto results = label_batch(rgb_inputs(store, input_key_), ctx);
  std::vector<img::ImageU8> planes;
  planes.reserve(results.size());
  for (auto& result : results) {
    planes.push_back(std::move(result.labels));
    result = AutoLabelResult{};  // release colorized/used_image eagerly
  }
  store.put(output_key_, std::move(planes));
}

// ---------------------------------------------------------------------------
// ManualLabelStage
// ---------------------------------------------------------------------------

ManualLabelStage::ManualLabelStage(s2::ManualLabelConfig config)
    : config_(config) {}

void ManualLabelStage::run_scene(const par::ExecutionContext& ctx,
                                 SceneSlot& slot) const {
  ctx.throw_if_cancelled("manual_label");
  auto cfg = config_;
  cfg.seed += slot.index;  // per-scene annotator stream
  slot.manual_labels = s2::simulate_manual_labels(slot.scene.labels, cfg);
}

void ManualLabelStage::run(const par::ExecutionContext& ctx,
                           ArtifactStore& store) {
  // A loop over run_scene: each scene is moved through a transient slot
  // (moves only — the store's planes are never copied) and back.
  auto scenes = store.take<std::vector<s2::Scene>>(keys::kScenes);
  std::vector<img::ImageU8> labels(scenes.size());
  par::parallel_for(
      ctx.pool(), 0, scenes.size(),
      [&](std::size_t i) {
        SceneSlot slot;
        slot.index = i;
        slot.scene = std::move(scenes[i]);
        run_scene(ctx, slot);
        labels[i] = std::move(slot.manual_labels);
        scenes[i] = std::move(slot.scene);
      },
      /*grain=*/1);
  store.put(keys::kScenes, std::move(scenes));
  store.put(keys::kManualLabels, std::move(labels));
}

// ---------------------------------------------------------------------------
// TileSplitStage
// ---------------------------------------------------------------------------

TileSplitStage::TileSplitStage(int tile_size, std::string filtered_key)
    : tile_size_(tile_size), filtered_key_(std::move(filtered_key)) {
  if (tile_size_ <= 0) {
    throw std::invalid_argument("TileSplitStage: tile_size must be positive");
  }
}

std::vector<LabeledTile> TileSplitStage::split_one(
    const s2::Scene& scene, const img::ImageU8& segmented,
    const img::ImageU8& auto_labels, const img::ImageU8& manual_labels,
    int scene_index) const {
  auto scene_tiles = s2::split_scene(scene, tile_size_, scene_index);
  std::vector<LabeledTile> out;
  out.reserve(scene_tiles.size());
  for (auto& st : scene_tiles) {
    LabeledTile tile;
    const int x0 = st.tile_x * tile_size_;
    const int y0 = st.tile_y * tile_size_;
    tile.rgb = std::move(st.rgb);
    tile.rgb_clean = std::move(st.rgb_clean);
    tile.truth = std::move(st.labels);
    tile.rgb_filtered = img::crop(segmented, x0, y0, tile_size_, tile_size_);
    tile.auto_labels =
        img::crop(auto_labels, x0, y0, tile_size_, tile_size_);
    tile.manual_labels =
        img::crop(manual_labels, x0, y0, tile_size_, tile_size_);
    tile.cloud_fraction = st.cloud_fraction;
    tile.scene_index = st.scene_index;
    tile.tile_x = st.tile_x;
    tile.tile_y = st.tile_y;
    out.push_back(std::move(tile));
  }
  return out;
}

void TileSplitStage::run_scene(const par::ExecutionContext& ctx,
                               SceneSlot& slot) const {
  ctx.throw_if_cancelled("tile_split");
  slot.tiles = split_one(slot.scene, slot.segmented(), slot.auto_labels,
                         slot.manual_labels, static_cast<int>(slot.index));
}

void TileSplitStage::run(const par::ExecutionContext& ctx,
                         ArtifactStore& store) {
  const auto& scenes = store.get<std::vector<s2::Scene>>(keys::kScenes);
  const auto filtered = rgb_inputs(store, filtered_key_);
  const auto& auto_labels =
      store.get<std::vector<img::ImageU8>>(keys::kAutoLabels);
  const auto& manual_labels =
      store.get<std::vector<img::ImageU8>>(keys::kManualLabels);
  if (filtered.size() != scenes.size() ||
      auto_labels.size() != scenes.size() ||
      manual_labels.size() != scenes.size()) {
    throw std::logic_error("TileSplitStage: per-scene plane count mismatch");
  }
  if (scenes.empty()) {
    store.put(keys::kCorpusTiles, std::vector<LabeledTile>{});
    return;
  }
  // Per-scene tile counts follow split_scene's semantics exactly (floor per
  // axis, partial edge tiles discarded), so non-square and mixed-size
  // scenes index correctly.
  std::vector<std::size_t> offsets(scenes.size() + 1, 0);
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const auto count =
        static_cast<std::size_t>(scenes[i].rgb.width() / tile_size_) *
        static_cast<std::size_t>(scenes[i].rgb.height() / tile_size_);
    offsets[i + 1] = offsets[i] + count;
  }
  std::vector<LabeledTile> tiles(offsets.back());
  par::parallel_for(
      ctx.pool(), 0, scenes.size(),
      [&](std::size_t scene_idx) {
        ctx.throw_if_cancelled("tile_split");
        auto scene_tiles =
            split_one(scenes[scene_idx], *filtered[scene_idx],
                      auto_labels[scene_idx], manual_labels[scene_idx],
                      static_cast<int>(scene_idx));
        for (std::size_t i = 0; i < scene_tiles.size(); ++i) {
          tiles[offsets[scene_idx] + i] = std::move(scene_tiles[i]);
        }
      },
      /*grain=*/1);
  store.put(keys::kCorpusTiles, std::move(tiles));
}

// ---------------------------------------------------------------------------
// DropArtifactsStage
// ---------------------------------------------------------------------------

DropArtifactsStage::DropArtifactsStage(std::vector<std::string> keys)
    : keys_(std::move(keys)) {}

void DropArtifactsStage::run(const par::ExecutionContext& ctx,
                             ArtifactStore& store) {
  ctx.throw_if_cancelled("drop_artifacts");
  for (const auto& key : keys_) store.erase(key);
}

// ---------------------------------------------------------------------------
// TrainTestSplitStage / CloudBucketStage
// ---------------------------------------------------------------------------

TrainTestSplitStage::TrainTestSplitStage(double train_fraction,
                                         std::uint64_t seed)
    : train_fraction_(train_fraction), seed_(seed) {
  if (train_fraction_ <= 0.0 || train_fraction_ >= 1.0) {
    throw std::invalid_argument(
        "TrainTestSplitStage: train_fraction in (0,1)");
  }
}

void TrainTestSplitStage::run(const par::ExecutionContext& ctx,
                              ArtifactStore& store) {
  ctx.throw_if_cancelled("train_test_split");
  auto tiles = store.take<std::vector<LabeledTile>>(keys::kCorpusTiles);
  util::Rng split_rng(seed_);
  std::shuffle(tiles.begin(), tiles.end(), split_rng);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(tiles.size()) * train_fraction_);
  std::vector<LabeledTile> train(tiles.begin(), tiles.begin() + cut);
  std::vector<LabeledTile> test(tiles.begin() + cut, tiles.end());
  if (train.empty() || test.empty()) {
    throw std::invalid_argument(
        "TrainTestSplitStage: split produced an empty set");
  }
  store.put(keys::kTrainTiles, std::move(train));
  store.put(keys::kTestTiles, std::move(test));
}

CloudBucketStage::CloudBucketStage(double threshold) : threshold_(threshold) {
  if (threshold_ < 0.0 || threshold_ > 1.0) {
    throw std::invalid_argument("CloudBucketStage: threshold in [0,1]");
  }
}

void CloudBucketStage::run(const par::ExecutionContext& ctx,
                           ArtifactStore& store) {
  ctx.throw_if_cancelled("cloud_bucket");
  const auto& test = store.get<std::vector<LabeledTile>>(keys::kTestTiles);
  std::vector<LabeledTile> cloudy, clear;
  for (const auto& tile : test) {
    (tile.cloud_fraction > threshold_ ? cloudy : clear).push_back(tile);
  }
  store.put(keys::kTestTilesCloudy, std::move(cloudy));
  store.put(keys::kTestTilesClear, std::move(clear));
}

// ---------------------------------------------------------------------------
// TrainStage / EvaluateStage
// ---------------------------------------------------------------------------

TrainStage::TrainStage(std::string model_id, nn::UNetConfig model_config,
                       nn::TrainConfig train_config, LabelSource labels,
                       ImageVariant images, std::string tiles_key)
    : model_id_(std::move(model_id)),
      model_config_(model_config),
      train_config_(train_config),
      labels_(labels),
      images_(images),
      tiles_key_(std::move(tiles_key)) {
  model_config_.validate();
}

void TrainStage::run(const par::ExecutionContext& ctx, ArtifactStore& store) {
  const auto& tiles = store.get<std::vector<LabeledTile>>(tiles_key_);
  const nn::SegDataset data = build_dataset(tiles, labels_, images_);
  auto model = std::make_shared<nn::UNet>(model_config_);
  model->bind(ctx);
  nn::Trainer trainer(*model, train_config_);
  auto history = trainer.fit(data, ctx);
  store.put(keys::kModelPrefix + model_id_, model);
  store.put(keys::kHistoryPrefix + model_id_, std::move(history));
}

EvaluateStage::EvaluateStage(std::string model_id, std::string tiles_key,
                             ImageVariant images, std::string out_id)
    : model_id_(std::move(model_id)),
      tiles_key_(std::move(tiles_key)),
      images_(images),
      out_id_(std::move(out_id)) {}

void EvaluateStage::run(const par::ExecutionContext& ctx,
                        ArtifactStore& store) {
  ctx.throw_if_cancelled("evaluate");
  const auto& model =
      store.get<std::shared_ptr<nn::UNet>>(keys::kModelPrefix + model_id_);
  const auto& tiles = store.get<std::vector<LabeledTile>>(tiles_key_);
  store.put(keys::kEvalPrefix + out_id_,
            evaluate_model(*model, tiles, images_, ctx));
}

Evaluation evaluate_model(nn::UNet& model,
                          const std::vector<LabeledTile>& tiles,
                          ImageVariant variant,
                          const par::ExecutionContext& ctx) {
  Evaluation eval;
  if (tiles.empty()) return eval;
  const nn::SegDataset dataset =
      build_dataset(tiles, LabelSource::kGroundTruth, variant);

  model.bind(ctx);
  nn::DataLoader loader(dataset, /*batch_size=*/8, /*seed=*/0,
                        /*shuffle=*/false);
  loader.start_epoch();
  tensor::Tensor logits, probs;
  nn::Batch batch;
  while (loader.next(batch)) {
    ctx.throw_if_cancelled("evaluate");
    model.forward(batch.x, logits, /*training=*/false);
    tensor::softmax_channel(logits, probs);
    const auto pred = tensor::argmax_channel(probs);
    eval.confusion.add_all(batch.targets, pred);
  }
  eval.accuracy = eval.confusion.accuracy();
  eval.precision = eval.confusion.macro_precision();
  eval.recall = eval.confusion.macro_recall();
  eval.f1 = eval.confusion.macro_f1();
  return eval;
}

// ---------------------------------------------------------------------------
// infer_scene_tiles and the tile staging helpers
// ---------------------------------------------------------------------------

std::vector<img::ImageU8> infer_scene_tiles(nn::UNet& model,
                                            const img::ImageU8& filtered,
                                            int tile_size, int batch_tiles,
                                            const par::ExecutionContext& ctx) {
  if (filtered.channels() != 3) {
    throw std::invalid_argument("infer_scene_tiles: expected RGB scene");
  }
  if (filtered.width() % tile_size != 0 ||
      filtered.height() % tile_size != 0) {
    throw std::invalid_argument(
        "infer_scene_tiles: scene size must be a tile multiple");
  }
  if (batch_tiles < 1) batch_tiles = 1;
  const int tiles_x = filtered.width() / tile_size;
  const int tiles_y = filtered.height() / tile_size;
  const int total = tiles_x * tiles_y;

  model.bind(ctx);
  std::vector<img::ImageU8> out(static_cast<std::size_t>(total));
  tensor::Tensor x, logits, probs;
  const std::size_t plane = static_cast<std::size_t>(tile_size) * tile_size;
  // Tile-staging scratch comes from the context's per-thread arena: the
  // prediction indices of every batch reuse one lease-scoped buffer instead
  // of a fresh std::vector per batch, and the arena rewinds when the lease
  // ends — steady-state serving allocates nothing here.
  auto scratch = ctx.scratch().lease();
  int* pred = scratch.allocate_n<int>(
      static_cast<std::size_t>(std::min(batch_tiles, total)) * plane);
  for (int start = 0; start < total; start += batch_tiles) {
    ctx.throw_if_cancelled("tile_infer");
    const int batch = std::min(batch_tiles, total - start);
    if (x.ndim() != 4 || x.dim(0) != batch) {
      x = tensor::Tensor({batch, 3, tile_size, tile_size});
    }
    for (int s = 0; s < batch; ++s) {
      const int t = start + s;
      stage_tile(filtered, (t % tiles_x) * tile_size,
                 (t / tiles_x) * tile_size, tile_size, x, s);
    }
    model.forward(x, logits, /*training=*/false);
    tensor::softmax_channel(logits, probs);
    tensor::argmax_channel(probs, pred);
    for (int s = 0; s < batch; ++s) {
      out[static_cast<std::size_t>(start + s)] = pred_plane(pred, s, tile_size);
    }
    ctx.report_progress("tile_infer",
                        static_cast<std::size_t>(start + batch),
                        static_cast<std::size_t>(total));
  }
  return out;
}

void require_tile_compatible(const nn::UNet& model, int tile_size,
                             const char* who) {
  if (tile_size <= 0 || tile_size % model.config().spatial_divisor() != 0) {
    throw std::invalid_argument(
        std::string(who) + ": tile_size incompatible with model depth");
  }
}

void stage_tile(const img::ImageU8& filtered, int x0, int y0, int tile_size,
                tensor::Tensor& x, int sample) {
  for (int y = 0; y < tile_size; ++y) {
    for (int xx = 0; xx < tile_size; ++xx) {
      for (int c = 0; c < 3; ++c) {
        x.at4(sample, c, y, xx) = filtered.at(x0 + xx, y0 + y, c) / 255.0f;
      }
    }
  }
}

img::ImageU8 pred_plane(const int* pred, int sample, int tile_size) {
  img::ImageU8 tile_plane(tile_size, tile_size, 1);
  const std::size_t plane = static_cast<std::size_t>(tile_size) * tile_size;
  const std::size_t base = static_cast<std::size_t>(sample) * plane;
  for (int y = 0; y < tile_size; ++y) {
    for (int xx = 0; xx < tile_size; ++xx) {
      tile_plane.at(xx, y) = static_cast<std::uint8_t>(
          pred[base + static_cast<std::size_t>(y) * tile_size + xx]);
    }
  }
  return tile_plane;
}

}  // namespace polarice::core
