// Per-layer replays for the traced run. Each probe calls one layer's public
// API at the shape a workload uses and times it from outside; the same
// probes run in every traced run, so every per-layer metric has a value on
// every workload. README.md maps each metric to the end-to-end metric it
// should move.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/autolabel.h"
#include "core/cloud_filter.h"
#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "nn/data.h"
#include "nn/optimizer.h"
#include "nn/unet.h"
#include "tensor/conv.h"
#include "trace.h"
#include "util/rng.h"
#include "workload_config.h"

namespace perfbench {

namespace core = polarice::core;
namespace nn = polarice::nn;
namespace par = polarice::par;
namespace s2 = polarice::s2;
namespace tensor = polarice::tensor;
namespace util = polarice::util;

namespace {

const char* stage_span(const std::string& stage) {
  if (stage == "acquire") return "s2.AcquireStage.run";
  if (stage == "cloud_filter") return "core.CloudFilterStage.run";
  if (stage == "auto_label") return "core.AutoLabelStage.run";
  if (stage == "manual_label") return "core.ManualLabelStage.run";
  if (stage == "tile_split") return "core.TileSplitStage.run";
  return "core.SceneStage.run";
}

/// Multiply-adds x2 of every convolution in one U-Net forward pass, and of
/// its backward pass (weight and input gradients; the first layer has no
/// input gradient). Computed from the layer shapes, not measured.
struct UNetFlops {
  double forward = 0.0;
  double backward = 0.0;
};

UNetFlops unet_flops(const nn::UNetConfig& c, int batch, int size) {
  UNetFlops f;
  bool first = true;
  auto conv = [&](int in_ch, int out_ch, int k, int h) {
    const double flops = 2.0 * batch * out_ch * h * h * in_ch * k * k;
    f.forward += flops;
    f.backward += first ? flops : 2.0 * flops;
    first = false;
  };
  int ch = c.base_channels, in_ch = c.in_channels, h = size;
  for (int level = 0; level < c.depth; ++level, in_ch = ch, ch *= 2, h /= 2) {
    conv(in_ch, ch, 3, h);
    conv(ch, ch, 3, h);
  }
  conv(in_ch, ch, 3, h);  // bottleneck
  conv(ch, ch, 3, h);
  for (int level = c.depth - 1; level >= 0; --level) {
    const int skip = c.base_channels << level;
    h *= 2;
    conv(2 * skip, skip, 2, h);  // up-convolution
    conv(2 * skip, skip, 3, h);
    conv(skip, skip, 3, h);
  }
  conv(c.base_channels, c.num_classes, 1, h);  // head
  return f;
}

tensor::Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform_int(-1000, 1000)) / 1000.0f;
  }
  return t;
}

/// Forward (fused bias + ReLU + mask, the training path) and backward
/// (ReLU mask folded in) of one 3x3 conv, median ms of each.
std::pair<double, double> conv_pair(int batch, int in_ch, int out_ch, int size,
                                    bool input_grad, par::ThreadPool* pool,
                                    Tracer& tracer, util::Rng& rng) {
  const auto spec = tensor::Conv2dSpec::same(in_ch, out_ch, 3);
  const tensor::Tensor x = random_tensor({batch, in_ch, size, size}, rng);
  const tensor::Tensor w = random_tensor({out_ch, in_ch, 3, 3}, rng);
  const tensor::Tensor b = random_tensor({out_ch}, rng);
  tensor::Tensor y({batch, out_ch, size, size});
  const tensor::Tensor dy = random_tensor({batch, out_ch, size, size}, rng);
  tensor::Tensor dx({batch, in_ch, size, size});
  tensor::Tensor dw({out_ch, in_ch, 3, 3}), db({out_ch});
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(y.numel()));
  tensor::ConvScratch scratch;
  const double fwd = median_ms(3, 20, [&] {
    Span span(tracer, "tensor.conv2d_forward");
    tensor::conv2d_forward(x, w, b, y, spec, pool, scratch,
                           tensor::ConvFusion{true, mask.data()});
  });
  const double bwd = median_ms(3, 20, [&] {
    Span span(tracer, "tensor.conv2d_backward");
    tensor::conv2d_backward(x, w, dy, input_grad ? &dx : nullptr, dw, db, spec,
                            pool, scratch, mask.data());
  });
  return {fwd, bwd};
}

struct StepTimes {
  double forward = 0.0, loss = 0.0, backward = 0.0, adam = 0.0;
};

/// Replays training steps of the train_unet shape: UNet::forward,
/// softmax_cross_entropy, UNet::backward and Adam::step, median ms each.
StepTimes replay_steps(nn::UNet& model, nn::Adam& adam, const nn::Batch& batch,
                       int warmup, int reps, Tracer& tracer) {
  tensor::Tensor logits, probs, dlogits;
  std::vector<double> fwd, loss, bwd, step;
  for (int i = 0; i < warmup + reps; ++i) {
    adam.zero_grad();
    const auto t0 = Clock::now();
    {
      Span span(tracer, "nn.UNet.forward");
      model.forward(batch.x, logits, /*training=*/true);
    }
    const auto t1 = Clock::now();
    {
      Span span(tracer, "tensor.softmax_cross_entropy");
      (void)tensor::softmax_cross_entropy(logits, batch.targets, probs,
                                          dlogits);
    }
    const auto t2 = Clock::now();
    {
      Span span(tracer, "nn.UNet.backward");
      model.backward(dlogits);
    }
    const auto t3 = Clock::now();
    {
      Span span(tracer, "nn.Adam.step");
      adam.step();
    }
    const auto t4 = Clock::now();
    if (i < warmup) continue;
    fwd.push_back(ms_between(t0, t1));
    loss.push_back(ms_between(t1, t2));
    bwd.push_back(ms_between(t2, t3));
    step.push_back(ms_between(t3, t4));
  }
  return {median(fwd), median(loss), median(bwd), median(step)};
}

}  // namespace

void run_layer_probes(const Options& opt, Tracer& tracer, Report& report) {
  // The corpus layers run on corpus_label's pool; the U-Net layers on the
  // pool of the model jobs (train_unet, the server).
  auto pool = make_pool(opt.nproc - 1);
  const par::ExecutionContext ctx(pool.get());
  auto model_pool = make_pool(kModelPoolWorkers);
  const par::ExecutionContext model_ctx(model_pool.get());
  tracer.set_enabled(true);

  // Corpus stages, in order, on one ArtifactStore (corpus_label's fleet).
  core::ArtifactStore store;
  {
    Span all(tracer, "probe.corpus_stages");
    for (const auto& stage : core::make_corpus_stages(corpus_config(
             opt.seed, kCorpusScenes, kCorpusSceneSize))) {
      const auto t0 = Clock::now();
      {
        Span span(tracer, stage_span(stage->name()));
        stage->run(ctx, store);
      }
      report.layer("stage." + stage->name() + "_s",
                   seconds_between(t0, Clock::now()), "s");
    }
  }

  // Cloud filter on one cloudy corpus scene: pooled and single-thread.
  const auto& scenes = store.get<std::vector<s2::Scene>>(core::keys::kScenes);
  const auto& rgb = scenes.front().rgb;
  const double scene_mpx =
      static_cast<double>(rgb.width()) * rgb.height() / 1e6;
  const core::CloudShadowFilter filter;
  polarice::img::ImageU8 pooled, single;
  const double filter_ms = median_ms(1, 3, [&] {
    Span span(tracer, "core.CloudShadowFilter.apply");
    pooled = filter.apply(rgb, ctx);
  });
  const double filter_seq_ms = median_ms(0, 2, [&] {
    Span span(tracer, "core.CloudShadowFilter.apply_seq");
    single = filter.apply(rgb);
  });
  if (!(pooled == single)) {
    report.fail(
        "pooled cloud filter output differs from the single-thread one");
  }
  report.layer("filter.mpx_per_s", scene_mpx / (filter_ms / 1e3), "Mpx/s");
  report.layer("filter.mpx_per_s_seq", scene_mpx / (filter_seq_ms / 1e3),
               "Mpx/s");
  report.layer("filter.pool_speedup", filter_seq_ms / filter_ms, "x");

  // Color segmentation alone (no filter), pooled, on the filtered scene.
  core::AutoLabelConfig segment_only;
  segment_only.apply_filter = false;
  const core::AutoLabeler labeler(segment_only);
  const double label_ms = median_ms(1, 5, [&] {
    Span span(tracer, "core.AutoLabeler.label");
    (void)labeler.label(pooled, ctx);
  });
  report.layer("autolabel.mpx_per_s", scene_mpx / (label_ms / 1e3), "Mpx/s");

  // One training step at the train_unet shape, pooled then single-thread.
  const auto& tiles =
      store.get<std::vector<core::LabeledTile>>(core::keys::kCorpusTiles);
  const std::vector<core::LabeledTile> first_tiles(tiles.begin(),
                                                   tiles.begin() + kTrainBatch);
  const nn::SegDataset dataset = core::build_dataset(
      first_tiles, core::LabelSource::kAuto, core::ImageVariant::kFiltered);
  nn::DataLoader loader(dataset, kTrainBatch, 0, /*shuffle=*/false);
  nn::Batch batch;
  loader.start_epoch();
  loader.next(batch);
  const nn::UNetConfig model_config = unet_config();
  nn::UNet model(model_config);
  nn::Adam adam(model.params(), kTrainLearningRate);
  model.set_pool(model_pool.get());
  const StepTimes pooled_step = replay_steps(model, adam, batch, 2, 10, tracer);
  model.set_pool(nullptr);
  const StepTimes seq_step = replay_steps(model, adam, batch, 1, 5, tracer);
  const UNetFlops flops = unet_flops(model_config, kTrainBatch, kTile);
  report.layer("unet.fwd_train_ms", pooled_step.forward, "ms");
  report.layer("loss.ms", pooled_step.loss, "ms");
  report.layer("unet.bwd_ms", pooled_step.backward, "ms");
  report.layer("adam.step_ms", pooled_step.adam, "ms");
  report.layer("unet.fwd_train_ms_seq", seq_step.forward, "ms");
  report.layer("unet.bwd_ms_seq", seq_step.backward, "ms");
  report.layer("unet.bwd_pool_speedup",
               seq_step.backward / pooled_step.backward, "x");
  report.layer("unet.fwd_gflops", flops.forward / (pooled_step.forward * 1e6),
               "GFLOP/s");
  report.layer("unet.bwd_gflops", flops.backward / (pooled_step.backward * 1e6),
               "GFLOP/s");

  // The first conv (3->8, the thin-K epilogue) and the bottleneck's first
  // conv (16->32 at 16x16), batch of the train_unet shape.
  util::Rng rng(opt.seed);
  const auto [first_fwd, first_bwd] =
      conv_pair(kTrainBatch, 3, 8, kTile, false, model_pool.get(), tracer, rng);
  const auto [deep_fwd, deep_bwd] =
      conv_pair(kTrainBatch, 16, 32, kTile / 4, true, model_pool.get(), tracer,
                rng);
  report.layer("conv.first_fwd_ms", first_fwd, "ms");
  report.layer("conv.first_bwd_ms", first_bwd, "ms");
  report.layer("conv.bottleneck_fwd_ms", deep_fwd, "ms");
  report.layer("conv.bottleneck_bwd_ms", deep_bwd, "ms");

  // The serving path without a server: one request classified serially
  // (the no-queue floor), the filter and one full batch forward on the
  // server's pool.
  const auto scene = make_serve_scenes(1, opt.seed, nullptr).front();
  core::InferenceWorkflow workflow(model, core::CloudFilterConfig{}, kTile,
                                   kServeBatchTiles);
  report.layer("serve.classify_serial_ms", median_ms(1, 10, [&] {
                 Span span(tracer, "core.InferenceWorkflow.classify_scene");
                 (void)workflow.classify_scene(scene);
               }),
               "ms");
  report.layer("serve.filter_ms", median_ms(1, 10, [&] {
                 Span span(tracer, "core.CloudShadowFilter.apply_serve");
                 (void)filter.apply(scene, model_ctx);
               }),
               "ms");
  const tensor::Tensor x =
      random_tensor({kServeBatchTiles, 3, kTile, kTile}, rng);
  tensor::Tensor logits;
  model.set_pool(model_pool.get());
  report.layer("serve.fwd_batch_ms", median_ms(1, 10, [&] {
                 Span span(tracer, "nn.UNet.forward_serve");
                 model.forward(x, logits, /*training=*/false);
               }),
               "ms");
  model.set_pool(nullptr);
  tracer.set_enabled(false);
}

}  // namespace perfbench
