// Micro-benchmarks (google-benchmark) for the hot operators underneath the
// workflow: GEMM, conv2d, HSV conversion, thresholds, filters, morphology,
// ring allreduce, thread-pool dispatch, tile auto-labeling, U-Net forward.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include <stdlib.h>

#include "img/ops.h"
#include "support.h"
#include "util/virtual_clock.h"

#include "core/autolabel.h"
#include "core/cloud_filter.h"
#include "core/corpus.h"
#include "core/serve/scene_server.h"
#include "ddp/checkpoint.h"
#include "ddp/communicator.h"
#include "ddp/fleet_trainer.h"
#include "serve_load.h"
#include "shard_load.h"
#include "img/color.h"
#include "img/filter.h"
#include "img/morphology.h"
#include "img/threshold.h"
#include "nn/unet.h"
#include "par/parallel_for.h"
#include "s2/scene.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "util/mem_stats.h"
#include "util/rng.h"

using namespace polarice;

namespace {
img::ImageU8 bench_scene_rgb(int size) {
  s2::SceneConfig cfg;
  cfg.width = cfg.height = size;
  cfg.seed = 12;
  cfg.cloudy = true;
  return s2::SceneGenerator(cfg).generate().rgb;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform_f();
  return v;
}
}  // namespace

static void BM_GemmNN(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = random_floats(static_cast<std::size_t>(n) * n, 1);
  const auto b = random_floats(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n) * n);
  for (auto _ : state) {
    tensor::gemm_nn(n, n, n, a.data(), b.data(), c.data(), false, nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

// The seed's scalar triple-loop kernel (gemm_nn_ref) on the same shapes —
// the "before" row of the blocked-kernel speedup table.
static void BM_GemmNNRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = random_floats(static_cast<std::size_t>(n) * n, 1);
  const auto b = random_floats(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n) * n);
  for (auto _ : state) {
    tensor::gemm_nn_ref(n, n, n, a.data(), b.data(), c.data(), false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmNNRef)->Arg(64)->Arg(128)->Arg(256);

// U-Net-realistic im2col shapes: M = out channels, K = in_ch * kh * kw,
// N = output plane. Args are {M, N, K}.
static void BM_GemmNNShape(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto a = random_floats(static_cast<std::size_t>(m) * k, 1);
  const auto b = random_floats(static_cast<std::size_t>(k) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    tensor::gemm_nn(m, n, k, a.data(), b.data(), c.data(), false, nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmNNShape)
    ->Args({64, 4096, 9})
    ->Args({64, 4096, 576})
    ->Args({128, 1024, 1152});

static void BM_GemmNNShapeRef(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto a = random_floats(static_cast<std::size_t>(m) * k, 1);
  const auto b = random_floats(static_cast<std::size_t>(k) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    tensor::gemm_nn_ref(m, n, k, a.data(), b.data(), c.data(), false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmNNShapeRef)
    ->Args({64, 4096, 9})
    ->Args({64, 4096, 576})
    ->Args({128, 1024, 1152});

// The weight-gradient GEMM (dW = dY * col^T): M = out channels, N = col
// rows, K = output plane — the 64x9x4096 shape of a first conv layer on a
// 64x64 tile. The deep-K reduction is where the seed's serial float
// dot-product chain was latency-bound. Args are {M, N, K}.
static void BM_GemmNTShape(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto a = random_floats(static_cast<std::size_t>(m) * k, 1);
  const auto b = random_floats(static_cast<std::size_t>(n) * k, 2);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    tensor::gemm_nt(m, n, k, a.data(), b.data(), c.data(), true, nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmNTShape)->Args({64, 9, 4096})->Args({64, 576, 4096});

static void BM_GemmNTShapeRef(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto a = random_floats(static_cast<std::size_t>(m) * k, 1);
  const auto b = random_floats(static_cast<std::size_t>(n) * k, 2);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    tensor::gemm_nt_ref(m, n, k, a.data(), b.data(), c.data(), true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmNTShapeRef)->Args({64, 9, 4096})->Args({64, 576, 4096});

static void BM_GemmNNPooled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = random_floats(static_cast<std::size_t>(n) * n, 1);
  const auto b = random_floats(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n) * n);
  par::ThreadPool pool(8);
  for (auto _ : state) {
    tensor::gemm_nn(n, n, n, a.data(), b.data(), c.data(), false, &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmNNPooled)->Arg(256)->Arg(512);

static void BM_Conv2dForward(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(16, 16, 3);
  tensor::Tensor x({4, 16, 64, 64}), w({16, 16, 3, 3}), b({16}), y;
  util::Rng rng(3);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f();
  tensor::ConvScratch scratch;
  for (auto _ : state) {
    tensor::conv2d_forward(x, w, b, y, spec, nullptr, scratch);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

// The seed's per-element im2col (branchy scalar copies, sequential) — kept
// verbatim here so BM_Conv2dForwardRef measures the seed pipeline, not the
// current memcpy-fast-path im2col.
static void seed_im2col(const float* x, int in_h, int in_w,
                        const tensor::Conv2dSpec& spec, float* col) {
  const int oh = spec.out_h(in_h);
  const int ow = spec.out_w(in_w);
  const std::int64_t plane = static_cast<std::int64_t>(oh) * ow;
  for (int c = 0; c < spec.in_ch; ++c) {
    const float* xc = x + static_cast<std::int64_t>(c) * in_h * in_w;
    for (int ki = 0; ki < spec.kh; ++ki) {
      for (int kj = 0; kj < spec.kw; ++kj) {
        float* dst =
            col + (((static_cast<std::int64_t>(c) * spec.kh) + ki) * spec.kw +
                   kj) * plane;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * spec.stride - spec.pad_top + ki;
          float* row = dst + static_cast<std::int64_t>(oy) * ow;
          if (iy < 0 || iy >= in_h) {
            std::memset(row, 0, sizeof(float) * ow);
            continue;
          }
          const float* src_row = xc + static_cast<std::int64_t>(iy) * in_w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * spec.stride - spec.pad_left + kj;
            row[ox] = (ix >= 0 && ix < in_w) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

// The same convolution with the seed's scalar GEMM under the seed's im2col —
// the "before" row of the conv2d speedup table.
static void BM_Conv2dForwardRef(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(16, 16, 3);
  tensor::Tensor x({4, 16, 64, 64}), w({16, 16, 3, 3}), b({16});
  util::Rng rng(3);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f();
  const int batch = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  const std::int64_t plane = static_cast<std::int64_t>(oh) * ow;
  tensor::Tensor y({batch, spec.out_ch, oh, ow});
  std::vector<float> col(static_cast<std::size_t>(spec.col_rows()) * plane);
  for (auto _ : state) {
    for (int n = 0; n < batch; ++n) {
      const float* xn = x.data() + x.offset4(n, 0, 0, 0);
      float* yn = y.data() + y.offset4(n, 0, 0, 0);
      seed_im2col(xn, in_h, in_w, spec, col.data());
      tensor::gemm_nn_ref(spec.out_ch, static_cast<int>(plane),
                          spec.col_rows(), w.data(), col.data(), yn, false);
      for (int oc = 0; oc < spec.out_ch; ++oc) {
        const float bias = b[oc];
        float* row = yn + static_cast<std::int64_t>(oc) * plane;
        for (std::int64_t i = 0; i < plane; ++i) row[i] += bias;
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForwardRef);

// Implicit-GEMM backward (virtual-A dW + col2im virtual-C dX, batched over
// samples) on the forward bench's geometry.
static void BM_Conv2dBackward(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(16, 16, 3);
  tensor::Tensor x({4, 16, 64, 64}), w({16, 16, 3, 3}), dy({4, 16, 64, 64});
  util::Rng rng(4);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < dy.numel(); ++i) dy[i] = rng.uniform_f();
  tensor::ConvScratch scratch;
  tensor::Tensor dx, dw(w.shape()), db({16});
  for (auto _ : state) {
    dw.zero();
    db.zero();
    tensor::conv2d_backward(x, w, dy, &dx, dw, db, spec, nullptr, scratch);
    benchmark::DoNotOptimize(dw.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

// The seed backward: materialized im2col + scalar gemm_nt/gemm_tn + col2im
// — the "before" row of the backward speedup table.
static void BM_Conv2dBackwardRef(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(16, 16, 3);
  tensor::Tensor x({4, 16, 64, 64}), w({16, 16, 3, 3}), dy({4, 16, 64, 64});
  util::Rng rng(4);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < dy.numel(); ++i) dy[i] = rng.uniform_f();
  tensor::ConvScratch scratch;
  tensor::Tensor dx, dw(w.shape()), db({16});
  for (auto _ : state) {
    dw.zero();
    db.zero();
    tensor::conv2d_backward_ref(x, w, dy, &dx, dw, db, spec, scratch);
    benchmark::DoNotOptimize(dw.data());
  }
}
BENCHMARK(BM_Conv2dBackwardRef);

// Thin-K conv + bias + ReLU with the fused GEMM epilogue, on the paper's
// 256x256 tile shape (the C-store-bound case: at this plane size the
// unfused pipeline's intermediates spill past L2, which is exactly the
// traffic the epilogue removes).
static void BM_ConvBiasReluFused(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(1, 64, 3);  // K = 9
  tensor::Tensor x({2, 1, 256, 256}), w({64, 1, 3, 3}), b({64}), y;
  util::Rng rng(5);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f() - 0.5f;
  tensor::ConvScratch scratch;
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(2) * 64 * 256 * 256);
  tensor::ConvFusion fuse;
  fuse.relu = true;
  fuse.relu_mask = mask.data();
  for (auto _ : state) {
    tensor::conv2d_forward(x, w, b, y, spec, nullptr, scratch, fuse);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_ConvBiasReluFused);

// The separate-pass formulation of the same layer (what ConvBlock ran
// before the epilogue existed): blocked GEMM into y, a separate bias pass,
// then a separate ReLU pass with mask into a second tensor.
static void BM_ConvBiasReluSeparate(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(1, 64, 3);
  tensor::Tensor x({2, 1, 256, 256}), w({64, 1, 3, 3}), b({64});
  util::Rng rng(5);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f() - 0.5f;
  tensor::ConvScratch scratch;
  tensor::Tensor pre({2, 64, 256, 256}), y({2, 64, 256, 256});
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(pre.numel()));
  const std::int64_t plane = 256 * 256;
  for (auto _ : state) {
    tensor::conv2d_forward(x, w, b, pre, spec, nullptr, scratch);
    // pre already has bias folded by the production path; charge the seed's
    // separate bias pass explicitly to mirror the pre-epilogue pipeline.
    for (int n = 0; n < 2; ++n) {
      float* yn = pre.data() + pre.offset4(n, 0, 0, 0);
      for (int oc = 0; oc < 64; ++oc) {
        float* row = yn + static_cast<std::int64_t>(oc) * plane;
        benchmark::DoNotOptimize(row);
        for (std::int64_t i = 0; i < plane; ++i) row[i] += 0.0f;
      }
    }
    for (std::int64_t i = 0; i < pre.numel(); ++i) {
      const bool pos = pre[i] > 0.0f;
      mask[static_cast<std::size_t>(i)] = pos;
      y[i] = pos ? pre[i] : 0.0f;
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_ConvBiasReluSeparate);

// The seed's scalar pipeline for the same layer (im2col + gemm_nn_ref +
// bias pass + ReLU pass) — the "before" row of the thin-K fusion table.
static void BM_ConvBiasReluRef(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(1, 64, 3);
  tensor::Tensor x({2, 1, 256, 256}), w({64, 1, 3, 3}), b({64});
  util::Rng rng(5);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f() - 0.5f;
  const int batch = 2, in_h = 256, in_w = 256;
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  const std::int64_t plane = static_cast<std::int64_t>(oh) * ow;
  tensor::Tensor pre({batch, 64, oh, ow}), y({batch, 64, oh, ow});
  std::vector<float> col(static_cast<std::size_t>(spec.col_rows()) * plane);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(pre.numel()));
  for (auto _ : state) {
    for (int n = 0; n < batch; ++n) {
      const float* xn = x.data() + x.offset4(n, 0, 0, 0);
      float* yn = pre.data() + pre.offset4(n, 0, 0, 0);
      seed_im2col(xn, in_h, in_w, spec, col.data());
      tensor::gemm_nn_ref(spec.out_ch, static_cast<int>(plane),
                          spec.col_rows(), w.data(), col.data(), yn, false);
      for (int oc = 0; oc < spec.out_ch; ++oc) {
        const float bias = b[oc];
        float* row = yn + static_cast<std::int64_t>(oc) * plane;
        for (std::int64_t i = 0; i < plane; ++i) row[i] += bias;
      }
    }
    for (std::int64_t i = 0; i < pre.numel(); ++i) {
      const bool pos = pre[i] > 0.0f;
      mask[static_cast<std::size_t>(i)] = pos;
      y[i] = pos ? pre[i] : 0.0f;
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_ConvBiasReluRef);

// Deep-layer shape (many channels, tiny plane): batched-N GEMM gives full
// panels where the per-sample loop got 8x8 slivers.
static void BM_Conv2dDeepBatchedN(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(128, 128, 3);
  tensor::Tensor x({8, 128, 8, 8}), w({128, 128, 3, 3}), b({128}), y;
  util::Rng rng(6);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f() - 0.5f;
  tensor::ConvScratch scratch;
  for (auto _ : state) {
    tensor::conv2d_forward(x, w, b, y, spec, nullptr, scratch);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dDeepBatchedN);

static void BM_Conv2dDeepPerSample(benchmark::State& state) {
  const auto spec = tensor::Conv2dSpec::same(128, 128, 3);
  tensor::Tensor w({128, 128, 3, 3}), b({128});
  util::Rng rng(6);
  std::vector<tensor::Tensor> xs;
  for (int n = 0; n < 8; ++n) {
    xs.emplace_back(std::vector<int>{1, 128, 8, 8});
    for (std::int64_t i = 0; i < xs.back().numel(); ++i) {
      xs.back()[i] = rng.uniform_f();
    }
  }
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.uniform_f() - 0.5f;
  tensor::ConvScratch scratch;
  tensor::Tensor y;
  for (auto _ : state) {
    for (auto& xn : xs) {
      tensor::conv2d_forward(xn, w, b, y, spec, nullptr, scratch);
      benchmark::DoNotOptimize(y.data());
    }
  }
}
BENCHMARK(BM_Conv2dDeepPerSample);

static void BM_RgbToHsv(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(256);
  for (auto _ : state) {
    auto hsv = img::rgb_to_hsv(rgb);
    benchmark::DoNotOptimize(hsv.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rgb.pixel_count()));
}
BENCHMARK(BM_RgbToHsv);

static void BM_OtsuThreshold(benchmark::State& state) {
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::otsu_threshold(gray));
  }
}
BENCHMARK(BM_OtsuThreshold);

static void BM_GaussianBlur(benchmark::State& state) {
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = img::gaussian_blur(gray, k);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GaussianBlur)->Arg(5)->Arg(31);

static void BM_MedianFilter(benchmark::State& state) {
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  for (auto _ : state) {
    auto out = img::median_filter(gray, 5);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MedianFilter);

static void BM_MorphOpen(benchmark::State& state) {
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  for (auto _ : state) {
    auto out = img::morph_open(gray, 97);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MorphOpen);

// The cloud filter's envelope pair — fused dual-stream van Herk passes vs
// the two separate open/close calls.
static void BM_MorphEnvelopePair(benchmark::State& state) {
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  for (auto _ : state) {
    auto env = img::morph_envelopes(gray, 97);
    benchmark::DoNotOptimize(env.open.data());
    benchmark::DoNotOptimize(env.close.data());
  }
}
BENCHMARK(BM_MorphEnvelopePair);

static void BM_MorphOpenClosePair(benchmark::State& state) {
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  for (auto _ : state) {
    auto open = img::morph_open(gray, 97);
    auto close = img::morph_close(gray, 97);
    benchmark::DoNotOptimize(open.data());
    benchmark::DoNotOptimize(close.data());
  }
}
BENCHMARK(BM_MorphOpenClosePair);

static void BM_MorphOpenRef(benchmark::State& state) {
  // Seed O(K) window scan, kept for the trajectory comparison against the
  // van Herk/Gil-Werman production path above.
  const auto gray = img::rgb_to_gray(bench_scene_rgb(256));
  for (auto _ : state) {
    auto out = img::dilate_ref(img::erode_ref(gray, 97), 97);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MorphOpenRef);

static void BM_CloudFilter(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(256);
  const core::CloudShadowFilter filter;
  for (auto _ : state) {
    auto out = filter.apply(rgb);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CloudFilter);

static void BM_AutoLabelTile(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(256);
  const core::AutoLabeler labeler;  // filter + segmentation
  for (auto _ : state) {
    auto out = labeler.label(rgb);
    benchmark::DoNotOptimize(out.labels.data());
  }
}
BENCHMARK(BM_AutoLabelTile);

// Fused single-pass segmentation vs the multi-pass reference (whole-image
// HSV + per-class masks + merge + colorize) on a full 512x512 scene. Filter
// off so the numbers isolate the pixel pipeline itself.
static void BM_AutoLabelFused(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(static_cast<int>(state.range(0)));
  core::AutoLabelConfig cfg;
  cfg.apply_filter = false;
  const core::AutoLabeler labeler(cfg);
  for (auto _ : state) {
    auto out = labeler.label(rgb);
    benchmark::DoNotOptimize(out.labels.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rgb.pixel_count()));
}
BENCHMARK(BM_AutoLabelFused)->Arg(512);

static void BM_AutoLabelMultiPass(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(static_cast<int>(state.range(0)));
  core::AutoLabelConfig cfg;
  cfg.apply_filter = false;
  const core::AutoLabeler labeler(cfg);
  for (auto _ : state) {
    auto out = labeler.label_reference(rgb);
    benchmark::DoNotOptimize(out.labels.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rgb.pixel_count()));
}
BENCHMARK(BM_AutoLabelMultiPass)->Arg(512);

// Full-pipeline (filter + segmentation) fused-vs-reference on 512x512.
static void BM_AutoLabelFusedFull(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(static_cast<int>(state.range(0)));
  const core::AutoLabeler labeler;
  for (auto _ : state) {
    auto out = labeler.label(rgb);
    benchmark::DoNotOptimize(out.labels.data());
  }
}
BENCHMARK(BM_AutoLabelFusedFull)->Arg(512);

static void BM_AutoLabelMultiPassFull(benchmark::State& state) {
  const auto rgb = bench_scene_rgb(static_cast<int>(state.range(0)));
  const core::AutoLabeler labeler;
  for (auto _ : state) {
    auto out = labeler.label_reference(rgb);
    benchmark::DoNotOptimize(out.labels.data());
  }
}
BENCHMARK(BM_AutoLabelMultiPassFull)->Arg(512);

static void BM_SceneGeneration(benchmark::State& state) {
  s2::SceneConfig cfg;
  cfg.width = cfg.height = static_cast<int>(state.range(0));
  cfg.cloudy = true;
  for (auto _ : state) {
    cfg.seed += 1;  // avoid any memoization effects
    auto scene = s2::SceneGenerator(cfg).generate();
    benchmark::DoNotOptimize(scene.rgb.data());
  }
}
BENCHMARK(BM_SceneGeneration)->Arg(128)->Arg(256);

static void BM_TreeAllreduce(benchmark::State& state) {
  // The canonical-tree reduce the training fleet uses (gather node sums
  // to rank 0, fold, ring broadcast), one 4 MiB contribution per rank.
  const int world_size = static_cast<int>(state.range(0));
  const std::size_t count = 1 << 20;  // 4 MiB of gradients
  for (auto _ : state) {
    auto world = std::make_shared<ddp::World>(world_size);
    std::vector<std::vector<std::vector<float>>> leaves(world_size);
    for (auto& l : leaves) l.emplace_back(count, 1.0f);
    std::vector<std::jthread> threads;
    for (int r = 0; r < world_size; ++r) {
      threads.emplace_back([&, r] {
        ddp::ThreadCommunicator comm(world, r);
        comm.tree_allreduce_sum(leaves[r]);
      });
    }
    threads.clear();
    benchmark::DoNotOptimize(leaves[0][0].data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(count) * 4 * world_size);
}
BENCHMARK(BM_TreeAllreduce)->Arg(2)->Arg(4)->Arg(8);

static void BM_TrainFleetThreads(benchmark::State& state) {
  // One epoch of the synchronous training fleet (thread transport, no
  // checkpointing) at a fixed global batch: the scaling story across
  // world sizes 1/2/4 with bit-identical results by construction.
  const int world_size = static_cast<int>(state.range(0));
  ddp::FleetTrainConfig config;
  config.model.in_channels = 3;
  config.model.num_classes = 2;
  config.model.depth = 1;
  config.model.base_channels = 4;
  config.model.use_dropout = false;
  config.model.seed = 5;
  config.world_size = world_size;
  config.batch_per_device = 4 / world_size;  // global batch fixed at 4
  config.epochs = 1;
  config.seed = 7;
  const nn::SegDataset data =
      ddp::make_synthetic_dataset(16, 3, 16, 16, 2, 11);
  std::int64_t images = 0;
  for (auto _ : state) {
    nn::UNet model(config.model);
    const auto stats = ddp::train_fleet(model, data, config);
    benchmark::DoNotOptimize(stats.final_loss);
    images += stats.global_step * config.global_batch();
  }
  state.SetItemsProcessed(images);  // images trained
}
BENCHMARK(BM_TrainFleetThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

static void BM_TrainFleetCheckpointRoundtrip(benchmark::State& state) {
  // Durable write + validated load of a full fleet checkpoint — the cost a
  // crashed fleet pays (beyond replay) to come back.
  const std::size_t params = 1 << 16;  // 64k params + both Adam moments
  ddp::TrainCheckpoint ck;
  ck.epoch = 1;
  ck.step = 2;
  ck.global_step = 10;
  ck.adam_t = 10;
  ck.params.assign(params, 0.5f);
  ck.adam_m.assign(params, 0.25f);
  ck.adam_v.assign(params, 0.125f);
  const std::string dir =
      "/tmp/polarice-bench-ckpt-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ddp::CheckpointStore store({dir, /*fingerprint=*/99, /*retain=*/2});
  for (auto _ : state) {
    ck.global_step += 1;
    store.write(ck);
    auto loaded = store.load_latest();
    benchmark::DoNotOptimize(loaded->global_step);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(params) * 3 * 4);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_TrainFleetCheckpointRoundtrip)->Unit(benchmark::kMillisecond);

static void BM_ThreadPoolDispatch(benchmark::State& state) {
  par::ThreadPool pool(4);
  for (auto _ : state) {
    par::parallel_for(&pool, 0, 256, [](std::size_t i) {
      benchmark::DoNotOptimize(i * i);
    });
  }
}
BENCHMARK(BM_ThreadPoolDispatch);

// Join overhead of one near-empty parallel loop — what a small GEMM pays
// per dispatch under the latch/atomic path.
static void BM_ParallelForSmallLoop(benchmark::State& state) {
  par::ThreadPool pool(4);
  for (auto _ : state) {
    par::parallel_for(
        &pool, 0, 8, [](std::size_t i) { benchmark::DoNotOptimize(i); }, 1);
  }
}
BENCHMARK(BM_ParallelForSmallLoop);

// Nested dispatch under work stealing: the outer loop's workers each issue
// an inner parallel_for whose entries land on their own deques and migrate
// by theft — the shape that serialized on the old single shared queue.
static void BM_ThreadPoolNestedDispatch(benchmark::State& state) {
  par::ThreadPool pool(4);
  for (auto _ : state) {
    par::parallel_for(
        &pool, 0, 8,
        [&](std::size_t) {
          par::parallel_for(
              &pool, 0, 64,
              [](std::size_t i) { benchmark::DoNotOptimize(i * i); }, 1);
        },
        1);
  }
}
BENCHMARK(BM_ThreadPoolNestedDispatch);

static void BM_ParallelFor2DDispatch(benchmark::State& state) {
  par::ThreadPool pool(4);
  for (auto _ : state) {
    par::parallel_for_2d(&pool, 16, 16, [](std::size_t i, std::size_t j) {
      benchmark::DoNotOptimize(i * j);
    });
  }
}
BENCHMARK(BM_ParallelFor2DDispatch);

static void BM_UNetForward(benchmark::State& state) {
  nn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 8;
  cfg.use_dropout = false;
  nn::UNet model(cfg);
  tensor::Tensor x({1, 3, 64, 64}), logits;
  util::Rng rng(5);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform_f();
  for (auto _ : state) {
    model.forward(x, logits, false);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_UNetForward);

// End-to-end serving throughput of the SceneServer: a wave of concurrent
// scene tickets through admission, the cloud filter, cross-scene dynamic
// batching, and replica leases. The result cache is disabled so every
// iteration exercises the full forward path (the cache-hit path is ~a hash
// plus a map lookup and not worth a trend line).
// Corpus preparation end to end (Acquire -> CloudFilter -> AutoLabel ->
// ManualLabel -> TileSplit) on an 8-scene fleet, batch vs streaming. Wall
// time tracks the stage-overlap throughput; the POLARICE_MEM_STATS counters
// track what the streaming window actually buys:
//   peak_bytes     — high-water Image/Tensor residency above the pre-run
//                    level (the corpus-phase peak the ROADMAP item flags)
//   corpus_bytes   — the returned tiles themselves (identical both modes)
//   overhead_bytes — peak minus corpus: the transient scene planes, O(scenes)
//                    for batch, O(window) for streaming
namespace {
core::CorpusConfig corpus_bench_config() {
  core::CorpusConfig cfg;
  cfg.acquisition.num_scenes = 8;
  cfg.acquisition.scene_size = 128;
  cfg.acquisition.tile_size = 64;
  cfg.acquisition.cloudy_scene_fraction = 0.5;
  cfg.acquisition.seed = 77;
  return cfg;
}

void run_corpus_bench(benchmark::State& state, core::CorpusConfig cfg) {
  par::ThreadPool pool(4);
  const par::ExecutionContext ctx(&pool);
  std::size_t peak = 0, corpus_bytes = 0;
  for (auto _ : state) {
    const std::size_t before = util::mem_current_bytes();
    util::mem_reset_peak();
    auto tiles = core::prepare_corpus(cfg, ctx);
    peak = std::max(peak, util::mem_peak_bytes() - before);
    corpus_bytes = util::mem_current_bytes() - before;
    benchmark::DoNotOptimize(tiles.data());
  }
  state.counters["peak_bytes"] = static_cast<double>(peak);
  state.counters["corpus_bytes"] = static_cast<double>(corpus_bytes);
  state.counters["overhead_bytes"] =
      static_cast<double>(peak > corpus_bytes ? peak - corpus_bytes : 0);
  state.SetItemsProcessed(state.iterations() *
                          cfg.acquisition.num_scenes);
}
}  // namespace

static void BM_CorpusBatch(benchmark::State& state) {
  run_corpus_bench(state, corpus_bench_config());
}
BENCHMARK(BM_CorpusBatch)->Unit(benchmark::kMillisecond);

static void BM_CorpusStreaming(benchmark::State& state) {
  auto cfg = corpus_bench_config();
  cfg.execution = core::CorpusExecution::streaming(
      static_cast<std::size_t>(state.range(0)));
  run_corpus_bench(state, cfg);
}
BENCHMARK(BM_CorpusStreaming)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

static void BM_ServeSceneThroughput(benchmark::State& state) {
  nn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 8;
  cfg.use_dropout = false;
  nn::UNet model(cfg);

  core::serve::SceneServerConfig server_cfg;
  server_cfg.tile_size = 64;
  server_cfg.batch_tiles = 8;
  server_cfg.min_replicas = 1;
  server_cfg.max_replicas = 2;
  server_cfg.cache_bytes = 0;
  core::serve::SceneServer server(model, server_cfg);

  constexpr int kScenes = 4;
  std::vector<img::ImageU8> scenes;
  for (int i = 0; i < kScenes; ++i) {
    scenes.push_back(bench_scene_rgb(128));
  }
  for (auto _ : state) {
    std::vector<core::serve::SceneTicket> tickets;
    tickets.reserve(scenes.size());
    for (const auto& scene : scenes) {
      tickets.push_back(server.submit(scene.clone()));
    }
    for (auto& ticket : tickets) {
      const auto labels = ticket.get();
      benchmark::DoNotOptimize(labels.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kScenes);
}
BENCHMARK(BM_ServeSceneThroughput);

// ---------------------------------------------------------------------------
// Closed-loop serve-load SLO benches. One load session per bench run;
// manual time publishes the latency percentile as real_time so the
// trajectory gate tracks serving SLOs across PRs, and the counters carry
// the rejection / shed / retry rates alongside.
// ---------------------------------------------------------------------------

namespace {
bench::ServeLoadConfig serve_load_config(int fault_every) {
  bench::ServeLoadConfig cfg;
  cfg.qps = 30.0;
  cfg.seconds = 1.5;
  cfg.clients = 4;
  cfg.scene_size = 128;
  cfg.unique_scenes = 4;
  cfg.fault_every = fault_every;
  cfg.server.tile_size = 64;
  cfg.server.min_replicas = 1;
  cfg.server.max_replicas = 2;
  cfg.server.cache_bytes = 0;  // every request exercises the forward path
  return cfg;
}

void run_serve_load_bench(benchmark::State& state, int fault_every,
                          double quantile) {
  const auto cfg = serve_load_config(fault_every);
  for (auto _ : state) {
    const auto report = bench::run_serve_load(cfg);
    const double value_ms = quantile >= 0.99 ? report.p99_ms : report.p50_ms;
    state.SetIterationTime(value_ms / 1e3);
    state.counters["completed"] = static_cast<double>(report.completed);
    state.counters["achieved_qps"] = report.achieved_qps;
    state.counters["shed_rate"] = report.shed_rate();
    state.counters["reject_rate"] = report.reject_rate();
    state.counters["retries"] = static_cast<double>(report.server.retries);
    state.counters["corrupt"] = static_cast<double>(report.corrupt);
    state.counters["degraded"] = static_cast<double>(report.server.degraded);
    state.counters["brownouts"] =
        static_cast<double>(report.server.brownouts);
    if (report.corrupt > 0 || report.completed == 0) {
      state.SkipWithError("serve load harness returned corrupt/empty work");
      return;
    }
  }
}
}  // namespace

static void BM_ServeLoadP50(benchmark::State& state) {
  run_serve_load_bench(state, /*fault_every=*/0, 0.50);
}
BENCHMARK(BM_ServeLoadP50)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_ServeLoadP99(benchmark::State& state) {
  run_serve_load_bench(state, /*fault_every=*/0, 0.99);
}
BENCHMARK(BM_ServeLoadP99)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_ServeLoadFaultedP99(benchmark::State& state) {
  // Continuous replica failure (every 6th forward pass dies): p99 now
  // includes quarantine, watchdog rebuild, and backoff'd retries.
  run_serve_load_bench(state, /*fault_every=*/6, 0.99);
}
BENCHMARK(BM_ServeLoadFaultedP99)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sharded serving tier: the same closed-loop discipline, but requests cross
// the wire to real polarice_worker processes behind a ShardRouter. The
// percentile therefore includes serialization, socket transport, and
// routing on top of inference; the failover variant SIGKILLs the busiest
// worker mid-window and publishes how many scenes had to be re-dispatched.
// Every completed plane is still verified bit-identical to the serial
// reference — corrupt > 0 fails the bench.
// ---------------------------------------------------------------------------

namespace {
bench::ShardLoadConfig shard_load_config(int shards, bool kill_busiest) {
  bench::ShardLoadConfig cfg;
  cfg.shards = shards;
  cfg.qps = 30.0;
  cfg.seconds = 1.5;
  cfg.clients = 4;
  cfg.scene_size = 128;
  cfg.unique_scenes = 4;
  cfg.kill_busiest = kill_busiest;
  cfg.cache_mb = 0;  // match BM_ServeLoad*: every request pays the forward
                     // path, so the percentile tracks inference + wire
  return cfg;
}

void run_shard_load_bench(benchmark::State& state, int shards,
                          bool kill_busiest, double quantile) {
  const auto cfg = shard_load_config(shards, kill_busiest);
  for (auto _ : state) {
    const auto report = bench::run_shard_load(cfg);
    const double value_ms = quantile >= 0.99 ? report.p99_ms : report.p50_ms;
    state.SetIterationTime(value_ms / 1e3);
    state.counters["completed"] = static_cast<double>(report.completed);
    state.counters["achieved_qps"] = report.achieved_qps;
    state.counters["failovers"] =
        static_cast<double>(report.router.failovers);
    state.counters["dispatch_errors"] =
        static_cast<double>(report.router.dispatch_errors);
    state.counters["quarantines"] =
        static_cast<double>(report.router.quarantines);
    state.counters["corrupt"] = static_cast<double>(report.corrupt);
    if (report.corrupt > 0 || report.completed == 0) {
      state.SkipWithError("shard load harness returned corrupt/empty work");
      return;
    }
    if (kill_busiest && report.router.failovers == 0) {
      state.SkipWithError("kill drill recorded no failovers");
      return;
    }
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Durability benches: restart warm-start and brownout degradation quality.
// ---------------------------------------------------------------------------

// Warm restart of a durable SceneServer: each iteration constructs a fresh
// server over a cache directory a previous (destroyed) server flushed, and
// serves the same scene set. Manual time is construct + serve-all — the
// restart-to-first-useful-answer window. The cold pass (empty directory,
// every plane pays the forward path) is published as the cold_ms counter,
// so the warm/cold ratio is the value of the persistent tier. Every warm
// plane must be bit-identical to its cold original and every request a
// warm hit, or the bench errors out.
static void BM_ServeRestart(benchmark::State& state) {
  nn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 8;
  cfg.use_dropout = false;
  nn::UNet model(cfg);

  char dir_template[] = "/tmp/polarice-bench-restart-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const std::string cache_dir = dir_template;

  core::serve::SceneServerConfig server_cfg;
  server_cfg.tile_size = 64;
  server_cfg.batch_tiles = 8;
  server_cfg.min_replicas = 1;
  server_cfg.max_replicas = 2;
  server_cfg.cache_bytes = std::size_t{32} << 20;
  server_cfg.cache_dir = cache_dir;
  server_cfg.cache_fingerprint = 42;
  server_cfg.cache_flush_bytes = std::size_t{1} << 10;

  constexpr int kScenes = 4;
  std::vector<img::ImageU8> scenes;
  for (int i = 0; i < kScenes; ++i) {
    s2::SceneConfig sc;
    sc.width = sc.height = 128;
    sc.seed = 500 + static_cast<std::uint64_t>(i);
    sc.cloudy = (i % 2) == 0;
    scenes.push_back(s2::SceneGenerator(sc).generate().rgb);
  }

  // Cold pass: populate the persistent tier (the destructor drain flushes
  // the final segment) and keep the planes as the bit-exactness oracle.
  std::vector<img::ImageU8> cold_planes;
  const auto cold_start = std::chrono::steady_clock::now();
  {
    core::serve::SceneServer server(model, server_cfg);
    for (const auto& scene : scenes) {
      cold_planes.push_back(server.submit(scene.clone()).get());
    }
  }
  const double cold_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cold_start)
          .count();

  for (auto _ : state) {
    const auto warm_start = std::chrono::steady_clock::now();
    core::serve::SceneServer server(model, server_cfg);
    std::vector<core::serve::SceneTicket> tickets;
    tickets.reserve(scenes.size());
    for (const auto& scene : scenes) {
      tickets.push_back(server.submit(scene.clone()));
    }
    std::size_t corrupt = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (tickets[i].get() != cold_planes[i]) ++corrupt;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      warm_start)
            .count());
    const auto stats = server.stats();
    state.counters["warm_hits"] = static_cast<double>(stats.warm_hits);
    state.counters["cache_warmed"] = static_cast<double>(stats.cache_warmed);
    state.counters["cache_corrupt"] =
        static_cast<double>(stats.cache_corrupt);
    state.counters["cold_ms"] = cold_ms;
    if (corrupt > 0) {
      state.SkipWithError("warm plane mismatched its cold original");
      break;
    }
    if (stats.warm_hits != kScenes) {
      state.SkipWithError("restart served cold: warm hits != scenes");
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}
BENCHMARK(BM_ServeRestart)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Brownout degradation quality/latency trade-off, measured on real
// degraded planes: burst kBatch scenes at an instant-enter brownout server
// (frozen VirtualClock pins the mode once entered) and compare each
// degraded plane against the serial full-quality reference for the same
// scene. Publishes mean IoU (1.0 = identical labeling), plus the serial
// full-resolution and stride-downscaled classify times for the latency
// side of the trade — the numbers docs/PERF.md quotes.
static void BM_BrownoutDegradedIoU(benchmark::State& state) {
  nn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 8;
  cfg.use_dropout = false;
  nn::UNet model(cfg);

  polarice::util::VirtualClock clock;
  core::serve::SceneServerConfig server_cfg;
  server_cfg.tile_size = 64;
  server_cfg.min_replicas = 1;
  server_cfg.max_replicas = 2;
  server_cfg.cache_bytes = 0;
  server_cfg.clock = &clock;
  server_cfg.brownout.enabled = true;
  server_cfg.brownout.enter_queue_depth = 1;
  server_cfg.brownout.exit_queue_depth = 0;
  server_cfg.brownout.enter_hold = std::chrono::milliseconds(0);
  server_cfg.brownout.exit_hold = std::chrono::milliseconds(1000);

  core::InferenceWorkflow workflow(model, {}, server_cfg.tile_size);
  core::serve::SubmitOptions batch;
  batch.priority = core::serve::Priority::kBatch;

  for (auto _ : state) {
    core::serve::SceneServer server(model, server_cfg);
    double iou_sum = 0.0;
    std::size_t degraded = 0;
    double full_ms = 0.0;
    double degraded_ms = 0.0;
    // Brownout entry races the scheduler pop, so burst unique scenes until
    // planes come back degraded; the frozen clock keeps the mode pinned.
    for (int round = 0; round < 10 && degraded == 0; ++round) {
      std::vector<img::ImageU8> burst;
      for (int i = 0; i < 16; ++i) {
        s2::SceneConfig sc;
        sc.width = sc.height = 128;
        sc.seed = 900 + static_cast<std::uint64_t>(round * 16 + i);
        sc.cloudy = (i % 2) == 0;
        burst.push_back(s2::SceneGenerator(sc).generate().rgb);
      }
      std::vector<core::serve::SceneTicket> tickets;
      tickets.reserve(burst.size());
      for (const auto& scene : burst) {
        tickets.push_back(server.submit(scene.clone(), batch));
      }
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        const auto plane = tickets[i].get();
        if (!tickets[i].degraded()) continue;
        if (degraded == 0) {
          // Latency legs of the trade-off, measured serially on the first
          // degraded scene: full resolution vs the brownout downscale.
          const int stride = server_cfg.brownout.degrade_stride;
          const auto t0 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(workflow.classify_scene(burst[i]));
          const auto t1 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(workflow.classify_scene(img::resize_nearest(
              burst[i], (burst[i].width() + stride - 1) / stride,
              (burst[i].height() + stride - 1) / stride)));
          const auto t2 = std::chrono::steady_clock::now();
          full_ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          degraded_ms =
              std::chrono::duration<double, std::milli>(t2 - t1).count();
        }
        iou_sum += bench::mean_iou(plane, workflow.classify_scene(burst[i]));
        ++degraded;
        if (degraded >= 4) break;  // IoU references are expensive
      }
    }
    if (degraded == 0) {
      state.SkipWithError("brownout never entered over the burst rounds");
      break;
    }
    state.counters["mean_iou"] = iou_sum / static_cast<double>(degraded);
    state.counters["degraded"] = static_cast<double>(degraded);
    state.counters["full_ms"] = full_ms;
    state.counters["degraded_ms"] = degraded_ms;
  }
}
BENCHMARK(BM_BrownoutDegradedIoU)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

static void BM_ShardLoadP50(benchmark::State& state) {
  run_shard_load_bench(state, /*shards=*/2, /*kill_busiest=*/false, 0.50);
}
BENCHMARK(BM_ShardLoadP50)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_ShardLoadP99(benchmark::State& state) {
  run_shard_load_bench(state, /*shards=*/2, /*kill_busiest=*/false, 0.99);
}
BENCHMARK(BM_ShardLoadP99)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

static void BM_ShardLoadFailoverP99(benchmark::State& state) {
  // SIGKILL the busiest worker 40% into the window: p99 now includes the
  // dispatch failures, quarantine, and re-dispatch of orphaned scenes.
  run_shard_load_bench(state, /*shards=*/2, /*kill_busiest=*/true, 0.99);
}
BENCHMARK(BM_ShardLoadFailoverP99)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
