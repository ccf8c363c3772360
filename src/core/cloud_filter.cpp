#include "core/cloud_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "img/color.h"
#include "img/filter.h"
#include "img/morphology.h"
#include "img/ops.h"
#include "img/threshold.h"
#include "par/parallel_for.h"

namespace polarice::core {

void CloudFilterConfig::validate() const {
  const auto odd = [](int k) { return k >= 1 && k % 2 == 1; };
  if (!odd(envelope_kernel) || !odd(smooth_kernel) ||
      !odd(estimate_smooth_kernel)) {
    throw std::invalid_argument("CloudFilterConfig: kernels must be odd >= 1");
  }
  if (v_dark_ref < 0 || v_bright_ref <= v_dark_ref || v_bright_ref > 255) {
    throw std::invalid_argument("CloudFilterConfig: bad reference anchors");
  }
  if (max_alpha <= 0 || max_alpha >= 1 || max_beta <= 0 || max_beta >= 1) {
    throw std::invalid_argument("CloudFilterConfig: clamps must be in (0,1)");
  }
}

CloudShadowFilter::CloudShadowFilter(CloudFilterConfig config)
    : config_(config) {
  config_.validate();
}

CloudFilterResult CloudShadowFilter::filter_impl(const img::ImageU8& rgb,
                                                 par::ThreadPool* pool,
                                                 bool want_mask) const {
  if (rgb.channels() != 3) {
    throw std::invalid_argument("CloudShadowFilter: expected RGB input");
  }
  const auto& cfg = config_;
  const int w = rgb.width(), h = rgb.height();
  // Large kernels degrade gracefully on tiny inputs: clamp to image size.
  const auto clamp_odd = [](int k, int limit) {
    k = std::min(k, limit % 2 == 1 ? limit : limit - 1);
    return std::max(1, k % 2 == 1 ? k : k - 1);
  };
  const int env_k = clamp_odd(cfg.envelope_kernel, std::min(w, h));
  const int smooth_k = clamp_odd(cfg.smooth_kernel, std::min(w, h));
  const int est_k = clamp_odd(cfg.estimate_smooth_kernel, std::min(w, h));

  // 1. HSV decomposition; all physics happens on V.
  const img::ImageU8 hsv = img::rgb_to_hsv(rgb, pool);
  const img::ImageU8 v_obs = img::extract_channel(hsv, 2);

  // 2. Brightness envelopes. Opening (erode+dilate) hugs the signal from
  // below while tracking slow atmospheric variation — a bare erosion would
  // latch onto the least-hazed dark pixel in the window and underestimate
  // haze wherever opacity varies across the window. Closing is the dual
  // bright envelope. Both come out of one van Herk/Gil-Werman pass set
  // sharing its staging planes. Light Gaussian smoothing removes the
  // plateau edges.
  const img::MorphEnvelopes envelopes = img::morph_envelopes(v_obs, env_k);
  const img::ImageU8 dark_env = img::gaussian_blur(envelopes.open, smooth_k);
  const img::ImageU8 bright_env =
      img::gaussian_blur(envelopes.close, smooth_k);

  // 3. Pointwise atmosphere estimation — one fused row-parallel pass.
  CloudFilterResult result;
  result.alpha = img::ImageF32(w, h, 1);
  result.beta = img::ImageF32(w, h, 1);
  const double band = cfg.v_bright_ref - cfg.v_dark_ref;
  par::parallel_for(pool, 0, static_cast<std::size_t>(h), [&](std::size_t y) {
    for (int x = 0; x < w; ++x) {
      const int yi = static_cast<int>(y);
      const double m = dark_env.at(x, yi);
      const double M = bright_env.at(x, yi);
      // (1-a)(1-b): contrast of the local envelope vs the seasonal band.
      const double g = std::clamp((M - m) / band, 0.05, 1.0);
      // a(1-b): dark-envelope lift above the attenuated water anchor.
      const double aterm =
          std::clamp((m - cfg.v_dark_ref * g) / 255.0, 0.0, 0.95);
      const double one_minus_beta = std::clamp(g + aterm, 0.05, 1.0);
      double beta = 1.0 - one_minus_beta;
      double alpha = aterm / one_minus_beta;
      alpha = std::clamp(alpha, 0.0, cfg.max_alpha);
      beta = std::clamp(beta, 0.0, cfg.max_beta);
      if (alpha < cfg.activation) alpha = 0.0;
      if (beta < cfg.activation) beta = 0.0;
      result.alpha.at(x, yi) = static_cast<float>(alpha);
      result.beta.at(x, yi) = static_cast<float>(beta);
    }
  });
  // Smooth the estimates: atmosphere varies slowly, estimation noise does
  // not — the blur keeps the former and suppresses the latter.
  result.alpha = img::gaussian_blur(result.alpha, est_k);
  result.beta = img::gaussian_blur(result.beta, est_k);

  // 4. Invert the distortion on V and rebuild RGB with the observed H and S,
  // fused into a single row-parallel pass: per pixel, compute the clean V,
  // convert (H, S, V_clean) straight to output RGB, and record the
  // correction magnitude |V_obs - V_clean| for the diagnostic mask. The
  // reference formulation materialized a V_clean plane, a cloned HSV image,
  // an insert_channel pass, a whole-image hsv_to_rgb, and an absdiff — five
  // full-resolution intermediates this pass does not allocate.
  result.filtered = img::ImageU8(w, h, 3);
  img::ImageU8 delta;
  if (want_mask) delta = img::ImageU8(w, h, 1);
  const std::uint8_t* hsv_data = hsv.data();
  std::uint8_t* out_data = result.filtered.data();
  par::parallel_for(pool, 0, static_cast<std::size_t>(h), [&](std::size_t y) {
    const std::uint8_t* hrow = hsv_data + y * 3 * static_cast<std::size_t>(w);
    std::uint8_t* orow = out_data + y * 3 * static_cast<std::size_t>(w);
    for (int x = 0; x < w; ++x) {
      const int yi = static_cast<int>(y);
      const double alpha = result.alpha.at(x, yi);
      const double beta = result.beta.at(x, yi);
      const std::uint8_t v = hrow[3 * x + 2];
      const double unshaded = v / std::max(1e-6, 1.0 - beta);
      const double dehazed =
          (unshaded - 255.0 * alpha) / std::max(1e-6, 1.0 - alpha);
      const std::uint8_t v_clean = static_cast<std::uint8_t>(
          std::clamp(std::lround(dehazed), 0L, 255L));
      const auto out_rgb =
          img::hsv_to_rgb_pixel(hrow[3 * x], hrow[3 * x + 1], v_clean);
      orow[3 * x] = out_rgb[0];
      orow[3 * x + 1] = out_rgb[1];
      orow[3 * x + 2] = out_rgb[2];
      if (want_mask) {
        delta.at(x, yi) = static_cast<std::uint8_t>(
            v > v_clean ? v - v_clean : v_clean - v);
      }
    }
  });

  // 5. Diagnostic cloud/shadow mask: Otsu over the correction magnitude.
  if (want_mask) {
    result.cloud_mask =
        img::threshold_otsu(delta, 255, img::ThresholdType::kBinary);
  }
  return result;
}

CloudFilterResult CloudShadowFilter::apply_with_diagnostics(
    const img::ImageU8& rgb, const par::ExecutionContext& ctx) const {
  ctx.throw_if_cancelled("CloudShadowFilter::apply_with_diagnostics");
  return filter_impl(rgb, ctx.pool(), /*want_mask=*/true);
}

img::ImageU8 CloudShadowFilter::apply(const img::ImageU8& rgb,
                                      const par::ExecutionContext& ctx) const {
  ctx.throw_if_cancelled("CloudShadowFilter::apply");
  return filter_impl(rgb, ctx.pool(), /*want_mask=*/false).filtered;
}

}  // namespace polarice::core
