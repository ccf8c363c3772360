#include "s2/scene.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "s2/noise.h"
#include "util/rng.h"

namespace polarice::s2 {

void SceneConfig::validate() const {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("SceneConfig: non-positive size");
  }
  if (ice_feature_scale <= 0 || cloud_feature_scale <= 0) {
    throw std::invalid_argument("SceneConfig: non-positive feature scale");
  }
  if (water_fraction < 0 || thin_fraction < 0 ||
      water_fraction + thin_fraction >= 1.0) {
    throw std::invalid_argument("SceneConfig: bad class fractions");
  }
  if (cloud_max_opacity < 0 || cloud_max_opacity > 0.95 ||
      shadow_strength < 0 || shadow_strength > 0.95) {
    throw std::invalid_argument("SceneConfig: atmosphere out of range");
  }
  if (!(water_v_hi <= 30 && thin_v_lo >= 31 && thin_v_hi <= 204 &&
        thick_v_lo >= 205 && water_v_lo >= 0 && thick_v_hi <= 255)) {
    throw std::invalid_argument(
        "SceneConfig: class V bands must nest inside the paper's HSV ranges");
  }
  if (season_brightness <= 0.0 || season_brightness > 1.0) {
    throw std::invalid_argument(
        "SceneConfig: season_brightness must be in (0, 1]");
  }
}

double Scene::cloud_cover_fraction(double threshold) const {
  if (cloud_opacity.empty()) return 0.0;
  std::size_t covered = 0;
  const std::size_t n = cloud_opacity.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (cloud_opacity.data()[i] > threshold ||
        shadow_strength.data()[i] > threshold) {
      ++covered;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(n);
}

SceneGenerator::SceneGenerator(SceneConfig config) : config_(config) {
  config_.validate();
}

namespace {

// Rows per band of the shadow field, which the atmosphere pass evaluates a
// band at a time instead of holding a whole plane of it.
constexpr int kBandRows = 32;

/// Maps a quantile u in [0,1) within a class band to a V value. The cubic
/// easing concentrates probability mass near the band center, giving each
/// class a distinct histogram MODE — the property of real sea-ice color
/// distributions that makes fixed thresholds (and Otsu-style calibration)
/// work at all. A linear map would spread the class uniformly and leave no
/// valley between classes.
double band_value(double u, int lo, int hi) {
  const double centered = u - 0.5;
  const double eased = 0.5 + 4.0 * centered * centered * centered;
  return lo + eased * (hi - lo);
}

/// For each q in `qs` (ascending), the element a sorted copy of `values`
/// holds at index floor(clamp(q, 0, 1) * (n - 1)). Selects instead of
/// sorting, so the values are identical; reorders `values`.
template <std::size_t N>
std::array<float, N> quantiles(std::vector<float>& values,
                               const std::array<double, N>& qs) {
  std::array<float, N> out{};
  auto lo = values.begin();
  for (std::size_t k = 0; k < N; ++k) {
    const auto rank = static_cast<std::size_t>(
        std::clamp(qs[k], 0.0, 1.0) *
        static_cast<double>(values.size() - 1));
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank);
    // Everything before `lo` is already <= everything from `lo` on.
    std::nth_element(lo, nth, values.end());
    out[k] = *nth;
    lo = nth;
  }
  return out;
}

}  // namespace

Scene SceneGenerator::generate() const {
  const auto& cfg = config_;
  const int w = cfg.width, h = cfg.height;
  const auto width = static_cast<std::size_t>(w);
  const std::size_t n = width * static_cast<std::size_t>(h);
  PerlinNoise ice_noise(cfg.seed * 7919 + 17);
  PerlinNoise cloud_noise(cfg.seed * 104729 + 71);
  util::Rng pixel_rng(cfg.seed * 31337 + 5);

  Scene scene;
  scene.seed = cfg.seed;
  scene.rgb = img::ImageU8(w, h, 3);
  scene.rgb_clean = img::ImageU8(w, h, 3);
  scene.labels = img::ImageU8(w, h, 1);
  scene.cloud_opacity = img::ImageF32(w, h, 1);
  scene.shadow_strength = img::ImageF32(w, h, 1);

  // Pass 1: raw thickness field, quantile-calibrated so the configured
  // class fractions hold regardless of the noise realization. `field`
  // later holds the cloud field; `order` is selection scratch for both.
  std::vector<float> field(n);
  ice_noise.fbm_field(0, 0, w, h, cfg.ice_feature_scale, cfg.ice_octaves,
                      field.data());
  std::vector<float> order = field;
  const auto [water_cut, thin_cut] = quantiles<2>(
      order, {cfg.water_fraction, cfg.water_fraction + cfg.thin_fraction});
  const auto [min_it, max_it] = std::minmax_element(field.begin(), field.end());
  const float t_min = *min_it;
  const float t_max = *max_it;

  // Pass 2: render classes and clean RGB.
  for (int y = 0; y < h; ++y) {
    const std::size_t off = static_cast<std::size_t>(y) * width;
    const float* trow = field.data() + off;
    std::uint8_t* lrow = scene.labels.data() + off;
    std::uint8_t* crow = scene.rgb_clean.data() + off * 3;
    for (int x = 0; x < w; ++x) {
      const float t = trow[x];
      int cls;
      double v;
      if (t < water_cut) {
        cls = static_cast<int>(SeaIceClass::kOpenWater);
        const double u = (t - t_min) / std::max(1e-6f, water_cut - t_min);
        v = band_value(u, cfg.water_v_lo, cfg.water_v_hi);
      } else if (t < thin_cut) {
        cls = static_cast<int>(SeaIceClass::kThinIce);
        const double u = (t - water_cut) / std::max(1e-6f, thin_cut - water_cut);
        v = band_value(u, cfg.thin_v_lo, cfg.thin_v_hi);
      } else {
        cls = static_cast<int>(SeaIceClass::kThickIce);
        const double u = (t - thin_cut) / std::max(1e-6f, t_max - thin_cut);
        v = band_value(u, cfg.thick_v_lo, cfg.thick_v_hi);
      }
      v += pixel_rng.normal(0.0, cfg.pixel_noise);
      // Keep the noisy value strictly inside the class band so clean scenes
      // segment exactly (the paper's clean-summer-color-constancy premise).
      const int lo = cls == 0 ? cfg.water_v_lo
                   : cls == 1 ? cfg.thin_v_lo
                              : cfg.thick_v_lo;
      const int hi = cls == 0 ? cfg.water_v_hi
                   : cls == 1 ? cfg.thin_v_hi
                              : cfg.thick_v_hi;
      v = std::clamp(v, static_cast<double>(lo), static_cast<double>(hi));
      // Season darkening happens after band clamping: a partial-night scene
      // genuinely leaves the summer bands (paper §V).
      v *= cfg.season_brightness;

      // Class tints: water is blue-dominant, thin ice blue-gray, thick ice
      // near-white. The max channel equals v so HSV V is exact.
      double tr, tg, tb;
      switch (static_cast<SeaIceClass>(cls)) {
        case SeaIceClass::kOpenWater: tr = 0.35; tg = 0.55; tb = 1.0; break;
        case SeaIceClass::kThinIce: tr = 0.78; tg = 0.88; tb = 1.0; break;
        default: tr = 0.97; tg = 0.99; tb = 1.0; break;
      }
      lrow[x] = static_cast<std::uint8_t>(cls);
      crow[3 * x + 0] = static_cast<std::uint8_t>(std::lround(v * tr));
      crow[3 * x + 1] = static_cast<std::uint8_t>(std::lround(v * tg));
      crow[3 * x + 2] = static_cast<std::uint8_t>(std::lround(v * tb));
    }
  }

  // Pass 3: atmosphere. A clean scene has alpha = beta = 0 everywhere, where
  // the blend below is exactly the clean value: copy it, and leave both
  // planes at their zero initialization.
  if (!cfg.cloudy) {
    std::copy(scene.rgb_clean.begin(), scene.rgb_clean.end(),
              scene.rgb.begin());
    return scene;
  }
  // Thin clouds brighten additively toward white; shadows (the same field,
  // offset) darken multiplicatively. The cloud field's cut level is
  // quantile-calibrated so the configured coverage fraction holds for every
  // noise realization.
  cloud_noise.fbm_field(0, 0, w, h, cfg.cloud_feature_scale, 4, field.data());
  std::copy(field.begin(), field.end(), order.begin());
  const float cloud_cut = quantiles<1>(order, {1.0 - cfg.cloud_coverage})[0];
  // Fixed transition width (not per-scene peak) so opacity ramps at the
  // field's intrinsic smoothness instead of being sharpened by rescaling.
  const auto atmosphere = [&](double field_value) {
    return std::clamp((field_value - cloud_cut) /
                          std::max(1e-9, cfg.cloud_transition),
                      0.0, 1.0);
  };
  std::vector<double> shadow(static_cast<std::size_t>(std::min(h, kBandRows)) *
                             width);
  for (int y0 = 0; y0 < h; y0 += kBandRows) {
    const int rows = std::min(kBandRows, h - y0);
    cloud_noise.fbm_field(cfg.shadow_offset_x, y0 + cfg.shadow_offset_y, w,
                          rows, cfg.cloud_feature_scale, 4, shadow.data());
    for (int y = y0; y < y0 + rows; ++y) {
      const std::size_t off = static_cast<std::size_t>(y) * width;
      const float* crow = field.data() + off;
      const double* srow =
          shadow.data() + static_cast<std::size_t>(y - y0) * width;
      float* alpha_row = scene.cloud_opacity.data() + off;
      float* beta_row = scene.shadow_strength.data() + off;
      const std::uint8_t* clean_row = scene.rgb_clean.data() + off * 3;
      std::uint8_t* rgb_row = scene.rgb.data() + off * 3;
      for (int x = 0; x < w; ++x) {
        const double alpha = atmosphere(crow[x]) * cfg.cloud_max_opacity;
        const double beta = atmosphere(srow[x]) * cfg.shadow_strength;
        alpha_row[x] = static_cast<float>(alpha);
        beta_row[x] = static_cast<float>(beta);
        for (int ch = 0; ch < 3; ++ch) {
          const double clean = clean_row[3 * x + ch];
          const double hazed = clean * (1.0 - alpha) + 255.0 * alpha;
          const double shaded = hazed * (1.0 - beta);
          rgb_row[3 * x + ch] = static_cast<std::uint8_t>(
              std::clamp(std::lround(shaded), 0L, 255L));
        }
      }
    }
  }
  return scene;
}

img::ImageU8 colorize_labels(const img::ImageU8& labels) {
  if (labels.channels() != 1) {
    throw std::invalid_argument("colorize_labels: expected single channel");
  }
  img::ImageU8 out(labels.width(), labels.height(), 3);
  for (int y = 0; y < labels.height(); ++y) {
    for (int x = 0; x < labels.width(); ++x) {
      const int cls = labels.at(x, y);
      if (cls >= kNumClasses) {
        throw std::invalid_argument("colorize_labels: class id out of range");
      }
      for (int c = 0; c < 3; ++c) out.at(x, y, c) = kClassColors[cls][c];
    }
  }
  return out;
}

img::ImageU8 labels_from_colors(const img::ImageU8& rgb) {
  if (rgb.channels() != 3) {
    throw std::invalid_argument("labels_from_colors: expected 3 channels");
  }
  img::ImageU8 out(rgb.width(), rgb.height(), 1);
  for (int y = 0; y < rgb.height(); ++y) {
    for (int x = 0; x < rgb.width(); ++x) {
      int found = -1;
      for (int cls = 0; cls < kNumClasses; ++cls) {
        if (rgb.at(x, y, 0) == kClassColors[cls][0] &&
            rgb.at(x, y, 1) == kClassColors[cls][1] &&
            rgb.at(x, y, 2) == kClassColors[cls][2]) {
          found = cls;
          break;
        }
      }
      if (found < 0) {
        throw std::invalid_argument("labels_from_colors: unknown color");
      }
      out.at(x, y) = static_cast<std::uint8_t>(found);
    }
  }
  return out;
}

}  // namespace polarice::s2
