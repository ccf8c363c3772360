#include "s2/manual_label.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "s2/noise.h"

namespace polarice::s2 {

img::ImageU8 simulate_manual_labels(const img::ImageU8& truth,
                                    const ManualLabelConfig& config) {
  if (truth.channels() != 1) {
    throw std::invalid_argument("simulate_manual_labels: expected 1 channel");
  }
  if (config.displacement_px < 0 || config.wobble_scale <= 0) {
    throw std::invalid_argument("simulate_manual_labels: bad config");
  }
  // Smooth displacement field: the annotator's boundary is the true boundary
  // seen through a wobbly lens. Sampling the truth at displaced coordinates
  // moves boundaries without creating speckle noise inside regions.
  PerlinNoise dx_noise(config.seed * 2654435761ULL + 1);
  PerlinNoise dy_noise(config.seed * 2654435761ULL + 2);
  const int w = truth.width(), h = truth.height();
  const auto width = static_cast<std::size_t>(w);
  img::ImageU8 out(w, h, 1);
  // Both displacement fields are evaluated a band of rows at a time.
  constexpr int kBandRows = 32;
  const std::size_t band =
      static_cast<std::size_t>(std::min(h, kBandRows)) * width;
  std::vector<double> dx_field(band), dy_field(band);
  for (int y0 = 0; y0 < h; y0 += kBandRows) {
    const int rows = std::min(kBandRows, h - y0);
    dx_noise.fbm_field(0, y0, w, rows, config.wobble_scale, 2, dx_field.data());
    dy_noise.fbm_field(0, y0, w, rows, config.wobble_scale, 2, dy_field.data());
    for (int y = y0; y < y0 + rows; ++y) {
      const std::size_t off = static_cast<std::size_t>(y - y0) * width;
      std::uint8_t* orow = out.data() + static_cast<std::size_t>(y) * width;
      for (int x = 0; x < w; ++x) {
        const double dx = config.displacement_px * dx_field[off + x];
        const double dy = config.displacement_px * dy_field[off + x];
        const int sx =
            std::clamp(static_cast<int>(std::lround(x + dx)), 0, w - 1);
        const int sy =
            std::clamp(static_cast<int>(std::lround(y + dy)), 0, h - 1);
        orow[x] = truth.at(sx, sy);
      }
    }
  }
  return out;
}

}  // namespace polarice::s2
