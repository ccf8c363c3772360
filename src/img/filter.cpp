#include "img/filter.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace polarice::img {

namespace {
void require_odd(int ksize, const char* what) {
  if (ksize < 1 || ksize % 2 == 0) {
    throw std::invalid_argument(std::string(what) + ": ksize must be odd >= 1");
  }
}

/// clamp(lround(v), 0, 255) — round half away from zero — for every
/// |v| < 2^31 (a u8 blur's outputs lie in [0, 255]: its kernels are finite,
/// non-negative and sum to 1), written as a truncation plus an exact
/// fraction test and an integer clamp so the loop vectorises.
std::uint8_t round_u8(float v) noexcept {
  const int i = static_cast<int>(v);
  const int rounded = i + (v - static_cast<float>(i) >= 0.5f ? 1 : 0);
  return static_cast<std::uint8_t>(std::clamp(rounded, 0, 255));
}

/// Separable convolution with a symmetric 1-D kernel, replicated borders.
/// Both passes run taps in the outer loop over a contiguous row of
/// accumulators, so the inner loops are plain vector multiply-adds: the
/// horizontal pass reads a float copy of the source row padded by `radius`
/// replicated pixels on each side, the vertical pass clamps only the row
/// index. Each output still starts at 0 and adds k[i] * v for i = -r..r in
/// order, bit for bit the per-tap clamped scan (gaussian_blur_ref).
template <typename T>
Image<T> separable(const Image<T>& src, const std::vector<float>& k) {
  const int ksize = static_cast<int>(k.size());
  const int radius = ksize / 2;
  const int w = src.width(), h = src.height(), nc = src.channels();
  const std::size_t row_len = static_cast<std::size_t>(w) * nc;
  const std::size_t pad_len = static_cast<std::size_t>(radius) * nc;
  Image<float> tmp(w, h, nc);
  std::vector<float> line(row_len + 2 * pad_len);
  std::vector<float> acc(row_len);
  // Horizontal pass, accumulating into tmp's zero-initialized rows.
  for (int y = 0; y < h; ++y) {
    const T* srow = src.data() + static_cast<std::size_t>(y) * row_len;
    const T* last = srow + row_len - nc;
    std::copy(srow, srow + row_len, line.begin() + pad_len);
    for (std::size_t j = 0; j < pad_len; ++j) {
      line[j] = static_cast<float>(srow[j % nc]);
      line[pad_len + row_len + j] = static_cast<float>(last[j % nc]);
    }
    float* trow = tmp.data() + static_cast<std::size_t>(y) * row_len;
    for (int i = 0; i < ksize; ++i) {
      const float ki = k[i];
      const float* in = line.data() + static_cast<std::size_t>(i) * nc;
      for (std::size_t j = 0; j < row_len; ++j) trow[j] += ki * in[j];
    }
  }
  // Vertical pass.
  Image<T> out(w, h, nc);
  for (int y = 0; y < h; ++y) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int i = 0; i < ksize; ++i) {
      const int sy = std::clamp(y + i - radius, 0, h - 1);
      const float ki = k[i];
      const float* in = tmp.data() + static_cast<std::size_t>(sy) * row_len;
      for (std::size_t j = 0; j < row_len; ++j) acc[j] += ki * in[j];
    }
    T* orow = out.data() + static_cast<std::size_t>(y) * row_len;
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      std::transform(acc.begin(), acc.end(), orow, round_u8);
    } else {
      std::copy(acc.begin(), acc.end(), orow);
    }
  }
  return out;
}
}  // namespace

std::vector<float> gaussian_kernel_1d(int ksize, double sigma) {
  require_odd(ksize, "gaussian_kernel_1d");
  // NaN takes the default too, and the centre tap is exactly 1 even when
  // 2*sigma^2 underflows to 0 (where the formula gives 0/0), so every
  // kernel is finite and a blur never leaves its source's value range.
  if (!(sigma > 0.0)) sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8;
  const int radius = ksize / 2;
  std::vector<float> k(ksize);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v =
        i == 0 ? 1.0 : std::exp(-(i * i) / (2.0 * sigma * sigma));
    k[i + radius] = static_cast<float>(v);
    sum += v;
  }
  for (auto& v : k) v = static_cast<float>(v / sum);
  return k;
}

ImageU8 box_filter(const ImageU8& src, int ksize) {
  require_odd(ksize, "box_filter");
  const std::vector<float> k(ksize, 1.0f / static_cast<float>(ksize));
  return separable(src, k);
}

ImageU8 gaussian_blur(const ImageU8& src, int ksize, double sigma) {
  return separable(src, gaussian_kernel_1d(ksize, sigma));
}

ImageF32 gaussian_blur(const ImageF32& src, int ksize, double sigma) {
  return separable(src, gaussian_kernel_1d(ksize, sigma));
}

ImageU8 median_filter(const ImageU8& src, int ksize) {
  require_odd(ksize, "median_filter");
  if (src.channels() != 1) {
    throw std::invalid_argument("median_filter: expected single channel");
  }
  const int w = src.width(), h = src.height();
  const int radius = ksize / 2;
  const int window = ksize * ksize;
  const int median_rank = window / 2;  // 0-based rank of the median
  ImageU8 out(w, h, 1);

  // Sliding histogram per row: O(ksize) update per pixel.
  for (int y = 0; y < h; ++y) {
    int hist[256] = {0};
    // Seed histogram for x = 0.
    for (int dy = -radius; dy <= radius; ++dy) {
      for (int dx = -radius; dx <= radius; ++dx) {
        ++hist[src.at_clamped(dx, y + dy)];
      }
    }
    for (int x = 0; x < w; ++x) {
      if (x > 0) {
        for (int dy = -radius; dy <= radius; ++dy) {
          --hist[src.at_clamped(x - radius - 1, y + dy)];
          ++hist[src.at_clamped(x + radius, y + dy)];
        }
      }
      int count = 0;
      for (int v = 0; v < 256; ++v) {
        count += hist[v];
        if (count > median_rank) {
          out.at(x, y) = static_cast<std::uint8_t>(v);
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace polarice::img
