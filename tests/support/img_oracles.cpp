#include "support/img_oracles.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "img/filter.h"

namespace polarice::img {

namespace {
enum class Op { kMin, kMax };

void require_odd(int ksize, const char* what) {
  if (ksize < 1 || ksize % 2 == 0) {
    throw std::invalid_argument(std::string(what) + ": ksize must be odd >= 1");
  }
}

/// 1-D sliding min/max with an O(K) rescan per pixel. Border handling
/// clamps sample indices to the line, which (min/max being idempotent in
/// duplicates) equals truncating the window at the border.
ImageU8 pass_ref(const ImageU8& src, int radius, bool horizontal, Op op) {
  const int w = src.width(), h = src.height();
  ImageU8 out(w, h, 1);
  const int outer = horizontal ? h : w;
  const int inner = horizontal ? w : h;
  for (int o = 0; o < outer; ++o) {
    for (int i = 0; i < inner; ++i) {
      std::uint8_t best = op == Op::kMin ? 255 : 0;
      for (int d = -radius; d <= radius; ++d) {
        const int j = std::clamp(i + d, 0, inner - 1);
        const std::uint8_t v = horizontal ? src.at(j, o) : src.at(o, j);
        best = op == Op::kMin ? std::min(best, v) : std::max(best, v);
      }
      if (horizontal) {
        out.at(i, o) = best;
      } else {
        out.at(o, i) = best;
      }
    }
  }
  return out;
}

ImageU8 morph_ref(const ImageU8& src, int ksize, Op op) {
  require_odd(ksize, "morphology");
  if (src.channels() != 1) {
    throw std::invalid_argument("morphology: expected single channel");
  }
  const int radius = ksize / 2;
  return pass_ref(pass_ref(src, radius, /*horizontal=*/true, op), radius,
                  /*horizontal=*/false, op);
}

/// Separable convolution with a symmetric 1-D kernel, replicated borders,
/// one clamped read per tap.
template <typename T>
Image<T> separable_ref(const Image<T>& src, const std::vector<float>& k) {
  const int radius = static_cast<int>(k.size()) / 2;
  const int w = src.width(), h = src.height(), nc = src.channels();
  Image<float> tmp(w, h, nc);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < nc; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          acc += k[i + radius] *
                 static_cast<float>(src.at_clamped(x + i, y, c));
        }
        tmp.at(x, y, c) = acc;
      }
    }
  }
  Image<T> out(w, h, nc);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < nc; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          acc += k[i + radius] * tmp.at_clamped(x, y + i, c);
        }
        if constexpr (std::is_same_v<T, std::uint8_t>) {
          out.at(x, y, c) = static_cast<std::uint8_t>(
              std::clamp(std::lround(acc), 0L, 255L));
        } else {
          out.at(x, y, c) = acc;
        }
      }
    }
  }
  return out;
}
}  // namespace

ImageU8 erode_ref(const ImageU8& src, int ksize) {
  return morph_ref(src, ksize, Op::kMin);
}

ImageU8 dilate_ref(const ImageU8& src, int ksize) {
  return morph_ref(src, ksize, Op::kMax);
}

ImageU8 gaussian_blur_ref(const ImageU8& src, int ksize, double sigma) {
  return separable_ref(src, gaussian_kernel_1d(ksize, sigma));
}

ImageF32 gaussian_blur_ref(const ImageF32& src, int ksize, double sigma) {
  return separable_ref(src, gaussian_kernel_1d(ksize, sigma));
}

ImageU8 box_filter_ref(const ImageU8& src, int ksize) {
  require_odd(ksize, "box_filter");
  const std::vector<float> k(ksize, 1.0f / static_cast<float>(ksize));
  return separable_ref(src, k);
}

}  // namespace polarice::img
