#include "s2/noise.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace polarice::s2 {

namespace {

double fade(double t) noexcept { return t * t * t * (t * (t * 6 - 15) + 10); }

// The 8 gradient directions as dot-product coefficients:
// grad(h, dx, dy) = kGradX[h & 7] * dx + kGradY[h & 7] * dy.
constexpr double kGradX[8] = {1, 1, -1, -1, 1, -1, 0, 0};
constexpr double kGradY[8] = {1, -1, 1, -1, 0, 0, 1, -1};

template <typename T>
void fbm_rows(const std::array<std::uint8_t, 256>& perm, int x0, int y0,
              int w, int h, double scale, int octaves, T* out) {
  if (w <= 0 || h <= 0) return;
  const auto width = static_cast<std::size_t>(w);
  if (octaves <= 0) {
    std::fill(out, out + width * static_cast<std::size_t>(h), T{0});
    return;
  }

  // Column lattice, once per octave: cell offset, its fade weight, and the
  // first-level hashes of the cell's left and right edges.
  const std::size_t lattice = width * static_cast<std::size_t>(octaves);
  std::vector<double> col_dx(lattice), col_u(lattice);
  std::vector<std::int32_t> col_p0(lattice), col_p1(lattice);
  double frequency = 1.0;
  for (int o = 0; o < octaves; ++o) {
    const std::size_t base = static_cast<std::size_t>(o) * width;
    for (int i = 0; i < w; ++i) {
      const double x = static_cast<double>(x0 + i) / scale * frequency;
      const int xi = static_cast<int>(std::floor(x));
      const double dx = x - xi;
      col_dx[base + i] = dx;
      col_u[base + i] = fade(dx);
      col_p0[base + i] = perm[xi & 255];
      col_p1[base + i] = perm[(xi + 1) & 255];
    }
    frequency *= 2.0;
  }

  std::vector<double> acc(width);
  for (int j = 0; j < h; ++j) {
    std::fill(acc.begin(), acc.end(), 0.0);
    const double ys = static_cast<double>(y0 + j) / scale;
    double amplitude = 1.0;
    double norm = 0.0;
    frequency = 1.0;
    for (int o = 0; o < octaves; ++o) {
      // Row lattice, once per row and octave.
      const double y = ys * frequency;
      const int yi = static_cast<int>(std::floor(y));
      const double dy = y - yi;
      const double dy1 = dy - 1;
      const double v = fade(dy);

      const std::size_t base = static_cast<std::size_t>(o) * width;
      const double* dxs = col_dx.data() + base;
      const double* us = col_u.data() + base;
      const std::int32_t* p0s = col_p0.data() + base;
      const std::int32_t* p1s = col_p1.data() + base;
      double* a = acc.data();
      for (int i = 0; i < w; ++i) {
        const double dx = dxs[i];
        const double dx1 = dx - 1;
        const std::int32_t r0 = p0s[i] + yi;
        const std::int32_t r1 = p1s[i] + yi;
        const int h00 = perm[r0 & 255] & 7;
        const int h10 = perm[r1 & 255] & 7;
        const int h01 = perm[(r0 + 1) & 255] & 7;
        const int h11 = perm[(r1 + 1) & 255] & 7;
        const double n00 = kGradX[h00] * dx + kGradY[h00] * dy;
        const double n10 = kGradX[h10] * dx1 + kGradY[h10] * dy;
        const double n01 = kGradX[h01] * dx + kGradY[h01] * dy1;
        const double n11 = kGradX[h11] * dx1 + kGradY[h11] * dy1;
        const double u = us[i];
        const double nx0 = n00 + u * (n10 - n00);
        const double nx1 = n01 + u * (n11 - n01);
        // Scale: gradient noise with these gradients spans ~[-1.5, 1.5];
        // 0.7071 normalizes the typical range close to [-1, 1].
        a[i] += amplitude * ((nx0 + v * (nx1 - nx0)) * 0.7071);
      }
      norm += amplitude;
      amplitude *= 0.5;
      frequency *= 2.0;
    }
    T* row = out + static_cast<std::size_t>(j) * width;
    for (int i = 0; i < w; ++i) row[i] = static_cast<T>(acc[i] / norm);
  }
}

}  // namespace

PerlinNoise::PerlinNoise(std::uint64_t seed) {
  std::iota(perm_.begin(), perm_.end(), 0);
  util::Rng rng(seed);
  std::shuffle(perm_.begin(), perm_.end(), rng);
}

void PerlinNoise::fbm_field(int x0, int y0, int w, int h, double scale,
                            int octaves, double* out) const {
  fbm_rows(perm_, x0, y0, w, h, scale, octaves, out);
}

void PerlinNoise::fbm_field(int x0, int y0, int w, int h, double scale,
                            int octaves, float* out) const {
  fbm_rows(perm_, x0, y0, w, h, scale, octaves, out);
}

}  // namespace polarice::s2
