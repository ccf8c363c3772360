#include "support/noise_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "util/rng.h"

namespace polarice::s2 {

namespace {

double fade(double t) noexcept { return t * t * t * (t * (t * 6 - 15) + 10); }

double grad(int h, double dx, double dy) noexcept {
  switch (h & 7) {
    case 0: return dx + dy;
    case 1: return dx - dy;
    case 2: return -dx + dy;
    case 3: return -dx - dy;
    case 4: return dx;
    case 5: return -dx;
    case 6: return dy;
    default: return -dy;
  }
}

}  // namespace

PerlinRef::PerlinRef(std::uint64_t seed) {
  std::iota(perm_.begin(), perm_.end(), 0);
  util::Rng rng(seed);
  std::shuffle(perm_.begin(), perm_.end(), rng);
}

double PerlinRef::at(double x, double y) const noexcept {
  const auto hash = [this](int xi, int yi) {
    return perm_[(perm_[xi & 255] + yi) & 255];
  };
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const double dx = x - x0;
  const double dy = y - y0;
  const double u = fade(dx);
  const double v = fade(dy);

  const double n00 = grad(hash(x0, y0), dx, dy);
  const double n10 = grad(hash(x0 + 1, y0), dx - 1, dy);
  const double n01 = grad(hash(x0, y0 + 1), dx, dy - 1);
  const double n11 = grad(hash(x0 + 1, y0 + 1), dx - 1, dy - 1);

  const double nx0 = n00 + u * (n10 - n00);
  const double nx1 = n01 + u * (n11 - n01);
  return (nx0 + v * (nx1 - nx0)) * 0.7071;
}

double PerlinRef::fbm(double x, double y, int octaves) const noexcept {
  double amplitude = 1.0;
  double frequency = 1.0;
  double total = 0.0;
  double norm = 0.0;
  for (int o = 0; o < octaves; ++o) {
    total += amplitude * at(x * frequency, y * frequency);
    norm += amplitude;
    amplitude *= 0.5;
    frequency *= 2.0;
  }
  return norm > 0.0 ? total / norm : 0.0;
}

std::vector<double> perlin_fbm_ref(std::uint64_t seed, int x0, int y0, int w,
                                   int h, double scale, int octaves) {
  const PerlinRef noise(seed);
  std::vector<double> out(static_cast<std::size_t>(w) * h);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      out[static_cast<std::size_t>(j) * w + i] =
          noise.fbm((x0 + i) / scale, (y0 + j) / scale, octaves);
    }
  }
  return out;
}

}  // namespace polarice::s2
