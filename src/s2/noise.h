#pragma once
// 2-D gradient (Perlin) noise and fractional Brownian motion — the terrain
// engine behind the synthetic Sentinel-2 scenes. Deterministic per seed.
//
// The only entry point is fbm_field(), which evaluates a whole rectangle of
// pixels row by row. Its contract is bit-identity with the classic point
// formulation (one `at(x, y)` per octave with an 8-way switch over the
// gradient directions, summed with amplitude 1/2^o): the scalar oracle in
// tests/support/noise_oracle.h is that formulation, and
// PerlinNoise.FieldMatchesPointOracle compares raw bytes.
//
// The field replaces the switch with coefficient tables,
// kGradX[h]*dx + kGradY[h]*dy. Both coefficients are 0 or ±1, so every
// product is exact and each corner value is the same correctly rounded sum
// (fused or not), except that a zero coefficient can turn an exact +0 into
// -0. That sign never reaches the output: the octave accumulator starts at
// +0.0, and +0 + -0 = +0.

#include <array>
#include <cstdint>

namespace polarice::s2 {

/// Classic Perlin gradient noise over a 256-cell permutation lattice.
class PerlinNoise {
 public:
  explicit PerlinNoise(std::uint64_t seed);

  /// Fractional Brownian motion over a w x h block of pixels:
  ///   out[j*w + i] = fbm((x0 + i) / scale, (y0 + j) / scale)
  /// where fbm sums `octaves` noise layers, each with twice the frequency
  /// and half the amplitude of the previous, normalized to roughly [-1, 1]
  /// (0 when octaves <= 0). `out` holds w*h values, row-major. The float
  /// form is the double result cast once.
  void fbm_field(int x0, int y0, int w, int h, double scale, int octaves,
                 double* out) const;
  void fbm_field(int x0, int y0, int w, int h, double scale, int octaves,
                 float* out) const;

 private:
  std::array<std::uint8_t, 256> perm_;
};

}  // namespace polarice::s2
