#pragma once
// Scalar oracle for s2::PerlinNoise: the classic point formulation (one
// lattice lookup and an 8-way gradient switch per sample and octave) that
// PerlinNoise::fbm_field is bit-compared against. Part of the
// polarice_test_support library; it does not ship in polarice.

#include <array>
#include <cstdint>
#include <vector>

namespace polarice::s2 {

/// Point-wise Perlin noise over the same permutation PerlinNoise(seed)
/// builds.
class PerlinRef {
 public:
  explicit PerlinRef(std::uint64_t seed);

  /// Noise value at (x, y), approximately in [-1, 1]; 0 on lattice points.
  [[nodiscard]] double at(double x, double y) const noexcept;

  /// `octaves` layers of at(), each with twice the frequency and half the
  /// amplitude of the previous, normalized by the amplitude sum.
  [[nodiscard]] double fbm(double x, double y, int octaves) const noexcept;

 private:
  std::array<std::uint8_t, 256> perm_;
};

/// PerlinNoise(seed).fbm_field(x0, y0, w, h, scale, octaves, ...) evaluated
/// one point at a time: out[j*w + i] = fbm((x0 + i) / scale,
/// (y0 + j) / scale, octaves).
std::vector<double> perlin_fbm_ref(std::uint64_t seed, int x0, int y0, int w,
                                   int h, double scale, int octaves);

}  // namespace polarice::s2
