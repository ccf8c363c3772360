#pragma once
// Synthetic Sentinel-2 scene generator — the data substrate replacing the
// paper's Google-Earth-Engine downloads (see DESIGN.md §1).
//
// A scene is built from three deterministic fields:
//   * an fBm ice-thickness field, quantized into the three classes with
//     per-class brightness bands that match the paper's HSV thresholds
//     (water V<=28, thin ice 40<=V<=195, thick ice V>=210 — safely inside
//     the published segmentation bands, so a clean scene auto-labels almost
//     perfectly and residual errors come from clouds/shadows, as in the
//     paper);
//   * a lower-frequency cloud-opacity field rendered as additive white haze
//     (thin clouds);
//   * the same cloud field spatially offset and rendered as multiplicative
//     darkening (cloud shadows).
//
// Ground-truth labels come from the thickness field before any atmosphere is
// applied, and per-pixel cloud opacity is kept as metadata so tiles can be
// bucketed by cloud cover (Table V's >10% / <10% split).
//
// The fields come from PerlinNoise::fbm_field (s2/noise.h), which matches
// the point-wise Perlin formulation bit for bit; the class cuts and the
// cloud cut are order statistics found by selection, equal to indexing a
// sorted copy. Same config -> same bytes. The u8 planes (rgb, rgb_clean,
// labels) are moreover identical between the native (-march=native) and
// portable builds. The float planes (cloud_opacity, shadow_strength) may
// differ between those builds in a last bit, because GCC contracts some
// multiply-adds into FMAs in the native one (seen on one shadow pixel of a
// 1024^2 scene, ~1e-16 before the cast); tests do not pin them.

#include <cstdint>
#include <vector>

#include "img/image.h"
#include "s2/classes.h"

namespace polarice::s2 {

struct SceneConfig {
  int width = 2048;              // paper: 2048x2048 scenes
  int height = 2048;
  std::uint64_t seed = 1;

  // Ice morphology.
  double ice_feature_scale = 32.0;  // pixels per dominant floe feature
  int ice_octaves = 5;
  double water_fraction = 0.30;     // approx. fraction below water threshold
  double thin_fraction = 0.35;      // approx. fraction of thin ice

  // Class brightness bands (V channel targets; see classes.h for limits).
  // Each band keeps several counts of margin from the paper's segmentation
  // thresholds (30/31, 204/205) — the thresholds were chosen by the authors
  // to split observed color clusters, so real data has margins too.
  int water_v_lo = 8, water_v_hi = 24;
  int thin_v_lo = 42, thin_v_hi = 190;
  int thick_v_lo = 216, thick_v_hi = 248;
  double pixel_noise = 2.0;         // per-pixel Gaussian speckle (V counts)

  // Season model (paper §III.B / §V): the published thresholds hold for the
  // polar summer; the partial-night season darkens the whole scene and the
  // authors had to retune thresholds manually. 1.0 = summer; ~0.55 models
  // the partial-night brightness the paper mentions. Values != 1.0 scale
  // the class V bands after validation, so the paper thresholds genuinely
  // stop working — core::calibrate_thresholds recovers them automatically.
  double season_brightness = 1.0;

  // Atmosphere. Thin cloud sheets at 10 m/px are far smoother than floe
  // texture; keeping cloud_feature_scale >> ice_feature_scale is also what
  // makes the envelope-based filter well-posed (DESIGN.md §4.2).
  bool cloudy = true;               // false = clean scene
  double cloud_feature_scale = 700.0;
  double cloud_coverage = 0.45;     // fraction of sky with any haze
  double cloud_transition = 0.25;   // field units from clear to full opacity
  double cloud_max_opacity = 0.45;  // "thin" clouds only
  double shadow_strength = 0.35;    // multiplicative darkening at full cloud
  int shadow_offset_x = 24;         // cloud-to-shadow projection offset
  int shadow_offset_y = 18;

  void validate() const;
};

/// A generated scene: observed imagery, clean reference, ground truth, and
/// per-pixel cloud opacity.
struct Scene {
  img::ImageU8 rgb;          // observed (haze + shadows if cloudy)
  img::ImageU8 rgb_clean;    // atmosphere-free reference
  img::ImageU8 labels;       // single channel, class ids (0/1/2)
  img::ImageF32 cloud_opacity;  // alpha in [0,1]; build-dependent last bit
  img::ImageF32 shadow_strength;  // beta in [0,1]; build-dependent last bit
  std::uint64_t seed = 0;

  /// Fraction of pixels whose cloud opacity or shadow strength exceeds
  /// `threshold` — the scene-level "cloud/shadow cover".
  [[nodiscard]] double cloud_cover_fraction(double threshold = 0.05) const;
};

/// Deterministic scene synthesis.
class SceneGenerator {
 public:
  explicit SceneGenerator(SceneConfig config);

  /// Generates the scene for this config (same config -> same scene).
  [[nodiscard]] Scene generate() const;

  [[nodiscard]] const SceneConfig& config() const noexcept { return config_; }

 private:
  SceneConfig config_;
};

/// Converts a class-id label plane into the paper's RGB color coding.
img::ImageU8 colorize_labels(const img::ImageU8& labels);

/// Inverse of colorize_labels; throws on colors outside the palette.
img::ImageU8 labels_from_colors(const img::ImageU8& rgb);

}  // namespace polarice::s2
