// Synthetic Sentinel-2 substrate tests: noise determinism, scene statistics,
// class/HSV consistency, tiling, manual-label simulation, acquisition.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/corpus.h"
#include "img/color.h"
#include "metrics/metrics.h"
#include "s2/acquisition.h"
#include "s2/manual_label.h"
#include "s2/noise.h"
#include "s2/scene.h"
#include "s2/tiles.h"
#include "support/noise_oracle.h"
#include "util/hash.h"

namespace ps = polarice::s2;
namespace pi = polarice::img;

namespace {
ps::SceneConfig test_scene_config(bool cloudy, std::uint64_t seed = 11) {
  ps::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = seed;
  cfg.cloudy = cloudy;
  return cfg;
}

// PerlinNoise(seed).fbm_field over a w x h block, as doubles.
std::vector<double> fbm_block(std::uint64_t seed, int x0, int y0, int w,
                              int h, double scale, int octaves) {
  std::vector<double> out(static_cast<std::size_t>(w) * h);
  ps::PerlinNoise(seed).fbm_field(x0, y0, w, h, scale, octaves, out.data());
  return out;
}
}  // namespace

TEST(PerlinNoise, DeterministicPerSeed) {
  const auto a = fbm_block(5, 3, 1, 40, 20, 3.3, 3);
  const auto b = fbm_block(5, 3, 1, 40, 20, 3.3, 3);
  const auto c = fbm_block(6, 3, 1, 40, 20, 3.3, 3);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_NE(a, c);
}

TEST(PerlinNoise, BoundedRoughlyUnitRange) {
  // Single octave (raw noise) at scattered non-grid points, and a field.
  const ps::PerlinRef ref(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = ref.at(i * 0.37, i * 0.61);
    EXPECT_GE(v, -1.5);
    EXPECT_LE(v, 1.5);
  }
  for (const double v : fbm_block(7, -50, 20, 120, 90, 2.7, 1)) {
    ASSERT_GE(v, -1.5);
    ASSERT_LE(v, 1.5);
  }
}

TEST(PerlinNoise, ZeroAtLatticePoints) {
  // At scale 1 every pixel is a lattice point of the single octave.
  EXPECT_DOUBLE_EQ(fbm_block(8, 3, 4, 1, 1, 1.0, 1)[0], 0.0);
  for (const double v : fbm_block(8, -20, -7, 64, 32, 1.0, 1)) {
    ASSERT_EQ(v, 0.0);
  }
}

TEST(PerlinNoise, FbmIsSmootherThanItLooks) {
  // Neighbouring samples 0.01 apart must be close (continuity), as at the
  // oracle's scattered points.
  const ps::PerlinRef ref(9);
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.11, y = i * 0.07;
    EXPECT_NEAR(ref.fbm(x, y, 5), ref.fbm(x + 0.01, y, 5), 0.1);
  }
  const int w = 1100, h = 8;
  const auto field = fbm_block(9, 0, 0, w, h, 100.0, 5);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x + 1 < w; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * w + x;
      ASSERT_NEAR(field[i], field[i + 1], 0.1) << "at " << x << "," << y;
    }
  }
}

TEST(PerlinNoise, FieldMatchesPointOracle) {
  // Raw bytes, never a tolerance: the field kernel's gradient tables and
  // row-wise lattice must reproduce the point formulation exactly,
  // including the float cast.
  struct Shape { int w, h; };
  const Shape shapes[] = {{1, 1}, {7, 300}, {300, 7}, {130, 97}};
  const int offsets[][2] = {{0, 0}, {24, 18}, {-300, -2}};
  const double scales[] = {3.3, 17.5, 32.0, 700.0};
  const std::uint64_t seed = 11;
  const ps::PerlinNoise noise(seed);
  for (const auto& shape : shapes) {
    for (const auto& offset : offsets) {
      for (const double scale : scales) {
        for (int octaves = 1; octaves <= 7; ++octaves) {
          const auto ref = ps::perlin_fbm_ref(seed, offset[0], offset[1],
                                              shape.w, shape.h, scale,
                                              octaves);
          std::vector<double> got(ref.size());
          noise.fbm_field(offset[0], offset[1], shape.w, shape.h, scale,
                          octaves, got.data());
          ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                                ref.size() * sizeof(double)),
                    0)
              << shape.w << "x" << shape.h << " at " << offset[0] << ","
              << offset[1] << " scale " << scale << " octaves " << octaves;
          std::vector<float> got_f(ref.size()), ref_f(ref.size());
          noise.fbm_field(offset[0], offset[1], shape.w, shape.h, scale,
                          octaves, got_f.data());
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ref_f[i] = static_cast<float>(ref[i]);
          }
          ASSERT_EQ(std::memcmp(got_f.data(), ref_f.data(),
                                ref_f.size() * sizeof(float)),
                    0)
              << "float form, " << shape.w << "x" << shape.h << " scale "
              << scale << " octaves " << octaves;
        }
      }
    }
  }
}

TEST(SceneGenerator, DeterministicPerConfig) {
  const auto a = ps::SceneGenerator(test_scene_config(true)).generate();
  const auto b = ps::SceneGenerator(test_scene_config(true)).generate();
  EXPECT_EQ(a.rgb, b.rgb);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SceneGenerator, DifferentSeedsDiffer) {
  const auto a = ps::SceneGenerator(test_scene_config(true, 1)).generate();
  const auto b = ps::SceneGenerator(test_scene_config(true, 2)).generate();
  EXPECT_FALSE(a.rgb == b.rgb);
}

TEST(SceneGenerator, ClassFractionsApproximatelyHonored) {
  auto cfg = test_scene_config(false);
  cfg.width = cfg.height = 512;
  cfg.water_fraction = 0.3;
  cfg.thin_fraction = 0.35;
  const auto scene = ps::SceneGenerator(cfg).generate();
  std::array<std::size_t, 3> counts{};
  for (const auto v : scene.labels) ++counts[v];
  const double total = 512.0 * 512.0;
  EXPECT_NEAR(counts[0] / total, 0.30, 0.02);
  EXPECT_NEAR(counts[1] / total, 0.35, 0.02);
  EXPECT_NEAR(counts[2] / total, 0.35, 0.02);
}

TEST(SceneGenerator, CleanSceneVMatchesClassBands) {
  // Property: on a clean scene, every pixel's HSV V sits inside its class's
  // paper threshold band — this is what makes auto-labeling work.
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  const auto hsv = pi::rgb_to_hsv(scene.rgb);
  for (int y = 0; y < scene.rgb.height(); ++y) {
    for (int x = 0; x < scene.rgb.width(); ++x) {
      const int v = hsv.at(x, y, 2);
      const int cls = scene.labels.at(x, y);
      const auto& range = ps::kPaperHsvRanges[cls];
      ASSERT_GE(v, range.lower[2]) << "at " << x << "," << y;
      ASSERT_LE(v, range.upper[2]) << "at " << x << "," << y;
    }
  }
}

TEST(SceneGenerator, CleanSceneHasZeroCloudCover) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  EXPECT_DOUBLE_EQ(scene.cloud_cover_fraction(), 0.0);
  EXPECT_EQ(scene.rgb, scene.rgb_clean);
}

TEST(SceneGenerator, CloudySceneHasCoverAndDistortion) {
  const auto scene = ps::SceneGenerator(test_scene_config(true)).generate();
  EXPECT_GT(scene.cloud_cover_fraction(), 0.1);
  EXPECT_FALSE(scene.rgb == scene.rgb_clean);
}

TEST(SceneGenerator, HazeBrightensShadowsDarken) {
  auto cfg = test_scene_config(true);
  cfg.shadow_strength = 0.0;  // haze only
  const auto hazed = ps::SceneGenerator(cfg).generate();
  double brightened = 0, count = 0;
  for (int y = 0; y < cfg.height; ++y) {
    for (int x = 0; x < cfg.width; ++x) {
      if (hazed.cloud_opacity.at(x, y) > 0.1) {
        brightened += int(hazed.rgb.at(x, y, 2)) -
                      int(hazed.rgb_clean.at(x, y, 2));
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(brightened / count, 5.0);  // haze raises brightness on average
}

TEST(SceneGenerator, ValidatesConfig) {
  auto cfg = test_scene_config(true);
  cfg.water_fraction = 0.9;
  cfg.thin_fraction = 0.3;
  EXPECT_THROW(ps::SceneGenerator{cfg}, std::invalid_argument);
  cfg = test_scene_config(true);
  cfg.thick_v_lo = 190;  // violates the paper band nesting
  EXPECT_THROW(ps::SceneGenerator{cfg}, std::invalid_argument);
  cfg = test_scene_config(true);
  cfg.width = 0;
  EXPECT_THROW(ps::SceneGenerator{cfg}, std::invalid_argument);
}

TEST(Labels, ColorizeRoundTrip) {
  pi::ImageU8 labels(4, 2, 1);
  labels.at(0, 0) = 0;
  labels.at(1, 0) = 1;
  labels.at(2, 0) = 2;
  const auto rgb = ps::colorize_labels(labels);
  EXPECT_EQ(rgb.at(0, 0, 1), 255);  // water -> green
  EXPECT_EQ(rgb.at(1, 0, 2), 255);  // thin -> blue
  EXPECT_EQ(rgb.at(2, 0, 0), 255);  // thick -> red
  EXPECT_EQ(ps::labels_from_colors(rgb), labels);
}

TEST(Labels, RoundTripGuards) {
  pi::ImageU8 bad(2, 2, 1, 9);
  EXPECT_THROW(ps::colorize_labels(bad), std::invalid_argument);
  pi::ImageU8 white(2, 2, 3, 255);
  EXPECT_THROW(ps::labels_from_colors(white), std::invalid_argument);
}

TEST(Tiles, SplitCoversSceneExactly) {
  const auto scene = ps::SceneGenerator(test_scene_config(true)).generate();
  const auto tiles = ps::split_scene(scene, 64, 3);
  ASSERT_EQ(tiles.size(), 16u);  // 256/64 = 4 per axis
  for (const auto& t : tiles) {
    EXPECT_EQ(t.rgb.width(), 64);
    EXPECT_EQ(t.scene_index, 3);
  }
  // Pixel-exact reassembly of the labels.
  std::vector<pi::ImageU8> planes;
  for (const auto& t : tiles) planes.push_back(t.labels);
  EXPECT_EQ(ps::stitch_labels(planes, 4, 4), scene.labels);
}

TEST(Tiles, CloudFractionConsistentWithScene) {
  const auto scene = ps::SceneGenerator(test_scene_config(true)).generate();
  const auto tiles = ps::split_scene(scene, 64);
  double mean_fraction = 0.0;
  for (const auto& t : tiles) {
    EXPECT_GE(t.cloud_fraction, 0.0);
    EXPECT_LE(t.cloud_fraction, 1.0);
    mean_fraction += t.cloud_fraction;
  }
  mean_fraction /= static_cast<double>(tiles.size());
  EXPECT_NEAR(mean_fraction, scene.cloud_cover_fraction(), 1e-9);
}

TEST(Tiles, GuardsBadInput) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  EXPECT_THROW(ps::split_scene(scene, 0), std::invalid_argument);
  std::vector<pi::ImageU8> planes(2, pi::ImageU8(4, 4, 1));
  EXPECT_THROW(ps::stitch_labels(planes, 2, 2), std::invalid_argument);
}

TEST(ManualLabels, HighButImperfectAgreement) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  const auto manual = ps::simulate_manual_labels(scene.labels);
  std::vector<int> truth, annotated;
  for (int y = 0; y < scene.labels.height(); ++y) {
    for (int x = 0; x < scene.labels.width(); ++x) {
      truth.push_back(scene.labels.at(x, y));
      annotated.push_back(manual.at(x, y));
    }
  }
  const double agreement = polarice::metrics::pixel_accuracy(truth, annotated);
  EXPECT_GT(agreement, 0.95);  // annotators are good...
  EXPECT_LT(agreement, 0.9999);  // ...but not perfect
}

TEST(ManualLabels, DeterministicPerSeedAndDistinctAcrossSeeds) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  ps::ManualLabelConfig cfg;
  cfg.seed = 1;
  const auto a = ps::simulate_manual_labels(scene.labels, cfg);
  const auto b = ps::simulate_manual_labels(scene.labels, cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 2;
  const auto c = ps::simulate_manual_labels(scene.labels, cfg);
  EXPECT_FALSE(a == c);
}

TEST(ManualLabels, PreservesClassInventory) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  const auto manual = ps::simulate_manual_labels(scene.labels);
  for (const auto v : manual) EXPECT_LT(v, 3);
}

TEST(Acquisition, ProducesConfiguredTileCount) {
  ps::AcquisitionConfig cfg;
  cfg.num_scenes = 4;
  cfg.scene_size = 128;
  cfg.tile_size = 64;
  cfg.cloudy_scene_fraction = 0.5;
  const auto tiles = ps::acquire_tiles(cfg);
  EXPECT_EQ(tiles.size(), 16u);  // 4 scenes x 4 tiles
  EXPECT_EQ(cfg.total_tiles(), 16);
  // First half of scenes are cloudy: some tiles must carry cloud fraction.
  double cloudy_tiles = 0;
  for (const auto& t : tiles) cloudy_tiles += t.cloud_fraction > 0.01;
  EXPECT_GT(cloudy_tiles, 0);
}

TEST(Acquisition, ValidatesConfig) {
  ps::AcquisitionConfig cfg;
  cfg.scene_size = 100;
  cfg.tile_size = 64;  // not a divisor
  EXPECT_THROW(ps::acquire_tiles(cfg), std::invalid_argument);
  cfg = ps::AcquisitionConfig{};
  cfg.num_scenes = 0;
  EXPECT_THROW(ps::acquire_tiles(cfg), std::invalid_argument);
  cfg = ps::AcquisitionConfig{};
  cfg.cloudy_scene_fraction = 1.5;
  EXPECT_THROW(ps::acquire_tiles(cfg), std::invalid_argument);
}

TEST(Acquisition, SceneConfigSeedsAndCloudyRule) {
  ps::AcquisitionConfig cfg;
  cfg.num_scenes = 5;
  cfg.scene_size = 96;
  cfg.seed = 40;
  cfg.cloudy_scene_fraction = 0.5;  // round(2.5) = 3 cloudy scenes
  for (int i = 0; i < cfg.num_scenes; ++i) {
    const auto sc = cfg.scene_config(i);
    EXPECT_EQ(sc.width, 96);
    EXPECT_EQ(sc.height, 96);
    EXPECT_EQ(sc.seed, 40u + static_cast<std::uint64_t>(i));
    EXPECT_EQ(sc.cloudy, i < 3) << "scene " << i;
  }
}

TEST(SceneGenerator, GoldenU8Planes) {
  // FNV-64 of every u8 plane the generator and the annotator emit, recorded
  // from the point-wise Perlin generator (full sorts, per-pixel fbm) that
  // the field kernel replaced; the native (-march=native, FMA) and portable
  // builds produce the same bytes. The float planes (cloud_opacity,
  // shadow_strength) are deliberately not pinned: their last bits depend
  // on FMA contraction, so they already differed between those two builds
  // (e.g. one shadow pixel, by ~1e-16 before the cast, on a 1024^2 scene).
  struct Golden {
    int w, h;
    std::uint64_t seed;
    bool cloudy;
    int ice_octaves;
    double season;
    int shadow_dx, shadow_dy;
    std::uint64_t rgb, rgb_clean, labels, manual, manual_wobbly;
  };
  const Golden goldens[] = {
      {1, 1, 3, true, 5, 1.0, 24, 18, 0xf33df41c71727253ULL,
       0xf33df41c71727253ULL, 0xaf63bf4c8601bb45ULL, 0xaf63bf4c8601bb45ULL,
       0xaf63bf4c8601bb45ULL},
      {300, 7, 4, true, 7, 1.0, 24, 18, 0x43013aafab7201b6ULL,
       0x6d1a799b72489062ULL, 0x921485156a15e18aULL, 0x921485156a15e18aULL,
       0x93fbabff706a32feULL},
      {7, 300, 12, true, 2, 1.0, 24, 18, 0x2c9ca66cd29623d7ULL,
       0xe0e6dedbcf2b71b9ULL, 0xbdcd6c7636334aefULL, 0x081159bef734cc61ULL,
       0xc6551b5aa7e8c86fULL},
      {97, 61, 5, false, 1, 1.0, 24, 18, 0xbe574c65e51bcf0cULL,
       0xbe574c65e51bcf0cULL, 0x7943a78ad4a609a4ULL, 0xbf6e07bae9e84278ULL,
       0x89baf950f2330793ULL},
      {256, 256, 6, true, 5, 0.55, -300, -2, 0x83e6dc8a109e0de5ULL,
       0x9c7f5e456ac5e4c5ULL, 0x3206c94b53a9e9bcULL, 0xddd770783fc1e9beULL,
       0xcc0313492de3c54cULL},
      {512, 512, 7, false, 5, 1.0, 24, 18, 0xff32ef4a7c01275aULL,
       0xff32ef4a7c01275aULL, 0x7390dbfeedbfcdb3ULL, 0xe9cf61f9a31529d1ULL,
       0xc9300d1c6f78805dULL},
      {2048, 64, 8, true, 3, 1.0, 24, 18, 0xb13faf1782cc9fdcULL,
       0x8136db5f5baa6cabULL, 0xc7ded79c33222cb6ULL, 0xf9c88cecc83fa382ULL,
       0xa2ee4a215e77b92eULL},
  };
  const auto hash = [](const pi::ImageU8& plane) {
    return polarice::util::fnv64(plane.data(), plane.size());
  };
  ps::ManualLabelConfig wobbly;
  wobbly.displacement_px = 3.0;
  wobbly.wobble_scale = 7.5;
  wobbly.seed = 9;
  for (const auto& g : goldens) {
    ps::SceneConfig cfg;
    cfg.width = g.w;
    cfg.height = g.h;
    cfg.seed = g.seed;
    cfg.cloudy = g.cloudy;
    cfg.ice_octaves = g.ice_octaves;
    cfg.season_brightness = g.season;
    cfg.shadow_offset_x = g.shadow_dx;
    cfg.shadow_offset_y = g.shadow_dy;
    const auto scene = ps::SceneGenerator(cfg).generate();
    SCOPED_TRACE(testing::Message() << g.w << "x" << g.h << " seed " << g.seed);
    EXPECT_EQ(hash(scene.rgb), g.rgb);
    EXPECT_EQ(hash(scene.rgb_clean), g.rgb_clean);
    EXPECT_EQ(hash(scene.labels), g.labels);
    EXPECT_EQ(hash(ps::simulate_manual_labels(scene.labels)), g.manual);
    EXPECT_EQ(hash(ps::simulate_manual_labels(scene.labels, wobbly)),
              g.manual_wobbly);
  }

  // The whole corpus pass on top: 4 scenes of 256^2 (2 cloudy), every u8
  // plane of every tile in order, cloud filter and auto-labels included.
  polarice::core::CorpusConfig corpus;
  corpus.acquisition.num_scenes = 4;
  corpus.acquisition.scene_size = 256;
  corpus.acquisition.tile_size = 64;
  const auto tiles = polarice::core::prepare_corpus(corpus);
  ASSERT_EQ(tiles.size(), 64u);
  polarice::util::Fnv128 digest;
  for (const auto& t : tiles) {
    for (const auto* plane : {&t.rgb, &t.rgb_filtered, &t.rgb_clean, &t.truth,
                              &t.auto_labels, &t.manual_labels}) {
      digest.update(plane->data(), plane->size());
    }
  }
  EXPECT_EQ(digest.lo, 0xa09c1ace8db08677ULL);
}
