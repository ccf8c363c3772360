#pragma once
// Data acquisition stand-in for the paper's Google-Earth-Engine download:
// generates a fleet of scenes (a configurable mix of clean and cloudy) and
// splits them into tiles, yielding the project-wide training corpus.

#include <cstdint>
#include <vector>

#include "s2/tiles.h"

namespace polarice::s2 {

struct AcquisitionConfig {
  int num_scenes = 8;         // paper: 66
  int scene_size = 512;       // paper: 2048
  int tile_size = 64;         // paper: 256
  double cloudy_scene_fraction = 0.5;  // scenes rendered with atmosphere
  std::uint64_t seed = 2019;  // November 2019, Ross Sea
  SceneConfig scene_template; // morphology/atmosphere knobs (sizes overridden)

  void validate() const;

  [[nodiscard]] int tiles_per_scene() const noexcept {
    const int per_axis = scene_size / tile_size;
    return per_axis * per_axis;
  }
  [[nodiscard]] int total_tiles() const noexcept {
    return num_scenes * tiles_per_scene();
  }

  /// Scene i's generator settings: the template at scene_size, seed
  /// `seed + i`, with atmosphere iff i < round(cloudy_scene_fraction *
  /// num_scenes).
  [[nodiscard]] SceneConfig scene_config(int i) const;
};

/// Generates all scenes (scene i from `config.scene_config(i)`) and returns
/// the concatenated tile list. Deterministic for a fixed config.
std::vector<Tile> acquire_tiles(const AcquisitionConfig& config);

}  // namespace polarice::s2
