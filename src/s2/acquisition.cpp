#include "s2/acquisition.h"

#include <stdexcept>

namespace polarice::s2 {

void AcquisitionConfig::validate() const {
  if (num_scenes <= 0) {
    throw std::invalid_argument("AcquisitionConfig: num_scenes <= 0");
  }
  if (scene_size <= 0 || tile_size <= 0 || scene_size % tile_size != 0) {
    throw std::invalid_argument(
        "AcquisitionConfig: scene_size must be a positive multiple of "
        "tile_size");
  }
  if (cloudy_scene_fraction < 0.0 || cloudy_scene_fraction > 1.0) {
    throw std::invalid_argument(
        "AcquisitionConfig: cloudy_scene_fraction out of [0,1]");
  }
}

SceneConfig AcquisitionConfig::scene_config(int i) const {
  const int cloudy_scenes = static_cast<int>(
      cloudy_scene_fraction * static_cast<double>(num_scenes) + 0.5);
  SceneConfig sc = scene_template;
  sc.width = scene_size;
  sc.height = scene_size;
  sc.seed = seed + static_cast<std::uint64_t>(i);
  sc.cloudy = i < cloudy_scenes;
  return sc;
}

std::vector<Tile> acquire_tiles(const AcquisitionConfig& config) {
  config.validate();
  std::vector<Tile> tiles;
  tiles.reserve(static_cast<std::size_t>(config.total_tiles()));
  for (int i = 0; i < config.num_scenes; ++i) {
    const Scene scene = SceneGenerator(config.scene_config(i)).generate();
    auto scene_tiles = split_scene(scene, config.tile_size, i);
    for (auto& t : scene_tiles) tiles.push_back(std::move(t));
  }
  return tiles;
}

}  // namespace polarice::s2
