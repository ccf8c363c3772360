// Fig 9 inference end-to-end, serving-style: train a compact U-Net on
// auto-labeled data, stand up a serve::SceneServer (up to N model replicas
// behind one thread-safe API), and classify several brand-new cloudy scenes
// concurrently — filter, tile, cross-scene batched inference, stitch —
// writing the colorized classification of the first scene next to the
// truth.
//
//   ./classify_scene [--scene_size=256] [--epochs=6] [--scenes=3]
//                    [--replicas=2] [--out=classified]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "core/serve/scene_server.h"
#include "img/io.h"
#include "metrics/metrics.h"
#include "nn/trainer.h"
#include "par/context.h"
#include "par/thread_pool.h"
#include "s2/scene.h"
#include "util/args.h"

using namespace polarice;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int scene_size = static_cast<int>(args.get_int("scene_size", 256));
  const int num_scenes =
      std::max(1, static_cast<int>(args.get_int("scenes", 3)));
  const std::string out_dir = args.get_string("out", "classified");
  std::filesystem::create_directories(out_dir);
  par::ThreadPool pool(par::ThreadPool::hardware());
  const par::ExecutionContext ctx(&pool);

  // 1. Prepare auto-labeled training data (no human labels anywhere).
  core::CorpusConfig corpus_cfg;
  corpus_cfg.acquisition.num_scenes = 4;
  corpus_cfg.acquisition.scene_size = 256;
  corpus_cfg.acquisition.tile_size = 64;
  const auto tiles = core::prepare_corpus(corpus_cfg, ctx);
  const auto data = core::build_dataset(tiles, core::LabelSource::kAuto,
                                        core::ImageVariant::kFiltered);

  // 2. Train U-Net-Auto.
  nn::UNetConfig model_cfg;
  model_cfg.depth = 2;
  model_cfg.base_channels = 8;
  model_cfg.use_dropout = false;
  nn::UNet model(model_cfg);
  model.bind(ctx);
  nn::TrainConfig tc;
  tc.epochs = static_cast<int>(args.get_int("epochs", 6));
  tc.batch_size = 4;
  tc.learning_rate = 2e-3f;
  std::printf("training U-Net-Auto on %zu auto-labeled tiles...\n",
              data.size());
  const auto history = nn::Trainer(model, tc).fit(data, ctx);
  std::printf("final train loss %.4f, pixel accuracy %.2f%%\n",
              history.back().mean_loss,
              100 * history.back().pixel_accuracy);

  // 3. Stand up the scene server: replicas of the trained weights behind
  // one thread-safe submit(). The source model could keep training; the
  // server owns its own copies.
  core::serve::SceneServerConfig server_cfg;
  server_cfg.tile_size = 64;
  server_cfg.max_replicas =
      std::max(1, static_cast<int>(args.get_int("replicas", 2)));
  server_cfg.batch_tiles = 8;
  core::serve::SceneServer server(model, server_cfg, ctx);

  // 4. Classify fresh cloudy scenes (unseen seeds) concurrently.
  std::vector<s2::Scene> scenes;
  for (int i = 0; i < num_scenes; ++i) {
    s2::SceneConfig sc;
    sc.width = sc.height = scene_size;
    sc.seed = 31337 + static_cast<std::uint64_t>(i);
    sc.cloudy = true;
    scenes.push_back(s2::SceneGenerator(sc).generate());
  }
  // Submit every scene before waiting on any: the server batches tiles
  // across scenes and grows replicas while the backlog lasts.
  std::vector<core::serve::SceneTicket> tickets;
  for (const auto& scene : scenes) {
    tickets.push_back(server.submit(scene.rgb.clone()));
  }
  std::vector<img::ImageU8> predictions;
  for (const auto& ticket : tickets) predictions.push_back(ticket.get());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    std::vector<int> truth, pred;
    for (const auto v : scenes[i].labels) truth.push_back(v);
    for (const auto v : predictions[i]) pred.push_back(v);
    std::printf("scene %zu: accuracy %.2f%% (cloud cover %.1f%%)\n", i,
                100 * metrics::pixel_accuracy(truth, pred),
                100 * scenes[i].cloud_cover_fraction());
  }
  const auto stats = server.stats();
  std::printf("server classified %zu scenes / %zu tiles in %zu batches "
              "with up to %d replicas\n",
              stats.session.scenes, stats.session.tiles, stats.batches,
              stats.peak_replicas);

  img::write_ppm(out_dir + "/scene.ppm", scenes[0].rgb);
  img::write_ppm(out_dir + "/truth.ppm",
                 s2::colorize_labels(scenes[0].labels));
  img::write_ppm(out_dir + "/prediction.ppm",
                 s2::colorize_labels(predictions[0]));
  std::printf("wrote scene/truth/prediction panels to %s/\n", out_dir.c_str());
  return 0;
}
