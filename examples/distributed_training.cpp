// Horovod-style synchronous data-parallel training demo: trains the same
// U-Net with the fleet trainer (ddp::train_fleet, one rank thread per
// simulated GPU) at 1, 2, 4 and 6 ranks over one fixed global batch, and
// prints measured speedups, whether each run's parameters match the
// single-rank run bit for bit, and the calibrated DGX A100 projection.
//
//   ./distributed_training [--scenes=4] [--epochs=3] [--max_ranks=6]

#include <cstdio>
#include <vector>

#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "ddp/device_model.h"
#include "ddp/fleet_trainer.h"
#include "par/context.h"
#include "par/thread_pool.h"
#include "util/args.h"
#include "util/table.h"

using namespace polarice;

namespace {
std::vector<float> flat_params(nn::UNet& model) {
  std::vector<float> out;
  for (const auto& p : model.params()) {
    out.insert(out.end(), p.value->data(), p.value->data() + p.value->numel());
  }
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int epochs = static_cast<int>(args.get_int("epochs", 3));
  const int max_ranks = static_cast<int>(args.get_int("max_ranks", 6));
  constexpr int kGlobalBatch = 12;  // divisible by every rank count below

  core::CorpusConfig corpus_cfg;
  corpus_cfg.acquisition.num_scenes =
      static_cast<int>(args.get_int("scenes", 4));
  corpus_cfg.acquisition.scene_size = 256;
  corpus_cfg.acquisition.tile_size = 32;
  par::ThreadPool pool(par::ThreadPool::hardware());
  const par::ExecutionContext ctx(&pool);
  const auto tiles = core::prepare_corpus(corpus_cfg, ctx);
  const auto data =
      core::build_dataset(tiles, core::LabelSource::kAuto,
                          core::ImageVariant::kFiltered);
  std::printf("dataset: %zu tiles of %dx%d\n", data.size(), data.width(),
              data.height());

  ddp::FleetTrainConfig cfg;
  cfg.model.depth = 2;
  cfg.model.base_channels = 6;
  cfg.model.use_dropout = false;  // the fleet's determinism contract
  cfg.epochs = epochs;

  util::Table table({"ranks", "total (s)", "s/epoch", "img/s", "speedup",
                     "final loss", "params == 1 rank"});
  double t1 = 0.0;
  std::vector<float> reference;
  for (const int ranks : {1, 2, 4, 6}) {
    if (ranks > max_ranks) break;
    cfg.world_size = ranks;
    cfg.batch_per_device = kGlobalBatch / ranks;
    nn::UNet model(cfg.model);
    const auto stats = ddp::train_fleet(model, data, cfg);
    const auto params = flat_params(model);
    if (ranks == 1) {
      t1 = stats.total_s;
      reference = params;
    }
    const double images =
        static_cast<double>(stats.steps) * cfg.global_batch();
    table.add_row({std::to_string(ranks), util::Table::num(stats.total_s, 2),
                   util::Table::num(stats.total_s / epochs, 3),
                   util::Table::num(images / stats.total_s, 1),
                   util::Table::num(t1 / stats.total_s, 2),
                   util::Table::num(stats.final_loss, 4),
                   params == reference ? "bitwise" : "DIFFERS"});
  }
  std::printf("measured on this host (fleet trainer over rank threads, "
              "global batch %d):\n", kGlobalBatch);
  table.print();

  std::printf("\ncalibrated DGX A100 projection (paper Table III):\n");
  util::Table dgx({"GPUs", "total (s)", "s/epoch", "img/s", "speedup"});
  for (const int gpus : {1, 2, 4, 6, 8}) {
    const auto sim = ddp::simulate_training(ddp::DeviceModelConfig{}, gpus);
    dgx.add_row({std::to_string(gpus), util::Table::num(sim.total_s, 2),
                 util::Table::num(sim.epoch_s, 3),
                 util::Table::num(sim.images_per_s, 1),
                 util::Table::num(sim.speedup, 2)});
  }
  dgx.print();
  return 0;
}
