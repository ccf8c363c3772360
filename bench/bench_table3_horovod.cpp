// Table III — synchronous data-parallel U-Net training, 1/2/4/6/8 devices.
//
// Prints (1) the calibrated DGX A100 simulation (paper-shape, deterministic)
// and (2) measured wall times of the REAL data-parallel trainer on this
// host (ddp::train_fleet: one rank thread per device, canonical-tree
// gradient reduce; each rank's math is sequential, so host speedups are
// real parallel speedups). Like the paper, the per-device batch is fixed,
// so the global batch grows with the rank count.
//
//   --epochs=2 --tiles_scenes=2 --batch=4

#include <cstdio>

#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "ddp/device_model.h"
#include "ddp/fleet_trainer.h"
#include "support.h"

using namespace polarice;

namespace {
struct PaperRow {
  int gpus;
  double time_s, epoch_s, data_per_s, speedup;
};
constexpr PaperRow kPaper[] = {{1, 280.72, 5.5, 585.88, 1.00},
                               {2, 142.98, 2.778, 1160.81, 1.96},
                               {4, 74.09, 1.45, 2229.56, 3.79},
                               {6, 51.56, 0.97, 3330.03, 5.44},
                               {8, 38.91, 0.79, 4248.56, 7.21}};
}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  bench::banner("Table III: distributed U-Net training (Horovod-style)");

  // ---- 1. Calibrated DGX A100 simulation. ----
  std::printf("simulated DGX A100 (50 epochs, batch 32/device):\n");
  util::Table sim({"GPUs", "Time (s)", "Time/Epoch (s)", "Data/s", "Speedup",
                   "paper time/speedup"});
  for (const auto& row : kPaper) {
    const auto t = ddp::simulate_training(ddp::DeviceModelConfig{}, row.gpus);
    sim.add_row({std::to_string(row.gpus), util::Table::num(t.total_s, 2),
                 util::Table::num(t.epoch_s, 3),
                 util::Table::num(t.images_per_s, 2),
                 util::Table::num(t.speedup, 2),
                 util::Table::num(row.time_s, 2) + " / " +
                     util::Table::num(row.speedup, 2)});
  }
  sim.print();

  // ---- 2. Real fleet training on this host. ----
  core::CorpusConfig corpus_cfg;
  corpus_cfg.acquisition.num_scenes =
      static_cast<int>(args.get_int("tiles_scenes", 2));
  corpus_cfg.acquisition.scene_size = 256;
  corpus_cfg.acquisition.tile_size = 32;
  par::ThreadPool prep_pool(par::ThreadPool::hardware());
  const auto tiles =
      core::prepare_corpus(corpus_cfg, par::ExecutionContext(&prep_pool));
  const auto data = core::build_dataset(tiles, core::LabelSource::kAuto,
                                        core::ImageVariant::kFiltered);

  ddp::FleetTrainConfig cfg;
  cfg.model.depth = 2;
  cfg.model.base_channels = 6;
  cfg.model.use_dropout = false;
  cfg.epochs = static_cast<int>(args.get_int("epochs", 2));
  cfg.batch_per_device = static_cast<int>(args.get_int("batch", 4));

  std::printf("\nmeasured on this host (%zu tiles of %dx%d, %d epochs, batch "
              "%d per rank, one rank thread per simulated GPU):\n",
              data.size(), data.width(), data.height(), cfg.epochs,
              cfg.batch_per_device);
  util::Table real({"ranks", "Time (s)", "Time/Epoch (s)", "Data/s",
                    "Speedup"});
  double t1 = 0.0;
  for (const auto& row : kPaper) {
    cfg.world_size = row.gpus;
    nn::UNet model(cfg.model);
    const auto stats = ddp::train_fleet(model, data, cfg);
    const double images =
        static_cast<double>(stats.steps) * cfg.global_batch();
    if (row.gpus == 1) t1 = stats.total_s;
    real.add_row({std::to_string(row.gpus),
                  util::Table::num(stats.total_s, 2),
                  util::Table::num(stats.total_s / cfg.epochs, 3),
                  util::Table::num(images / stats.total_s, 1),
                  util::Table::num(t1 / stats.total_s, 2)});
  }
  real.print();
  std::printf("note: paper reports 7.21x at 8 GPUs (90%% efficiency); host "
              "scaling depends on available cores (%zu here).\n",
              par::ThreadPool::hardware());
  return 0;
}
