// polarice_trainer — one rank of the fault-tolerant training fleet as a
// standalone process.
//
// Every rank is launched with the same flags plus its own --rank; the
// synthetic dataset, model init, and epoch shuffles are all derived from
// the shared seeds, so separate processes agree on the data and the math
// without any shared filesystem state beyond --checkpoint_dir. The rank
// joins the socket mesh (unix:<socket_dir>/rank-<r>.sock per rank), syncs
// from rank 0's last durable checkpoint, and trains. If a peer dies
// mid-collective the rank tears down and re-rendezvouses under capped
// backoff — so a supervisor (bench_train_fleet) can SIGKILL a rank,
// re-exec it, and watch the fleet converge to the bit-identical result of
// an uninterrupted run.
//
// Usage:
//   polarice_trainer --rank 0 --world 2 --socket_dir /tmp/fleet \
//       --checkpoint_dir /tmp/fleet/ckpt --epochs 2 --out /tmp/params.bin
//
// Flags (all validated; malformed values exit 2 with the reason):
//   --rank N             required; this rank's id in [0, world)
//   --world N            ranks in the fleet, any size (default 1)
//   --socket_dir PATH    required; rendezvous directory for rank sockets
//   --checkpoint_dir P   durable checkpoint dir (default off; rank 0 only)
//   --epochs N           training epochs         (default 2)
//   --batch N            per-rank batch; global batch = batch x world
//                        (default 2)
//   --lr X               Adam learning rate      (default 1e-3)
//   --seed N             shuffle/fingerprint seed (default 7)
//   --checkpoint_every N rank-0 checkpoint cadence in steps (default 8)
//   --max_rejoins N      rejoin budget after a collective error (default 5)
//   --collective_ms N    per-collective deadline (default 30000)
//   --establish_ms N     mesh rendezvous budget  (default 30000)
//   --model_depth / --model_channels / --model_seed   U-Net geometry
//   --samples / --channels / --height / --width / --classes / --data_seed
//                        synthetic dataset shape (defaults 16/3/16/16/2/11)
//   --out PATH           save final parameters (UNet::save) on exit
//
// On success prints one machine-parsable summary line:
//   TRAINFLEET rank=<r> steps=... global_step=... rejoins=...
//     resumed_from=... checkpoints=... corrupt=... stale=... stopped=0|1
//     loss=<final>
// Exit codes: 0 trained (or clean stop vote), 1 runtime failure (rejoin
// budget exhausted, checkpoint IO), 2 malformed flags.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <memory>

#include "ddp/communicator.h"
#include "ddp/fleet_trainer.h"
#include "ddp/socket_communicator.h"
#include "nn/unet.h"
#include "util/args.h"
#include "util/log.h"

namespace {

// Signal handlers may only touch lock-free state; the step loop folds this
// flag into the next collective as a stop vote, so every rank exits on the
// same step with a final checkpoint behind it.
std::atomic<bool> g_stop_requested{false};

void handle_signal(int) { g_stop_requested.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace polarice;

  try {
    const util::Args args(argc, argv);

    ddp::FleetTrainConfig config;
    config.world_size = static_cast<int>(args.get_int_in("world", 1, 1, 64));
    const int rank = static_cast<int>(
        args.get_int_in("rank", -1, 0, config.world_size - 1));
    const std::string socket_dir = args.require_string("socket_dir");
    config.checkpoint_dir = args.get_string("checkpoint_dir", "");
    config.epochs = static_cast<int>(args.get_int_in("epochs", 2, 1, 1000));
    config.batch_per_device =
        static_cast<int>(args.get_int_in("batch", 2, 1, 256));
    config.learning_rate = static_cast<float>(args.get_double("lr", 1e-3));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    config.checkpoint_every = static_cast<int>(
        args.get_int_in("checkpoint_every", 8, 1, 1 << 20));
    config.max_rejoins =
        static_cast<int>(args.get_int_in("max_rejoins", 5, 0, 1000));
    config.collective.timeout = std::chrono::milliseconds(
        args.get_int_in("collective_ms", 30000, 1, 1 << 22));
    const auto establish_ms = std::chrono::milliseconds(
        args.get_int_in("establish_ms", 30000, 1, 1 << 22));

    config.model.depth =
        static_cast<int>(args.get_int_in("model_depth", 1, 1, 6));
    config.model.base_channels =
        static_cast<int>(args.get_int_in("model_channels", 4, 1, 512));
    config.model.use_dropout = false;
    config.model.seed =
        static_cast<std::uint64_t>(args.get_int("model_seed", 5));

    const int samples =
        static_cast<int>(args.get_int_in("samples", 16, 1, 1 << 20));
    const int channels =
        static_cast<int>(args.get_int_in("channels", 3, 1, 64));
    const int height = static_cast<int>(args.get_int_in("height", 16, 4, 512));
    const int width = static_cast<int>(args.get_int_in("width", 16, 4, 512));
    const int classes = static_cast<int>(args.get_int_in("classes", 2, 2, 32));
    const auto data_seed =
        static_cast<std::uint64_t>(args.get_int("data_seed", 11));
    config.model.in_channels = channels;
    config.model.num_classes = classes;
    config.validate();

    const nn::SegDataset data = ddp::make_synthetic_dataset(
        samples, channels, height, width, classes, data_seed);

    ddp::SocketCommunicatorConfig mesh;
    mesh.rank = rank;
    mesh.world_size = config.world_size;
    mesh.endpoints = ddp::fleet_endpoints(socket_dir, config.world_size);
    mesh.fingerprint = config.fingerprint();
    mesh.establish_timeout = establish_ms;
    mesh.collective = config.collective;
    const auto factory = [&mesh]() -> std::unique_ptr<ddp::Communicator> {
      return std::make_unique<ddp::SocketCommunicator>(mesh);
    };

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    nn::UNet model(config.model);
    LOG_INFO_C("trainer") << "rank " << rank << "/" << config.world_size
                          << " joining via " << socket_dir;
    const ddp::FleetTrainStats stats = ddp::train_fleet_rank(
        model, data, config, rank, factory, &g_stop_requested);

    if (args.has("out")) model.save(args.require_string("out"));

    std::printf(
        "TRAINFLEET rank=%d steps=%lld global_step=%lld rejoins=%lld "
        "resumed_from=%lld checkpoints=%lld corrupt=%lld stale=%lld "
        "stopped=%d loss=%.9g\n",
        rank, static_cast<long long>(stats.steps),
        static_cast<long long>(stats.global_step),
        static_cast<long long>(stats.rejoins),
        static_cast<long long>(stats.resumed_from),
        static_cast<long long>(stats.checkpoints_written),
        static_cast<long long>(stats.checkpoint_corrupt),
        static_cast<long long>(stats.checkpoint_stale),
        stats.stopped ? 1 : 0, static_cast<double>(stats.final_loss));
    std::fflush(stdout);
    return 0;
  } catch (const std::invalid_argument& error) {
    LOG_ERROR_C("trainer") << error.what();
    return 2;
  } catch (const std::exception& error) {
    LOG_ERROR_C("trainer") << "fatal: " << error.what();
    return 1;
  }
}
