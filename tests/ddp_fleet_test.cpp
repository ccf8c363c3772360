// Fleet-trainer tests: the determinism and fault-tolerance properties the
// distributed training tier rests on.
//
//  * World-size invariance: the same seed and global batch produce
//    BIT-identical rank-0 parameters at world sizes 1, 2, 3, 4, and 6
//    (per-sample gradients folded along one canonical tree, regardless of
//    how ranks partition a batch).
//  * Transport invariance: a socket fleet matches the in-process thread
//    reference bitwise at every one of those world sizes.
//  * Kill-and-resume: a rank that dies mid-run and rejoins from the last
//    durable checkpoint converges to the bit-identical parameters of an
//    uninterrupted run — also when a 6-rank fleet's checkpoint resumes a
//    4-rank fleet.
//  * Typed failures: a fleet that cannot form times out with a
//    CollectiveError, never a hang.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ddp/communicator.h"
#include "ddp/fleet_trainer.h"
#include "ddp/socket_communicator.h"
#include "nn/unet.h"
#include "util/rng.h"

namespace pd = polarice::ddp;
namespace pn = polarice::nn;
namespace fs = std::filesystem;
using namespace std::chrono_literals;

namespace {

pn::UNetConfig tiny_model() {
  pn::UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.depth = 1;
  cfg.base_channels = 4;
  cfg.use_dropout = false;
  cfg.seed = 5;
  return cfg;
}

pd::FleetTrainConfig tiny_fleet(int world_size, int batch_per_device) {
  pd::FleetTrainConfig cfg;
  cfg.model = tiny_model();
  cfg.world_size = world_size;
  cfg.batch_per_device = batch_per_device;
  cfg.epochs = 2;
  cfg.learning_rate = 1e-3f;
  cfg.seed = 7;
  cfg.checkpoint_every = 2;
  cfg.collective.timeout = 30s;
  return cfg;
}

pn::SegDataset tiny_data(int samples = 8) {
  return pd::make_synthetic_dataset(samples, /*channels=*/3,
                                    /*height=*/16, /*width=*/16,
                                    /*classes=*/2, /*seed=*/11);
}

// Global batch 12 divides among 1, 2, 3, 4, and 6 ranks; 24 samples make
// two steps per epoch.
constexpr int kGlobalBatch = 12;
constexpr int kWorldSizes[] = {1, 2, 3, 4, 6};

pd::FleetTrainConfig batch12_fleet(int world_size) {
  return tiny_fleet(world_size, kGlobalBatch / world_size);
}

std::vector<float> flat_params(pn::UNet& model) {
  std::vector<float> out;
  for (const auto& p : model.params()) {
    const float* v = p.value->data();
    out.insert(out.end(), v, v + p.value->numel());
  }
  return out;
}

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("polarice-fleet-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

}  // namespace

TEST(FleetConfig, ValidatesInvariants) {
  auto cfg = tiny_fleet(2, 2);
  EXPECT_NO_THROW(cfg.validate());

  // Any world size and per-rank batch: the canonical tree covers them all.
  EXPECT_NO_THROW(tiny_fleet(3, 3).validate());
  EXPECT_NO_THROW(tiny_fleet(6, 5).validate());

  auto bad = cfg;
  bad.world_size = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.batch_per_device = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.model.use_dropout = true;  // mask streams diverge across world sizes
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.epochs = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FleetConfig, FingerprintIgnoresWorldSplit) {
  // Same trajectory identity for (world 1, batch 4) and (world 4, batch 1):
  // a checkpoint from one fleet shape must resume another.
  const auto a = tiny_fleet(1, 4).fingerprint();
  const auto b = tiny_fleet(4, 1).fingerprint();
  const auto c = tiny_fleet(2, 2).fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(batch12_fleet(6).fingerprint(), batch12_fleet(4).fingerprint());

  auto other = tiny_fleet(1, 4);
  other.seed = 8;
  EXPECT_NE(a, other.fingerprint());
}

// The headline determinism property: the same seed and global batch yield
// BITWISE-identical rank-0 parameters at world sizes 1, 2, 3, 4, and 6.
TEST(FleetTrainer, BitIdenticalAcrossWorldSizes) {
  const auto data = tiny_data(24);
  std::vector<float> reference;
  float reference_loss = 0.0f;
  for (const int world : kWorldSizes) {
    pn::UNet model(tiny_model());
    const auto stats = pd::train_fleet(model, data, batch12_fleet(world));
    EXPECT_EQ(stats.steps, 4) << "world " << world;
    if (world == 1) {
      reference = flat_params(model);
      reference_loss = stats.final_loss;
      continue;
    }
    EXPECT_EQ(flat_params(model), reference)
        << "world " << world << " diverged from world 1";
    EXPECT_EQ(stats.final_loss, reference_loss) << "world " << world;
  }
}

// Transport invariance: a socket mesh (real wire frames over unix sockets)
// must produce the bit-identical parameters of the thread reference, at
// every world size.
TEST(FleetTrainer, SocketMatchesThreadTransportBitwise) {
  const auto data = tiny_data(24);
  pn::UNet thread_model(tiny_model());
  (void)pd::train_fleet(thread_model, data, batch12_fleet(3));
  const auto reference = flat_params(thread_model);

  for (const int world : kWorldSizes) {
    const auto config = batch12_fleet(world);
    const std::string dir =
        scratch_dir("socket-vs-thread-" + std::to_string(world));
    const auto endpoints = pd::fleet_endpoints(dir, world);
    std::vector<std::vector<float>> socket_params(world);
    std::vector<std::jthread> ranks;
    for (int r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        pd::SocketCommunicatorConfig mesh;
        mesh.rank = r;
        mesh.world_size = world;
        mesh.endpoints = endpoints;
        mesh.fingerprint = config.fingerprint();
        mesh.collective = config.collective;
        pn::UNet model(tiny_model());
        const auto stats = pd::train_fleet_rank(
            model, data, config, r,
            [&mesh] { return std::make_unique<pd::SocketCommunicator>(mesh); });
        EXPECT_GT(stats.steps, 0);
        socket_params[static_cast<std::size_t>(r)] = flat_params(model);
      });
    }
    ranks.clear();  // join

    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(socket_params[static_cast<std::size_t>(r)], reference)
          << "world " << world << " rank " << r;
    }
  }
}

// A checkpoint is a point on the world-size-independent trajectory: a
// 6-rank fleet stopped after 3 steps resumes as a 4-rank fleet and ends
// bit-identical to an uninterrupted run.
TEST(FleetTrainer, CheckpointFromWorldSixResumesAtWorldFour) {
  const auto data = tiny_data(24);
  pn::UNet reference(tiny_model());
  (void)pd::train_fleet(reference, data, batch12_fleet(1));

  const std::string dir = scratch_dir("resume-6-to-4");
  auto six = batch12_fleet(6);
  six.checkpoint_dir = dir;
  six.checkpoint_every = 100;  // only the join and stop checkpoints
  {
    const auto world = std::make_shared<pd::World>(six.world_size);
    std::atomic<bool> stop{false};
    std::vector<pd::FleetTrainStats> stats(6);
    std::vector<std::jthread> ranks;
    for (int r = 0; r < six.world_size; ++r) {
      ranks.emplace_back([&, r] {
        pn::UNet model(tiny_model());
        // Rank 0 raises the stop flag before its own vote at step 3, so the
        // whole fleet stops there whatever the other ranks read.
        std::function<void(std::int64_t)> hook;
        if (r == 0) {
          hook = [&stop](std::int64_t step) {
            if (step == 3) stop = true;
          };
        }
        stats[static_cast<std::size_t>(r)] = pd::train_fleet_rank(
            model, data, six, r,
            [&world, &six, r] {
              return std::make_unique<pd::ThreadCommunicator>(world, r,
                                                              six.collective);
            },
            &stop, hook);
      });
    }
    ranks.clear();  // join
    for (const auto& s : stats) {
      EXPECT_TRUE(s.stopped);
      EXPECT_EQ(s.steps, 3);
    }
  }

  auto four = batch12_fleet(4);
  four.checkpoint_dir = dir;
  pn::UNet resumed(tiny_model());
  const auto stats = pd::train_fleet(resumed, data, four);
  EXPECT_EQ(stats.resumed_from, 3);
  EXPECT_EQ(stats.steps, 1);
  EXPECT_EQ(stats.checkpoint_corrupt, 0);
  EXPECT_EQ(flat_params(resumed), flat_params(reference));
}

// Kill-and-resume determinism, single-rank edition: a rank that dies
// mid-run (a CollectiveError out of the step loop) rolls back to the last
// durable checkpoint, replays, and finishes with parameters bit-identical
// to a run that never crashed.
TEST(FleetTrainer, ResumeFromCheckpointIsBitIdentical) {
  const auto data = tiny_data();
  auto config = tiny_fleet(1, 4);
  config.checkpoint_every = 2;  // steps 0,2,4 durable; 4 steps total

  // Uninterrupted reference.
  pn::UNet reference(tiny_model());
  {
    auto ref_config = config;
    ref_config.checkpoint_dir = scratch_dir("resume-ref");
    const auto stats = pd::train_fleet(reference, data, ref_config);
    EXPECT_EQ(stats.rejoins, 0);
  }

  // Crashing run: die via the step hook at global step 3 (one past the
  // step-2 checkpoint), then let the rejoin loop resume from it.
  config.checkpoint_dir = scratch_dir("resume-crash");
  config.max_rejoins = 2;
  config.rejoin_backoff = 1ms;
  pn::UNet model(tiny_model());
  bool crashed = false;
  const auto factory = [] {
    return std::make_unique<pd::ThreadCommunicator>(
        std::make_shared<pd::World>(1), 0);
  };
  const auto stats = pd::train_fleet_rank(
      model, data, config, /*rank=*/0, factory, /*stop=*/nullptr,
      [&crashed](std::int64_t global_step) {
        if (global_step == 3 && !crashed) {
          crashed = true;
          throw pd::PeerLost("injected crash");
        }
      });

  EXPECT_TRUE(crashed);
  EXPECT_EQ(stats.rejoins, 1);
  EXPECT_GT(stats.resumed_from, 0);  // second join loaded a real checkpoint
  EXPECT_EQ(stats.checkpoint_corrupt, 0);
  EXPECT_EQ(flat_params(model), flat_params(reference));
}

// Exhausting the rejoin budget rethrows the CollectiveError instead of
// spinning forever.
TEST(FleetTrainer, RejoinBudgetExhaustionRethrows) {
  const auto data = tiny_data();
  auto config = tiny_fleet(1, 4);
  config.checkpoint_dir = scratch_dir("budget");
  config.max_rejoins = 1;
  config.rejoin_backoff = 1ms;
  pn::UNet model(tiny_model());
  const auto factory = [] {
    return std::make_unique<pd::ThreadCommunicator>(
        std::make_shared<pd::World>(1), 0);
  };
  EXPECT_THROW(
      (void)pd::train_fleet_rank(
          model, data, config, 0, factory, nullptr,
          [](std::int64_t) { throw pd::PeerLost("always"); }),
      pd::CollectiveError);
}

// A pre-set stop flag is folded into the first collective as a stop vote:
// the fleet exits cleanly before applying any step, with a final durable
// checkpoint behind it.
TEST(FleetTrainer, StopVoteExitsCleanlyWithCheckpoint) {
  const auto data = tiny_data();
  auto config = tiny_fleet(1, 4);
  config.checkpoint_dir = scratch_dir("stop");
  pn::UNet model(tiny_model());
  std::atomic<bool> stop{true};
  const auto factory = [] {
    return std::make_unique<pd::ThreadCommunicator>(
        std::make_shared<pd::World>(1), 0);
  };
  const auto stats =
      pd::train_fleet_rank(model, data, config, 0, factory, &stop);
  EXPECT_TRUE(stats.stopped);
  EXPECT_EQ(stats.steps, 0);
  EXPECT_GE(stats.checkpoints_written, 1);
}

// Training makes progress: on a learnable striped dataset, the global
// mean loss of the last step of epoch 6 is below that of the last step of
// epoch 1 (a 1-epoch run of the same trajectory).
TEST(FleetTrainer, LossDecreasesAcrossEpochs) {
  pn::SegDataset data;
  polarice::util::Rng rng(88);
  constexpr int kSize = 8;
  for (int s = 0; s < 16; ++s) {
    pn::SegSample sample;
    sample.image = polarice::tensor::Tensor({3, kSize, kSize});
    sample.labels.resize(kSize * kSize);
    for (int y = 0; y < kSize; ++y) {
      for (int x = 0; x < kSize; ++x) {
        const int cls = x * 3 / kSize;
        sample.labels[y * kSize + x] = cls;
        for (int c = 0; c < 3; ++c) {
          sample.image[(c * kSize + y) * kSize + x] =
              (c == cls ? 0.8f : 0.1f) +
              static_cast<float>(rng.uniform(-0.05, 0.05));
        }
      }
    }
    data.add(std::move(sample));
  }

  auto config = tiny_fleet(/*world_size=*/4, /*batch_per_device=*/2);
  config.model.num_classes = 3;
  config.learning_rate = 3e-3f;
  std::vector<float> final_losses;
  for (const int epochs : {1, 6}) {
    config.epochs = epochs;
    pn::UNet model(config.model);
    const auto stats = pd::train_fleet(model, data, config);
    EXPECT_EQ(stats.steps, 2 * epochs);  // 16 samples / global batch 8
    final_losses.push_back(stats.final_loss);
  }
  EXPECT_LT(final_losses[1], final_losses[0]);
}

// A fleet that can never form (no peer ever dials in) must surface a typed
// CollectiveError within the establish budget — not hang.
TEST(SocketCommunicator, EstablishTimesOutTyped) {
  const std::string dir = scratch_dir("lonely");
  pd::SocketCommunicatorConfig mesh;
  mesh.rank = 0;
  mesh.world_size = 2;
  mesh.endpoints = pd::fleet_endpoints(dir, 2);
  mesh.fingerprint = 42;
  mesh.establish_timeout = 200ms;
  EXPECT_THROW(pd::SocketCommunicator{mesh}, pd::CollectiveError);
}

// A peer presenting a different config fingerprint is refused at hello:
// both sides fail typed, neither silently joins a foreign fleet.
TEST(SocketCommunicator, FingerprintMismatchIsRefused) {
  const std::string dir = scratch_dir("mismatch");
  const auto endpoints = pd::fleet_endpoints(dir, 2);
  std::atomic<int> typed_failures{0};
  std::vector<std::jthread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([&, r] {
      pd::SocketCommunicatorConfig mesh;
      mesh.rank = r;
      mesh.world_size = 2;
      mesh.endpoints = endpoints;
      mesh.fingerprint = 100 + static_cast<std::uint64_t>(r);  // disagree
      mesh.establish_timeout = 2000ms;
      try {
        pd::SocketCommunicator comm(mesh);
      } catch (const pd::CollectiveError&) {
        ++typed_failures;
      }
    });
  }
  ranks.clear();  // join
  EXPECT_EQ(typed_failures.load(), 2);
}
