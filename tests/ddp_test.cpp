// Distributed-training substrate tests: channels, broadcast, collective
// deadline enforcement on a VirtualClock, the canonical-tree allreduce
// (correct, bitwise identical across ranks and across world sizes 1-8),
// and the DGX device model.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "ddp/communicator.h"
#include "ddp/device_model.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace pd = polarice::ddp;
using namespace std::chrono_literals;

namespace {
/// Runs `body(rank, comm)` on `n` rank threads and joins.
template <typename Body>
void run_world(int n, Body&& body) {
  auto world = std::make_shared<pd::World>(n);
  std::vector<std::jthread> threads;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      pd::ThreadCommunicator comm(world, r);
      body(r, comm);
    });
  }
}
}  // namespace

TEST(Channel, FifoDelivery) {
  pd::Channel ch;
  ch.send({1.0f});
  ch.send({2.0f});
  EXPECT_EQ(ch.recv()[0], 1.0f);
  EXPECT_EQ(ch.recv()[0], 2.0f);
}

TEST(World, RejectsBadConstruction) {
  EXPECT_THROW(pd::World(0), std::invalid_argument);
  pd::World world(2);
  EXPECT_THROW(world.channel(2, 0), std::out_of_range);
  EXPECT_THROW(world.channel(0, -1), std::out_of_range);
}

// Regression (ISSUE 10 satellite): no in-process collective path may block
// forever. The waits below sit on a FROZEN VirtualClock — only an explicit
// advance past the deadline may release them, proving the timeout verdict
// is taken on the injectable clock, not on wall time.
TEST(Channel, RecvTimesOutTypedOnVirtualClock) {
  polarice::util::VirtualClock clock;
  pd::Channel ch;
  std::atomic<bool> timed_out{false};
  std::atomic<bool> returned{false};
  std::jthread waiter([&] {
    try {
      (void)ch.recv(clock.now() + 50ms, &clock);
    } catch (const pd::CollectiveTimeout&) {
      timed_out = true;
    }
    returned = true;
  });
  // Clock frozen short of the deadline: the waiter must still be blocked
  // no matter how much real time passes.
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(returned.load());
  clock.advance(100ms);
  waiter.join();
  EXPECT_TRUE(timed_out.load());
}

TEST(ThreadCommunicator, RecvSurfacesCollectiveTimeoutFromOptions) {
  polarice::util::VirtualClock clock;
  auto world = std::make_shared<pd::World>(2, &clock);
  pd::CollectiveOptions options;
  options.clock = &clock;
  options.timeout = 20ms;
  pd::ThreadCommunicator comm(world, 0, options);
  std::jthread advancer([&] {
    std::this_thread::sleep_for(20ms);
    clock.advance(100ms);
  });
  EXPECT_THROW((void)comm.recv(1), pd::CollectiveTimeout);
}

TEST(Communicator, ErrorTypesAreOrdered) {
  // PeerLost and CollectiveTimeout must both be catchable as
  // CollectiveError — the rejoin trigger catches the base.
  EXPECT_THROW(throw pd::CollectiveTimeout("x"), pd::CollectiveError);
  EXPECT_THROW(throw pd::PeerLost("x"), pd::CollectiveError);
}

TEST(Communicator, SendRecvPointToPoint) {
  run_world(2, [](int rank, pd::Communicator& comm) {
    if (rank == 0) {
      comm.send(1, {3.5f, 4.5f});
      const auto echo = comm.recv(1);
      EXPECT_EQ(echo.size(), 1u);
      EXPECT_FLOAT_EQ(echo[0], 8.0f);
    } else {
      const auto msg = comm.recv(0);
      comm.send(0, {msg[0] + msg[1]});
    }
  });
}

TEST(Broadcast, CopiesRootToAllRanks) {
  const int n = 4;
  std::vector<std::vector<float>> buffers(n);
  for (int r = 0; r < n; ++r) buffers[r] = {float(r), float(r * 10)};
  run_world(n, [&](int rank, pd::Communicator& comm) {
    comm.broadcast(buffers[rank].data(), 2, /*root=*/2);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_FLOAT_EQ(buffers[r][0], 2.0f);
    EXPECT_FLOAT_EQ(buffers[r][1], 20.0f);
  }
}

namespace {
/// Reduces `contributions` with the canonical-tree allreduce on
/// `world_size` rank threads, each holding a contiguous block of them;
/// returns every rank's result.
std::vector<std::vector<float>> tree_reduce(
    const std::vector<std::vector<float>>& contributions, int world_size) {
  const std::size_t per_rank = contributions.size() / world_size;
  std::vector<std::vector<std::vector<float>>> leaves(world_size);
  for (int r = 0; r < world_size; ++r) {
    leaves[r].assign(contributions.begin() + r * per_rank,
                     contributions.begin() + (r + 1) * per_rank);
  }
  run_world(world_size, [&](int rank, pd::Communicator& comm) {
    comm.tree_allreduce_sum(leaves[rank]);
  });
  std::vector<std::vector<float>> results;
  for (auto& rank_leaves : leaves) results.push_back(rank_leaves[0]);
  return results;
}
}  // namespace

// Property: for one fixed set of 840 contributions (divisible by every
// world size 1-8), the tree allreduce matches the per-element sum, agrees
// BITWISE on every rank, and agrees BITWISE with the single-rank fold —
// the summation order depends only on the contribution count. The fleet
// trainer's world-size invariance rests on this.
class AllreduceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllreduceSweep, BitIdenticalAcrossRanksAndWorldSizes) {
  const auto [world_size, count] = GetParam();
  constexpr int kContributions = 840;
  std::vector<std::vector<float>> contributions(kContributions);
  std::vector<double> expected(count, 0.0);
  polarice::util::Rng rng(1234 + count);
  for (auto& c : contributions) {
    c.resize(count);
    for (int i = 0; i < count; ++i) {
      c[i] = static_cast<float>(rng.uniform(-1, 1));
      expected[i] += c[i];
    }
  }
  const auto single = tree_reduce(contributions, 1)[0];
  const auto results = tree_reduce(contributions, world_size);
  for (int r = 0; r < world_size; ++r) {
    EXPECT_EQ(results[r], single) << "rank " << r;
  }
  for (int i = 0; i < count; ++i) {
    ASSERT_NEAR(single[i], expected[i], 1e-3) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndSizes, AllreduceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1, 7, 64, 1000)));

// The tree's shape is fixed: node [lo, hi) splits at lo + (hi - lo) / 2
// and sums left + right. With contributions {1, 1e8, -1e8} that is
// 1 + (1e8 + -1e8) = 1, where a left-to-right sum would round to 0.
TEST(TreeAllreduce, SplitsEveryNodeAtItsMidpoint) {
  const std::vector<std::vector<float>> three{{1.0f}, {1e8f}, {-1e8f}};
  for (const int world_size : {1, 3}) {
    for (const auto& result : tree_reduce(three, world_size)) {
      EXPECT_EQ(result[0], 1.0f) << "world " << world_size;
    }
  }
  // Six leaves: (l0 + (l1 + l2)) + (l3 + (l4 + l5)).
  const std::vector<std::vector<float>> six{{1.0f},  {1e8f}, {-1e8f},
                                            {2.0f}, {1e8f}, {-1e8f}};
  for (const int world_size : {1, 2, 3, 6}) {
    for (const auto& result : tree_reduce(six, world_size)) {
      EXPECT_EQ(result[0], 3.0f) << "world " << world_size;
    }
  }
}

TEST(TreeAllreduce, ValidatesShape) {
  run_world(1, [](int, pd::Communicator& comm) {
    std::vector<std::vector<float>> none;
    EXPECT_THROW(comm.tree_allreduce_sum(none), std::invalid_argument);
    std::vector<std::vector<float>> ragged{{1.0f, 2.0f}, {3.0f}};
    EXPECT_THROW(comm.tree_allreduce_sum(ragged), std::invalid_argument);
  });
}

TEST(DeviceModel, ReproducesTable3Shape) {
  pd::DeviceModelConfig cfg;  // defaults = fit to the paper
  const auto t1 = pd::simulate_training(cfg, 1);
  EXPECT_NEAR(t1.epoch_s, 5.5, 0.01);
  EXPECT_NEAR(t1.images_per_s, 585.9, 5.0);
  EXPECT_NEAR(t1.total_s, 275.0, 10.0);  // paper: 280.72 (incl. warmup)
  const auto t8 = pd::simulate_training(cfg, 8);
  EXPECT_NEAR(t8.speedup, 7.21, 0.35);   // paper: 7.21x
  EXPECT_NEAR(t8.epoch_s, 0.79, 0.05);
  EXPECT_NEAR(t8.images_per_s, 4248.0, 300.0);
  // Near-linear but sub-ideal, monotone increasing speedup.
  double last = 0.0;
  for (const int gpus : {1, 2, 4, 6, 8}) {
    const auto t = pd::simulate_training(cfg, gpus);
    EXPECT_GT(t.speedup, last);
    EXPECT_LE(t.speedup, gpus + 1e-9);
    last = t.speedup;
  }
}

TEST(DeviceModel, Validation) {
  pd::DeviceModelConfig cfg;
  cfg.epoch_1gpu_s = 0;
  EXPECT_THROW(pd::simulate_training(cfg, 1), std::invalid_argument);
  cfg = pd::DeviceModelConfig{};
  EXPECT_THROW(pd::simulate_training(cfg, 0), std::invalid_argument);
}
