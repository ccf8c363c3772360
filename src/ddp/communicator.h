#pragma once
// Communicators for the Horovod substitute: N ranks exchanging float
// buffers, either over in-process mailbox channels (one rank == one
// thread; the deterministic reference) or over the net/ socket mesh (one
// rank == one process; the production fleet, ddp/socket_communicator.h).
//
// The collectives live in the abstract base over virtual send/recv, so the
// arithmetic — including float summation order — is identical on every
// transport: a socket fleet's result is bit-compared against the thread
// path in tests.
//
//   * tree_allreduce_sum: one canonical binary tree over every per-sample
//     contribution of the global batch, whatever the world size. Each rank
//     folds the tree nodes that lie wholly inside its contiguous block,
//     sends their sums to rank 0, and rank 0 evaluates the rest of the
//     same tree. The summation order depends only on the total number of
//     contributions, so results are bit-identical across ranks AND across
//     world sizes. The fleet trainer rests on this: a 6-rank run
//     reproduces a single-rank run bit for bit.
//   * broadcast: ring pipeline from `root`.
//
// Every blocking path takes its deadline from an injectable util::Clock
// (CollectiveOptions) and surfaces CollectiveTimeout/PeerLost (errors.h)
// instead of blocking forever. Waiting stays on real condition variables /
// poll ticks; a frozen VirtualClock never wedges a thread, it just decides
// when the deadline has arrived.

#include <condition_variable>
#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ddp/errors.h"
#include "util/virtual_clock.h"

namespace polarice::ddp {

/// Timing policy for one communicator: which clock decides deadlines and
/// how long any single collective may run before it fails typed.
struct CollectiveOptions {
  const util::Clock* clock = nullptr;  // nullptr = util::system_clock()
  std::chrono::milliseconds timeout{30000};  // per collective call

  [[nodiscard]] const util::Clock& resolved_clock() const noexcept {
    return clock != nullptr ? *clock : util::system_clock();
  }
};

/// Blocking FIFO mailbox for one directed rank pair (thread path). recv
/// waits on a condvar in short real-time ticks and checks the caller's
/// clock against the deadline, so a stuck sender surfaces
/// CollectiveTimeout instead of deadlocking the world.
class Channel {
 public:
  void send(std::vector<float> message);

  /// Blocks until a message arrives or `deadline` passes on `clock`
  /// (throws CollectiveTimeout). No deadline = wait indefinitely (only for
  /// tests that control both endpoints).
  std::vector<float> recv(
      std::optional<util::Clock::time_point> deadline = {},
      const util::Clock* clock = nullptr);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::vector<float>> queue_;
};

/// Shared state of one thread-communicator world (create once, hand to all
/// rank threads).
class World {
 public:
  explicit World(int size, const util::Clock* clock = nullptr);

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] const util::Clock& clock() const noexcept { return *clock_; }
  [[nodiscard]] Channel& channel(int from, int to);

 private:
  int size_;
  const util::Clock* clock_;
  std::vector<std::unique_ptr<Channel>> channels_;  // size x size mesh
};

/// Transport-agnostic per-rank handle. The collectives are implemented
/// here over the virtual point-to-point primitives so every transport
/// produces bit-identical arithmetic.
class Communicator {
 public:
  virtual ~Communicator() = default;

  [[nodiscard]] virtual int rank() const noexcept = 0;
  [[nodiscard]] virtual int world_size() const noexcept = 0;

  /// Point-to-point, deadline-enforced. Implementations surface
  /// CollectiveTimeout past `deadline` and PeerLost on a dead/garbling
  /// peer.
  virtual void send(int to, std::vector<float> message,
                    util::Clock::time_point deadline) = 0;
  [[nodiscard]] virtual std::vector<float> recv(
      int from, util::Clock::time_point deadline) = 0;

  // Convenience forms: one fresh per-collective deadline from the options.
  void send(int to, std::vector<float> message) {
    send(to, std::move(message), collective_deadline());
  }
  [[nodiscard]] std::vector<float> recv(int from) {
    return recv(from, collective_deadline());
  }

  /// Canonical-tree allreduce (sum) over B = leaves.size() x world_size
  /// contributions: rank r passes the equal-length buffers of
  /// contributions [r*b, (r+1)*b), b = leaves.size(), the same b on every
  /// rank. Tree node [lo, hi) splits at lo + (hi - lo) / 2 and sums
  /// left + right. On return leaves[0] holds the total on every rank
  /// (bit-identical across ranks and world sizes); the other leaves are
  /// clobbered. Only rank 0 receives during the gather, so no exchange can
  /// deadlock on transport backpressure.
  void tree_allreduce_sum(std::vector<std::vector<float>>& leaves);

  /// Copies `data` from `root` to every rank (ring pipeline).
  void broadcast(float* data, std::size_t count, int root);

  [[nodiscard]] const CollectiveOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const util::Clock& clock() const noexcept {
    return options_.resolved_clock();
  }
  [[nodiscard]] util::Clock::time_point collective_deadline() const noexcept {
    return clock().now() + options_.timeout;
  }

 protected:
  explicit Communicator(CollectiveOptions options) : options_(options) {}

 private:
  CollectiveOptions options_;
};

/// Thread-path communicator: one rank == one thread of this process,
/// messages move through the World's mailbox mesh. The deterministic
/// reference the socket path is bit-compared against.
class ThreadCommunicator final : public Communicator {
 public:
  ThreadCommunicator(std::shared_ptr<World> world, int rank,
                     CollectiveOptions options = {});

  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int world_size() const noexcept override {
    return world_->size();
  }

  void send(int to, std::vector<float> message,
            util::Clock::time_point deadline) override;
  [[nodiscard]] std::vector<float> recv(
      int from, util::Clock::time_point deadline) override;

  using Communicator::recv;
  using Communicator::send;

 private:
  std::shared_ptr<World> world_;
  int rank_;
};

}  // namespace polarice::ddp
