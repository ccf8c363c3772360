#include "ddp/communicator.h"

#include <cstring>
#include <stdexcept>

namespace polarice::ddp {

namespace {
// Real-time re-check tick for condvar waits: short enough that a test
// advancing a VirtualClock past a deadline is observed promptly, long
// enough not to burn a core.
constexpr std::chrono::milliseconds kWaitTick{1};

struct TreeNode {
  std::size_t lo, hi;
};

/// Appends, left to right, the maximal nodes of the canonical tree under
/// [lo, hi) that lie wholly inside the block [first, last).
void block_nodes(std::size_t lo, std::size_t hi, std::size_t first,
                 std::size_t last, std::vector<TreeNode>& out) {
  if (hi <= first || last <= lo) return;
  if (first <= lo && hi <= last) {
    out.push_back({lo, hi});
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  block_nodes(lo, mid, first, last, out);
  block_nodes(mid, hi, first, last, out);
}

/// Sums canonical-tree node [lo, hi) into slots[lo] in place: the node
/// splits at lo + (hi - lo) / 2 and its sum is always left + right. The
/// recursion stops at nodes for which `ready(lo, hi)` holds — their slot
/// already carries the node's sum. Ranks fold their own blocks and rank 0
/// folds across blocks with this one recursion, so the summation order
/// depends on nothing but the leaf count.
template <typename Ready>
void fold_tree(const std::vector<float*>& slots, std::size_t count,
               std::size_t lo, std::size_t hi, const Ready& ready) {
  if (ready(lo, hi)) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  fold_tree(slots, count, lo, mid, ready);
  fold_tree(slots, count, mid, hi, ready);
  float* left = slots[lo];
  const float* right = slots[mid];
  for (std::size_t i = 0; i < count; ++i) left[i] += right[i];
}
}  // namespace

void Channel::send(std::vector<float> message) {
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(message));
  }
  cv_.notify_one();
}

std::vector<float> Channel::recv(
    std::optional<util::Clock::time_point> deadline,
    const util::Clock* clock) {
  const util::Clock& clk = clock != nullptr ? *clock : util::system_clock();
  std::unique_lock lock(mutex_);
  while (queue_.empty()) {
    if (deadline && clk.now() >= *deadline) {
      throw CollectiveTimeout("Channel::recv");
    }
    // Tick-wait: the deadline verdict belongs to the injectable clock, the
    // condvar only naps between re-checks.
    cv_.wait_for(lock, kWaitTick);
  }
  std::vector<float> message = std::move(queue_.front());
  queue_.pop_front();
  return message;
}

World::World(int size, const util::Clock* clock)
    : size_(size),
      clock_(clock != nullptr ? clock : &util::system_clock()) {
  if (size < 1) throw std::invalid_argument("World: size must be >= 1");
  channels_.resize(static_cast<std::size_t>(size) * size);
  for (auto& ch : channels_) ch = std::make_unique<Channel>();
}

Channel& World::channel(int from, int to) {
  if (from < 0 || from >= size_ || to < 0 || to >= size_) {
    throw std::out_of_range("World::channel: bad rank");
  }
  return *channels_[static_cast<std::size_t>(from) * size_ + to];
}

// ---------------------------------------------------------------------------
// Collectives (transport-agnostic; summation order fixed by construction)
// ---------------------------------------------------------------------------

void Communicator::tree_allreduce_sum(std::vector<std::vector<float>>& leaves) {
  if (leaves.empty()) {
    throw std::invalid_argument("tree_allreduce_sum: no contributions");
  }
  const std::size_t count = leaves[0].size();
  for (const auto& leaf : leaves) {
    if (leaf.size() != count) {
      throw std::invalid_argument("tree_allreduce_sum: ragged buffers");
    }
  }
  const std::size_t n = static_cast<std::size_t>(world_size());
  const std::size_t self = static_cast<std::size_t>(rank());
  const std::size_t per_rank = leaves.size();
  const std::size_t total = per_rank * n;
  const auto deadline = collective_deadline();

  // slots[i] addresses contribution i's buffer; a folded node's sum lands
  // in the slot of its first leaf.
  std::vector<float*> slots(total, nullptr);
  for (std::size_t j = 0; j < per_rank; ++j) {
    slots[self * per_rank + j] = leaves[j].data();
  }
  std::vector<TreeNode> nodes;
  block_nodes(0, total, self * per_rank, (self + 1) * per_rank, nodes);
  const auto is_leaf = [](std::size_t lo, std::size_t hi) {
    return hi - lo == 1;
  };
  for (const TreeNode& node : nodes) {
    fold_tree(slots, count, node.lo, node.hi, is_leaf);
  }

  if (self != 0) {
    std::vector<float> message;
    message.reserve(nodes.size() * count);
    for (const TreeNode& node : nodes) {
      message.insert(message.end(), slots[node.lo], slots[node.lo] + count);
    }
    send(0, std::move(message), deadline);
  } else {
    std::vector<std::vector<float>> gathered(n);
    for (std::size_t peer = 1; peer < n; ++peer) {
      nodes.clear();
      block_nodes(0, total, peer * per_rank, (peer + 1) * per_rank, nodes);
      gathered[peer] = recv(static_cast<int>(peer), deadline);
      if (gathered[peer].size() != nodes.size() * count) {
        throw PeerLost("tree_allreduce: node sums size mismatch");
      }
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        slots[nodes[k].lo] = gathered[peer].data() + k * count;
      }
    }
    // Every node inside one rank's block is already summed.
    fold_tree(slots, count, 0, total, [per_rank](std::size_t lo,
                                                 std::size_t hi) {
      return lo / per_rank == (hi - 1) / per_rank;
    });
  }
  broadcast(leaves[0].data(), count, /*root=*/0);
}

void Communicator::broadcast(float* data, std::size_t count, int root) {
  const int n = world_size();
  if (n == 1 || count == 0) return;
  if (root < 0 || root >= n) {
    throw std::out_of_range("broadcast: bad root");
  }
  const int self = rank();
  const int right = (self + 1) % n;
  const int left = (self - 1 + n) % n;
  const auto deadline = collective_deadline();
  // Ring pipeline: root sends to its right neighbour; everyone except the
  // rank left of root forwards.
  if (self == root) {
    send(right, std::vector<float>(data, data + count), deadline);
  } else {
    std::vector<float> incoming = recv(left, deadline);
    if (incoming.size() != count) {
      throw PeerLost("broadcast: size mismatch");
    }
    std::memcpy(data, incoming.data(), count * sizeof(float));
    if (right != root) send(right, std::move(incoming), deadline);
  }
}

// ---------------------------------------------------------------------------
// Thread path
// ---------------------------------------------------------------------------

ThreadCommunicator::ThreadCommunicator(std::shared_ptr<World> world, int rank,
                                       CollectiveOptions options)
    : Communicator(options), world_(std::move(world)), rank_(rank) {
  if (rank < 0 || rank >= world_->size()) {
    throw std::out_of_range("ThreadCommunicator: bad rank");
  }
}

void ThreadCommunicator::send(int to, std::vector<float> message,
                              util::Clock::time_point /*deadline*/) {
  // Mailboxes are unbounded; send never blocks on the thread path.
  world_->channel(rank_, to).send(std::move(message));
}

std::vector<float> ThreadCommunicator::recv(int from,
                                            util::Clock::time_point deadline) {
  return world_->channel(from, rank_).recv(deadline, &clock());
}

}  // namespace polarice::ddp
