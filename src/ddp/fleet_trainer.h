#pragma once
// Fault-tolerant synchronous data-parallel training — the repo's one
// data-parallel trainer (paper §III.C.1, Table III), built to die and come
// back.
//
// One rank == one process (tools/polarice_trainer) joined over the
// SocketCommunicator mesh, or one thread over a shared World for the
// deterministic in-process reference (train_fleet below). Both run the
// identical per-rank program:
//
//   1. (Re)join: build a communicator via the injected factory, then sync
//      from rank 0 — rank 0 rolls back to the last durable checkpoint
//      (CheckpointStore) and broadcasts cursor + parameters + full Adam
//      state. Every join starts from durable, consistent state.
//   2. Step loop: each global batch is a contiguous block of a stateless
//      per-epoch permutation (seed+epoch → order, so the data cursor is
//      just (epoch, step)). Each rank computes per-sample gradients for
//      its slots and tree_allreduce_sum folds all of them along one
//      canonical tree over the global batch — one combined collective also
//      carrying the loss sum and a stop vote. Results are bit-identical
//      across world sizes AND across thread/socket transports.
//   3. Failure: any CollectiveTimeout/PeerLost tears the mesh down and
//      re-enters (1) under capped exponential backoff. A SIGKILLed rank is
//      relaunched by its supervisor, rejoins the rendezvous, and the fleet
//      resumes from the last checkpoint — bit-identical to a run that
//      never crashed, because every checkpoint lies on the uninterrupted
//      trajectory.
//
// Determinism requirement (validated): dropout disabled (per-replica mask
// streams would diverge across world sizes). Any world size and
// batch_per_device work: gradients are computed sample-at-a-time, so the
// summation tree over the global batch is independent of how ranks
// partition it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ddp/checkpoint.h"
#include "ddp/communicator.h"
#include "net/transport.h"
#include "nn/data.h"
#include "nn/unet.h"

namespace polarice::ddp {

struct FleetTrainConfig {
  nn::UNetConfig model;      // use_dropout must be false
  int world_size = 1;
  int epochs = 2;
  int batch_per_device = 2;  // global batch = this x world_size
  float learning_rate = 1e-3f;
  std::uint64_t seed = 7;    // epoch shuffles + config fingerprint
  /// Rank 0 writes a durable checkpoint when global_step is a multiple of
  /// this (plus one at join when none exists, and one on a stop vote).
  int checkpoint_every = 8;
  std::string checkpoint_dir;  // empty = no durability (benches only)
  /// Rejoin budget after a CollectiveError: attempts and capped backoff.
  int max_rejoins = 5;
  std::chrono::milliseconds rejoin_backoff{50};
  std::chrono::milliseconds rejoin_backoff_cap{2000};
  CollectiveOptions collective;

  /// Throws std::invalid_argument on violated invariants (dropout enabled,
  /// nonsense bounds).
  void validate() const;

  [[nodiscard]] int global_batch() const noexcept {
    return batch_per_device * world_size;
  }

  /// Identity of the training trajectory: model geometry, seed, global
  /// batch, learning rate. Deliberately excludes world_size (results are
  /// world-size invariant by construction) so a checkpoint written by a
  /// 6-rank fleet can resume a 4-rank one at the same global batch. Used for both the checkpoint
  /// store and the socket rendezvous hello.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

struct FleetTrainStats {
  std::int64_t steps = 0;           // optimizer steps applied by this rank
  std::int64_t global_step = 0;     // final cursor position
  std::int64_t rejoins = 0;         // CollectiveError → re-rendezvous cycles
  std::int64_t resumed_from = 0;    // highest checkpoint global_step any
                                    // join rolled back to (0 = fresh start,
                                    // never resumed)
  std::int64_t checkpoints_written = 0;  // rank 0 only
  std::int64_t checkpoint_corrupt = 0;   // corrupt files seen on load
  std::int64_t checkpoint_stale = 0;
  bool stopped = false;             // exited on a stop vote, not epoch end
  float final_loss = 0.0f;          // global mean loss of the last step
  double total_s = 0.0;
};

/// Builds a fresh communicator for one (re)join. Invoked once at start and
/// once per rejoin cycle; for the socket path each call re-runs the full
/// mesh rendezvous.
using CommunicatorFactory = std::function<std::unique_ptr<Communicator>()>;

/// Runs one rank of the fleet to completion (all epochs, a stop vote, or
/// rejoin budget exhausted — the last rethrows the final CollectiveError).
/// `model` is this rank's replica (constructed from config.model); on
/// return it holds the trained parameters, identical on every rank.
/// `stop` (optional) is the SIGTERM flag: when it flips, every rank votes
/// stop through the reduce, rank 0 writes a final checkpoint, and all
/// ranks exit cleanly without applying the pending step.
FleetTrainStats train_fleet_rank(nn::UNet& model, const nn::SegDataset& data,
                                 const FleetTrainConfig& config, int rank,
                                 const CommunicatorFactory& factory,
                                 const std::atomic<bool>* stop = nullptr,
                                 std::function<void(std::int64_t)> step_hook = {});

/// In-process reference: spawns config.world_size rank threads over one
/// shared World and returns rank 0's stats; `model` receives rank 0's
/// trained parameters. No rejoin (a shared World cannot re-rendezvous) —
/// a CollectiveError propagates.
FleetTrainStats train_fleet(nn::UNet& model, const nn::SegDataset& data,
                            const FleetTrainConfig& config);

/// Endpoint layout shared by the trainer tool, the drill harness, and the
/// tests: rank r listens on unix:<dir>/rank-<r>.sock.
[[nodiscard]] std::vector<net::Endpoint> fleet_endpoints(
    const std::string& dir, int world_size);

/// Deterministic synthetic segmentation data (same seed ⇒ same dataset in
/// every process) — how separate trainer processes agree on the data
/// without shipping scene files around in tests and drills.
[[nodiscard]] nn::SegDataset make_synthetic_dataset(int samples, int channels,
                                                    int height, int width,
                                                    int classes,
                                                    std::uint64_t seed);

}  // namespace polarice::ddp
