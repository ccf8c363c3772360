#pragma once
// Socket-backed communicator: one training rank == one process, float
// buffers move as checksummed net/wire.h frames over the net/transport.h
// mesh (unix sockets by default, tcp for cross-host).
//
// Topology: a full mesh. Rank r binds a Listener on endpoints[r], dials
// every lower rank and accepts every higher one, then both sides exchange
// kTrainHello frames naming (rank, world, fingerprint). A hello that names
// the wrong world or a different config fingerprint is refused — a
// mis-wired or stale peer can never silently join. Establishment retries
// individual connections under one overall deadline, so ranks may start in
// any order.
//
// Data frames (kTrainChunk) carry a per-directed-pair sequence number.
// Because every rank executes the identical program order of collectives,
// each pair's frame stream is deterministic; a gap, dup, or unexpected
// type means the peer restarted or desynced and surfaces as PeerLost. Transport deadlines map to CollectiveTimeout. Either way the
// step fails loudly and the fleet can tear down, roll back to the last
// durable checkpoint, and re-rendezvous (ddp/fleet_trainer.h).
//
// The collectives themselves live in the Communicator base class, so a
// socket fleet's arithmetic — including float summation order — is
// bit-identical to the in-process ThreadCommunicator reference.

#include <cstdint>
#include <memory>
#include <vector>

#include "ddp/communicator.h"
#include "net/transport.h"

namespace polarice::ddp {

struct SocketCommunicatorConfig {
  int rank = 0;
  int world_size = 1;
  /// One address per rank; rank r listens on endpoints[r]. All ranks must
  /// agree on the full list.
  std::vector<net::Endpoint> endpoints;
  /// All ranks must present the same fingerprint (model config + seed
  /// hash); a mismatched hello is refused at rendezvous.
  std::uint64_t fingerprint = 0;
  /// Overall budget for mesh establishment (covers per-connection retries
  /// while peers are still launching).
  std::chrono::milliseconds establish_timeout{30000};
  CollectiveOptions collective;
};

class SocketCommunicator final : public Communicator {
 public:
  /// Binds, dials, accepts, and completes the hello exchange with every
  /// peer — blocks until the full mesh is up or the establish deadline
  /// passes (CollectiveTimeout) or a peer presents a bad hello (PeerLost).
  explicit SocketCommunicator(SocketCommunicatorConfig config);
  ~SocketCommunicator() override;

  SocketCommunicator(const SocketCommunicator&) = delete;
  SocketCommunicator& operator=(const SocketCommunicator&) = delete;

  [[nodiscard]] int rank() const noexcept override { return config_.rank; }
  [[nodiscard]] int world_size() const noexcept override {
    return config_.world_size;
  }

  void send(int to, std::vector<float> message,
            util::Clock::time_point deadline) override;
  [[nodiscard]] std::vector<float> recv(
      int from, util::Clock::time_point deadline) override;

  using Communicator::recv;
  using Communicator::send;

  /// Closes every connection and the listener. Subsequent collectives
  /// throw PeerLost. Idempotent; also runs on destruction.
  void teardown() noexcept;

 private:
  struct Peer {
    net::Connection connection;
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_recv_seq = 0;
  };

  void establish();
  [[nodiscard]] net::Connection& connection_to(int peer_rank);

  SocketCommunicatorConfig config_;
  net::Listener listener_;
  std::vector<Peer> peers_;  // indexed by rank; peers_[rank()] unused
};

}  // namespace polarice::ddp
