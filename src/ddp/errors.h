#pragma once
// Typed failures of the distributed-training tier.
//
// Every collective path (thread mailboxes and socket mesh alike) enforces a
// per-collective deadline on an injectable util::Clock and surfaces one of
// these instead of blocking forever — a dead or wedged rank fails the step
// loudly so the fleet can tear down, roll back to the last durable
// checkpoint, and rejoin.

#include <stdexcept>
#include <string>

namespace polarice::ddp {

/// Base of all collective failures. Catching this is the rejoin trigger:
/// anything deriving from it means "this step did not complete on every
/// rank" and the only safe continuation is rollback + re-rendezvous.
class CollectiveError : public std::runtime_error {
 public:
  explicit CollectiveError(const std::string& why)
      : std::runtime_error("collective error: " + why) {}
};

/// A send/recv ran past its deadline (per the configured clock).
/// The peer may be alive but wedged, or simply slow past the budget —
/// either way the step is void.
class CollectiveTimeout : public CollectiveError {
 public:
  explicit CollectiveTimeout(const std::string& what)
      : CollectiveError("timed out: " + what) {}
};

/// A peer is gone or talking garbage: connection reset/EOF mid-frame, a
/// corrupt or out-of-sequence frame, or a rendezvous hello that names the
/// wrong rank/world/config.
class PeerLost : public CollectiveError {
 public:
  explicit PeerLost(const std::string& what)
      : CollectiveError("peer lost: " + what) {}
};

}  // namespace polarice::ddp
