#pragma once
// Shard protocol — the message vocabulary between ShardRouter and
// ShardWorker, expressed over net/wire.h frames.
//
// Connections are sequential request/response streams: the sender writes
// one request frame and reads exactly one response frame. Concurrency
// comes from having many connections (the router pools them per shard),
// not from multiplexing — which keeps both ends free of correlation
// machinery while the SceneServer behind each worker still batches across
// connections.
//
//   kSubmitRequest    { request_id, SubmitOptions, scene plane }
//   kSubmitResponse   { request_id, Outcome, error text | result plane }
//   kHeartbeatRequest {}
//   kHeartbeatResponse{ queue_depth, accepting flag, uptime, brownout flag,
//                       SceneServerStats }
//   kShutdownRequest  {} -> kShutdownResponse {}
//   kMetricsRequest   {} -> kMetricsResponse { uptime, text exposition }
//
// Outcome mirrors the ticket resolutions of the local SceneServer so the
// router can rethrow the same exception types callers already handle
// (AdmissionRejected, DeadlineExceeded, par::OperationCancelled, plain
// failure) — remote and local serving stay drop-in interchangeable.

#include <cstdint>
#include <string>
#include <vector>

#include "core/serve/scene_server.h"
#include "img/image.h"
#include "net/wire.h"

namespace polarice::core::serve::shard {

/// Resolution of one remote submission.
enum class Outcome : std::uint8_t {
  kOk = 0,         // plane attached
  kRejected = 1,   // AdmissionRejected at the worker's front door
  kShed = 2,       // DeadlineExceeded (SLO shed)
  kCancelled = 3,  // par::OperationCancelled
  kFailed = 4,     // any other error (text attached)
};

[[nodiscard]] const char* to_string(Outcome outcome) noexcept;

struct SubmitRequest {
  std::uint64_t request_id = 0;
  SubmitOptions options;
  img::ImageU8 scene;
};

struct SubmitResponse {
  std::uint64_t request_id = 0;
  Outcome outcome = Outcome::kFailed;
  std::string error;      // non-ok outcomes: human-readable cause
  img::ImageU8 plane;     // kOk only
  bool degraded = false;  // kOk only: plane produced in brownout mode
};

struct HeartbeatResponse {
  std::uint64_t queue_depth = 0;  // scenes awaiting the scheduler
  bool accepting = true;          // false once shutdown began
  // Seconds since this worker process constructed its ShardWorker, on its
  // monotonic clock. A rejoining shard whose uptime went *backwards* was
  // restarted (fresh process), not merely recovered — the router's
  // quarantine-exit log line and polarice_stat both lean on this.
  double uptime_seconds = 0.0;
  bool brownout_active = false;  // degraded-mode flag at probe time
  SceneServerStats stats;
};

/// The metrics scrape's cargo: the worker's whole obs registry rendered in
/// the text exposition format (obs::render_text), plus enough identity to
/// label a fleet table without a second round-trip.
struct MetricsResponse {
  double uptime_seconds = 0.0;
  std::string text;
};

/// Submit options: priority class, optional relative deadline, retry
/// budget, trace id. The deadline travels as relative nanoseconds (applied
/// against the worker's clock at admission) so router and worker need no
/// shared epoch.
void put_submit_options(net::WireWriter& writer, const SubmitOptions& options);
[[nodiscard]] SubmitOptions get_submit_options(net::WireReader& reader);

/// Full SceneServerStats snapshot — the heartbeat's cargo.
void put_stats(net::WireWriter& writer, const SceneServerStats& stats);
[[nodiscard]] SceneServerStats get_stats(net::WireReader& reader);

[[nodiscard]] std::vector<std::uint8_t> encode(const SubmitRequest& request);
[[nodiscard]] SubmitRequest decode_submit_request(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode(const SubmitResponse& response);
[[nodiscard]] SubmitResponse decode_submit_response(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode(
    const HeartbeatResponse& response);
[[nodiscard]] HeartbeatResponse decode_heartbeat_response(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode(const MetricsResponse& response);
[[nodiscard]] MetricsResponse decode_metrics_response(
    const std::vector<std::uint8_t>& payload);

}  // namespace polarice::core::serve::shard
