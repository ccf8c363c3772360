#include "core/serve/shard/protocol.h"

namespace polarice::core::serve::shard {

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kShed:
      return "shed";
    case Outcome::kCancelled:
      return "cancelled";
    case Outcome::kFailed:
      return "failed";
  }
  return "?";
}

namespace {

Outcome decode_outcome(std::uint8_t value) {
  if (value > static_cast<std::uint8_t>(Outcome::kFailed)) {
    throw net::WireError("unknown outcome " + std::to_string(value));
  }
  return static_cast<Outcome>(value);
}

}  // namespace

void put_submit_options(net::WireWriter& writer, const SubmitOptions& options) {
  writer.put_u8(static_cast<std::uint8_t>(options.priority));
  writer.put_u8(options.deadline.has_value() ? 1 : 0);
  writer.put_i64(options.deadline ? options.deadline->count() : 0);
  writer.put_i32(options.max_retries);
  // v3: the fleet-wide trace id. 0 = unassigned (the receiver mints one).
  writer.put_u64(options.trace_id);
}

SubmitOptions get_submit_options(net::WireReader& reader) {
  SubmitOptions options;
  const std::uint8_t priority = reader.get_u8();
  switch (priority) {
    case 0:
      options.priority = Priority::kBatch;
      break;
    case 1:
      options.priority = Priority::kNormal;
      break;
    case 2:
      options.priority = Priority::kInteractive;
      break;
    default:
      throw net::WireError("unknown priority " + std::to_string(priority));
  }
  const std::uint8_t has_deadline = reader.get_u8();
  if (has_deadline > 1) throw net::WireError("bad deadline flag");
  const std::int64_t deadline_ns = reader.get_i64();
  if (has_deadline == 1) {
    if (deadline_ns < 0) throw net::WireError("negative deadline");
    options.deadline = std::chrono::nanoseconds(deadline_ns);
  }
  options.max_retries = reader.get_i32();
  if (options.max_retries < -1) throw net::WireError("max_retries < -1");
  options.trace_id = reader.get_u64();
  return options;
}

void put_stats(net::WireWriter& writer, const SceneServerStats& stats) {
  writer.put_u64(stats.session.scenes);
  writer.put_u64(stats.session.tiles);
  writer.put_f64(stats.session.busy_seconds);
  writer.put_f64(stats.session.wait_seconds);
  writer.put_u64(stats.session.peak_leases);
  writer.put_u64(stats.submitted);
  writer.put_u64(stats.completed);
  writer.put_u64(stats.cancelled);
  writer.put_u64(stats.failed);
  writer.put_u64(stats.rejected);
  writer.put_u64(stats.cache_hits);
  writer.put_u64(stats.cache_misses);
  writer.put_u64(stats.cache_evictions);
  writer.put_u64(stats.cache_warmed);
  writer.put_u64(stats.warm_hits);
  writer.put_u64(stats.cache_persisted);
  writer.put_u64(stats.cache_corrupt);
  writer.put_u64(stats.cache_stale);
  writer.put_u64(stats.degraded);
  writer.put_u64(stats.brownouts);
  writer.put_u8(stats.brownout_active ? 1 : 0);
  writer.put_u64(stats.coalesced);
  writer.put_u64(stats.batches);
  writer.put_u64(stats.cross_scene_batches);
  writer.put_u64(stats.peak_queue_depth);
  writer.put_u64(stats.shed);
  writer.put_u64(stats.batch_failures);
  writer.put_u64(stats.retries);
  writer.put_u64(stats.retried_tiles);
  writer.put_u64(stats.retry_exhausted);
  writer.put_u64(stats.replicas_quarantined);
  writer.put_u64(stats.replicas_rebuilt);
  writer.put_i32(stats.replicas);
  writer.put_i32(stats.peak_replicas);
}

SceneServerStats get_stats(net::WireReader& reader) {
  SceneServerStats stats;
  stats.session.scenes = reader.get_u64();
  stats.session.tiles = reader.get_u64();
  stats.session.busy_seconds = reader.get_f64();
  stats.session.wait_seconds = reader.get_f64();
  stats.session.peak_leases = reader.get_u64();
  stats.submitted = reader.get_u64();
  stats.completed = reader.get_u64();
  stats.cancelled = reader.get_u64();
  stats.failed = reader.get_u64();
  stats.rejected = reader.get_u64();
  stats.cache_hits = reader.get_u64();
  stats.cache_misses = reader.get_u64();
  stats.cache_evictions = reader.get_u64();
  stats.cache_warmed = reader.get_u64();
  stats.warm_hits = reader.get_u64();
  stats.cache_persisted = reader.get_u64();
  stats.cache_corrupt = reader.get_u64();
  stats.cache_stale = reader.get_u64();
  stats.degraded = reader.get_u64();
  stats.brownouts = reader.get_u64();
  const std::uint8_t brownout_active = reader.get_u8();
  if (brownout_active > 1) throw net::WireError("bad brownout flag");
  stats.brownout_active = brownout_active == 1;
  stats.coalesced = reader.get_u64();
  stats.batches = reader.get_u64();
  stats.cross_scene_batches = reader.get_u64();
  stats.peak_queue_depth = reader.get_u64();
  stats.shed = reader.get_u64();
  stats.batch_failures = reader.get_u64();
  stats.retries = reader.get_u64();
  stats.retried_tiles = reader.get_u64();
  stats.retry_exhausted = reader.get_u64();
  stats.replicas_quarantined = reader.get_u64();
  stats.replicas_rebuilt = reader.get_u64();
  stats.replicas = reader.get_i32();
  stats.peak_replicas = reader.get_i32();
  return stats;
}

std::vector<std::uint8_t> encode(const SubmitRequest& request) {
  net::WireWriter writer;
  writer.put_u64(request.request_id);
  put_submit_options(writer, request.options);
  net::put_image(writer, request.scene);
  return writer.take();
}

SubmitRequest decode_submit_request(const std::vector<std::uint8_t>& payload) {
  net::WireReader reader(payload);
  SubmitRequest request;
  request.request_id = reader.get_u64();
  request.options = get_submit_options(reader);
  request.scene = net::get_image_u8(reader);
  reader.expect_end();
  return request;
}

std::vector<std::uint8_t> encode(const SubmitResponse& response) {
  net::WireWriter writer;
  writer.put_u64(response.request_id);
  writer.put_u8(static_cast<std::uint8_t>(response.outcome));
  writer.put_u8(response.degraded ? 1 : 0);
  writer.put_string(response.error);
  net::put_image(writer, response.plane);
  return writer.take();
}

SubmitResponse decode_submit_response(
    const std::vector<std::uint8_t>& payload) {
  net::WireReader reader(payload);
  SubmitResponse response;
  response.request_id = reader.get_u64();
  response.outcome = decode_outcome(reader.get_u8());
  const std::uint8_t degraded = reader.get_u8();
  if (degraded > 1) throw net::WireError("bad degraded flag");
  response.degraded = degraded == 1;
  response.error = reader.get_string();
  response.plane = net::get_image_u8(reader);
  reader.expect_end();
  return response;
}

std::vector<std::uint8_t> encode(const HeartbeatResponse& response) {
  net::WireWriter writer;
  writer.put_u64(response.queue_depth);
  writer.put_u8(response.accepting ? 1 : 0);
  writer.put_f64(response.uptime_seconds);
  writer.put_u8(response.brownout_active ? 1 : 0);
  put_stats(writer, response.stats);
  return writer.take();
}

HeartbeatResponse decode_heartbeat_response(
    const std::vector<std::uint8_t>& payload) {
  net::WireReader reader(payload);
  HeartbeatResponse response;
  response.queue_depth = reader.get_u64();
  const std::uint8_t accepting = reader.get_u8();
  if (accepting > 1) throw net::WireError("bad accepting flag");
  response.accepting = accepting == 1;
  response.uptime_seconds = reader.get_f64();
  if (!(response.uptime_seconds >= 0.0)) {  // rejects NaN too
    throw net::WireError("negative uptime");
  }
  const std::uint8_t brownout = reader.get_u8();
  if (brownout > 1) throw net::WireError("bad brownout flag");
  response.brownout_active = brownout == 1;
  response.stats = get_stats(reader);
  reader.expect_end();
  return response;
}

std::vector<std::uint8_t> encode(const MetricsResponse& response) {
  net::WireWriter writer;
  writer.put_f64(response.uptime_seconds);
  writer.put_string(response.text);
  return writer.take();
}

MetricsResponse decode_metrics_response(
    const std::vector<std::uint8_t>& payload) {
  net::WireReader reader(payload);
  MetricsResponse response;
  response.uptime_seconds = reader.get_f64();
  if (!(response.uptime_seconds >= 0.0)) {
    throw net::WireError("negative uptime");
  }
  response.text = reader.get_string();
  reader.expect_end();
  return response;
}

}  // namespace polarice::core::serve::shard
