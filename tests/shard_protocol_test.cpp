// core/serve/shard/protocol.h — the shard protocol's message codecs over
// net/wire.h payloads: submit options, server stats, and the request /
// response / heartbeat / metrics messages. Round trips must be exact, and
// out-of-range fields must surface as a typed WireError, never invented
// state.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>

#include "core/serve/scene_server.h"
#include "core/serve/shard/protocol.h"
#include "img/image.h"
#include "net/wire.h"

namespace {

using namespace polarice::core::serve;
using namespace polarice::core::serve::shard;
using polarice::net::WireError;
using polarice::net::WireReader;
using polarice::net::WireWriter;

TEST(ShardProtocol, SubmitOptionsRoundTrip) {
  SubmitOptions options;
  options.priority = Priority::kInteractive;
  options.deadline = std::chrono::milliseconds(750);
  options.max_retries = 5;
  WireWriter writer;
  put_submit_options(writer, options);
  WireReader reader(writer.bytes());
  const auto back = get_submit_options(reader);
  reader.expect_end();
  EXPECT_EQ(back.priority, options.priority);
  ASSERT_TRUE(back.deadline.has_value());
  EXPECT_EQ(*back.deadline, *options.deadline);
  EXPECT_EQ(back.max_retries, 5);

  SubmitOptions no_deadline;
  WireWriter writer2;
  put_submit_options(writer2, no_deadline);
  WireReader reader2(writer2.bytes());
  EXPECT_FALSE(get_submit_options(reader2).deadline.has_value());
}

TEST(ShardProtocol, StatsRoundTrip) {
  SceneServerStats stats;
  stats.submitted = 101;
  stats.completed = 90;
  stats.shed = 4;
  stats.rejected = 7;
  stats.cache_hits = 33;
  stats.cache_warmed = 12;
  stats.warm_hits = 11;
  stats.cache_persisted = 29;
  stats.cache_corrupt = 2;
  stats.cache_stale = 1;
  stats.degraded = 5;
  stats.brownouts = 3;
  stats.brownout_active = true;
  stats.session.scenes = 90;
  stats.session.tiles = 1440;
  stats.session.busy_seconds = 1.25;
  stats.session.peak_leases = 3;

  WireWriter writer;
  put_stats(writer, stats);
  WireReader reader(writer.bytes());
  const auto back = get_stats(reader);
  reader.expect_end();
  EXPECT_EQ(back.submitted, 101u);
  EXPECT_EQ(back.completed, 90u);
  EXPECT_EQ(back.shed, 4u);
  EXPECT_EQ(back.rejected, 7u);
  EXPECT_EQ(back.cache_hits, 33u);
  EXPECT_EQ(back.cache_warmed, 12u);
  EXPECT_EQ(back.warm_hits, 11u);
  EXPECT_EQ(back.cache_persisted, 29u);
  EXPECT_EQ(back.cache_corrupt, 2u);
  EXPECT_EQ(back.cache_stale, 1u);
  EXPECT_EQ(back.degraded, 5u);
  EXPECT_EQ(back.brownouts, 3u);
  EXPECT_TRUE(back.brownout_active);
  EXPECT_EQ(back.session.scenes, 90u);
  EXPECT_EQ(back.session.tiles, 1440u);
  EXPECT_DOUBLE_EQ(back.session.busy_seconds, 1.25);
  EXPECT_EQ(back.session.peak_leases, 3u);
}

// The v2 wire additions: SubmitResponse's degraded flag round-trips, and a
// decoder rejects out-of-range flag bytes instead of inventing state.
TEST(ShardProtocol, SubmitResponseDegradedFlagRoundTrip) {
  SubmitResponse response;
  response.request_id = 77;
  response.outcome = Outcome::kOk;
  response.plane = polarice::img::ImageU8(6, 4, 1);
  for (std::size_t i = 0; i < response.plane.size(); ++i) {
    response.plane.data()[i] = static_cast<std::uint8_t>(i * 37);
  }
  response.degraded = true;

  const auto back = decode_submit_response(encode(response));
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.outcome, Outcome::kOk);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.plane, response.plane);

  response.degraded = false;
  EXPECT_FALSE(decode_submit_response(encode(response)).degraded);
}

// The v3 wire additions: tracing and the metrics scrape path.
TEST(ShardProtocol, SubmitOptionsTraceIdRoundTrip) {
  SubmitOptions options;
  options.trace_id = 0x0123456789ABCDEFull;
  WireWriter writer;
  put_submit_options(writer, options);
  WireReader reader(writer.bytes());
  EXPECT_EQ(get_submit_options(reader).trace_id, 0x0123456789ABCDEFull);
  reader.expect_end();

  // 0 is the "unassigned, mint me one" sentinel and must survive as-is.
  SubmitOptions unassigned;
  WireWriter writer2;
  put_submit_options(writer2, unassigned);
  WireReader reader2(writer2.bytes());
  EXPECT_EQ(get_submit_options(reader2).trace_id, 0u);
}

TEST(ShardProtocol, HeartbeatResponseUptimeAndBrownoutRoundTrip) {
  HeartbeatResponse response;
  response.queue_depth = 9;
  response.accepting = true;
  response.uptime_seconds = 123.5;
  response.brownout_active = true;
  response.stats.completed = 40;

  const auto back = decode_heartbeat_response(encode(response));
  EXPECT_EQ(back.queue_depth, 9u);
  EXPECT_TRUE(back.accepting);
  EXPECT_DOUBLE_EQ(back.uptime_seconds, 123.5);
  EXPECT_TRUE(back.brownout_active);
  EXPECT_EQ(back.stats.completed, 40u);

  response.brownout_active = false;
  response.uptime_seconds = 0.0;  // a just-born worker is legal
  const auto young = decode_heartbeat_response(encode(response));
  EXPECT_FALSE(young.brownout_active);
  EXPECT_DOUBLE_EQ(young.uptime_seconds, 0.0);
}

TEST(ShardProtocol, HeartbeatResponseRejectsNegativeOrNaNUptime) {
  HeartbeatResponse response;
  response.uptime_seconds = -1.0;
  EXPECT_THROW((void)decode_heartbeat_response(encode(response)),
               WireError);
  response.uptime_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)decode_heartbeat_response(encode(response)),
               WireError);
}

TEST(ShardProtocol, MetricsResponseRoundTrip) {
  MetricsResponse response;
  response.uptime_seconds = 42.25;
  response.text =
      "serve_completed_total 7\nserve_e2e_seconds_bucket{le=\"+Inf\"} 7\n";

  const auto back = decode_metrics_response(encode(response));
  EXPECT_DOUBLE_EQ(back.uptime_seconds, 42.25);
  EXPECT_EQ(back.text, response.text);

  response.uptime_seconds = -0.5;
  EXPECT_THROW((void)decode_metrics_response(encode(response)),
               WireError);
}

}  // namespace
