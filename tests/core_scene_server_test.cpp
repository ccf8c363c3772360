// SceneServer serving semantics: cross-scene batched and concurrently
// submitted results bit-compared against the serial InferenceWorkflow,
// ragged scenes against a serial pad/infer/stitch/crop reference, cache
// hit/miss/eviction behaviour, admission rejection under a full queue,
// cancellation, replica auto-scaling, shutdown drain, and stats consistency
// under concurrent submitters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "core/cloud_filter.h"
#include "core/serve/scene_server.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "img/ops.h"
#include "nn/unet.h"
#include "par/context.h"
#include "s2/scene.h"
#include "s2/tiles.h"

namespace pc = polarice::core;
namespace pv = polarice::core::serve;
namespace pp = polarice::par;
namespace ps = polarice::s2;
namespace pn = polarice::nn;
namespace pi = polarice::img;

using namespace std::chrono_literals;

namespace {

pn::UNet make_model() {
  pn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 6;
  cfg.use_dropout = false;
  cfg.seed = 88;
  // Untrained weights: deterministic init is all bit-identity tests need.
  return pn::UNet(cfg);
}

pi::ImageU8 make_scene(std::uint64_t seed, int size = 128) {
  ps::SceneConfig sc;
  sc.width = sc.height = size;
  sc.seed = seed;
  sc.cloudy = true;
  return ps::SceneGenerator(sc).generate().rgb;
}

pv::SceneServerConfig server_config() {
  pv::SceneServerConfig cfg;
  cfg.tile_size = 64;
  cfg.batch_tiles = 3;  // deliberately not a divisor of the 4-tile scenes
  cfg.min_replicas = 1;
  cfg.max_replicas = 2;
  // Generous top-up wait: full batches flush immediately and the "no more
  // pending scenes" fast path flushes the tail, so this never stalls the
  // test — it only guarantees batches straddle scene boundaries.
  cfg.max_batch_wait = 5000ms;
  return cfg;
}

}  // namespace

TEST(SceneServer, CrossSceneBatchesBitIdenticalToSerialWorkflow) {
  pn::UNet model = make_model();
  constexpr int kScenes = 6;

  std::vector<pi::ImageU8> scenes, references;
  pc::InferenceWorkflow workflow(model, {}, 64);
  for (int i = 0; i < kScenes; ++i) {
    scenes.push_back(make_scene(9000 + static_cast<std::uint64_t>(i)));
    references.push_back(workflow.classify_scene(scenes.back()));
  }

  auto cfg = server_config();
  cfg.cache_bytes = 0;  // count every forwarded tile
  pv::SceneServer server(model, cfg);

  std::vector<pv::SceneTicket> tickets;
  for (const auto& scene : scenes) tickets.push_back(server.submit(scene.clone()));
  for (int i = 0; i < kScenes; ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].get(),
              references[static_cast<std::size_t>(i)])
        << "scene " << i;
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(kScenes));
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(kScenes));
  EXPECT_EQ(stats.session.scenes, static_cast<std::size_t>(kScenes));
  EXPECT_EQ(stats.session.tiles, static_cast<std::size_t>(kScenes) * 4);
  EXPECT_GT(stats.batches, 0u);
  // 4-tile scenes consumed in batches of 3 must straddle scene boundaries.
  EXPECT_GT(stats.cross_scene_batches, 0u);
  EXPECT_GT(stats.session.busy_seconds, 0.0);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(SceneServer, CacheHitSkipsForwardPassesAndReturnsIdenticalPlane) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  cfg.cache_bytes = 1 << 20;
  pv::SceneServer server(model, cfg);

  const auto scene = make_scene(4242);
  const auto first = server.classify_scene(scene);
  const auto after_first = server.stats();
  EXPECT_EQ(after_first.cache_misses, 1u);
  EXPECT_EQ(after_first.session.tiles, 4u);

  const auto second = server.classify_scene(scene);
  EXPECT_EQ(first, second);

  const auto stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  // Zero additional forward work: tile and batch counters are unchanged.
  EXPECT_EQ(stats.session.tiles, after_first.session.tiles);
  EXPECT_EQ(stats.batches, after_first.batches);
  EXPECT_EQ(stats.session.scenes, 1u);  // forward-path scenes only
  EXPECT_EQ(stats.completed, 2u);       // both tickets resolved
}

TEST(SceneServer, CacheEvictionUnderByteBudget) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  // Fits one 128x128 plane (16384 B + overhead), not two.
  cfg.cache_bytes = 20000;
  pv::SceneServer server(model, cfg);

  const auto scene_a = make_scene(1);
  const auto scene_b = make_scene(2);
  (void)server.classify_scene(scene_a);
  (void)server.classify_scene(scene_b);  // evicts A
  (void)server.classify_scene(scene_a);  // miss again -> forward again

  const auto stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.session.tiles, 12u);
}

TEST(SceneServer, AdmissionRejectsWhenQueueFull) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  cfg.admission.capacity = 1;
  cfg.admission.policy = pv::AdmissionPolicy::kReject;
  cfg.min_replicas = cfg.max_replicas = 1;
  pv::SceneServer server(model, cfg);

  // Gate the scheduler inside the first scene's prepare step so further
  // submissions pile up behind a deterministically full queue.
  std::binary_semaphore entered{0}, release{0};
  const pp::ExecutionContext gated;
  gated.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.prepare" && event.completed == 0) {
      entered.release();
      release.acquire();
    }
  });

  auto t1 = server.submit(make_scene(71), gated);
  entered.acquire();  // scheduler is now parked inside prepare
  auto t2 = server.submit(make_scene(72));  // fills the 1-slot queue
  EXPECT_THROW(server.submit(make_scene(73)), pv::AdmissionRejected);
  release.release();

  EXPECT_EQ(t1.get().width(), 128);
  EXPECT_EQ(t2.get().width(), 128);
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.peak_queue_depth, 1u);
  // Single replica: leases never overlap, and waiting is well-defined.
  EXPECT_EQ(stats.session.peak_leases, 1u);
  EXPECT_GE(stats.session.wait_seconds, 0.0);
}

TEST(SceneServer, CancellationResolvesTicketsAtPipelineBoundaries) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  cfg.min_replicas = cfg.max_replicas = 1;
  cfg.batch_tiles = 1;
  cfg.max_batch_wait = 0ms;
  pv::SceneServer server(model, cfg);

  // Pre-cancelled submitter context: resolved cancelled before any work.
  {
    const pp::ExecutionContext cancelled;
    cancelled.request_cancel();
    auto ticket = server.submit(make_scene(80), cancelled);
    EXPECT_THROW((void)ticket.get(), pp::OperationCancelled);
  }

  // Cancelled while queued: gate the scheduler on a first scene, cancel the
  // second before the gate opens.
  {
    std::binary_semaphore entered{0}, release{0};
    const pp::ExecutionContext gated;
    gated.set_progress_sink([&](const pp::ProgressEvent& event) {
      if (std::string(event.stage) == "serve.prepare" &&
          event.completed == 0) {
        entered.release();
        release.acquire();
      }
    });
    auto busy = server.submit(make_scene(81), gated);
    entered.acquire();
    auto doomed = server.submit(make_scene(82));
    doomed.cancel();
    release.release();
    EXPECT_THROW((void)doomed.get(), pp::OperationCancelled);
    EXPECT_NO_THROW((void)busy.get());
  }

  // Cancelled mid-inference: with one worker and one-tile batches the
  // remaining tiles are abandoned at the next batch boundary.
  {
    const pp::ExecutionContext ctx;
    ctx.set_progress_sink([&](const pp::ProgressEvent& event) {
      if (std::string(event.stage) == "serve.tiles" && event.completed == 1) {
        ctx.request_cancel();
      }
    });
    auto ticket = server.submit(make_scene(83), ctx);
    EXPECT_THROW((void)ticket.get(), pp::OperationCancelled);
  }

  // The server stays serviceable after cancellations.
  EXPECT_EQ(server.classify_scene(make_scene(84)).width(), 128);
  const auto stats = server.stats();
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.failed, 0u);

  // Per-ticket cancel is scoped to its scene: two tickets sharing one
  // submitter context — cancelling one never cancels its sibling (or the
  // shared context itself).
  {
    const pp::ExecutionContext shared_ctx;
    auto a = server.submit(make_scene(85), shared_ctx);
    auto b = server.submit(make_scene(86), shared_ctx);
    a.cancel();
    try {
      (void)a.get();  // may have finished before the cancel landed
    } catch (const pp::OperationCancelled&) {
    }
    EXPECT_NO_THROW((void)b.get());
    EXPECT_FALSE(shared_ctx.cancelled());
  }
}

TEST(SceneServer, PadsRaggedScenesLikeSerialReference) {
  pn::UNet model = make_model();
  const auto full = make_scene(55, 128);
  // Crop to a ragged 100x72 — not a multiple of 64 on either axis.
  const auto ragged = pi::crop(full, 0, 0, 100, 72);

  // Serial reference, Fig 9 order: filter the whole scene, edge-pad the
  // filtered imagery to the tile grid, infer, stitch, crop back.
  const auto filtered = pc::CloudShadowFilter().apply(ragged);
  const auto padded = pi::pad_edge(filtered, 128, 128);
  const auto tiles = pc::infer_scene_tiles(model, padded, 64,
                                           /*batch_tiles=*/8, {});
  const auto reference =
      pi::crop(ps::stitch_labels(tiles, 2, 2), 0, 0, 100, 72);

  auto cfg = server_config();
  pv::SceneServer server(model, cfg);
  const auto labels = server.classify_scene(ragged);
  EXPECT_EQ(labels.width(), 100);
  EXPECT_EQ(labels.height(), 72);
  EXPECT_EQ(labels.channels(), 1);
  EXPECT_EQ(labels, reference);
  EXPECT_EQ(server.stats().session.tiles, 4u);  // padding tiles included

  pi::ImageU8 gray(64, 64, 1);
  EXPECT_THROW((void)server.submit(gray.clone()), std::invalid_argument);
}

TEST(SceneServer, ReplicaAutoScalingGrowsUnderBacklogAndShrinksWhenIdle) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  cfg.min_replicas = 1;
  cfg.max_replicas = 3;
  cfg.batch_tiles = 2;
  cfg.max_batch_wait = 0ms;  // keep workers hungry
  cfg.cache_bytes = 0;
  cfg.scale_down_idle = 50ms;
  pv::SceneServer server(model, cfg);

  constexpr int kScenes = 8;
  std::vector<pi::ImageU8> scenes, references;
  pc::InferenceWorkflow workflow(model, {}, 64);
  for (int i = 0; i < kScenes; ++i) {
    scenes.push_back(make_scene(500 + static_cast<std::uint64_t>(i)));
    references.push_back(workflow.classify_scene(scenes.back()));
  }

  std::vector<pv::SceneTicket> tickets;
  for (const auto& scene : scenes) tickets.push_back(server.submit(scene.clone()));
  for (int i = 0; i < kScenes; ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].get(),
              references[static_cast<std::size_t>(i)])
        << "scene " << i;
  }

  auto stats = server.stats();
  EXPECT_GE(stats.peak_replicas, 2);   // backlog forced a scale-up
  EXPECT_LE(stats.peak_replicas, 3);
  EXPECT_LE(stats.session.peak_leases, 3u);

  // Idle scale-down retires replicas back to the warm floor.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.stats().replicas > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(server.stats().replicas, 1);
}

TEST(SceneServer, StatsConsistentUnderConcurrentSubmitters) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  cfg.max_batch_wait = 2ms;
  cfg.admission.capacity = 64;
  pv::SceneServer server(model, cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<pi::ImageU8> scenes, references;
  pc::InferenceWorkflow workflow(model, {}, 64);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    scenes.push_back(make_scene(7000 + static_cast<std::uint64_t>(i)));
    references.push_back(workflow.classify_scene(scenes.back()));
  }

  std::vector<pi::ImageU8> results(scenes.size());
  {
    std::vector<std::jthread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const auto k = static_cast<std::size_t>(t * kPerThread + i);
          results[k] = server.submit(scenes[k].clone()).get();
        }
      });
    }
  }
  for (std::size_t k = 0; k < scenes.size(); ++k) {
    EXPECT_EQ(results[k], references[k]) << "scene " << k;
  }

  const auto stats = server.stats();
  const auto total = static_cast<std::size_t>(kThreads * kPerThread);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.cache_hits, 0u);  // all scenes distinct
  EXPECT_EQ(stats.cache_misses, total);
  EXPECT_EQ(stats.session.scenes, total);
  EXPECT_EQ(stats.session.tiles, total * 4);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.peak_queue_depth, cfg.admission.capacity);
  EXPECT_GE(stats.session.wait_seconds, 0.0);
  EXPECT_GE(stats.session.peak_leases, 1u);
  EXPECT_LE(stats.session.peak_leases,
            static_cast<std::size_t>(cfg.max_replicas));
  EXPECT_GE(stats.batches, stats.cross_scene_batches);
}

// Satellite regression for the single-lock snapshot(): a poller hammers
// snapshot() while submitters run, and every observation must be
// internally consistent — no torn reads where completed outruns
// submitted, and no counter ever moving backwards between snapshots.
TEST(SceneServer, SnapshotNeverTearsUnderConcurrentSubmitters) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  cfg.max_batch_wait = 2ms;
  pv::SceneServer server(model, cfg);

  std::atomic<bool> done{false};
  std::vector<std::string> violations;
  std::jthread poller([&] {
    pv::SceneServerStats prev;
    std::size_t polls = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto s = server.snapshot();
      ++polls;
      if (s.completed + s.cancelled + s.failed > s.submitted) {
        violations.push_back("resolved > submitted at poll " +
                             std::to_string(polls));
      }
      if (s.cross_scene_batches > s.batches) {
        violations.push_back("cross_scene_batches > batches");
      }
      // Cumulative counters only move forward.
      if (s.submitted < prev.submitted || s.completed < prev.completed ||
          s.cache_hits < prev.cache_hits ||
          s.cache_misses < prev.cache_misses || s.batches < prev.batches ||
          s.session.scenes < prev.session.scenes ||
          s.session.tiles < prev.session.tiles) {
        violations.push_back("counter went backwards at poll " +
                             std::to_string(polls));
      }
      prev = s;
      if (violations.size() > 8) return;  // enough evidence
    }
  });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  std::atomic<int> ok{0};
  std::atomic<int> contract_breaks{0};  // poller owns `violations`
  {
    std::vector<std::jthread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          // Half the seeds repeat across threads: cache hits and
          // single-flight coalescing run concurrently with the poller too.
          const auto seed = static_cast<std::uint64_t>(
              (i % 2 == 0) ? 7100 + i : 7200 + t * kPerThread + i);
          auto ticket = server.submit(make_scene(seed));
          if (ticket.get().width() == 128) ok.fetch_add(1);
          // The snapshot contract: once get() returned, the scene is in
          // every later snapshot.
          const auto after = server.snapshot();
          if (after.completed + after.cancelled + after.failed == 0) {
            contract_breaks.fetch_add(1);
          }
        }
      });
    }
  }
  done.store(true);
  poller.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(contract_breaks.load(), 0);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: " << violations.front();

  const auto stats = server.snapshot();
  EXPECT_EQ(stats.completed, static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_GT(stats.cache_hits + stats.coalesced, 0u);  // repeats collided
}

TEST(SceneServer, ShutdownDrainsAdmittedWorkAndRefusesNew) {
  pn::UNet model = make_model();
  auto cfg = server_config();
  pv::SceneServer server(model, cfg);

  std::vector<pv::SceneTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(server.submit(make_scene(600 + static_cast<std::uint64_t>(i))));
  }
  server.shutdown();
  for (auto& ticket : tickets) {
    EXPECT_EQ(ticket.get().width(), 128);  // admitted work completed
  }
  EXPECT_THROW((void)server.submit(make_scene(9)), pv::QueueClosed);
  server.shutdown();  // idempotent
}

TEST(SceneServer, ConfigValidation) {
  pn::UNet model = make_model();
  const auto bad = [&](auto mutate) {
    auto cfg = server_config();
    mutate(cfg);
    EXPECT_THROW(pv::SceneServer(model, cfg), std::invalid_argument);
  };
  bad([](pv::SceneServerConfig& c) { c.tile_size = 0; });
  bad([](pv::SceneServerConfig& c) { c.tile_size = 30; });  // 30 % 4 != 0
  bad([](pv::SceneServerConfig& c) { c.batch_tiles = 0; });
  bad([](pv::SceneServerConfig& c) { c.min_replicas = 0; });
  bad([](pv::SceneServerConfig& c) { c.max_replicas = 0; });
  bad([](pv::SceneServerConfig& c) { c.max_batch_wait = -1ms; });
  bad([](pv::SceneServerConfig& c) { c.scale_down_idle = 0ms; });
  bad([](pv::SceneServerConfig& c) { c.admission.capacity = 0; });
}

// ---------------------------------------------------------------------------
// Single-flight coalescing: content-identical in-flight scenes share one
// forward pass; a failed/cancelled leader promotes a follower instead of
// dragging it down.
// ---------------------------------------------------------------------------

namespace {

/// Polls `pred` for up to ~2 s (the deterministic gates make the condition
/// inevitable; the bound only protects the test run from a genuine bug).
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

}  // namespace

TEST(SceneServer, SingleFlightCoalescesIdenticalInFlightScenes) {
  pn::UNet model = make_model();
  const auto scene = make_scene(6001);
  pc::InferenceWorkflow workflow(model, {}, 64);
  const auto reference = workflow.classify_scene(scene);

  auto cfg = server_config();
  cfg.cache_bytes = 0;  // prove coalescing works without the result cache
  cfg.min_replicas = cfg.max_replicas = 1;
  cfg.batch_tiles = 1;
  cfg.max_batch_wait = 0ms;
  pv::SceneServer server(model, cfg);

  // Park the single worker right after the leader's first tile lands, so
  // the leader is provably mid-flight while the identical follower is
  // prepared.
  std::binary_semaphore first_tile{0}, release{0};
  const pp::ExecutionContext gated;
  gated.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.tiles" && event.completed == 1) {
      first_tile.release();
      release.acquire();
    }
  });

  auto leader = server.submit(scene.clone(), gated);
  first_tile.acquire();
  auto follower = server.submit(scene.clone());
  ASSERT_TRUE(eventually([&] { return server.stats().coalesced == 1; }));
  release.release();

  EXPECT_EQ(leader.get(), reference);
  EXPECT_EQ(follower.get(), reference);

  const auto stats = server.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.session.scenes, 1u);  // one forward-path scene
  EXPECT_EQ(stats.session.tiles, 4u);   // the leader's tiles only
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(SceneServer, SingleFlightPromotesFollowerWhenLeaderCancelled) {
  pn::UNet model = make_model();
  const auto scene = make_scene(6002);
  pc::InferenceWorkflow workflow(model, {}, 64);
  const auto reference = workflow.classify_scene(scene);

  auto cfg = server_config();
  cfg.cache_bytes = 0;
  cfg.min_replicas = cfg.max_replicas = 1;
  cfg.batch_tiles = 1;
  cfg.max_batch_wait = 0ms;
  pv::SceneServer server(model, cfg);

  std::binary_semaphore first_tile{0}, release{0};
  const pp::ExecutionContext gated;
  gated.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.tiles" && event.completed == 1) {
      first_tile.release();
      release.acquire();
    }
  });

  auto leader = server.submit(scene.clone(), gated);
  first_tile.acquire();  // 3 of the leader's 4 one-tile batches still queued
  auto follower = server.submit(scene.clone());
  ASSERT_TRUE(eventually([&] { return server.stats().coalesced == 1; }));
  leader.cancel();
  release.release();

  // The worker abandons the cancelled leader at the next batch boundary and
  // promotes the follower, which re-runs the forward path from scratch.
  EXPECT_THROW((void)leader.get(), pp::OperationCancelled);
  EXPECT_EQ(follower.get(), reference);

  const auto stats = server.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(SceneServer, SingleFlightCancelledFollowerResolvesCancelled) {
  pn::UNet model = make_model();
  const auto scene = make_scene(6004);

  auto cfg = server_config();
  cfg.cache_bytes = 0;
  cfg.min_replicas = cfg.max_replicas = 1;
  cfg.batch_tiles = 1;
  cfg.max_batch_wait = 0ms;
  pv::SceneServer server(model, cfg);

  std::binary_semaphore first_tile{0}, release{0};
  const pp::ExecutionContext gated;
  gated.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.tiles" && event.completed == 1) {
      first_tile.release();
      release.acquire();
    }
  });

  auto leader = server.submit(scene.clone(), gated);
  first_tile.acquire();
  auto follower = server.submit(scene.clone());
  ASSERT_TRUE(eventually([&] { return server.stats().coalesced == 1; }));
  follower.cancel();  // follower opts out while the leader is mid-flight
  release.release();

  // The leader still completes; the cancelled follower resolves as
  // cancelled even though the shared result was in hand.
  EXPECT_EQ(leader.get().width(), 128);
  EXPECT_THROW((void)follower.get(), pp::OperationCancelled);

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
}
