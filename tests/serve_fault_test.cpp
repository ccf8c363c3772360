// Replica-failure recovery under deterministic fault injection: a killed
// forward pass quarantines the replica, the watchdog rebuilds it, and the
// batch's tiles retry to a bit-identical result; backoff is honoured on the
// injected clock; retry-budget exhaustion fails only the owning tickets;
// poison and stall faults behave as documented; and a leader that dies at
// stitch never leaves a cache entry behind — its followers recompute.
//
// The whole suite rides on POLARICE_FAULT_INJECT (on by default, so these
// recovery paths run in tier-1 CI); a build without it skips cleanly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <semaphore>
#include <string>
#include <thread>

#include "core/serve/fault_injector.h"
#include "core/serve/scene_server.h"
#include "core/workflow.h"
#include "img/image.h"
#include "nn/unet.h"
#include "par/context.h"
#include "s2/scene.h"
#include "util/virtual_clock.h"

namespace pc = polarice::core;
namespace pv = polarice::core::serve;
namespace pp = polarice::par;
namespace ps = polarice::s2;
namespace pn = polarice::nn;
namespace pi = polarice::img;
namespace pu = polarice::util;

using namespace std::chrono_literals;

namespace {

pn::UNet make_model() {
  pn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 6;
  cfg.use_dropout = false;
  cfg.seed = 88;
  return pn::UNet(cfg);
}

pi::ImageU8 make_scene(std::uint64_t seed, int size = 128) {
  ps::SceneConfig sc;
  sc.width = sc.height = size;
  sc.seed = seed;
  sc.cloudy = true;
  return ps::SceneGenerator(sc).generate().rgb;
}

/// One replica, whole scene in one batch, no cache: every fault lands on a
/// known pass and every forwarded tile is visible in stats().
pv::SceneServerConfig fault_config(pv::FaultInjector* injector,
                                   const pu::Clock* clock = nullptr) {
  pv::SceneServerConfig cfg;
  cfg.tile_size = 64;
  cfg.batch_tiles = 8;
  cfg.min_replicas = cfg.max_replicas = 1;
  cfg.max_batch_wait = 0ms;
  cfg.cache_bytes = 0;
  cfg.retry.backoff_base = 0ms;  // retry immediately unless a test says not
  cfg.retry.backoff_cap = 0ms;
  cfg.fault_injector = injector;
  cfg.clock = clock;
  return cfg;
}

template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

}  // namespace

#if !POLARICE_FAULT_INJECT

TEST(SceneServerFault, Skipped) {
  GTEST_SKIP() << "built with POLARICE_FAULT_INJECT=OFF";
}

#else

TEST(SceneServerFault, KilledReplicaIsRebuiltAndRetriedTilesAreBitIdentical) {
  pn::UNet model = make_model();
  const auto scene = make_scene(61);
  const auto reference = pc::InferenceWorkflow(model, {}, 64)
                             .classify_scene(scene);

  pv::FaultInjector injector;
  injector.arm({pv::FaultSite::kForward, pv::FaultKind::kThrow,
                /*after=*/0, /*count=*/1});
  pv::SceneServer server(model, fault_config(&injector));

  // First forward pass dies; the retry must reproduce the no-fault result
  // exactly — the tiles are re-staged from the scene's intact filtered
  // imagery, and per-tile results do not depend on batch composition.
  EXPECT_EQ(server.classify_scene(scene), reference);

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.batch_failures, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.retried_tiles, 4u);
  EXPECT_EQ(stats.retry_exhausted, 0u);
  EXPECT_EQ(stats.session.tiles, 4u);  // only the clean retry pass counts
  EXPECT_EQ(stats.replicas_quarantined, 1u);
  // The watchdog rebuild already happened — the retry's forward pass ran on
  // the replacement replica (the pool had no other) — but give the counter
  // a beat in case the rebuilt stat publishes after the lease.
  EXPECT_TRUE(eventually([&] { return server.stats().replicas_rebuilt == 1; }));
  EXPECT_EQ(injector.stats().fired, 1u);
  EXPECT_GE(injector.stats().passes, 2u);
}

TEST(SceneServerFault, RetryBackoffHoldsUntilInjectedClockAdvances) {
  pn::UNet model = make_model();
  const auto scene = make_scene(62);
  const auto reference = pc::InferenceWorkflow(model, {}, 64)
                             .classify_scene(scene);

  pu::VirtualClock clock;
  pv::FaultInjector injector;
  injector.arm({pv::FaultSite::kForward, pv::FaultKind::kThrow,
                /*after=*/0, /*count=*/1});
  auto cfg = fault_config(&injector, &clock);
  cfg.retry.backoff_base = 50ms;
  cfg.retry.backoff_cap = 250ms;
  pv::SceneServer server(model, cfg);

  auto ticket = server.submit(scene.clone());
  ASSERT_TRUE(eventually([&] { return server.stats().retries == 1; }));

  // Plenty of real time passes; virtual time does not, so the retried
  // tiles stay parked behind their backoff.
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(ticket.ready());

  clock.advance(51ms);
  EXPECT_EQ(ticket.get(), reference);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(SceneServerFault, BudgetExhaustionFailsOnlyOwningTickets) {
  pn::UNet model = make_model();
  const auto scene_a = make_scene(63);
  const auto scene_b = make_scene(64);
  pc::InferenceWorkflow workflow(model, {}, 64);
  const auto reference_b = workflow.classify_scene(scene_b);

  pv::FaultInjector injector;
  pv::SceneServer server(model, fault_config(&injector));

  // Park the single worker inside a gate scene's delivery so A and B are
  // both queued — and normally share one 8-tile batch — before any faulty
  // forward pass runs.
  std::atomic<int> fanned_out{0};
  std::binary_semaphore first_tile{0}, release{0};
  const pp::ExecutionContext gate_ctx;
  gate_ctx.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.tiles" && event.completed == 1) {
      first_tile.release();
      release.acquire();
    }
  });
  const pp::ExecutionContext count_ctx;
  count_ctx.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.prepare" && event.completed == 1) {
      fanned_out.fetch_add(1);
    }
  });

  auto gate = server.submit(make_scene(65), gate_ctx);
  first_tile.acquire();  // gate's batch already forwarded cleanly

  pv::SubmitOptions no_budget;
  no_budget.max_retries = 0;
  pv::SubmitOptions deep_budget;
  deep_budget.max_retries = 5;
  auto a = server.submit(scene_a.clone(), no_budget, count_ctx);
  auto b = server.submit(scene_b.clone(), deep_budget, count_ctx);
  ASSERT_TRUE(eventually([&] { return fanned_out.load() == 2; }));

  // Two firings cover both batch layouts: if A and B share a batch, the
  // second firing hits B's retry; if a racing flush split them, it hits
  // B's first batch. Either way A's zero budget is spent by one failure
  // and B retries through to a clean pass.
  injector.arm({pv::FaultSite::kForward, pv::FaultKind::kThrow,
                /*after=*/0, /*count=*/2});
  release.release();

  EXPECT_THROW((void)a.get(), pv::InjectedFault);
  EXPECT_EQ(b.get(), reference_b);
  EXPECT_NO_THROW((void)gate.get());

  const auto stats = server.stats();
  EXPECT_EQ(stats.retry_exhausted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);  // gate + B
  EXPECT_EQ(stats.batch_failures, 2u);
  EXPECT_EQ(injector.stats().fired, 2u);
}

TEST(SceneServerFault, PoisonedPassCorruptsLabelsAndDisarmRestores) {
  pn::UNet model = make_model();
  const auto scene = make_scene(66);
  const auto reference = pc::InferenceWorkflow(model, {}, 64)
                             .classify_scene(scene);

  pv::FaultInjector injector;
  injector.arm({pv::FaultSite::kForward, pv::FaultKind::kPoison,
                /*after=*/0, /*count=*/-1});
  pv::SceneServer server(model, fault_config(&injector));

  // Silent corruption: the pass "succeeds", the plane is garbage (255 is
  // not a legal class id), and nothing shows up as a failure.
  const auto poisoned = server.classify_scene(scene);
  EXPECT_NE(poisoned, reference);
  bool all_poisoned = true;
  for (int y = 0; y < poisoned.height() && all_poisoned; ++y) {
    for (int x = 0; x < poisoned.width(); ++x) {
      if (poisoned.at(x, y) != 255) {
        all_poisoned = false;
        break;
      }
    }
  }
  EXPECT_TRUE(all_poisoned);
  EXPECT_EQ(server.stats().failed, 0u);
  EXPECT_EQ(server.stats().batch_failures, 0u);

  injector.disarm();
  EXPECT_EQ(server.classify_scene(scene), reference);
  EXPECT_GE(injector.stats().fired, 1u);
}

TEST(SceneServerFault, StalledPassDelaysButCompletesCleanly) {
  pn::UNet model = make_model();
  const auto scene = make_scene(67);
  const auto reference = pc::InferenceWorkflow(model, {}, 64)
                             .classify_scene(scene);

  pv::FaultInjector injector;
  pv::FaultPlan plan;
  plan.site = pv::FaultSite::kForward;
  plan.kind = pv::FaultKind::kStall;
  plan.stall = 30ms;
  injector.arm(plan);
  pv::SceneServer server(model, fault_config(&injector));

  EXPECT_EQ(server.classify_scene(scene), reference);
  EXPECT_EQ(injector.stats().fired, 1u);
  EXPECT_EQ(server.stats().batch_failures, 0u);
}

TEST(SceneServerFault, StitchFailureNeverCachesAndFollowersRecompute) {
  pn::UNet model = make_model();
  const auto scene = make_scene(68);
  const auto reference = pc::InferenceWorkflow(model, {}, 64)
                             .classify_scene(scene);

  pv::FaultInjector injector;
  injector.arm({pv::FaultSite::kStitch, pv::FaultKind::kThrow,
                /*after=*/0, /*count=*/1});
  auto cfg = fault_config(&injector);
  cfg.batch_tiles = 1;
  cfg.cache_bytes = std::size_t{16} << 20;  // cache ON: the guard under test
  pv::SceneServer server(model, cfg);

  // Park the worker after the leader's first tile so a content-identical
  // follower provably coalesces onto the doomed leader.
  std::binary_semaphore first_tile{0}, release{0};
  const pp::ExecutionContext gate_ctx;
  gate_ctx.set_progress_sink([&](const pp::ProgressEvent& event) {
    if (std::string(event.stage) == "serve.tiles" && event.completed == 1) {
      first_tile.release();
      release.acquire();
    }
  });

  auto leader = server.submit(scene.clone(), gate_ctx);
  first_tile.acquire();
  auto follower = server.submit(scene.clone());
  ASSERT_TRUE(eventually([&] { return server.stats().coalesced == 1; }));
  release.release();

  // The leader dies at stitch — after its forwards, before the cache
  // insert. The follower must not read a stale/absent entry: it is
  // promoted to a fresh leader and re-runs the forward path.
  EXPECT_THROW((void)leader.get(), pv::InjectedFault);
  EXPECT_EQ(follower.get(), reference);

  // Only the follower's (clean) finalize populated the cache: a third
  // content-identical submission hits it and gets the good plane.
  EXPECT_EQ(server.classify_scene(scene), reference);

  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);  // follower + cache-hit submission
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.session.tiles, 8u);  // leader 4 + promoted follower 4
  EXPECT_EQ(injector.stats().fired, 1u);
}

#endif  // POLARICE_FAULT_INJECT
