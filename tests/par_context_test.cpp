// ExecutionContext behaviour: cancellation tokens, progress sinks, scratch
// arenas, and value-semantic derivation (with_pool/with_seed share state).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "par/context.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"

namespace pp = polarice::par;

TEST(CancellationToken, SharedAcrossCopies) {
  pp::CancellationToken token;
  const pp::CancellationToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_THROW(copy.throw_if_cancelled("test"), pp::OperationCancelled);
}

TEST(ExecutionContext, DefaultIsSequentialAndLive) {
  const pp::ExecutionContext ctx;
  EXPECT_EQ(ctx.pool(), nullptr);
  EXPECT_EQ(ctx.seed(), 0u);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_NO_THROW(ctx.throw_if_cancelled());
}

TEST(ExecutionContext, DerivedContextsShareCancellation) {
  pp::ThreadPool pool(2);
  const pp::ExecutionContext ctx(&pool, /*seed=*/42);
  const pp::ExecutionContext derived = ctx.with_pool(nullptr).with_seed(7);
  EXPECT_EQ(derived.pool(), nullptr);
  EXPECT_EQ(derived.seed(), 7u);
  EXPECT_EQ(ctx.seed(), 42u);
  derived.request_cancel();
  EXPECT_TRUE(ctx.cancelled());  // shared flag
}

TEST(ExecutionContext, ProgressSinkReceivesEventsFromWorkers) {
  pp::ThreadPool pool(4);
  const pp::ExecutionContext ctx(&pool);
  std::atomic<std::size_t> events{0};
  ctx.set_progress_sink([&](const pp::ProgressEvent& event) {
    EXPECT_STREQ(event.stage, "unit");
    EXPECT_LE(event.completed, event.total);
    events.fetch_add(1);
  });
  pp::parallel_for(ctx.pool(), 0, 16, [&](std::size_t i) {
    ctx.report_progress("unit", i + 1, 16);
  });
  EXPECT_EQ(events.load(), 16u);
}

TEST(ExecutionContext, CancellationStopsParallelWork) {
  pp::ThreadPool pool(2);
  const pp::ExecutionContext ctx(&pool);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pp::parallel_for(ctx.pool(), 0, 1000,
                       [&](std::size_t i) {
                         if (i == 0) ctx.request_cancel();
                         ctx.throw_if_cancelled("loop");
                         ran.fetch_add(1);
                       },
                       /*grain=*/1),
      pp::OperationCancelled);
  EXPECT_LT(ran.load(), 1000);
}

TEST(ScratchArena, GrowsAndRecycles) {
  pp::ScratchArena arena;
  float* a = arena.allocate_n<float>(100);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0, 100 * sizeof(float));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  float* b = arena.allocate_n<float>(100);
  EXPECT_NE(a, b);  // bump allocation, no overlap
  const std::size_t grown = arena.capacity();
  arena.reset();
  float* c = arena.allocate_n<float>(100);
  EXPECT_EQ(arena.capacity(), grown);  // no regrow after reset
  (void)c;
}

TEST(ScratchArena, LeaseRewindsToMark) {
  pp::ScratchArena arena;
  float* outer = arena.allocate_n<float>(64);
  (void)outer;
  void* first = nullptr;
  {
    auto lease = arena.lease();
    first = lease.allocate(512);
    (void)lease.allocate(1 << 20);  // force chunk growth inside the lease
  }
  const std::size_t cap_after_lease = arena.capacity();
  {
    // A new lease re-serves the same bytes: the cursor rewound.
    auto lease = arena.lease();
    EXPECT_EQ(lease.allocate(512), first);
  }
  // Repeated leases never grow capacity further (steady state allocates
  // nothing — the property infer_scene_tiles relies on per scene).
  for (int i = 0; i < 16; ++i) {
    auto lease = arena.lease();
    (void)lease.allocate(1 << 20);
    EXPECT_EQ(arena.capacity(), cap_after_lease);
  }
}

TEST(ScratchArena, NestedLeasesUnwindInOrder) {
  pp::ScratchArena arena;
  auto outer = arena.lease();
  void* a = outer.allocate(128);
  void* inner_ptr = nullptr;
  {
    auto inner = arena.lease();
    inner_ptr = inner.allocate(128);
    EXPECT_NE(inner_ptr, a);
  }
  // Inner rewound; outer's allocation is still the high-water mark, so the
  // next outer allocation reuses the inner lease's bytes.
  EXPECT_EQ(outer.allocate(128), inner_ptr);
}

TEST(ExecutionContext, ScratchIsPerThread) {
  const pp::ExecutionContext ctx;
  pp::ScratchArena* main_arena = &ctx.scratch();
  EXPECT_EQ(main_arena, &ctx.scratch());  // stable per thread
  pp::ScratchArena* other_arena = nullptr;
  std::thread worker([&] { other_arena = &ctx.scratch(); });
  worker.join();
  EXPECT_NE(main_arena, other_arena);
}
