#pragma once
// SceneServer — the async serving subsystem above the Fig 9 inference
// pipeline: a long-lived, thread-safe server that fronts a pool of U-Net
// replicas with queued admission, cross-scene tile batching, a result
// cache, and replica auto-scaling.
//
// Request lifecycle:
//   submit(scene)                        [any thread]
//     -> admission control (RequestQueue: reject / block / deadline)
//     -> SceneTicket (std::future-style handle)
//   scheduler thread
//     -> cancellation check -> result-cache lookup (content hash; a hit
//        resolves the ticket with zero forward passes)
//     -> single-flight coalescing: a scene whose content hash matches one
//        already mid-flight attaches to that leader's ticket instead of
//        running its own forward passes; the leader's completion resolves
//        every follower with the shared plane. If a leader fails or is
//        cancelled, the first live follower is promoted to a fresh leader
//        and re-runs the forward path — followers never inherit a leader's
//        cancellation.
//     -> cloud/shadow filter + pad -> tiles pushed to the batch scheduler
//   inference workers (one per potential replica)
//     -> dynamic batching: each forward pass is filled with up to
//        batch_tiles tiles from ANY queued scenes, waiting at most
//        max_batch_wait to top up a partial batch (and not at all when no
//        admitted scene can still contribute tiles)
//     -> replica lease (serve::ReplicaPool; grown on demand up to
//        max_replicas when tiles are backed up, shrunk back to
//        min_replicas after scale_down_idle of quiet)
//     -> per-tile argmax planes scattered back to their owning tickets;
//        the last tile stitches, crops, caches, and resolves the ticket.
//
// SLO scheduling: every request carries a Priority class and an optional
// deadline (SubmitOptions, or par::ExecutionContext::with_deadline). The
// batch scheduler fills forward passes in (priority, earliest-deadline-
// first, FIFO) order, and work that can no longer meet its deadline is shed
// *before* burning a forward pass — at prepare, at batch fill, and by a
// periodic expiry sweep — resolving the ticket with DeadlineExceeded
// (counted in stats().shed). All timing runs on an injectable util::Clock
// so the behaviors are deterministically testable.
//
// Failure recovery: a replica whose forward pass throws is quarantined
// (ReplicaPool::Lease::mark_failed) and rebuilt from a healthy clone by the
// watchdog thread; the failed batch is a batch-local event — its tiles are
// re-queued with capped exponential backoff under a per-scene retry budget,
// and budget exhaustion fails only the owning tickets, never batch
// neighbors. A FaultInjector (POLARICE_FAULT_INJECT builds) can force
// these paths deterministically.
//
// Determinism: per-tile results do not depend on batch composition (the
// batched-N conv path is bit-identical to per-sample processing), so every
// scene's output plane is bit-identical to a serial
// InferenceWorkflow::classify_scene with the same model/filter/tile size —
// regardless of how tiles from different scenes interleave, how many
// replicas serve, which requests hit the cache, or how many retries a
// replica failure forced.
//
// Cancellation: each ticket carries the submitter's par::ExecutionContext;
// cancelling it (or SceneTicket::cancel()) abandons the scene at the next
// pipeline boundary and resolves the ticket with par::OperationCancelled.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cloud_filter.h"
#include "core/serve/brownout.h"
#include "core/serve/cache_store.h"
#include "core/serve/fault_injector.h"
#include "core/serve/replica_pool.h"
#include "core/serve/request_queue.h"
#include "core/serve/result_cache.h"
#include "img/image.h"
#include "nn/unet.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/context.h"
#include "util/virtual_clock.h"

namespace polarice::core::serve {

/// Request priority class. Higher classes always fill batches first;
/// within a class, earliest deadline first, then submission order.
enum class Priority : int {
  kBatch = 0,        // bulk / offline reprocessing
  kNormal = 1,       // default interactive traffic
  kInteractive = 2,  // operator-in-the-loop requests
};

[[nodiscard]] const char* to_string(Priority priority) noexcept;

/// Per-request scheduling knobs for submit().
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Relative deadline, measured from admission on the server's clock.
  /// Work that cannot complete by then is shed with DeadlineExceeded.
  /// nullopt defers to the context deadline (absolute), else no deadline.
  std::optional<std::chrono::nanoseconds> deadline;
  /// Per-scene replica-failure retry budget; -1 = the server's
  /// RetryPolicy::max_retries default.
  int max_retries = -1;
  /// Request-trace identity. 0 = mint a fresh id at submit; non-zero ids
  /// are propagated (the shard router stamps its fleet-wide id here so a
  /// worker-side trace is correlatable with the router's dispatch).
  std::uint64_t trace_id = 0;
};

/// Replica-failure retry discipline: a failed batch's tiles are re-queued
/// after backoff_base * 2^(attempt-1), capped at backoff_cap, until a
/// scene's budget is exhausted (which fails that scene with the batch's
/// error).
struct RetryPolicy {
  int max_retries = 2;
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{250};

  void validate() const;
};

struct SceneServerConfig {
  int tile_size = 64;          // paper serving shape: 256
  int batch_tiles = 8;         // tiles per forward pass (any mix of scenes)
  int min_replicas = 1;        // replicas kept warm
  int max_replicas = 2;        // scale-up ceiling
  CloudFilterConfig filter;
  AdmissionConfig admission;   // submission-queue bound + full-queue policy
  // Dynamic batching: how long a worker tops up a partial batch before
  // flushing it. Zero = flush whatever is queued immediately. Never waited
  // out when no admitted scene can still contribute tiles.
  std::chrono::milliseconds max_batch_wait{2};
  // Idle time after which replicas above min_replicas are retired.
  std::chrono::milliseconds scale_down_idle{250};
  std::size_t cache_bytes = std::size_t{64} << 20;  // result cache budget;
                                                    // 0 disables caching
  // Persistent cache tier (CacheStore). Empty = memory-only. When set, the
  // server warms the LRU from this directory on construction and appends
  // every newly computed full-quality plane back (flushed whenever the
  // pending batch reaches cache_flush_bytes, and at shutdown). Requires
  // cache_bytes > 0. The directory is flock-guarded: a second live server
  // on the same dir throws CacheStoreLocked.
  std::string cache_dir;
  // Identity of the serving configuration the cached planes were computed
  // under (model weights, tile size, filter...). Segments written under a
  // different fingerprint are discarded as stale on open.
  std::uint64_t cache_fingerprint = 0;
  std::size_t cache_flush_bytes = std::size_t{4} << 20;
  // Brownout: degrade kBatch work under sustained overload (see brownout.h).
  BrownoutPolicy brownout;
  RetryPolicy retry;  // replica-failure retry discipline
  // Time source for deadlines, backoff, batching, and expiry; nullptr =
  // the process steady clock. Tests inject a util::VirtualClock. Must
  // outlive the server.
  const util::Clock* clock = nullptr;
  // Deterministic failure hooks (POLARICE_FAULT_INJECT builds only;
  // ignored otherwise). nullptr = no injection. Must outlive the server.
  FaultInjector* fault_injector = nullptr;

  void validate() const;
};

/// Forward-path counters: scenes/tiles are forward-path work (cache hits and
/// coalesced followers excluded; tiles include padding tiles), busy_seconds
/// sums submit->resolve latency of forward-path scenes, and
/// wait_seconds/peak_leases describe replica-lease contention.
struct ForwardStats {
  std::size_t scenes = 0;        // scenes that ran the forward path
  std::size_t tiles = 0;         // tiles inferred (incl. padding tiles)
  double busy_seconds = 0.0;     // summed submit->resolve latency
  double wait_seconds = 0.0;     // summed time workers blocked on a replica
  std::size_t peak_leases = 0;   // peak concurrent replica leases
};

/// Aggregate serving telemetry.
struct SceneServerStats {
  ForwardStats session;
  std::size_t submitted = 0;   // tickets admitted past admission control
  std::size_t completed = 0;   // tickets resolved with a result (incl. hits)
  std::size_t cancelled = 0;   // tickets resolved via cancellation
  std::size_t failed = 0;      // tickets resolved with another error
  std::size_t rejected = 0;    // submissions refused by admission control
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_warmed = 0;    // entries recovered from disk at startup
  std::size_t warm_hits = 0;       // cache hits answered by a warmed entry
  std::size_t cache_persisted = 0; // planes appended to the persistent tier
  std::size_t cache_corrupt = 0;   // on-disk entries discarded: checksum
  std::size_t cache_stale = 0;     // on-disk segments discarded: version /
                                   // fingerprint mismatch
  std::size_t degraded = 0;        // tickets resolved with a degraded plane
  std::size_t brownouts = 0;       // brownout mode entries
  bool brownout_active = false;    // gauge: currently degrading kBatch work
  std::size_t coalesced = 0;           // followers attached to an in-flight
                                       // leader (single-flight)
  std::size_t batches = 0;             // forward passes issued
  std::size_t cross_scene_batches = 0; // batches mixing >= 2 scenes
  std::size_t peak_queue_depth = 0;    // submission-queue high water
  std::size_t shed = 0;                // tickets resolved DeadlineExceeded
  std::size_t batch_failures = 0;      // forward passes that threw
  std::size_t retries = 0;             // scene retry events scheduled
  std::size_t retried_tiles = 0;       // tiles re-queued by those retries
  std::size_t retry_exhausted = 0;     // tickets failed on a spent budget
  std::size_t replicas_quarantined = 0;  // cumulative replica quarantines
  std::size_t replicas_rebuilt = 0;      // cumulative watchdog rebuilds
  int replicas = 0;                    // current replica count
  int peak_replicas = 0;               // auto-scaling high water
};

namespace detail {
struct TicketState;
}  // namespace detail

/// std::future-style handle to one submitted scene. Shared-state semantics:
/// copies observe the same outcome; get() may be called repeatedly and from
/// any thread.
class SceneTicket {
 public:
  SceneTicket() = default;  // !valid()

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const;             // resolved (result or error)
  void wait() const;                            // block until resolved
  bool wait_for(std::chrono::milliseconds timeout) const;  // false = timeout

  /// Blocks until resolved; returns the scene-sized class-id plane or
  /// rethrows the failure (par::OperationCancelled after cancel()).
  [[nodiscard]] img::ImageU8 get() const;

  /// Blocks until resolved; true when the plane was produced in brownout
  /// degraded mode (coarser stride) rather than at full quality. Callers
  /// that must not act on approximate labels check this before using get().
  [[nodiscard]] bool degraded() const;

  /// Requests cancellation of this scene only (cooperative: honoured at
  /// the next pipeline boundary; a scene may still complete if it was
  /// nearly done). Sibling submissions sharing the submitter's context are
  /// unaffected — cancelling that context instead abandons all of them.
  void cancel() const;

 private:
  friend class SceneServer;
  explicit SceneTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

class SceneServer {
 public:
  /// Clones `config.min_replicas` replicas from `model` (not retained).
  /// `ctx` supplies the server's intra-op pool and default progress sink.
  /// Starts the scheduler thread and `config.max_replicas` inference
  /// workers. Throws std::invalid_argument on bad config or a tile_size
  /// incompatible with the model depth.
  SceneServer(nn::UNet& model, SceneServerConfig config,
              par::ExecutionContext ctx = {});

  /// Drains in-flight work, then stops all threads (shutdown()).
  ~SceneServer();

  SceneServer(const SceneServer&) = delete;
  SceneServer& operator=(const SceneServer&) = delete;

  /// Admits one scene under the configured admission policy and returns its
  /// ticket. `ctx` rides along for cancellation/progress (and, if it has a
  /// pool, that pool is used for this scene's filter); a context deadline
  /// (with_deadline) applies when `options.deadline` is unset. A scene that
  /// is not a tile multiple is filtered whole, edge-padded out to the tile
  /// grid, and its labels cropped back to scene size. Throws
  /// std::invalid_argument for non-RGB scenes, AdmissionRejected when
  /// admission control turns the request away, QueueClosed after
  /// shutdown().
  SceneTicket submit(img::ImageU8 scene, const SubmitOptions& options,
                     const par::ExecutionContext& ctx = {});
  SceneTicket submit(img::ImageU8 scene, const par::ExecutionContext& ctx);
  SceneTicket submit(img::ImageU8 scene);

  /// Synchronous convenience: submit + get.
  img::ImageU8 classify_scene(const img::ImageU8& scene_rgb);

  /// Stops admission, finishes every already-admitted scene, joins all
  /// server threads. Idempotent; called by the destructor.
  void shutdown();

  /// Consistent telemetry snapshot: every counter field is copied under one
  /// lock, so a reader never observes e.g. `completed` from after a scene
  /// finished next to a `submitted` from before it was admitted. Gauges
  /// owned by the components (replica counts, queue/lease high-waters,
  /// wait_seconds) are sampled from their own locks in the same call.
  /// Counter updates happen *before* the ticket resolves, so a caller
  /// returning from get() already sees its scene in any later snapshot.
  [[nodiscard]] SceneServerStats snapshot() const;

  /// Alias of snapshot(), kept for existing callers.
  [[nodiscard]] SceneServerStats stats() const { return snapshot(); }

  /// Scenes admitted but not yet picked up by the scheduler — the backlog
  /// a shard reports in its heartbeat (overload watermark input).
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }

  /// SLO-breach trace sampler contents: the N slowest completed requests
  /// plus the most recent shed/failed/cancelled ones, each with per-span
  /// timings (render with obs::render), 16 of each.
  [[nodiscard]] std::vector<obs::TraceRecord> slow_traces() const {
    return tracer_.snapshot();
  }

  [[nodiscard]] const SceneServerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct TileWork {
    std::shared_ptr<detail::TicketState> ticket;
    int tile = 0;  // row-major index in the scene's padded tile grid
  };
  struct DelayedTile {
    TileWork work;
    util::Clock::time_point ready_at;  // backoff expiry
  };

  void scheduler_loop();
  void worker_loop();
  void watchdog_loop();

  /// Scheduler-side per-scene work: cancellation check, cache lookup,
  /// single-flight attach-or-lead, then fan_out().
  void prepare(const std::shared_ptr<detail::TicketState>& ticket);

  /// Filter + pad + tile fan-out of one leading scene (also called when a
  /// follower is promoted after its leader failed).
  void fan_out(const std::shared_ptr<detail::TicketState>& ticket);

  /// Single-flight: registers the ticket as leader of its content hash, or
  /// attaches it as a follower of the current leader (true = attached; the
  /// caller must not fan the scene out).
  bool attach_or_lead(const std::shared_ptr<detail::TicketState>& ticket);

  /// Takes this leader's followers and retires the in-flight entry (empty
  /// when the ticket never led, or has no followers).
  [[nodiscard]] std::vector<std::shared_ptr<detail::TicketState>>
  take_followers(const std::shared_ptr<detail::TicketState>& ticket);

  /// Leader failed: resolve cancelled followers, promote the first live one
  /// to a fresh leader (re-registering the rest under it) and re-run its
  /// forward path.
  void promote(std::vector<std::shared_ptr<detail::TicketState>> followers);

  /// Pops one dynamic batch in (priority, EDF, FIFO) order, shedding
  /// expired scenes it encounters (empty only when stopping and drained).
  std::vector<TileWork> gather();

  /// Heap ordering: true when `a` must be scheduled before `b`.
  static bool tile_before(const TileWork& a, const TileWork& b) noexcept;

  /// Caller holds tile_mutex_: pops the most urgent queued tile.
  TileWork pop_tile();
  /// Caller holds tile_mutex_: pushes one tile into the ready heap.
  void push_tile(TileWork work);
  /// Caller holds tile_mutex_: moves delayed tiles whose backoff elapsed
  /// (all of them when `force`) into the ready heap.
  void promote_delayed(util::Clock::time_point now, bool force);

  /// Resolves a ticket with DeadlineExceeded (stats().shed). Callers must
  /// not hold tile_mutex_.
  void shed(const std::shared_ptr<detail::TicketState>& ticket);

  /// Scheduler idle tick: sheds every queued/delayed scene whose deadline
  /// passed without waiting for a worker to pop its tiles.
  void sweep_expired();

  /// A forward pass threw: re-queue the batch's tiles with backoff for
  /// scenes with retry budget left, fail the rest with `error`. Callers
  /// must not hold tile_mutex_.
  void handle_batch_failure(const std::vector<TileWork>& live,
                            std::exception_ptr error);

  /// Records a finished tile plane; the scene's last tile finalizes it.
  void deliver(const TileWork& work, img::ImageU8 plane);

  /// Stitch + crop + cache + resolve a fully-inferred scene.
  void finalize(const std::shared_ptr<detail::TicketState>& ticket);

  void resolve_error(const std::shared_ptr<detail::TicketState>& ticket,
                     std::exception_ptr error);

  /// Marks one admitted scene as past the tile fan-out point (or abandoned)
  /// so batch top-up stops waiting once nothing more can arrive.
  void retire_pending();

  /// Brownout sample point: feeds the submission-queue depth to the
  /// controller (any thread).
  void sample_brownout();

  /// Appends one full-quality plane to the persistent tier, flushing when
  /// the pending batch crosses the threshold. No-op without a store.
  /// Persistence failures are contained here — serving never fails because
  /// a disk did.
  void persist(const SceneKey& key, const img::ImageU8& plane);

  /// Hands a resolved ticket's trace to the SLO-breach sampler.
  void record_trace(detail::TicketState& t, const char* outcome);

  SceneServerConfig config_;
  par::ExecutionContext server_ctx_;
  const util::Clock* clock_;  // config_.clock or the process clock
  CloudShadowFilter filter_;
  ReplicaPool pool_;
  ResultCache cache_;
  std::unique_ptr<CacheStore> store_;  // persistent tier; null = memory-only
  // Keys recovered from disk at startup; a cache hit on one is a warm hit.
  // Written before the server threads start, read-only after.
  std::unordered_set<SceneKey, SceneKeyHash> warmed_;
  BrownoutController brownout_;
  RequestQueue<std::shared_ptr<detail::TicketState>> queue_;

  // Single-flight state: content hash -> {leader, followers}. An entry
  // lives from the leader's registration to its resolution.
  struct Flight {
    std::shared_ptr<detail::TicketState> leader;
    std::vector<std::shared_ptr<detail::TicketState>> followers;
  };
  std::mutex inflight_mutex_;
  std::unordered_map<SceneKey, Flight, SceneKeyHash> inflight_;

  // Batch scheduler state. `tiles_` is a binary heap in tile_before order
  // (priority desc, EDF, submission FIFO); `delayed_` is a min-heap on
  // backoff expiry feeding back into it.
  std::mutex tile_mutex_;
  std::condition_variable tile_cv_;
  std::vector<TileWork> tiles_;        // guarded by tile_mutex_
  std::vector<DelayedTile> delayed_;   // guarded by tile_mutex_
  bool tiles_stopping_ = false;        // guarded by tile_mutex_
  std::atomic<std::size_t> pending_scenes_{0};
  std::atomic<std::uint64_t> next_seq_{0};  // submission FIFO tiebreak

  // Replica watchdog: woken on quarantine, rebuilds via pool_.repair().
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mutex_

  // Server-level counters (queue/cache/pool keep their own).
  mutable std::mutex stats_mutex_;
  SceneServerStats counters_;  // only the fields not derived elsewhere

  // Observability: process-interned instruments (no registry lock on the
  // hot path) and the per-server SLO-breach trace sampler.
  obs::ServeInstruments& obs_;
  obs::TraceSampler tracer_;
  // Component gauges published into obs::registry() for the server's
  // lifetime. Declared last so they unregister before the components they
  // sample are torn down.
  std::vector<obs::GaugeHandle> gauges_;

  std::atomic<bool> shut_down_{false};
  std::jthread scheduler_;
  std::vector<std::jthread> workers_;
  std::jthread watchdog_;
};

}  // namespace polarice::core::serve
