#include "core/serve/scene_server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/stages.h"
#include "img/ops.h"
#include "s2/tiles.h"
#include "tensor/conv.h"
#include "tensor/tensor.h"

namespace polarice::core::serve {

namespace detail {

/// Shared state behind one SceneTicket. Phase ownership: the submitter
/// fills the request fields; the scheduler (exclusively) fills the prepared
/// fields before fanning tiles out through tile_mutex_ (which publishes
/// them to the workers); workers write disjoint `planes` slots and race
/// only on the atomics; the outcome fields are guarded by `m`.
struct TicketState {
  // Request (written at submit).
  img::ImageU8 scene;
  par::ExecutionContext ctx;  // cancellation + progress (+ optional pool)
  // SceneTicket::cancel() must abandon THIS scene only. The submitter's
  // context token is shared by every copy of that context (cancelling it
  // would abort sibling submissions and unrelated work), so each ticket
  // carries its own token and the server honours either.
  par::CancellationToken own_cancel;

  // SLO scheduling (written at submit, read by the batch scheduler).
  Priority priority = Priority::kNormal;
  std::optional<util::Clock::time_point> deadline;  // absolute, server clock
  int retry_budget = 0;                   // replica-failure retries allowed
  std::uint64_t seq = 0;                  // submission order (FIFO tiebreak)
  util::Clock::time_point submitted_at;   // latency telemetry
  int retries = 0;  // retry events so far; guarded by the server tile_mutex_

  // Request trace: spans appended by whichever thread runs each stage
  // (internally synchronized). Created at submit, handed to the SLO-breach
  // sampler at resolution.
  std::shared_ptr<obs::TraceContext> trace;

  [[nodiscard]] bool cancelled() const noexcept {
    return ctx.cancelled() || own_cancel.cancelled();
  }

  // Prepared by the scheduler.
  img::ImageU8 filtered;  // padded out to the tile grid
  int orig_w = 0, orig_h = 0;
  int tiles_x = 0, tiles_y = 0;
  SceneKey key;
  bool cacheable = false;
  // Brownout: scheduler decided to run this scene degraded. The scene is
  // downscaled to scaled_w x scaled_h before tiling and the label plane
  // upscaled back; degraded planes are never cached or persisted.
  bool degrade = false;
  int degrade_stride = 1;
  int scaled_w = 0, scaled_h = 0;

  // Inference scatter.
  std::vector<img::ImageU8> planes;  // per-tile argmax planes
  std::atomic<int> tiles_remaining{0};

  // Outcome.
  std::atomic<bool> resolved{false};  // claimed by the resolving thread
  std::mutex m;
  std::condition_variable cv;
  bool done = false;  // guarded by m
  img::ImageU8 result;
  std::exception_ptr error;
  bool result_degraded = false;  // guarded by m

  /// At most one resolver wins the claim.
  bool claim() {
    bool expected = false;
    return resolved.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel);
  }

  void publish(img::ImageU8 plane, std::exception_ptr err,
               bool degraded_plane = false) {
    {
      const std::scoped_lock lock(m);
      result = std::move(plane);
      error = std::move(err);
      result_degraded = degraded_plane;
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

using detail::TicketState;

// ---------------------------------------------------------------------------
// SceneTicket
// ---------------------------------------------------------------------------

namespace {
void require_valid(const std::shared_ptr<TicketState>& state) {
  if (!state) throw std::logic_error("SceneTicket: no shared state");
}
}  // namespace

bool SceneTicket::ready() const {
  require_valid(state_);
  const std::scoped_lock lock(state_->m);
  return state_->done;
}

void SceneTicket::wait() const {
  require_valid(state_);
  std::unique_lock lock(state_->m);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool SceneTicket::wait_for(std::chrono::milliseconds timeout) const {
  require_valid(state_);
  std::unique_lock lock(state_->m);
  return state_->cv.wait_for(lock, timeout, [&] { return state_->done; });
}

img::ImageU8 SceneTicket::get() const {
  require_valid(state_);
  std::unique_lock lock(state_->m);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->result;
}

bool SceneTicket::degraded() const {
  require_valid(state_);
  std::unique_lock lock(state_->m);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->result_degraded;
}

void SceneTicket::cancel() const {
  require_valid(state_);
  state_->own_cancel.cancel();
}

// ---------------------------------------------------------------------------
// SceneServerConfig
// ---------------------------------------------------------------------------

const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      return "normal";
    case Priority::kInteractive:
      return "interactive";
  }
  return "?";
}

void RetryPolicy::validate() const {
  if (max_retries < 0) {
    throw std::invalid_argument("RetryPolicy: max_retries < 0");
  }
  if (backoff_base < std::chrono::milliseconds::zero()) {
    throw std::invalid_argument("RetryPolicy: negative backoff_base");
  }
  if (backoff_cap < backoff_base) {
    throw std::invalid_argument("RetryPolicy: backoff_cap < backoff_base");
  }
}

void SceneServerConfig::validate() const {
  if (tile_size <= 0) {
    throw std::invalid_argument("SceneServerConfig: tile_size <= 0");
  }
  if (batch_tiles < 1) {
    throw std::invalid_argument("SceneServerConfig: batch_tiles < 1");
  }
  if (min_replicas < 1) {
    throw std::invalid_argument("SceneServerConfig: min_replicas < 1");
  }
  if (max_replicas < min_replicas) {
    throw std::invalid_argument(
        "SceneServerConfig: max_replicas < min_replicas");
  }
  if (max_batch_wait < std::chrono::milliseconds::zero()) {
    throw std::invalid_argument("SceneServerConfig: negative max_batch_wait");
  }
  if (scale_down_idle <= std::chrono::milliseconds::zero()) {
    throw std::invalid_argument(
        "SceneServerConfig: scale_down_idle must be positive");
  }
  if (!cache_dir.empty() && cache_bytes == 0) {
    // A persistent tier under a disabled LRU could never be read back.
    throw std::invalid_argument(
        "SceneServerConfig: cache_dir requires cache_bytes > 0");
  }
  if (!cache_dir.empty() && cache_flush_bytes == 0) {
    throw std::invalid_argument(
        "SceneServerConfig: cache_flush_bytes must be positive");
  }
  filter.validate();
  admission.validate();
  brownout.validate();
  retry.validate();
}

namespace {
// SLO-breach trace retention: the sampler keeps this many slowest completed
// traces plus this many shed/failed/cancelled ones (slow_traces()).
constexpr std::size_t kTraceCapacity = 16;

const SceneServerConfig& validated(const SceneServerConfig& config,
                                   const nn::UNet& model) {
  config.validate();
  require_tile_compatible(model, config.tile_size, "SceneServer");
  return config;
}
}  // namespace

// ---------------------------------------------------------------------------
// SceneServer
// ---------------------------------------------------------------------------

SceneServer::SceneServer(nn::UNet& model, SceneServerConfig config,
                         par::ExecutionContext ctx)
    : config_(validated(config, model)),
      server_ctx_(std::move(ctx)),
      clock_(config.clock != nullptr ? config.clock : &util::system_clock()),
      filter_(config.filter),
      pool_(model, config.min_replicas, config.max_replicas, clock_),
      cache_(config.cache_bytes),
      brownout_(config.brownout, clock_),
      queue_(config.admission, clock_),
      obs_(obs::ServeInstruments::get()),
      tracer_(kTraceCapacity) {
  // Warm from the persistent tier before any server thread exists, so the
  // warmed_ set is published to the scheduler by the thread starts below.
  // A locked or unusable directory throws out of the constructor — a
  // half-durable server that silently dropped persistence would let a
  // restart drill "pass" while testing nothing.
  if (!config_.cache_dir.empty()) {
    CacheStoreConfig store_config;
    store_config.dir = config_.cache_dir;
    store_config.fingerprint = config_.cache_fingerprint;
    store_ = std::make_unique<CacheStore>(store_config);
    for (auto& entry : store_->take_loaded()) {
      cache_.insert(entry.key, entry.plane);
      warmed_.insert(entry.key);
    }
    const CacheStoreStats disk = store_->stats();
    counters_.cache_warmed = warmed_.size();
    counters_.cache_corrupt = disk.corrupt;
    counters_.cache_stale = disk.stale;
  }
  // Component gauges, sampled at registry-snapshot (scrape) time. The
  // handles unregister in ~SceneServer before the sampled components die.
  auto& registry = obs::registry();
  gauges_.push_back(registry.register_gauge("serve_inflight_scenes", [this] {
    return static_cast<double>(pending_scenes_.load(std::memory_order_relaxed));
  }));
  gauges_.push_back(registry.register_gauge(
      "serve_replicas", [this] { return static_cast<double>(pool_.size()); }));
  gauges_.push_back(registry.register_gauge("serve_replica_leases", [this] {
    return static_cast<double>(pool_.leases());
  }));
  gauges_.push_back(registry.register_gauge("serve_cache_resident_bytes", [this] {
    return static_cast<double>(cache_.stats().bytes);
  }));
  gauges_.push_back(registry.register_gauge("serve_brownout_active", [this] {
    return brownout_.active() ? 1.0 : 0.0;
  }));
  if (store_ != nullptr) {
    gauges_.push_back(
        registry.register_gauge("serve_cache_store_pending_bytes", [this] {
          return static_cast<double>(store_->pending_bytes());
        }));
  }

  scheduler_ = std::jthread([this] { scheduler_loop(); });
  workers_.reserve(static_cast<std::size_t>(config_.max_replicas));
  for (int i = 0; i < config_.max_replicas; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  watchdog_ = std::jthread([this] { watchdog_loop(); });
}

SceneServer::~SceneServer() { shutdown(); }

void SceneServer::shutdown() {
  bool expected = false;
  if (!shut_down_.compare_exchange_strong(expected, true)) return;
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();  // drains admitted scenes
  {
    const std::scoped_lock lock(tile_mutex_);
    tiles_stopping_ = true;
  }
  tile_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // All workers are joined: no finalize() can append concurrently, so this
  // flush makes every plane computed this run durable (the SIGTERM drain
  // path in tools/polarice_worker ends here).
  if (store_ != nullptr) {
    try {
      store_->flush();
    } catch (const CacheStoreError&) {
      // Best-effort at shutdown: a full disk must not turn a clean drain
      // into a crash. The planes are lost, not corrupted — the on-disk
      // format only ever gains fully-fsynced segments.
    }
  }
  // The watchdog stops after the workers: a worker draining the last tiles
  // may be blocked on a replica the watchdog has yet to rebuild.
  {
    const std::scoped_lock lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

SceneTicket SceneServer::submit(img::ImageU8 scene) {
  return submit(std::move(scene), SubmitOptions{}, par::ExecutionContext{});
}

SceneTicket SceneServer::submit(img::ImageU8 scene,
                                const par::ExecutionContext& ctx) {
  return submit(std::move(scene), SubmitOptions{}, ctx);
}

SceneTicket SceneServer::submit(img::ImageU8 scene,
                                const SubmitOptions& options,
                                const par::ExecutionContext& ctx) {
  if (scene.channels() != 3) {
    throw std::invalid_argument("SceneServer: expected RGB scene");
  }
  if (options.max_retries < -1) {
    throw std::invalid_argument("SceneServer: max_retries < -1");
  }
  auto state = std::make_shared<TicketState>();
  state->scene = std::move(scene);
  state->ctx = ctx;
  state->orig_w = state->scene.width();
  state->orig_h = state->scene.height();
  state->priority = options.priority;
  state->submitted_at = clock_->now();
  if (options.deadline) {
    state->deadline = state->submitted_at + *options.deadline;
  } else if (ctx.deadline()) {
    state->deadline = *ctx.deadline();
  }
  state->retry_budget = options.max_retries >= 0 ? options.max_retries
                                                 : config_.retry.max_retries;
  state->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  state->trace = std::make_shared<obs::TraceContext>(
      options.trace_id != 0 ? options.trace_id : obs::TraceContext::next_id(),
      clock_);

  // Both counts must cover the request before it is poppable: a worker
  // topping up a batch must never conclude "nothing can arrive" while this
  // scene sits in the submission queue, and stats() must never observe a
  // completed scene that was not yet submitted. Both roll back if
  // admission turns the request away.
  pending_scenes_.fetch_add(1, std::memory_order_acq_rel);
  {
    const std::scoped_lock lock(stats_mutex_);
    ++counters_.submitted;
  }
  try {
    queue_.push(state, ctx);
  } catch (const AdmissionRejected&) {
    // Mirrored here (not read back from queue_.rejected()) so snapshot()
    // returns a mutually consistent counter set under one lock.
    {
      const std::scoped_lock lock(stats_mutex_);
      --counters_.submitted;
      ++counters_.rejected;
    }
    retire_pending();
    throw;
  } catch (...) {
    {
      const std::scoped_lock lock(stats_mutex_);
      --counters_.submitted;
    }
    retire_pending();
    throw;
  }
  obs_.admitted->add();
  // Sample after the push so a submission flood is visible to the
  // controller immediately, not only once the scheduler catches up.
  sample_brownout();
  return SceneTicket(std::move(state));
}

void SceneServer::sample_brownout() {
  if (!config_.brownout.enabled) return;
  brownout_.update(queue_.depth());
  // Mirror by assignment from the controller's own consistent state (not by
  // increment) — concurrent samplers may both observe one transition.
  const BrownoutState state = brownout_.state();
  const std::scoped_lock lock(stats_mutex_);
  counters_.brownout_active = state.active;
  counters_.brownouts = state.enters;
}

img::ImageU8 SceneServer::classify_scene(const img::ImageU8& scene_rgb) {
  return submit(scene_rgb.clone()).get();
}

void SceneServer::retire_pending() {
  pending_scenes_.fetch_sub(1, std::memory_order_acq_rel);
  // Batch top-up waits on "more tiles may come"; re-evaluate.
  tile_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Scheduler side
// ---------------------------------------------------------------------------

void SceneServer::scheduler_loop() {
  for (;;) {
    auto item = queue_.pop_for(config_.scale_down_idle);
    if (!item) {
      if (queue_.closed()) return;
      // Idle tick: the queue is empty — keep feeding the brownout
      // controller so the exit hold can elapse once traffic subsides.
      sample_brownout();
      // First shed whatever expired while waiting for a worker
      // (deadlines must not depend on a worker popping the victim's tiles),
      // then — with no new request within scale_down_idle, no scene between
      // admission and tile fan-out, and no tiles waiting for a worker —
      // retire replicas above the warm floor. (Workers mid-batch still hold
      // leases; shrink() never destroys leased replicas.)
      sweep_expired();
      bool tiles_queued;
      {
        const std::scoped_lock lock(tile_mutex_);
        tiles_queued = !tiles_.empty() || !delayed_.empty();
      }
      if (!tiles_queued &&
          pending_scenes_.load(std::memory_order_acquire) == 0) {
        pool_.shrink(config_.min_replicas);
      }
      continue;
    }
    prepare(*item);
  }
}

void SceneServer::prepare(const std::shared_ptr<TicketState>& ticket) {
  TicketState& t = *ticket;
  // Queue wait: admission to scheduler pickup. Observed for every ticket —
  // the queue-wait distribution of shed work is exactly what an overload
  // post-mortem needs.
  const auto picked_up = clock_->now();
  obs_.queue_wait->observe(
      std::chrono::duration<double>(picked_up - t.submitted_at).count());
  if (t.trace != nullptr) t.trace->add_span("queue", t.submitted_at, picked_up);
  if (t.cancelled()) {
    resolve_error(ticket, std::make_exception_ptr(par::OperationCancelled(
                              "SceneServer::prepare")));
    retire_pending();
    return;
  }
  // Shed before any work — not even a cache probe for a request whose
  // submitter has already given up on the answer.
  if (t.deadline && clock_->now() > *t.deadline) {
    shed(ticket);
    retire_pending();
    return;
  }

  // Brownout decision at the last pre-work moment, on a fresh depth sample.
  // Only kBatch degrades; interactive/normal keep full quality (and the
  // existing shed/reject semantics under continued pressure).
  sample_brownout();
  const bool degrade =
      brownout_.active() && t.priority == Priority::kBatch;

  // Every scene is hashed: the key drives both the result cache and
  // single-flight coalescing.
  t.key = hash_scene(t.scene);
  const bool use_cache = cache_.byte_budget() > 0;
  // Degraded planes never enter the cache or the single-flight table: a
  // full-quality submission must not be answered by (or coalesced onto) an
  // approximate result.
  t.cacheable = use_cache && !degrade;
  // Result cache: a content-identical finished scene skips the forward path
  // entirely. Probed even for a to-be-degraded scene — a cached
  // full-quality plane is strictly better than a fresh degraded one.
  if (use_cache) {
    auto hit = cache_.lookup(t.key);
    const bool warm = hit && warmed_.contains(t.key);
    {
      // Mirror the hit/miss into the server's own counter set (the cache
      // keeps its own) so snapshot() is single-lock consistent.
      const std::scoped_lock lock(stats_mutex_);
      if (hit) {
        ++counters_.cache_hits;
        if (warm) ++counters_.warm_hits;
      } else {
        ++counters_.cache_misses;
      }
    }
    (hit ? obs_.cache_hits : obs_.cache_misses)->add();
    if (hit) {
      if (t.claim()) {
        // Counters first: a caller returning from get() must already see
        // this scene in stats().
        {
          const std::scoped_lock lock(stats_mutex_);
          ++counters_.completed;
        }
        obs_.completed->add();
        const auto resolved_at = clock_->now();
        obs_.e2e->observe(
            std::chrono::duration<double>(resolved_at - t.submitted_at)
                .count());
        if (t.trace != nullptr) t.trace->add_span("cache", picked_up, resolved_at);
        record_trace(t, "completed");
        t.publish(std::move(*hit), nullptr);
      }
      retire_pending();
      return;
    }
  }

  if (degrade) {
    t.degrade = true;
    t.degrade_stride = config_.brownout.degrade_stride;
  } else if (attach_or_lead(ticket)) {
    // Single-flight: a content-identical scene still mid-flight shares the
    // leader's forward passes; this ticket resolves when the leader does.
    retire_pending();
    return;
  }
  fan_out(ticket);
  retire_pending();
}

bool SceneServer::attach_or_lead(const std::shared_ptr<TicketState>& ticket) {
  bool attached = false;
  {
    const std::scoped_lock lock(inflight_mutex_);
    auto it = inflight_.find(ticket->key);
    if (it != inflight_.end()) {
      it->second.followers.push_back(ticket);
      attached = true;
    } else {
      inflight_.emplace(ticket->key, Flight{ticket, {}});
    }
  }
  if (attached) {
    const std::scoped_lock lock(stats_mutex_);
    ++counters_.coalesced;
  }
  return attached;
}

std::vector<std::shared_ptr<TicketState>> SceneServer::take_followers(
    const std::shared_ptr<TicketState>& ticket) {
  // The leader check also covers tickets resolved before prepare() hashed
  // them: they never registered, whatever their default key matches.
  const std::scoped_lock lock(inflight_mutex_);
  auto it = inflight_.find(ticket->key);
  if (it == inflight_.end() || it->second.leader != ticket) return {};
  auto followers = std::move(it->second.followers);
  inflight_.erase(it);
  return followers;
}

void SceneServer::promote(
    std::vector<std::shared_ptr<TicketState>> followers) {
  std::shared_ptr<TicketState> leader;
  std::vector<std::shared_ptr<TicketState>> rest;
  for (auto& follower : followers) {
    if (leader == nullptr && !follower->cancelled()) {
      leader = std::move(follower);
      continue;
    }
    if (leader == nullptr) {
      // Cancelled before any live leader emerged; resolve it as cancelled.
      resolve_error(follower, std::make_exception_ptr(par::OperationCancelled(
                                  "SceneServer::promote")));
      continue;
    }
    rest.push_back(std::move(follower));
  }
  if (leader == nullptr) return;

  bool lead = false;
  {
    const std::scoped_lock lock(inflight_mutex_);
    auto it = inflight_.find(leader->key);
    if (it != inflight_.end()) {
      // A new submission took the hash over in the meantime — everyone
      // (including the would-be leader) attaches to it instead. Not
      // re-counted in `coalesced`: each of these tickets was already
      // counted when it first attached.
      it->second.followers.push_back(leader);
      for (auto& follower : rest) {
        it->second.followers.push_back(std::move(follower));
      }
    } else {
      inflight_.emplace(leader->key, Flight{leader, std::move(rest)});
      lead = true;
    }
  }
  // The promoted leader re-runs the forward path from the top: its own
  // scene bytes are intact (only the failed leader's were released). This
  // runs on whichever thread resolved the leader — usually an inference
  // worker — which stalls that worker for one scene-prep. Deliberate: the
  // admission queue may already be closed (shutdown drain) when a leader
  // fails, so re-queueing through the scheduler is not an option on the
  // one path that must still make progress, and leader failure is rare.
  if (lead) fan_out(leader);
}

void SceneServer::fan_out(const std::shared_ptr<TicketState>& ticket) {
  TicketState& t = *ticket;
  try {
    t.ctx.report_progress("serve.prepare", 0, 1);
    // The submitter's pool (if any) runs this scene's filter; otherwise the
    // server's. Cancellation always comes from the ticket context.
    const par::ExecutionContext filter_ctx =
        t.ctx.pool() != nullptr ? t.ctx : t.ctx.with_pool(server_ctx_.pool());
    img::ImageU8 filtered = filter_.apply(t.scene, filter_ctx);
    const int ts = config_.tile_size;
    t.scaled_w = t.orig_w;
    t.scaled_h = t.orig_h;
    if (t.degrade) {
      // Brownout: classify a stride-downscaled scene — the tile count (and
      // so the forward-pass cost) drops by ~stride^2. finalize() upscales
      // the label plane back to scene size (nearest — label-safe) and marks
      // the ticket degraded.
      const int stride = t.degrade_stride;
      t.scaled_w = std::max(1, (t.orig_w + stride - 1) / stride);
      t.scaled_h = std::max(1, (t.orig_h + stride - 1) / stride);
      filtered = img::resize_nearest(filtered, t.scaled_w, t.scaled_h);
    }
    if (t.scaled_w % ts != 0 || t.scaled_h % ts != 0) {
      filtered = img::pad_edge(filtered, (t.scaled_w + ts - 1) / ts * ts,
                               (t.scaled_h + ts - 1) / ts * ts);
    }
    t.tiles_x = filtered.width() / ts;
    t.tiles_y = filtered.height() / ts;
    t.filtered = std::move(filtered);
    t.scene = img::ImageU8();  // imagery no longer needed; free it early
    const int total = t.tiles_x * t.tiles_y;
    t.planes.resize(static_cast<std::size_t>(total));
    t.tiles_remaining.store(total, std::memory_order_release);
    t.ctx.report_progress("serve.prepare", 1, 1);

    std::size_t depth;
    {
      const std::scoped_lock lock(tile_mutex_);
      for (int i = 0; i < total; ++i) {
        push_tile(TileWork{ticket, i});
      }
      depth = tiles_.size();
    }
    tile_cv_.notify_all();

    // Queue-depth-driven scale-up: when more than one forward pass of tiles
    // is backed up, clone replicas (on this thread, off the workers' hot
    // path) so the backlog drains in parallel. ensure() caps at
    // max_replicas; idle ticks shrink back to min_replicas.
    const auto outstanding_batches =
        (depth + static_cast<std::size_t>(config_.batch_tiles) - 1) /
        static_cast<std::size_t>(config_.batch_tiles);
    if (outstanding_batches > 1) {
      pool_.ensure(static_cast<int>(outstanding_batches));
    }
  } catch (...) {
    resolve_error(ticket, std::current_exception());
  }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

bool SceneServer::tile_before(const TileWork& a, const TileWork& b) noexcept {
  const TicketState& ta = *a.ticket;
  const TicketState& tb = *b.ticket;
  if (ta.priority != tb.priority) return ta.priority > tb.priority;
  const bool da = ta.deadline.has_value();
  const bool db = tb.deadline.has_value();
  if (da != db) return da;  // deadline-bound work beats unbounded
  if (da && db && *ta.deadline != *tb.deadline) {
    return *ta.deadline < *tb.deadline;  // earliest deadline first
  }
  if (ta.seq != tb.seq) return ta.seq < tb.seq;  // submission FIFO
  return a.tile < b.tile;  // row-major within a scene
}

void SceneServer::push_tile(TileWork work) {
  tiles_.push_back(std::move(work));
  std::push_heap(tiles_.begin(), tiles_.end(),
                 [](const TileWork& a, const TileWork& b) {
                   return tile_before(b, a);
                 });
}

SceneServer::TileWork SceneServer::pop_tile() {
  std::pop_heap(tiles_.begin(), tiles_.end(),
                [](const TileWork& a, const TileWork& b) {
                  return tile_before(b, a);
                });
  TileWork work = std::move(tiles_.back());
  tiles_.pop_back();
  return work;
}

void SceneServer::promote_delayed(util::Clock::time_point now, bool force) {
  const auto ready_later = [](const DelayedTile& a, const DelayedTile& b) {
    return a.ready_at > b.ready_at;
  };
  while (!delayed_.empty() && (force || delayed_.front().ready_at <= now)) {
    std::pop_heap(delayed_.begin(), delayed_.end(), ready_later);
    push_tile(std::move(delayed_.back().work));
    delayed_.pop_back();
  }
}

std::vector<SceneServer::TileWork> SceneServer::gather() {
  // Real-time re-check tick while logically waiting on the injected clock:
  // bounds how stale the next deadline/backoff evaluation can be without
  // ever blocking on a clock that only a test thread advances.
  constexpr std::chrono::milliseconds kTick{1};
  std::vector<TileWork> batch;
  std::vector<std::shared_ptr<TicketState>> expired;
  std::unique_lock lock(tile_mutex_);
  std::optional<util::Clock::time_point> flush_at;
  // Batch-fill latency: first tile popped -> batch handed to the worker.
  std::optional<util::Clock::time_point> fill_start;
  const auto observe_fill = [&](util::Clock::time_point end) {
    if (fill_start) {
      obs_.batch_fill->observe(
          std::chrono::duration<double>(end - *fill_start).count());
    }
  };

  for (;;) {
    const auto now = clock_->now();
    promote_delayed(now, /*force=*/tiles_stopping_);

    // Fill in (priority, EDF, FIFO) order, shedding what already expired —
    // a forward pass must never be spent on an answer nobody can use.
    while (static_cast<int>(batch.size()) < config_.batch_tiles &&
           !tiles_.empty()) {
      TileWork work = pop_tile();
      TicketState& t = *work.ticket;
      if (t.resolved.load(std::memory_order_acquire)) continue;  // corpse
      if (t.deadline && now > *t.deadline) {
        expired.push_back(std::move(work.ticket));
        continue;
      }
      batch.push_back(std::move(work));
      if (!fill_start) fill_start = now;
    }
    if (!expired.empty()) {
      // Resolve outside the lock (a shed single-flight leader promotes a
      // follower, which re-enters fan_out -> tile_mutex_), then re-fill.
      lock.unlock();
      for (const auto& ticket : expired) shed(ticket);
      expired.clear();
      lock.lock();
      continue;
    }
    if (static_cast<int>(batch.size()) >= config_.batch_tiles) {
      observe_fill(now);
      return batch;
    }

    if (!batch.empty()) {
      // Dynamic batching: top the partial batch up, waiting at most
      // max_batch_wait for stragglers — and not at all once no admitted
      // scene can still contribute tiles (pending_scenes_ == 0).
      if (!flush_at) flush_at = now + config_.max_batch_wait;
      if (tiles_stopping_ ||
          pending_scenes_.load(std::memory_order_acquire) == 0 ||
          now >= *flush_at) {
        observe_fill(now);
        return batch;
      }
      tile_cv_.wait_for(lock, kTick, [&] {
        return tiles_stopping_ || !tiles_.empty() ||
               pending_scenes_.load(std::memory_order_acquire) == 0;
      });
      continue;
    }

    // Empty-handed.
    if (tiles_stopping_ && tiles_.empty() && delayed_.empty()) {
      return batch;  // shutdown: fully drained
    }
    if (!delayed_.empty()) {
      // Backed-off tiles only become due when the (possibly virtual) clock
      // says so; poll rather than sleep indefinitely.
      tile_cv_.wait_for(lock, kTick, [&] {
        return tiles_stopping_ || !tiles_.empty();
      });
    } else {
      tile_cv_.wait(lock, [&] {
        return tiles_stopping_ || !tiles_.empty() || !delayed_.empty();
      });
    }
  }
}

void SceneServer::worker_loop() {
  tensor::Tensor x, logits, probs;
  std::vector<int> pred;
  const int ts = config_.tile_size;
  const std::size_t plane = static_cast<std::size_t>(ts) * ts;

  for (;;) {
    std::vector<TileWork> batch = gather();
    if (batch.empty()) return;  // shutdown: queue drained

    // Skip tiles of scenes that were cancelled while queued.
    std::vector<TileWork> live;
    live.reserve(batch.size());
    for (auto& work : batch) {
      TicketState& t = *work.ticket;
      if (t.resolved.load(std::memory_order_acquire)) continue;
      if (t.cancelled()) {
        resolve_error(work.ticket,
                      std::make_exception_ptr(
                          par::OperationCancelled("SceneServer::batch")));
        continue;
      }
      live.push_back(std::move(work));
    }
    if (live.empty()) continue;

    // Queue-depth-driven scale-up: grow past the warm replicas only when
    // tiles are backed up behind this batch.
    bool backlog;
    {
      const std::scoped_lock lock(tile_mutex_);
      backlog = !tiles_.empty();
    }

    try {
      const int n = static_cast<int>(live.size());
      bool poison = false;
      util::Clock::time_point fw_begin{}, fw_end{};
      {
        // Lease scope covers only the work that needs the replica; the
        // argmax indices are fully copied into `pred`, so stitching,
        // caching, and stats below run with the replica already returned
        // to the pool for the next batch.
        ReplicaPool::Lease lease(pool_, /*allow_grow=*/backlog);
        try {
          nn::UNet& model = lease.model();
          model.bind(server_ctx_);
          if (x.ndim() != 4 || x.dim(0) != n) {
            x = tensor::Tensor({n, 3, ts, ts});
          }
          for (int s = 0; s < n; ++s) {
            const TicketState& t = *live[static_cast<std::size_t>(s)].ticket;
            const int tile = live[static_cast<std::size_t>(s)].tile;
            stage_tile(t.filtered, (tile % t.tiles_x) * ts,
                       (tile / t.tiles_x) * ts, ts, x, s);
          }
#if POLARICE_FAULT_INJECT
          if (config_.fault_injector != nullptr) {
            poison = config_.fault_injector->on_pass(FaultSite::kForward);
          }
#endif
          fw_begin = clock_->now();
          model.forward(x, logits, /*training=*/false);
          tensor::softmax_channel(logits, probs);
          pred.resize(static_cast<std::size_t>(n) * plane);
          tensor::argmax_channel(probs, pred.data());
          fw_end = clock_->now();
        } catch (...) {
          // The replica may have been interrupted mid-write of its internal
          // caches; its outputs can no longer be trusted. Quarantine it —
          // the watchdog rebuilds a replacement from a healthy clone.
          lease.mark_failed();
          throw;
        }
      }
      if (poison) {
        // kPoison models silent corruption: the pass "succeeds" but the
        // labels are garbage (255 is not a legal class id). Delivered
        // normally — detecting this is the verification harness's job.
        std::fill(pred.begin(), pred.end(), 255);
      }

      // Batch counters before delivery: delivering the last tile resolves
      // its ticket, and a caller returning from get() must already see this
      // batch's work in stats().
      obs_.forward->observe(
          std::chrono::duration<double>(fw_end - fw_begin).count());
      std::size_t scenes_in_batch = 0;
      {
        // Count distinct owning tickets (n is at most batch_tiles — tiny).
        std::vector<const TicketState*> seen;
        for (const auto& work : live) {
          const TicketState* p = work.ticket.get();
          if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
            seen.push_back(p);
          }
        }
        scenes_in_batch = seen.size();
        // Each owning ticket gets one forward span per batch it rode in —
        // a multi-batch scene renders each pass separately.
        for (const TicketState* p : seen) {
          if (p->trace != nullptr) p->trace->add_span("forward", fw_begin, fw_end);
        }
      }
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.batches;
        if (scenes_in_batch > 1) ++counters_.cross_scene_batches;
        counters_.session.tiles += static_cast<std::size_t>(n);
      }
      for (int s = 0; s < n; ++s) {
        deliver(live[static_cast<std::size_t>(s)],
                pred_plane(pred.data(), s, ts));
      }
    } catch (...) {
      // A failed forward is batch-local: the batch's tiles are re-queued
      // with backoff for scenes with retry budget left, only spent budgets
      // fail — and the server itself keeps serving.
      handle_batch_failure(live, std::current_exception());
    }
  }
}

void SceneServer::handle_batch_failure(const std::vector<TileWork>& live,
                                       std::exception_ptr error) {
  const auto ready_later = [](const DelayedTile& a, const DelayedTile& b) {
    return a.ready_at > b.ready_at;
  };
  std::vector<std::shared_ptr<TicketState>> exhausted;
  std::size_t retried_scenes = 0;
  std::size_t retried_tiles = 0;
  {
    const std::scoped_lock lock(tile_mutex_);
    const auto now = clock_->now();
    // Distinct owning tickets (a batch holds at most batch_tiles tiles).
    std::vector<TicketState*> seen;
    for (const auto& work : live) {
      TicketState& t = *work.ticket;
      if (std::find(seen.begin(), seen.end(), &t) != seen.end()) continue;
      seen.push_back(&t);
      if (t.resolved.load(std::memory_order_acquire)) continue;
      if (t.retries >= t.retry_budget) {
        exhausted.push_back(work.ticket);
        continue;
      }
      ++t.retries;
      ++retried_scenes;
      // Capped exponential backoff: base * 2^(attempt-1), <= cap.
      const int shift = std::min(t.retries - 1, 20);
      const auto delay =
          std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                       config_.retry.backoff_base * (1LL << shift)),
                   config_.retry.backoff_cap);
      const auto ready_at = now + delay;
      for (const auto& sibling : live) {
        if (sibling.ticket.get() != &t) continue;
        delayed_.push_back(DelayedTile{sibling, ready_at});
        std::push_heap(delayed_.begin(), delayed_.end(), ready_later);
        ++retried_tiles;
      }
    }
  }
  tile_cv_.notify_all();
  {
    const std::scoped_lock lock(stats_mutex_);
    ++counters_.batch_failures;
    counters_.retries += retried_scenes;
    counters_.retried_tiles += retried_tiles;
    counters_.retry_exhausted += exhausted.size();
  }
  // Budget exhaustion fails only the owning tickets — batch neighbors with
  // budget left were re-queued above and never observe this failure.
  for (const auto& ticket : exhausted) resolve_error(ticket, error);
  // Kick the watchdog: if the failure quarantined a replica, rebuild it.
  // The empty critical section orders this notify after any pred the
  // watchdog evaluated before the quarantine landed.
  { const std::scoped_lock lock(watchdog_mutex_); }
  watchdog_cv_.notify_one();
}

void SceneServer::watchdog_loop() {
  std::unique_lock lock(watchdog_mutex_);
  for (;;) {
    watchdog_cv_.wait(lock, [&] {
      return watchdog_stop_ || pool_.quarantined() > 0;
    });
    if (watchdog_stop_) return;
    lock.unlock();
    pool_.repair();
    lock.lock();
  }
}

void SceneServer::deliver(const TileWork& work, img::ImageU8 plane) {
  TicketState& t = *work.ticket;
  if (t.resolved.load(std::memory_order_acquire)) return;
  t.planes[static_cast<std::size_t>(work.tile)] = std::move(plane);
  const int before = t.tiles_remaining.fetch_sub(1, std::memory_order_acq_rel);
  const auto total = static_cast<std::size_t>(t.tiles_x) * t.tiles_y;
  t.ctx.report_progress("serve.tiles", total - static_cast<std::size_t>(before - 1),
                        total);
  if (before == 1) finalize(work.ticket);
}

void SceneServer::finalize(const std::shared_ptr<TicketState>& ticket) {
  TicketState& t = *ticket;
  if (!t.claim()) return;  // cancellation won
  try {
#if POLARICE_FAULT_INJECT
    // Before the cache insert, deliberately: a scene that fails here must
    // never leave a (possibly poisoned) entry for followers or future
    // submissions to read.
    if (config_.fault_injector != nullptr) {
      (void)config_.fault_injector->on_pass(FaultSite::kStitch);
    }
#endif
    const auto stitch_begin = clock_->now();
    img::ImageU8 labels = s2::stitch_labels(t.planes, t.tiles_x, t.tiles_y);
    if (labels.width() != t.scaled_w || labels.height() != t.scaled_h) {
      labels = img::crop(labels, 0, 0, t.scaled_w, t.scaled_h);
    }
    if (t.degrade) {
      // Back to scene geometry; nearest keeps class ids intact.
      labels = img::resize_nearest(labels, t.orig_w, t.orig_h);
    }
    const auto stitch_end = clock_->now();
    obs_.stitch->observe(
        std::chrono::duration<double>(stitch_end - stitch_begin).count());
    if (t.trace != nullptr) t.trace->add_span("stitch", stitch_begin, stitch_end);
    std::size_t evicted = 0;
    if (t.cacheable) {
      evicted = cache_.insert(t.key, labels);
      persist(t.key, labels);
      obs_.cache_stores->add();
    }
    const double latency =
        std::chrono::duration<double>(clock_->now() - t.submitted_at).count();
    {
      const std::scoped_lock lock(stats_mutex_);
      ++counters_.completed;
      if (t.degrade) ++counters_.degraded;
      counters_.cache_evictions += evicted;
      ++counters_.session.scenes;
      counters_.session.busy_seconds += latency;
    }
    obs_.completed->add();
    obs_.e2e->observe(latency);
    record_trace(t, "completed");

    // Single-flight: this leader's plane resolves every attached follower
    // (each spent zero forward passes). A follower cancelled while it
    // waited resolves as cancelled, matching the promote() path — the
    // result is in hand, but the submitter asked out. Counters before each
    // publish, as everywhere.
    for (const auto& follower : take_followers(ticket)) {
      if (follower->cancelled()) {
        resolve_error(follower,
                      std::make_exception_ptr(
                          par::OperationCancelled("SceneServer::coalesced")));
        continue;
      }
      if (!follower->claim()) continue;
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.completed;
      }
      obs_.completed->add();
      obs_.e2e->observe(std::chrono::duration<double>(clock_->now() -
                                                      follower->submitted_at)
                            .count());
      record_trace(*follower, "completed");
      // A follower's own sink never saw prepare/tile ticks (the leader did
      // the work); one completion tick keeps progress-driven callers
      // moving.
      follower->ctx.report_progress("serve.coalesced", 1, 1);
      follower->publish(labels.clone(), nullptr);
    }
    t.publish(std::move(labels), nullptr, t.degrade);
  } catch (...) {
    // The claim is already ours, so resolve_error cannot run — publish the
    // failure directly and hand followers to a fresh leader. The cache was
    // not touched (the insert sits after every throwing step but the
    // follower publishes, which only clone()).
    {
      const std::scoped_lock lock(stats_mutex_);
      ++counters_.failed;
    }
    obs_.failed->add();
    record_trace(t, "failed");
    t.publish(img::ImageU8(), std::current_exception());
    auto followers = take_followers(ticket);
    if (!followers.empty()) promote(std::move(followers));
  }
}

void SceneServer::persist(const SceneKey& key, const img::ImageU8& plane) {
  if (store_ == nullptr) return;
  try {
    const bool accepted = store_->append(key, plane);
    if (accepted) {
      const std::scoped_lock lock(stats_mutex_);
      ++counters_.cache_persisted;
    }
    // Threshold flush on the finalizing worker thread: amortized disk I/O
    // in exchange for planes that survive a SIGKILL, not only a drain.
    if (store_->pending_bytes() >= config_.cache_flush_bytes) {
      store_->flush();
    }
  } catch (const CacheStoreError&) {
    // Persistence is best-effort during serving: a full or failing disk
    // costs durability of this plane, never the request.
  }
}

void SceneServer::shed(const std::shared_ptr<TicketState>& ticket) {
  resolve_error(ticket, std::make_exception_ptr(DeadlineExceeded(
                            "scene shed by SceneServer")));
}

void SceneServer::sweep_expired() {
  std::vector<std::shared_ptr<TicketState>> victims;
  {
    const std::scoped_lock lock(tile_mutex_);
    const auto now = clock_->now();
    auto consider = [&](const std::shared_ptr<TicketState>& ticket) {
      const TicketState& t = *ticket;
      if (!t.deadline || now <= *t.deadline) return;
      if (t.resolved.load(std::memory_order_acquire)) return;
      for (const auto& seen : victims) {
        if (seen == ticket) return;
      }
      victims.push_back(ticket);
    };
    for (const auto& work : tiles_) consider(work.ticket);
    for (const auto& delayed : delayed_) consider(delayed.work.ticket);
  }
  // Resolve outside the lock; the victims' remaining queued tiles become
  // corpses that workers discard at pop.
  for (const auto& ticket : victims) shed(ticket);
}

void SceneServer::resolve_error(const std::shared_ptr<TicketState>& ticket,
                                std::exception_ptr error) {
  TicketState& t = *ticket;
  if (!t.claim()) return;
  enum { kCancelled, kShed, kFailed } outcome = kFailed;
  try {
    std::rethrow_exception(error);
  } catch (const par::OperationCancelled&) {
    outcome = kCancelled;
  } catch (const DeadlineExceeded&) {
    outcome = kShed;
  } catch (...) {
  }
  {
    const std::scoped_lock lock(stats_mutex_);
    if (outcome == kCancelled) {
      ++counters_.cancelled;
    } else if (outcome == kShed) {
      ++counters_.shed;
    } else {
      ++counters_.failed;
    }
  }
  if (outcome == kCancelled) {
    record_trace(t, "cancelled");
  } else if (outcome == kShed) {
    obs_.shed->add();
    record_trace(t, "shed");
  } else {
    obs_.failed->add();
    record_trace(t, "failed");
  }
  t.publish(img::ImageU8(), std::move(error));

  // A failed/cancelled/shed leader must not take its followers down with
  // it: they were coalesced on content, not on the submitter's intent (or
  // deadline).
  auto followers = take_followers(ticket);
  if (!followers.empty()) promote(std::move(followers));
}

void SceneServer::record_trace(TicketState& t, const char* outcome) {
  if (t.trace == nullptr) return;
  obs::TraceRecord rec;
  rec.id = t.trace->id();
  rec.outcome = outcome;
  rec.degraded = t.degrade;
  rec.total_s = t.trace->elapsed_s();
  rec.spans = t.trace->spans();
  tracer_.record(std::move(rec));
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

SceneServerStats SceneServer::snapshot() const {
  // Every counter (submitted/completed/cancelled/failed/rejected/shed,
  // cache hit/miss/eviction, batches, retries, session scenes/tiles) now
  // lives in counters_ and is copied under this one lock — a snapshot can
  // never pair a post-completion `completed` with a pre-admission
  // `submitted`. The remaining fields are component-owned gauges and
  // high-water marks, sampled (each under its own lock) while the counter
  // set is pinned.
  const std::scoped_lock lock(stats_mutex_);
  SceneServerStats out = counters_;
  out.session.wait_seconds = pool_.wait_seconds();
  out.session.peak_leases = pool_.peak_leases();
  out.peak_queue_depth = queue_.peak_depth();
  out.replicas = pool_.size();
  out.peak_replicas = pool_.peak_size();
  out.replicas_quarantined = pool_.total_quarantined();
  out.replicas_rebuilt = pool_.total_rebuilt();
  return out;
}

}  // namespace polarice::core::serve
