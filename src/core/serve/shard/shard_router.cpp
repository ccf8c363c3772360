#include "core/serve/shard/shard_router.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/serve/request_queue.h"
#include "obs/instruments.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/log.h"

namespace polarice::core::serve::shard {

namespace detail {

/// Shared resolution state behind a ShardTicket — the remote analogue of
/// SceneServer's internal ticket state: resolved exactly once, read many
/// times, waited on with a real condition variable (never the injectable
/// clock, which only answers now()).
struct RemoteTicketState {
  // Immutable after submit().
  std::uint64_t request_id = 0;
  img::ImageU8 scene;
  SubmitOptions options;
  SceneKey key;
  par::CancellationToken cancellation;  // shared with the caller's ctx

  std::atomic<bool> cancel_requested{false};

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;             // guarded by mutex
  img::ImageU8 plane;            // guarded by mutex
  bool plane_degraded = false;   // guarded by mutex
  std::exception_ptr error;      // guarded by mutex

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel_requested.load(std::memory_order_relaxed) ||
           cancellation.cancelled();
  }

  void resolve_value(img::ImageU8 result, bool degraded) {
    {
      const std::scoped_lock lock(mutex);
      if (done) return;
      plane = std::move(result);
      plane_degraded = degraded;
      done = true;
    }
    cv.notify_all();
  }

  void resolve_error(std::exception_ptr eptr) {
    {
      const std::scoped_lock lock(mutex);
      if (done) return;
      error = std::move(eptr);
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// ShardTicket
// ---------------------------------------------------------------------------

bool ShardTicket::ready() const {
  if (!state_) throw std::logic_error("ShardTicket::ready on empty ticket");
  const std::scoped_lock lock(state_->mutex);
  return state_->done;
}

void ShardTicket::wait() const {
  if (!state_) throw std::logic_error("ShardTicket::wait on empty ticket");
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool ShardTicket::wait_for(std::chrono::milliseconds timeout) const {
  if (!state_) throw std::logic_error("ShardTicket::wait_for on empty ticket");
  std::unique_lock lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout, [&] { return state_->done; });
}

img::ImageU8 ShardTicket::get() const {
  if (!state_) throw std::logic_error("ShardTicket::get on empty ticket");
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->plane;
}

bool ShardTicket::degraded() const {
  if (!state_) {
    throw std::logic_error("ShardTicket::degraded on empty ticket");
  }
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->plane_degraded;
}

void ShardTicket::cancel() const {
  if (!state_) throw std::logic_error("ShardTicket::cancel on empty ticket");
  state_->cancel_requested.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

void ShardRouterConfig::validate() const {
  if (shards.empty()) {
    throw std::invalid_argument("ShardRouterConfig: no shard endpoints");
  }
  if (dispatchers < 1) {
    throw std::invalid_argument("ShardRouterConfig: dispatchers < 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ShardRouterConfig: queue_capacity == 0");
  }
  if (heartbeat_period.count() <= 0 || heartbeat_timeout.count() <= 0) {
    throw std::invalid_argument(
        "ShardRouterConfig: non-positive heartbeat period/timeout");
  }
  if (quarantine_failures < 1) {
    throw std::invalid_argument("ShardRouterConfig: quarantine_failures < 1");
  }
  if (max_failovers < 0) {
    throw std::invalid_argument("ShardRouterConfig: max_failovers < 0");
  }
  if (request_timeout.count() <= 0) {
    throw std::invalid_argument("ShardRouterConfig: request_timeout <= 0");
  }
  if (redial_base.count() <= 0) {
    throw std::invalid_argument("ShardRouterConfig: redial_base <= 0");
  }
  if (redial_cap < redial_base) {
    throw std::invalid_argument(
        "ShardRouterConfig: redial_cap < redial_base");
  }
}

ShardRouter::ShardRouter(ShardRouterConfig config)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock
                                      : &util::system_clock()),
      obs_(obs::RouterInstruments::get()) {
  config_.validate();
  shards_.reserve(config_.shards.size());
  for (const auto& endpoint : config_.shards) {
    auto shard = std::make_unique<Shard>();
    shard->endpoint = endpoint;
    const std::string name = endpoint.to_string();
    shard->id_hash = util::fnv64(name.data(), name.size());
    shards_.push_back(std::move(shard));
  }
  heartbeat_ = std::jthread([this] { heartbeat_loop(); });
  dispatchers_.reserve(static_cast<std::size_t>(config_.dispatchers));
  for (int i = 0; i < config_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

ShardRouter::~ShardRouter() { shutdown(); }

ShardTicket ShardRouter::submit(img::ImageU8 scene,
                                const SubmitOptions& options,
                                const par::ExecutionContext& ctx) {
  if (scene.width() <= 0 || scene.height() <= 0 || scene.channels() <= 0) {
    throw std::invalid_argument("ShardRouter::submit: empty scene");
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    throw QueueClosed();
  }

  // Fleet-level shedding: refuse up front when no shard could take the
  // scene — every live shard is over the overload watermark (or none is
  // live). Cheap (latest-heartbeat reads), so it runs before hashing the
  // pixels.
  if (config_.shed_queue_depth > 0) {
    bool any_open = false;
    for (const auto& shard : shards_) {
      const std::scoped_lock lock(shard->mutex);
      if (shard->healthy && shard->accepting &&
          shard->queue_depth <= config_.shed_queue_depth) {
        any_open = true;
        break;
      }
    }
    if (!any_open) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.rejected;
      }
      throw AdmissionRejected(
          "ShardRouter: all shards over the overload watermark");
    }
  }

  auto state = std::make_shared<detail::RemoteTicketState>();
  state->request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  state->options = options;
  if (state->options.trace_id == 0) {
    // Fleet-wide trace identity: the worker's trace reuses this id, so one
    // number finds a slow request on both tiers.
    state->options.trace_id = obs::TraceContext::next_id();
  }
  state->key = hash_scene(scene);
  state->scene = std::move(scene);
  state->cancellation = ctx.cancellation();

  {
    const std::scoped_lock lock(queue_mutex_);
    if (closed_) throw QueueClosed();
    if (queue_.size() >= config_.queue_capacity) {
      {
        const std::scoped_lock stats_lock(stats_mutex_);
        ++counters_.rejected;
      }
      throw AdmissionRejected("ShardRouter: dispatch queue full");
    }
    queue_.push_back(state);
    {
      const std::scoped_lock stats_lock(stats_mutex_);
      ++counters_.submitted;
    }
  }
  queue_cv_.notify_one();
  return ShardTicket(std::move(state));
}

img::ImageU8 ShardRouter::classify_scene(const img::ImageU8& scene_rgb) {
  return submit(scene_rgb).get();
}

void ShardRouter::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  {
    const std::scoped_lock lock(queue_mutex_);
    closed_ = true;
  }
  queue_cv_.notify_all();
  dispatchers_.clear();  // jthread join; dispatchers drain the queue first
  if (heartbeat_.joinable()) heartbeat_.join();
}

bool ShardRouter::wait_for_healthy(int count,
                                   std::chrono::milliseconds timeout) {
  // Startup aid, so it polls real time: a frozen VirtualClock would make
  // "wait for workers to come up" undecidable otherwise.
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int up = 0;
    for (const auto& shard : shards_) {
      const std::scoped_lock lock(shard->mutex);
      if (shard->healthy && shard->heartbeats_ok > 0) ++up;
    }
    if (up >= count) return true;
    if (std::chrono::steady_clock::now() >= give_up) return false;
    if (shut_down_.load(std::memory_order_acquire)) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

ShardRouterStats ShardRouter::stats() const {
  ShardRouterStats out;
  {
    const std::scoped_lock lock(stats_mutex_);
    out = counters_;
  }
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    ShardState state;
    state.endpoint = shard->endpoint;
    state.healthy = shard->healthy;
    state.accepting = shard->accepting;
    state.consecutive_failures = shard->consecutive_failures;
    state.queue_depth = shard->queue_depth;
    state.dispatched = shard->dispatched;
    state.heartbeats_ok = shard->heartbeats_ok;
    state.heartbeats_failed = shard->heartbeats_failed;
    state.redial_attempts = shard->redial_attempts;
    state.uptime_seconds = shard->last_uptime;
    state.brownout_active = shard->brownout_active;
    state.stats = shard->last_stats;
    out.shards.push_back(std::move(state));
  }
  return out;
}

std::vector<int> ShardRouter::placement(const SceneKey& key) const {
  // Rendezvous: score every shard against the scene's content hash; the
  // descending score order is the scene's failover order. Stable across
  // routers and across shard-set edits (only scenes whose winner changed
  // move).
  struct Scored {
    std::uint64_t score;
    int index;
  };
  std::vector<Scored> scored;
  scored.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    util::Fnv128 hash;
    hash.update_le(shards_[i]->id_hash);
    hash.update_le(key.hash_lo);
    hash.update_le(key.hash_hi);
    scored.push_back(Scored{hash.lo, static_cast<int>(i)});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  });
  std::vector<int> order;
  order.reserve(scored.size());
  for (const auto& s : scored) order.push_back(s.index);
  return order;
}

std::vector<std::optional<MetricsResponse>> ShardRouter::scrape_metrics() {
  // A scrape is rare and tolerant, so it always dials fresh instead of
  // borrowing pooled dispatch connections; a failed shard yields nullopt
  // (callers render a hole in the fleet table, they do not throw).
  std::vector<std::optional<MetricsResponse>> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const auto deadline = clock_->now() + config_.heartbeat_timeout;
    try {
      net::Connection connection =
          net::connect(shard->endpoint, clock_, deadline);
      connection.write_frame(net::MsgType::kMetricsRequest, {}, deadline);
      net::Frame frame = connection.read_frame(deadline);
      if (frame.type != net::MsgType::kMetricsResponse) {
        throw net::WireError("unexpected frame type in metrics response");
      }
      out.emplace_back(decode_metrics_response(frame.payload));
    } catch (const net::TransportError&) {
      out.emplace_back(std::nullopt);
    } catch (const net::WireError&) {
      out.emplace_back(std::nullopt);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void ShardRouter::dispatcher_loop() {
  for (;;) {
    std::shared_ptr<detail::RemoteTicketState> ticket;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      ticket = std::move(queue_.front());
      queue_.pop_front();
      if (closed_) {
        // Shutdown: fail the popped request instead of dispatching it —
        // the SceneServer contract for work caught in a closing queue.
        lock.unlock();
        {
          const std::scoped_lock stats_lock(stats_mutex_);
          ++counters_.failed;
        }
        ticket->resolve_error(std::make_exception_ptr(
            QueueClosed()));
        continue;
      }
    }
    if (ticket->cancelled()) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.cancelled;
      }
      ticket->resolve_error(std::make_exception_ptr(
          par::OperationCancelled("ShardRouter dispatch")));
      continue;
    }
    dispatch(ticket);
  }
}

void ShardRouter::dispatch(
    const std::shared_ptr<detail::RemoteTicketState>& ticket) {
  // Placement -> final outcome, failovers included: observed on every exit
  // path, so the histogram's count matches dispatch attempts 1:1.
  struct ObserveDispatch {
    const util::Clock* clock;
    util::Clock::time_point begin;
    obs::Histogram* histogram;
    ~ObserveDispatch() {
      histogram->observe(
          std::chrono::duration<double>(clock->now() - begin).count());
    }
  } observe_dispatch{clock_, clock_->now(), obs_.dispatch};
  const std::vector<int> order = placement(ticket->key);

  // Candidate pass 1: healthy, accepting, under the overload watermark.
  // Pass 2 relaxes the watermark (better a slow answer than none), pass 3
  // relaxes health too — a quarantined shard may have recovered before the
  // prober noticed, and a failed attempt there costs one round-trip error.
  std::vector<int> candidates;
  for (int pass = 0; pass < 3 && candidates.empty(); ++pass) {
    for (int index : order) {
      Shard& shard = *shards_[static_cast<std::size_t>(index)];
      const std::scoped_lock lock(shard.mutex);
      if (pass < 2 && (!shard.healthy || !shard.accepting)) continue;
      if (pass < 1 && config_.shed_queue_depth > 0 &&
          shard.queue_depth > config_.shed_queue_depth) {
        continue;
      }
      candidates.push_back(index);
    }
  }

  const int budget =
      std::min(static_cast<int>(candidates.size()), 1 + config_.max_failovers);
  std::string last_error = "no shard available";
  bool last_was_rejection = false;  // classifies the budget-exhausted tail
  for (int attempt = 0; attempt < budget; ++attempt) {
    if (ticket->cancelled()) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.cancelled;
      }
      ticket->resolve_error(std::make_exception_ptr(
          par::OperationCancelled("ShardRouter dispatch")));
      return;
    }
    Shard& shard = *shards_[static_cast<std::size_t>(
        candidates[static_cast<std::size_t>(attempt)])];
    if (attempt > 0) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.failovers;
      }
      obs_.failovers->add();
      LOG_WARN_C("router") << "failover " << attempt << "/"
                           << (budget - 1) << " for request "
                           << ticket->request_id << " -> "
                           << shard.endpoint.to_string() << " (last: "
                           << last_error << ")";
    }
    SubmitResponse response;
    try {
      response = round_trip(shard, ticket);
    } catch (const net::WireError& error) {
      last_error = error.what();
      last_was_rejection = false;
      record_failure(shard);
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.dispatch_errors;
      }
      continue;  // failover: next shard in rendezvous order
    } catch (const net::TransportError& error) {
      last_error = error.what();
      last_was_rejection = false;
      record_failure(shard);
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.dispatch_errors;
      }
      continue;
    }
    record_success(shard);

    // Cancel contract: a request already on the wire completes remotely but
    // resolves cancelled on return — the caller must never observe a
    // successful result after cancel().
    if (ticket->cancelled()) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++counters_.cancelled;
      }
      ticket->resolve_error(std::make_exception_ptr(
          par::OperationCancelled("ShardRouter dispatch")));
      return;
    }

    // Counters bump before the ticket resolves: a caller returning from
    // get() must already see its outcome in stats().
    switch (response.outcome) {
      case Outcome::kOk: {
        {
          const std::scoped_lock lock(stats_mutex_);
          ++counters_.completed;
          if (response.degraded) ++counters_.degraded;
        }
        ticket->resolve_value(std::move(response.plane), response.degraded);
        return;
      }
      case Outcome::kRejected: {
        // The worker's own admission refused it — overloaded or draining.
        // That is exactly what failover is for; only when every candidate
        // refuses does the rejection reach the caller.
        last_error = response.error.empty() ? "shard rejected submission"
                                            : response.error;
        last_was_rejection = true;
        continue;
      }
      case Outcome::kShed: {
        // Deadline passed at the worker; another shard cannot un-miss it.
        {
          const std::scoped_lock lock(stats_mutex_);
          ++counters_.shed;
        }
        ticket->resolve_error(std::make_exception_ptr(DeadlineExceeded(
            response.error.empty() ? "shed by shard" : response.error)));
        return;
      }
      case Outcome::kCancelled: {
        {
          const std::scoped_lock lock(stats_mutex_);
          ++counters_.cancelled;
        }
        ticket->resolve_error(std::make_exception_ptr(
            par::OperationCancelled("shard-side cancellation")));
        return;
      }
      case Outcome::kFailed: {
        {
          const std::scoped_lock lock(stats_mutex_);
          ++counters_.failed;
        }
        ticket->resolve_error(std::make_exception_ptr(std::runtime_error(
            "shard failure: " +
            (response.error.empty() ? "unknown" : response.error))));
        return;
      }
    }
  }

  // Budget exhausted: every candidate failed or refused. Admission
  // refusals count as rejected (matching the AdmissionRejected thrown from
  // get()); transport/wire breakage counts as failed.
  {
    const std::scoped_lock lock(stats_mutex_);
    if (last_was_rejection) {
      ++counters_.rejected;
    } else {
      ++counters_.failed;
    }
  }
  ticket->resolve_error(std::make_exception_ptr(AdmissionRejected(
      "ShardRouter: dispatch failed on all shards: " + last_error)));
}

SubmitResponse ShardRouter::round_trip(
    Shard& shard, const std::shared_ptr<detail::RemoteTicketState>& ticket) {
  const auto deadline = clock_->now() + config_.request_timeout;

  // Reuse a pooled connection when one is idle; otherwise dial. A
  // connection that throws anywhere below is simply dropped (its
  // destructor closes the socket) — the pool only ever holds sockets whose
  // last exchange completed cleanly.
  net::Connection connection;
  {
    const std::scoped_lock lock(shard.mutex);
    if (!shard.idle.empty()) {
      connection = std::move(shard.idle.back());
      shard.idle.pop_back();
    }
  }
  if (!connection.valid()) {
    connection = net::connect(shard.endpoint, clock_, deadline);
  }

  SubmitRequest request;
  request.request_id = ticket->request_id;
  request.options = ticket->options;
  request.scene = ticket->scene;
  const auto wire_begin = clock_->now();
  connection.write_frame(net::MsgType::kSubmitRequest, encode(request),
                         deadline);
  {
    const std::scoped_lock lock(shard.mutex);
    ++shard.dispatched;
  }
  obs_.dispatched->add();

  net::Frame frame = connection.read_frame(deadline);
  obs_.wire_roundtrip->observe(
      std::chrono::duration<double>(clock_->now() - wire_begin).count());
  if (frame.type != net::MsgType::kSubmitResponse) {
    throw net::WireError("unexpected frame type in submit response");
  }
  SubmitResponse response = decode_submit_response(frame.payload);
  if (response.request_id != ticket->request_id) {
    throw net::WireError("submit response id mismatch");
  }

  {
    const std::scoped_lock lock(shard.mutex);
    shard.idle.push_back(std::move(connection));
  }
  return response;
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

void ShardRouter::heartbeat_loop() {
  // Every tick, probe exactly the shards whose next_probe_at has arrived
  // on the injected clock. Healthy shards are due every heartbeat_period;
  // a quarantined shard's probes space out under capped exponential
  // backoff (probe() schedules it), so a dead TCP endpoint is re-dialed a
  // handful of times per redial_cap, not once per tick. Default
  // next_probe_at is the epoch, so the first round still probes everything
  // immediately and wait_for_healthy() resolves as soon as workers bind.
  // Sleeps are real-time ticks with a stop check — due-ness rides the
  // injected clock, the polling cadence does not need to.
  constexpr std::chrono::milliseconds kTick{10};
  while (!shut_down_.load(std::memory_order_acquire)) {
    for (const auto& shard : shards_) {
      if (shut_down_.load(std::memory_order_acquire)) return;
      bool due;
      {
        const std::scoped_lock lock(shard->mutex);
        due = clock_->now() >= shard->next_probe_at;
      }
      if (due) probe(*shard);
    }
    std::this_thread::sleep_for(
        std::min<std::chrono::milliseconds>(kTick, config_.heartbeat_period));
  }
}

std::chrono::milliseconds ShardRouter::redial_delay(const Shard& shard,
                                                    int attempt) const {
  // Capped exponential: base * 2^(attempt-1), <= cap ...
  const int shift = std::min(attempt - 1, 20);
  const auto backoff = std::min<std::chrono::milliseconds>(
      config_.redial_base * (1LL << shift), config_.redial_cap);
  // ... plus deterministic jitter (<= 25% of the delay) derived from the
  // shard identity and the attempt number: reproducible in tests, yet
  // different shards (and successive attempts) desynchronize instead of
  // re-dialing a rebooting worker in lockstep.
  util::Fnv128 hash;
  hash.update_le(shard.id_hash);
  hash.update_le(static_cast<std::uint64_t>(attempt));
  const auto span = static_cast<std::uint64_t>(backoff.count()) / 4 + 1;
  return backoff + std::chrono::milliseconds(hash.lo % span);
}

void ShardRouter::probe(Shard& shard) {
  const auto deadline = clock_->now() + config_.heartbeat_timeout;
  net::Connection connection;
  {
    const std::scoped_lock lock(shard.mutex);
    connection = std::move(shard.heartbeat);
  }
  try {
    if (!connection.valid()) {
      connection = net::connect(shard.endpoint, clock_, deadline);
    }
    connection.write_frame(net::MsgType::kHeartbeatRequest, {}, deadline);
    net::Frame frame = connection.read_frame(deadline);
    if (frame.type != net::MsgType::kHeartbeatResponse) {
      throw net::WireError("unexpected frame type in heartbeat response");
    }
    HeartbeatResponse heartbeat = decode_heartbeat_response(frame.payload);
    bool restarted = false;
    {
      const std::scoped_lock lock(shard.mutex);
      shard.heartbeat = std::move(connection);
      shard.queue_depth = heartbeat.queue_depth;
      shard.accepting = heartbeat.accepting;
      shard.last_stats = heartbeat.stats;
      // Uptime running backwards = a different process answered: the
      // worker restarted (cold cache, zeroed counters), it did not merely
      // recover from a network blip.
      restarted = shard.last_uptime >= 0.0 &&
                  heartbeat.uptime_seconds < shard.last_uptime;
      shard.last_uptime = heartbeat.uptime_seconds;
      shard.brownout_active = heartbeat.brownout_active;
      ++shard.heartbeats_ok;
      shard.redial_attempts = 0;
      shard.next_probe_at = clock_->now() + config_.heartbeat_period;
    }
    const bool rejoined = record_success(shard);
    if (rejoined || restarted) {
      LOG_WARN_C("router")
          << "shard " << shard.endpoint.to_string()
          << (restarted ? " RESTARTED (uptime reset, caches cold)"
                        : " recovered (same process, caches warm)")
          << (rejoined ? ", leaving quarantine" : "")
          << (heartbeat.brownout_active ? ", brownout active" : "");
    }
  } catch (const net::TransportError&) {
    record_failure(shard, /*probe=*/true);
  } catch (const net::WireError&) {
    record_failure(shard, /*probe=*/true);
  }
}

bool ShardRouter::record_success(Shard& shard) {
  bool recovered = false;
  {
    const std::scoped_lock lock(shard.mutex);
    shard.consecutive_failures = 0;
    if (!shard.healthy) {
      shard.healthy = true;
      recovered = true;
    }
  }
  if (recovered) {
    const std::scoped_lock lock(stats_mutex_);
    ++counters_.recoveries;
  }
  return recovered;
}

void ShardRouter::record_failure(Shard& shard, bool probe) {
  bool quarantined = false;
  std::vector<net::Connection> stale;
  {
    const std::scoped_lock lock(shard.mutex);
    ++shard.consecutive_failures;
    if (shard.healthy &&
        shard.consecutive_failures >= config_.quarantine_failures) {
      shard.healthy = false;
      quarantined = true;
      // A quarantined shard's pooled sockets are suspect — drop them so
      // recovery dials fresh.
      stale.swap(shard.idle);
      shard.heartbeat.close();
    }
    if (probe) {
      // After the quarantine decision above: a still-healthy shard keeps
      // the plain heartbeat cadence; a quarantined one backs off.
      ++shard.heartbeats_failed;
      if (shard.healthy) {
        shard.redial_attempts = 0;
        shard.next_probe_at = clock_->now() + config_.heartbeat_period;
      } else {
        ++shard.redial_attempts;
        shard.next_probe_at =
            clock_->now() + redial_delay(shard, shard.redial_attempts);
      }
    }
  }
  if (quarantined) {
    {
      const std::scoped_lock lock(stats_mutex_);
      ++counters_.quarantines;
    }
    LOG_WARN_C("router") << "shard " << shard.endpoint.to_string()
                         << " quarantined after "
                         << config_.quarantine_failures
                         << " consecutive failures";
  }
}

}  // namespace polarice::core::serve::shard
