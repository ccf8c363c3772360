// Fig 9 as a service: an open loop of scene requests against a SceneServer
// (the serve_unique workload, and the serving probes of a traced run).
//
// One generator thread sends request i at its due time start + i / rate,
// whatever the server is doing, so a stall shows as queueing in every later
// request; latency is timed from the due time. A collector thread waits for
// the tickets in submission order and timestamps each resolution (a request
// that resolves before an earlier one is seen when the earlier one is, as an
// in-order client would see it).

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/serve/scene_server.h"
#include "core/workflow.h"
#include "img/image.h"
#include "img/ops.h"
#include "obs/metrics.h"
#include "par/parallel_for.h"
#include "s2/scene.h"
#include "trace.h"
#include "util/hash.h"
#include "util/mem_stats.h"
#include "util/rng.h"
#include "workload_config.h"

namespace perfbench {

namespace core = polarice::core;
namespace serve = polarice::core::serve;
namespace img = polarice::img;
namespace nn = polarice::nn;
namespace obs = polarice::obs;
namespace par = polarice::par;
namespace s2 = polarice::s2;
namespace util = polarice::util;

namespace {

// Fixed offered loads, measured on a 4-core AVX-512 host (README.md):
// serve_unique at under half of the server's capacity for distinct scenes,
// the cache-path probe at a high rate that path sustains without a backlog.
constexpr double kUniqueRate = 20.0;          // requests/s
constexpr double kHotRate = 1000.0;           // requests/s
constexpr double kUniqueLimitMs = 100.0;      // latency limit (slo_miss_frac)
// A generator whose p95 send is later than one inter-arrival gap (and at
// least this) could not keep its own schedule; such a run is rejected.
constexpr double kMinGenLateLimitMs = 2.0;
constexpr double kProbeSeconds = 2.0;         // run_serve_probes windows

// Requests classified in setup, on scenes the window never sends, so lazy
// allocations and cold caches are paid before timing.
constexpr std::size_t kWarmupRequests = 8;
constexpr auto kSpinBeforeDue = std::chrono::milliseconds(2);
// Latency percentiles are taken per block of this many consecutive sends.
constexpr std::size_t kBlockRequests = 25;

constexpr int kSourceSize = 512;  // generated scenes the requests are cut from
constexpr int kCropStride = 16;

/// serve_unique's shape, or the cache-path probe's (`hot`).
struct Shape {
  bool hot = false;
  double rate = kUniqueRate;
};

Shape shape_of(bool hot) {
  return hot ? Shape{true, kHotRate} : Shape{false, kUniqueRate};
}

}  // namespace

/// `count` distinct kServeSceneSize² scenes, cut at a kCropStride grid from
/// generated cloudy kSourceSize² scenes. Distinct offsets give distinct
/// content, so no two requests share a cache key.
std::vector<img::ImageU8> make_serve_scenes(std::size_t count,
                                            std::uint64_t seed,
                                            par::ThreadPool* pool) {
  const int per_axis = (kSourceSize - kServeSceneSize) / kCropStride + 1;
  const auto per_source = static_cast<std::size_t>(per_axis * per_axis);
  const std::size_t sources = (count + per_source - 1) / per_source;
  std::vector<s2::Scene> generated(sources);
  par::parallel_for(pool, 0, sources, [&](std::size_t i) {
    s2::SceneConfig config;
    config.width = config.height = kSourceSize;
    config.seed = seed * 1000 + i;
    generated[i] = s2::SceneGenerator(config).generate();
  });
  std::vector<img::ImageU8> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto k = static_cast<int>(i % per_source);
    scenes.push_back(img::crop(generated[i / per_source].rgb,
                               (k % per_axis) * kCropStride,
                               (k / per_axis) * kCropStride, kServeSceneSize,
                               kServeSceneSize));
  }
  return scenes;
}

namespace {

std::uint64_t plane_hash(const img::ImageU8& plane) {
  return util::fnv64(plane.data(), plane.size());
}

serve::SceneServerConfig server_config() {
  serve::SceneServerConfig config;
  config.tile_size = kTile;
  config.batch_tiles = kServeBatchTiles;
  // One replica, so one inference worker thread.
  config.min_replicas = config.max_replicas = 1;
  return config;
}

/// A running server with its inputs. Members are destroyed in reverse
/// order: the server stops before the pool it runs on.
struct ServeState {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<nn::UNet> model;
  std::unique_ptr<serve::SceneServer> server;
  std::vector<img::ImageU8> scenes;
  std::vector<std::uint64_t> reference;  // hot: plane hash per scene
  // Tracked bytes before the model and server existed: peak_mb is the
  // server's residency (replicas, buffers, cache, queued requests) above it.
  std::size_t resident_base = 0;
};

std::unique_ptr<ServeState> serve_setup(const Options& opt, const Shape& shape,
                                        double seconds, Report& report) {
  auto s = std::make_unique<ServeState>();
  s->pool = make_pool(kModelPoolWorkers);
  const std::size_t sends =
      shape.hot ? 0 : static_cast<std::size_t>(shape.rate * seconds) + 1;
  s->scenes = make_serve_scenes(
      shape.hot ? kHotScenes : sends + kWarmupRequests, opt.seed,
      s->pool.get());
  s->resident_base = util::mem_current_bytes();
  s->model = std::make_unique<nn::UNet>(unet_config());
  s->server = std::make_unique<serve::SceneServer>(
      *s->model, server_config(), par::ExecutionContext(s->pool.get()));
  if (!shape.hot) {
    for (std::size_t i = sends; i < s->scenes.size(); ++i) {
      (void)s->server->classify_scene(s->scenes[i]);
    }
    return s;
  }
  {
    auto replica = s->model->clone();
    core::InferenceWorkflow workflow(*replica, server_config().filter, kTile,
                                     kServeBatchTiles);
    for (const auto& scene : s->scenes) {
      s->reference.push_back(plane_hash(workflow.classify_scene(scene)));
    }
  }
  for (std::size_t i = 0; i < s->scenes.size(); ++i) {  // warm the cache
    const auto plane = s->server->classify_scene(s->scenes[i]);
    if (plane_hash(plane) != s->reference[i]) {
      report.fail("cache warm-up plane differs from the serial reference");
    }
  }
  return s;
}

struct Request {
  std::size_t scene = 0;
  Clock::time_point due, sent, resolved;
  double submit_us = 0.0;
  enum class Outcome { kPending, kOk, kRejected, kShed, kFailed };
  Outcome outcome = Outcome::kPending;
  std::uint64_t hash = 0;
  bool corrupt = false;
};

struct Phase {
  std::vector<Request> requests;
  Clock::time_point start, end;  // first due time, last resolution
  serve::SceneServerStats before, after;
  obs::Snapshot registry_before, registry_after;
  std::size_t peak_bytes = 0;
};

/// One open-loop window of `seconds` at `shape.rate` against `state`.
/// serve_unique requests use scenes first_scene, first_scene + 1, ...
Phase run_phase(ServeState& state, const Shape& shape, double seconds,
                std::size_t first_scene, std::uint64_t seed, Tracer& tracer) {
  Phase phase;
  const auto count = static_cast<std::size_t>(shape.rate * seconds);
  phase.requests.resize(count);
  util::Rng rng(seed ^ 0x5e7e);
  for (std::size_t i = 0; i < count; ++i) {
    phase.requests[i].scene =
        shape.hot ? static_cast<std::size_t>(rng.uniform_int(0, kHotScenes - 1))
                  : first_scene + i;
  }
  std::vector<serve::SceneTicket> tickets(count);
  std::vector<std::uint64_t> spans(count, 0);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t published = 0;  // guarded by mutex

  phase.before = state.server->snapshot();
  phase.registry_before = obs::registry().snapshot();
  util::mem_reset_peak();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / shape.rate));
  phase.start = Clock::now() + std::chrono::milliseconds(5);

  std::thread collector([&] {
    for (std::size_t i = 0; i < count; ++i) {
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return published > i; });
      }
      Request& r = phase.requests[i];
      if (tickets[i].valid()) {
        tickets[i].wait();
        r.resolved = Clock::now();
        try {
          r.hash = plane_hash(tickets[i].get());
          r.outcome = Request::Outcome::kOk;
        } catch (const serve::DeadlineExceeded&) {
          r.outcome = Request::Outcome::kShed;
        } catch (...) {
          r.outcome = Request::Outcome::kFailed;
        }
        tickets[i] = serve::SceneTicket{};
      } else {
        r.resolved = Clock::now();
      }
      if (spans[i] != 0) {
        tracer.record(spans[i], 0, "serve.request", r.due, r.resolved);
      }
    }
  });

  std::thread generator([&] {
    for (std::size_t i = 0; i < count; ++i) {
      Request& r = phase.requests[i];
      r.due = phase.start + period * static_cast<long>(i);
      img::ImageU8 scene = state.scenes[r.scene];
      // Sleep until shortly before the due time, then spin: a sleeping
      // thread can wake milliseconds late on a virtual machine. At
      // the hot rate the generator therefore never sleeps.
      std::this_thread::sleep_until(r.due - kSpinBeforeDue);
      while (Clock::now() < r.due) {
      }
      r.sent = Clock::now();
      try {
        tickets[i] = state.server->submit(std::move(scene));
      } catch (const serve::AdmissionRejected&) {
        r.outcome = Request::Outcome::kRejected;
      } catch (...) {
        r.outcome = Request::Outcome::kFailed;
      }
      const auto submitted = Clock::now();
      r.submit_us =
          std::chrono::duration<double, std::micro>(submitted - r.sent).count();
      if (tracer.enabled()) {
        spans[i] = tracer.next_id();
        tracer.record(tracer.next_id(), spans[i], "serve.SceneServer.submit",
                      r.sent, submitted);
      }
      {
        const std::scoped_lock lock(mutex);
        published = i + 1;
      }
      cv.notify_one();
    }
  });
  generator.join();
  collector.join();

  phase.peak_bytes = util::mem_peak_bytes() - state.resident_base;
  phase.after = state.server->snapshot();
  phase.registry_after = obs::registry().snapshot();
  phase.end = phase.start;
  for (const auto& r : phase.requests) {
    phase.end = std::max(phase.end, r.resolved);
  }
  return phase;
}

/// Marks every completed plane that differs from the serial
/// InferenceWorkflow::classify_scene reference as corrupt. Unique-scene
/// references are computed here, one model copy per thread.
void verify(ServeState& state, const Shape& shape, std::vector<Phase*> phases,
            int threads) {
  std::vector<std::uint64_t> reference = state.reference;
  if (!shape.hot) {
    std::size_t used = 0;
    for (const Phase* p : phases) {
      for (const auto& r : p->requests) used = std::max(used, r.scene + 1);
    }
    reference.assign(used, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        auto model = state.model->clone();
        core::InferenceWorkflow workflow(*model, server_config().filter, kTile,
                                         kServeBatchTiles);
        for (std::size_t i = t; i < used; i += threads) {
          reference[i] = plane_hash(workflow.classify_scene(state.scenes[i]));
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  for (Phase* p : phases) {
    for (auto& r : p->requests) {
      r.corrupt = r.outcome == Request::Outcome::kOk &&
                  r.hash != reference[r.scene];
    }
  }
}

double histogram_p50_ms(const Phase& p, const char* name) {
  const auto* later = p.registry_after.find_histogram(name);
  const auto* earlier = p.registry_before.find_histogram(name);
  if (later == nullptr || earlier == nullptr) return 0.0;
  return obs::histogram_delta(*later, *earlier).percentile(0.5) * 1e3;
}

/// Outcome counts and latencies of a set of phases.
struct Summary {
  std::size_t attempted = 0, ok = 0, rejected = 0, shed = 0, failed = 0,
              corrupt = 0, slow = 0;
  std::vector<double> latency_ms, late_ms, submit_us;
  // Completed-request latencies per block of kBlockRequests sends.
  std::vector<std::vector<double>> blocks;
  double window_s = 0.0;
  std::size_t peak_bytes = 0;
};

/// Median over the blocks of each block's q-quantile. A host stall of a few
/// milliseconds moves the block it falls in, not the run's figure, so the
/// tail reads the same from run to run.
double block_quantile(const Summary& s, double q) {
  std::vector<double> per_block;
  for (const auto& block : s.blocks) {
    if (!block.empty()) per_block.push_back(quantile(block, q));
  }
  return median(std::move(per_block));
}

Summary summarize(const std::vector<Phase*>& phases) {
  Summary s;
  for (const Phase* p : phases) {
    s.window_s += seconds_between(p->start, p->end);
    s.peak_bytes = std::max(s.peak_bytes, p->peak_bytes);
    const std::size_t first_block = s.blocks.size();
    // A short last block joins the one before it.
    const std::size_t full_blocks =
        std::max<std::size_t>(1, p->requests.size() / kBlockRequests);
    s.blocks.resize(first_block + full_blocks);
    for (std::size_t i = 0; i < p->requests.size(); ++i) {
      const Request& r = p->requests[i];
      ++s.attempted;
      s.late_ms.push_back(ms_between(r.due, r.sent));
      s.submit_us.push_back(r.submit_us);
      switch (r.outcome) {
        case Request::Outcome::kOk: break;
        case Request::Outcome::kRejected: ++s.rejected; continue;
        case Request::Outcome::kShed: ++s.shed; continue;
        default: ++s.failed; continue;
      }
      if (r.corrupt) {
        ++s.corrupt;
        continue;
      }
      ++s.ok;
      const double ms = ms_between(r.due, r.resolved);
      s.latency_ms.push_back(ms);
      s.blocks[first_block + std::min(i / kBlockRequests, full_blocks - 1)]
          .push_back(ms);
      if (ms > kUniqueLimitMs) ++s.slow;
    }
  }
  return s;
}

/// Admission and cache-hit metrics of a hot-rate phase over cached scenes.
void emit_cache_path(Report& report, const Phase& p, const Summary& s) {
  const auto hits = p.after.cache_hits - p.before.cache_hits;
  const auto misses = p.after.cache_misses - p.before.cache_misses;
  report.layer("serve.submit_us", quantile(s.submit_us, 0.5), "us");
  report.layer("serve.cache_hit_frac",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) / (hits + misses),
               "frac");
  report.layer("serve.hot_p50_ms", block_quantile(s, 0.5), "ms");
}

/// Batching, queue and generator metrics of a serve_unique-shaped phase.
void emit_batching(Report& report, const Phase& p, const Summary& s) {
  const auto batches = p.after.batches - p.before.batches;
  const auto tiles = p.after.session.tiles - p.before.session.tiles;
  const auto cross = p.after.cross_scene_batches - p.before.cross_scene_batches;
  const double per = batches == 0 ? 0.0 : 1.0 / static_cast<double>(batches);
  report.layer("serve.tiles_per_batch", static_cast<double>(tiles) * per,
               "tiles");
  report.layer("serve.cross_scene_batch_frac", static_cast<double>(cross) * per,
               "frac");
  report.layer("serve.peak_queue_depth",
               static_cast<double>(p.after.peak_queue_depth), "requests");
  report.layer("serve.queue_wait_p50_ms",
               histogram_p50_ms(p, "serve_queue_wait_seconds"), "ms");
  report.layer("serve.forward_p50_ms",
               histogram_p50_ms(p, "serve_forward_seconds"), "ms");
  report.layer("serve.stitch_p50_ms",
               histogram_p50_ms(p, "serve_stitch_seconds"), "ms");
  report.layer("serve.gen_late_ms", quantile(s.late_ms, 0.95), "ms");
}

void check_generator(Report& report, const Summary& s, const Shape& shape) {
  const double late = quantile(s.late_ms, 0.95);
  const double limit = std::max(kMinGenLateLimitMs, 1e3 / shape.rate);
  if (late > limit) {
    report.fail("RUN REJECTED: the generator fell behind schedule (p95 " +
                std::to_string(late) + " ms late, limit " +
                std::to_string(limit) + " ms)");
  }
}

}  // namespace

void run_serve(const Options& opt, Tracer& tracer, Report& report) {
  const Shape shape = shape_of(false);
  auto state = timed_setup<ServeState>(opt, report, [&] {
    return serve_setup(opt, shape, opt.seconds, report);
  });

  std::vector<Phase> phases;
  if (opt.trace) {
    phases.push_back(
        run_phase(*state, shape, opt.seconds / 2, 0, opt.seed, tracer));
    tracer.set_enabled(true);
    phases.push_back(run_phase(*state, shape, opt.seconds / 2,
                               phases.front().requests.size(), opt.seed + 1,
                               tracer));
    tracer.set_enabled(false);
  } else {
    phases.push_back(
        run_phase(*state, shape, opt.seconds, 0, opt.seed, tracer));
  }
  std::vector<Phase*> all;
  for (auto& p : phases) all.push_back(&p);
  verify(*state, shape, all, opt.nproc);
  const Summary s = summarize(all);

  report.attempted += s.attempted;
  report.failed += s.rejected + s.shed + s.failed + s.corrupt;
  if (s.corrupt > 0) {
    report.fail(std::to_string(s.corrupt) +
                " served planes differ from the serial reference");
  }
  check_generator(report, s, shape);
  const double misses = static_cast<double>(s.attempted - s.ok + s.slow);
  report.e2e("mpx_per_s",
             static_cast<double>(s.ok) * kServeSceneSize * kServeSceneSize /
                 1e6 / s.window_s,
             "Mpx/s");
  report.e2e("p50_ms", block_quantile(s, 0.50), "ms");
  report.e2e("p95_ms", block_quantile(s, 0.95), "ms");
  report.e2e("quality", 1.0 - misses / static_cast<double>(s.attempted),
             "frac");
  report.e2e("peak_mb", static_cast<double>(s.peak_bytes) / 1e6, "MB");
  report.note("requests: " + std::to_string(s.attempted) + " attempted, " +
              std::to_string(s.ok) + " ok, " + std::to_string(s.rejected) +
              " rejected, " + std::to_string(s.shed) + " shed, " +
              std::to_string(s.failed) + " failed, " +
              std::to_string(s.corrupt) + " corrupt, " +
              std::to_string(s.slow) + " over the " +
              std::to_string(kUniqueLimitMs) + " ms limit");
  report.note("slo_miss_frac: " +
              std::to_string(misses / static_cast<double>(s.attempted)));
  report.note("offered rate: " + std::to_string(shape.rate) +
              " requests/s, generator p95 late " +
              std::to_string(quantile(s.late_ms, 0.95)) + " ms");

  if (opt.trace) {
    const Summary plain = summarize({&phases.front()});
    const Summary with = summarize({&phases.back()});
    report.layer(
        "trace.overhead_ratio",
        quantile(with.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5), "x");
    emit_batching(report, phases.back(), with);
  }
}

void run_serve_probes(const Options& opt, Tracer& tracer, Report& report,
                      bool batching) {
  for (const bool hot : {false, true}) {
    if (!hot && !batching) continue;
    const Shape shape = shape_of(hot);
    auto state = serve_setup(opt, shape, kProbeSeconds, report);
    Phase phase = run_phase(*state, shape, kProbeSeconds, 0, opt.seed, tracer);
    verify(*state, shape, {&phase}, opt.nproc);
    const Summary s = summarize({&phase});
    if (s.corrupt > 0) {
      report.fail("serve probe: " + std::to_string(s.corrupt) +
                  " planes differ from the serial reference");
    }
    if (hot) {
      emit_cache_path(report, phase, s);
    } else {
      emit_batching(report, phase, s);
    }
  }
}

}  // namespace perfbench
