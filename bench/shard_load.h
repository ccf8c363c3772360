#pragma once
// Closed-loop load harness for the sharded serving tier — the multi-process
// sibling of serve_load.h.
//
// Spawns N real `polarice_worker` processes (fork/exec) on Unix-domain
// sockets, fronts them with a ShardRouter, and drives the same
// deterministic client mix serve_load uses. Every completed plane is
// verified against a serially-computed reference, so the harness proves the
// distributed property the subsystem rests on: planes that crossed the
// wire, were batched among strangers on some shard, or were re-dispatched
// to a different shard after a failure are still bit-identical to the
// serial workflow.
//
// With kill_worker >= 0 the harness SIGKILLs that worker partway through
// the submission window — the canonical failover drill: the router must
// quarantine the corpse, re-dispatch its in-flight scenes to survivors
// (failovers > 0), and finish the run with corrupt == 0.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/serve/shard/shard_router.h"
#include "core/workflow.h"
#include "img/image.h"
#include "nn/unet.h"
#include "obs/metrics.h"
#include "s2/scene.h"
#include "serve_load.h"

namespace polarice::bench {

struct ShardLoadConfig {
  int shards = 2;           // worker processes
  double qps = 30.0;        // aggregate target submit rate across clients
  double seconds = 2.0;     // submission window
  int clients = 4;          // closed-loop submitter threads
  int scene_size = 128;
  int unique_scenes = 4;
  double interactive_fraction = 0.25;
  double batch_fraction = 0.25;
  std::chrono::milliseconds interactive_deadline{1000};
  bool verify = true;

  // Failover drill: SIGKILL this worker index (-1 = none) once
  // kill_after_fraction of the submission window has elapsed.
  int kill_worker = -1;
  // Kill the shard with the most dispatches at kill time instead of a
  // fixed index — rendezvous placement varies with the (pid-salted)
  // socket paths, so a fixed index can name a shard that owns no scenes
  // and the drill would kill a bystander. Overrides kill_worker.
  bool kill_busiest = false;
  double kill_after_fraction = 0.4;

  // Restart drill: SIGKILL the busiest worker, then re-exec it with the
  // exact same flags — same listen path, same per-shard cache subdirectory.
  // Each worker gets a persistent cache dir and an aggressive flush
  // threshold, so the corpse leaves durable segments behind and the
  // restarted process must warm from them (warm hits > 0) while the router
  // quarantines, redials, and readmits the shard (recoveries > 0) —
  // the full crash/recover/rejoin story in one run.
  bool restart_drill = false;
  double restart_delay_seconds = 0.2;  // corpse-to-exec gap

  // Persistent worker caches: when non-empty (or implied by restart_drill),
  // worker i gets --cache_dir <cache_dir>/shard-<i>. Empty with
  // restart_drill = a subdirectory of the socket dir, wiped with it.
  std::string cache_dir;
  int cache_flush_kb = 4096;  // worker flush threshold (--cache_flush_kb)

  // Worker-process knobs (the harness passes them as flags; model flags
  // stay at the worker defaults, which match serve_load's model).
  int tile_size = 64;
  int batch_tiles = 8;
  int min_replicas = 1;
  int max_replicas = 2;
  int cache_mb = 64;  // worker result cache; 0 = every request pays the
                      // forward path (the latency benches use 0 so p50
                      // measures inference + wire, not a cache round trip)

  // Router knobs.
  std::size_t shed_queue_depth = 0;  // 0 = shedding off
  int max_failovers = 2;

  // Observability drill: when non-empty, fork/exec this polarice_stat
  // binary with --connect <fleet> --expect_forward as soon as the first
  // request completes — a live scrape of every worker while traffic is in
  // flight, timed by the fleet's own progress rather than the wall clock,
  // so a slow (e.g. sanitizer-instrumented) first forward pass cannot make
  // it fire early. The exit code lands in the report (0 = every worker
  // answered both exchanges and had non-zero forward-pass counts).
  std::string stat_bin;

  // Path to polarice_worker; empty = discovered next to this binary
  // (<exe_dir>/../tools/polarice_worker).
  std::string worker_bin;
  // Directory for the shard sockets; empty = /tmp/polarice-shard-<pid>.
  std::string socket_dir;
  // External fleet (--connect): when non-empty, drive these already-running
  // workers instead of spawning any; `shards`, worker knobs, and socket
  // cleanup don't apply. Kill drills need owned worker processes, so
  // combining them with an external fleet is a validation error.
  std::vector<net::Endpoint> connect;

  void validate() const {
    if (shards < 1) throw std::invalid_argument("ShardLoadConfig: shards < 1");
    if (qps <= 0.0) throw std::invalid_argument("ShardLoadConfig: qps <= 0");
    if (seconds <= 0.0) {
      throw std::invalid_argument("ShardLoadConfig: seconds <= 0");
    }
    if (clients < 1) {
      throw std::invalid_argument("ShardLoadConfig: clients < 1");
    }
    if (unique_scenes < 1) {
      throw std::invalid_argument("ShardLoadConfig: unique_scenes < 1");
    }
    if (kill_worker >= shards) {
      throw std::invalid_argument("ShardLoadConfig: kill_worker >= shards");
    }
    if (kill_after_fraction < 0.0 || kill_after_fraction > 1.0) {
      throw std::invalid_argument("ShardLoadConfig: bad kill_after_fraction");
    }
    if ((kill_worker >= 0 || kill_busiest || restart_drill) && shards < 2) {
      throw std::invalid_argument(
          "ShardLoadConfig: killing the only worker cannot converge");
    }
    if (!connect.empty() &&
        (kill_worker >= 0 || kill_busiest || restart_drill)) {
      throw std::invalid_argument(
          "ShardLoadConfig: kill drill needs spawned workers, not an "
          "external --connect fleet");
    }
    if (restart_drill && (kill_worker >= 0 || kill_busiest)) {
      throw std::invalid_argument(
          "ShardLoadConfig: restart_drill already kills the busiest worker; "
          "drop kill_worker/kill_busiest");
    }
    if (restart_drill && restart_delay_seconds < 0.0) {
      throw std::invalid_argument(
          "ShardLoadConfig: negative restart_delay_seconds");
    }
    if (cache_flush_kb < 1) {
      throw std::invalid_argument("ShardLoadConfig: cache_flush_kb < 1");
    }
  }
};

struct ShardLoadReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t corrupt = 0;
  double wall_seconds = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  core::serve::shard::ShardRouterStats router;  // failovers, quarantines...

  // Fleet-wide persistence counters, summed from the last heartbeat of
  // each shard (restart drill gates read these).
  std::size_t cache_persisted = 0;
  std::size_t cache_warmed = 0;
  std::size_t warm_hits = 0;
  std::size_t cache_corrupt = 0;
  int restarted_shard = -1;  // restart drill: which worker was re-exec'd
  // Mid-run polarice_stat scrape (stat_bin): process exit code, or -1 when
  // the drill was not configured / never fired.
  int scrape_exit = -1;
};

namespace detail {

/// One spawned polarice_worker. SIGTERM + reap on destruction; kill() is
/// the SIGKILL failover drill (no chance to flush or say goodbye).
class WorkerProcess {
 public:
  WorkerProcess() = default;

  WorkerProcess(const std::string& binary,
                const std::vector<std::string>& flags) {
    std::vector<std::string> argv_storage;
    argv_storage.push_back(binary);
    argv_storage.insert(argv_storage.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    argv.reserve(argv_storage.size() + 1);
    for (auto& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::execv(binary.c_str(), argv.data());
      std::fprintf(stderr, "execv %s failed: %s\n", binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
  }

  WorkerProcess(WorkerProcess&& other) noexcept : pid_(other.pid_) {
    other.pid_ = -1;
  }
  WorkerProcess& operator=(WorkerProcess&& other) noexcept {
    if (this != &other) {
      shutdown();
      pid_ = other.pid_;
      other.pid_ = -1;
    }
    return *this;
  }
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;
  ~WorkerProcess() { shutdown(); }

  [[nodiscard]] bool running() const noexcept { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// SIGKILL — the crash simulation. Reaps the corpse.
  void kill() noexcept {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap();
  }

  /// Orderly SIGTERM (the worker traps it and drains), then reap.
  void shutdown() noexcept {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    reap();
  }

 private:
  void reap() noexcept {
    if (pid_ <= 0) return;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
};

/// <this executable's dir>/../tools/polarice_worker — the in-tree layout.
inline std::string default_worker_bin() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "polarice_worker";
  buffer[n] = '\0';
  std::string path(buffer);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return "polarice_worker";
  return path.substr(0, slash) + "/../tools/polarice_worker";
}

}  // namespace detail

/// Runs one closed-loop load session against a freshly spawned worker
/// fleet and returns the measured report. Throws if the fleet never comes
/// up (bad worker binary, unbindable sockets).
inline ShardLoadReport run_shard_load(const ShardLoadConfig& cfg) {
  namespace pv = core::serve;
  namespace shard = core::serve::shard;
  cfg.validate();

  // Scene pool + serial references — the same recipe (and the same model
  // flags the worker defaults to) as serve_load, so reports compare.
  nn::UNetConfig model_cfg;
  model_cfg.depth = 2;
  model_cfg.base_channels = 8;
  model_cfg.use_dropout = false;
  model_cfg.seed = 88;
  nn::UNet model(model_cfg);

  std::vector<img::ImageU8> scenes;
  std::vector<img::ImageU8> references;
  {
    core::InferenceWorkflow workflow(model, {}, cfg.tile_size);
    for (int i = 0; i < cfg.unique_scenes; ++i) {
      s2::SceneConfig sc;
      sc.width = sc.height = cfg.scene_size;
      sc.seed = 4000 + static_cast<std::uint64_t>(i);
      sc.cloudy = (i % 2) == 0;
      scenes.push_back(s2::SceneGenerator(sc).generate().rgb);
      if (cfg.verify) {
        references.push_back(workflow.classify_scene(scenes.back()));
      }
    }
  }

  // Socket directory + worker fleet — or an external fleet via connect,
  // in which case nothing is spawned and nothing is cleaned up.
  const bool external = !cfg.connect.empty();
  std::string dir;
  std::string worker_bin;
  std::vector<detail::WorkerProcess> workers;
  std::vector<std::vector<std::string>> worker_flags;  // re-exec'd verbatim
  std::vector<net::Endpoint> endpoints;
  // Persistent worker caches: implied by the restart drill (the whole point
  // is warming from the corpse's segments), opt-in otherwise.
  const bool persistent = cfg.restart_drill || !cfg.cache_dir.empty();
  std::string cache_root = cfg.cache_dir;
  if (external) {
    endpoints = cfg.connect;
  } else {
    dir = cfg.socket_dir;
    if (dir.empty()) {
      dir = "/tmp/polarice-shard-" + std::to_string(::getpid());
    }
    ::mkdir(dir.c_str(), 0700);
    if (persistent && cache_root.empty()) cache_root = dir + "/cache";
    worker_bin =
        cfg.worker_bin.empty() ? detail::default_worker_bin() : cfg.worker_bin;
    for (int i = 0; i < cfg.shards; ++i) {
      const std::string spec = "unix:" + dir + "/shard-" + std::to_string(i) +
                               ".sock";
      endpoints.push_back(net::Endpoint::parse(spec));
      std::vector<std::string> flags{
          "--listen", spec,
          "--tile_size", std::to_string(cfg.tile_size),
          "--batch_tiles", std::to_string(cfg.batch_tiles),
          "--min_replicas", std::to_string(cfg.min_replicas),
          "--max_replicas", std::to_string(cfg.max_replicas),
          "--cache_mb", std::to_string(cfg.cache_mb),
      };
      if (persistent) {
        flags.insert(flags.end(),
                     {"--cache_dir", cache_root + "/shard-" +
                          std::to_string(i),
                      "--cache_flush_kb", std::to_string(cfg.cache_flush_kb)});
      }
      workers.emplace_back(worker_bin, flags);
      worker_flags.push_back(std::move(flags));
    }
  }

  ShardLoadReport report;
  const auto harness_start = std::chrono::steady_clock::now();
  {
    shard::ShardRouterConfig router_cfg;
    router_cfg.shards = endpoints;
    router_cfg.dispatchers = std::max(cfg.clients, 2);
    router_cfg.shed_queue_depth = cfg.shed_queue_depth;
    router_cfg.max_failovers = cfg.max_failovers;
    if (cfg.kill_worker >= 0 || cfg.kill_busiest || cfg.restart_drill) {
      // Slow the prober so the corpse is discovered by failing *dispatches*
      // (the path under test), not quarantined by probes before a single
      // client request ever reaches it.
      router_cfg.heartbeat_period = std::chrono::milliseconds(200);
    }
    if (cfg.restart_drill) {
      // The rejoin must land well inside the submission window so post-
      // restart traffic can prove warm hits; keep the redial ladder short.
      router_cfg.redial_base = std::chrono::milliseconds(100);
      router_cfg.redial_cap = std::chrono::milliseconds(500);
    }
    shard::ShardRouter router(router_cfg);

    if (!router.wait_for_healthy(static_cast<int>(endpoints.size()),
                                 std::chrono::milliseconds(10000))) {
      throw std::runtime_error(
          external ? "external shard fleet did not answer heartbeats"
                   : "shard fleet failed to come up (worker binary: " +
                         worker_bin + ")");
    }

    std::atomic<std::size_t> submitted{0}, rejected{0}, shed{0}, failed{0},
        corrupt{0};
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(cfg.clients));

    const double per_client_qps = cfg.qps / cfg.clients;
    const auto period = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / per_client_qps));
    const auto start = std::chrono::steady_clock::now();
    const auto end =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));

    // The assassin: SIGKILL one worker partway through the window. The
    // restart drill re-execs the corpse after a short gap — same binary,
    // same flags, same listen path, same cache subdirectory.
    std::atomic<int> restarted_shard{-1};
    std::jthread assassin;
    if (cfg.kill_worker >= 0 || cfg.kill_busiest || cfg.restart_drill) {
      assassin = std::jthread([&](const std::stop_token& token) {
        const auto when =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(cfg.seconds *
                                                      cfg.kill_after_fraction));
        while (std::chrono::steady_clock::now() < when) {
          if (token.stop_requested()) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        std::size_t target = cfg.kill_worker >= 0
                                 ? static_cast<std::size_t>(cfg.kill_worker)
                                 : 0;
        if (cfg.kill_busiest || cfg.restart_drill) {
          const auto fleet_stats = router.stats();
          for (std::size_t i = 1; i < fleet_stats.shards.size(); ++i) {
            if (fleet_stats.shards[i].dispatched >
                fleet_stats.shards[target].dispatched) {
              target = i;
            }
          }
        }
        workers[target].kill();
        if (!cfg.restart_drill) return;
        const auto respawn_at =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg.restart_delay_seconds));
        while (std::chrono::steady_clock::now() < respawn_at) {
          if (token.stop_requested()) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        // SIGKILL dropped the cache-dir flock with the process and left the
        // socket file behind; bind() replaces stale paths, and the store
        // sweeps *.tmp leftovers, so the same flags just work.
        workers[target] =
            detail::WorkerProcess(worker_bin, worker_flags[target]);
        restarted_shard.store(static_cast<int>(target));
      });
    }

    // The scraper: run polarice_stat against the live fleet once the first
    // request has completed (so at least one forward pass is observable)
    // while the clients are still submitting — the end-to-end proof that
    // the metrics path works on a hot fleet, not just at rest. If nothing
    // ever completes it scrapes when the clients finish, and the gate
    // reports the missing forward passes.
    std::atomic<bool> first_completion{false};
    std::atomic<int> scrape_exit{-1};
    std::jthread scraper;
    if (!cfg.stat_bin.empty()) {
      scraper = std::jthread([&](const std::stop_token& token) {
        while (!first_completion.load() && !token.stop_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        std::string connect;
        for (const auto& endpoint : endpoints) {
          if (!connect.empty()) connect += ',';
          connect += endpoint.to_string();
        }
        const pid_t pid = ::fork();
        if (pid == 0) {
          ::execl(cfg.stat_bin.c_str(), cfg.stat_bin.c_str(), "--connect",
                  connect.c_str(), "--expect_forward",
                  static_cast<char*>(nullptr));
          ::_exit(127);
        }
        if (pid < 0) {
          scrape_exit.store(126);
          return;
        }
        int status = 0;
        ::waitpid(pid, &status, 0);
        scrape_exit.store(WIFEXITED(status) ? WEXITSTATUS(status) : 125);
      });
    }

    std::vector<std::jthread> fleet;
    for (int c = 0; c < cfg.clients; ++c) {
      fleet.emplace_back([&, c] {
        auto& my_latencies = latencies[static_cast<std::size_t>(c)];
        auto next = start + period * c / cfg.clients;
        for (std::size_t k = 0;; ++k) {
          std::this_thread::sleep_until(next);
          if (std::chrono::steady_clock::now() >= end) return;
          next += period;

          const auto slot = static_cast<double>(k % 100) / 100.0;
          pv::SubmitOptions options;
          if (slot < cfg.interactive_fraction) {
            options.priority = pv::Priority::kInteractive;
            options.deadline = cfg.interactive_deadline;
          } else if (slot >= 1.0 - cfg.batch_fraction) {
            options.priority = pv::Priority::kBatch;
          }
          const auto scene_index =
              (static_cast<std::size_t>(c) + k * 31) %
              static_cast<std::size_t>(cfg.unique_scenes);

          const auto submitted_at = std::chrono::steady_clock::now();
          shard::ShardTicket ticket;
          try {
            ticket = router.submit(scenes[scene_index].clone(), options);
          } catch (const pv::AdmissionRejected&) {
            rejected.fetch_add(1);
            continue;
          } catch (const pv::QueueClosed&) {
            return;
          }
          submitted.fetch_add(1);
          try {
            const auto plane = ticket.get();  // closed loop: wait it out
            const std::chrono::duration<double, std::milli> latency =
                std::chrono::steady_clock::now() - submitted_at;
            my_latencies.push_back(latency.count());
            first_completion.store(true);
            if (cfg.verify && plane != references[scene_index]) {
              corrupt.fetch_add(1);
            }
          } catch (const pv::DeadlineExceeded&) {
            shed.fetch_add(1);
          } catch (const pv::AdmissionRejected&) {
            // Dispatch exhausted every shard (mid-kill storm) — the
            // request was refused, not corrupted.
            rejected.fetch_add(1);
          } catch (...) {
            failed.fetch_add(1);
          }
        }
      });
    }
    for (auto& client : fleet) client.join();
    if (assassin.joinable()) {
      assassin.request_stop();
      assassin.join();
    }
    if (scraper.joinable()) {
      scraper.request_stop();
      scraper.join();
    }
    report.scrape_exit = scrape_exit.load();

    report.submitted = submitted.load();
    report.rejected = rejected.load();
    report.shed = shed.load();
    report.failed = failed.load();
    report.corrupt = corrupt.load();
    if (cfg.restart_drill) {
      // Give the prober one more round so the final heartbeat reflects the
      // restarted worker's warm-start counters.
      std::this_thread::sleep_for(2 * router_cfg.heartbeat_period);
    }
    report.router = router.stats();
    report.restarted_shard = restarted_shard.load();
    for (const auto& shard_state : report.router.shards) {
      report.cache_persisted += shard_state.stats.cache_persisted;
      report.cache_warmed += shard_state.stats.cache_warmed;
      report.warm_hits += shard_state.stats.warm_hits;
      report.cache_corrupt += shard_state.stats.cache_corrupt;
    }
    router.shutdown();

    // Percentiles via the shared obs histogram helpers — the same
    // estimator the registry and polarice_stat use, so numbers line up
    // across the whole toolchain.
    obs::HistogramSample sample;
    sample.bounds = obs::latency_buckets_seconds();
    sample.counts.assign(sample.bounds.size() + 1, 0);
    double max_ms = 0.0;
    for (const auto& per_client : latencies) {
      for (const double ms : per_client) {
        ++sample.counts[sample.bucket_index(ms / 1e3)];
        ++sample.count;
        sample.sum += ms / 1e3;
        max_ms = std::max(max_ms, ms);
      }
    }
    report.completed = sample.count;
    report.p50_ms = sample.percentile(0.50) * 1e3;
    report.p99_ms = sample.percentile(0.99) * 1e3;
    report.max_ms = max_ms;
  }
  // Workers wind down via their destructors (SIGTERM + reap). A SIGKILLed
  // worker never unlinks its socket, so sweep the paths before the rmdir.
  // An external fleet's sockets belong to their workers — touch nothing.
  workers.clear();
  if (!external) {
    for (const auto& endpoint : endpoints) ::unlink(endpoint.path.c_str());
    if (persistent && cfg.cache_dir.empty()) {
      // The harness owns the default cache root (under the socket dir);
      // a user-supplied --cache_dir is their data and survives the run.
      std::error_code ec;
      std::filesystem::remove_all(cache_root, ec);
    }
    ::rmdir(dir.c_str());
  }

  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - harness_start)
                            .count();
  report.achieved_qps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace polarice::bench
