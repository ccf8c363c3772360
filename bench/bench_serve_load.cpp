// Closed-loop SceneServer load bench: drives a target-QPS mix of
// interactive / normal / bulk requests, reports SLO latency percentiles and
// rejection / shed / retry / corruption rates, and (with --fault_every)
// measures the same under continuous replica failure.
//
// --smoke runs a 1-second sanity pass and exits nonzero unless the server
// completed verified work — the ctest hook that keeps the harness itself
// from rotting.
//
// --sharded switches to the multi-process harness (shard_load.h): it
// spawns --shards polarice_worker processes on Unix sockets and drives the
// same client mix through a ShardRouter. --kill_worker N SIGKILLs worker N
// mid-window; the smoke gate then additionally requires failovers > 0 —
// the run must have survived a real crash, not merely avoided one.
// --connect=unix:/a.sock,unix:/b.sock drives an already-running external
// fleet instead of spawning workers (kill drills are refused there).
//
// --restart_drill is the durability superset of the kill drill: workers
// get persistent cache dirs (aggressively flushed), the busiest worker is
// SIGKILLed mid-window and then re-exec'd with identical flags — same
// listen path, same cache subdir. The smoke gate requires failovers > 0,
// recoveries > 0, warm hits > 0, and zero corrupt planes or cache entries:
// the restarted process must have warmed from the corpse's segments and
// served bit-identical planes from them.

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "serve_load.h"
#include "shard_load.h"
#include "support.h"
#include "util/table.h"

namespace {

namespace pb = polarice::bench;

pb::ServeLoadConfig config_from(const polarice::util::Args& args) {
  pb::ServeLoadConfig cfg;
  cfg.qps = args.get_double("qps", 40.0);
  cfg.seconds = args.get_double("seconds", 2.0);
  cfg.clients = static_cast<int>(args.get_int("clients", 4));
  cfg.scene_size = static_cast<int>(args.get_int("scene_size", 128));
  cfg.unique_scenes = static_cast<int>(args.get_int("scenes", 6));
  cfg.interactive_fraction = args.get_double("interactive", 0.25);
  cfg.batch_fraction = args.get_double("batch", 0.25);
  cfg.interactive_deadline = std::chrono::milliseconds(
      args.get_int("deadline_ms", 500));
  cfg.fault_every = static_cast<int>(args.get_int("fault_every", 0));
  cfg.verify = args.get_bool("verify", true);
  cfg.server.tile_size = static_cast<int>(args.get_int("tile_size", 64));
  cfg.server.min_replicas = static_cast<int>(args.get_int("min_replicas", 1));
  cfg.server.max_replicas = static_cast<int>(args.get_int("max_replicas", 2));
  cfg.server.cache_bytes =
      args.get_bool("cache", false) ? (std::size_t{64} << 20) : 0;
  return cfg;
}

void print_report(const pb::ServeLoadReport& report) {
  using polarice::util::Table;
  Table table({"metric", "value"});
  table.add_row({"submitted", std::to_string(report.submitted)});
  table.add_row({"completed", std::to_string(report.completed)});
  table.add_row({"rejected", std::to_string(report.rejected)});
  table.add_row({"shed (deadline)", std::to_string(report.shed)});
  table.add_row({"failed", std::to_string(report.failed)});
  table.add_row({"corrupt", std::to_string(report.corrupt)});
  table.add_row({"retries", std::to_string(report.server.retries)});
  table.add_row({"replicas quarantined",
             std::to_string(report.server.replicas_quarantined)});
  table.add_row({"replicas rebuilt",
             std::to_string(report.server.replicas_rebuilt)});
  table.add_row({"degraded", std::to_string(report.server.degraded)});
  table.add_row({"brownouts", std::to_string(report.server.brownouts)});
  if (report.server.cache_persisted > 0 || report.server.cache_warmed > 0) {
    table.add_row({"cache persisted",
                   std::to_string(report.server.cache_persisted)});
    table.add_row({"cache warmed",
                   std::to_string(report.server.cache_warmed)});
    table.add_row({"warm hits", std::to_string(report.server.warm_hits)});
  }
  table.add_row({"wall seconds", Table::num(report.wall_seconds, 2)});
  table.add_row({"achieved qps", Table::num(report.achieved_qps, 1)});
  table.add_row({"p50 ms", Table::num(report.p50_ms, 2)});
  table.add_row({"p99 ms", Table::num(report.p99_ms, 2)});
  table.add_row({"max ms", Table::num(report.max_ms, 2)});
  if (report.percentiles_cross_checked) {
    // Same population through the server's own serve_e2e_seconds
    // instrument; run_serve_load already asserted bucket-level agreement.
    table.add_row({"registry p50 ms", Table::num(report.registry_p50_ms, 2)});
    table.add_row({"registry p99 ms", Table::num(report.registry_p99_ms, 2)});
  }
  table.add_row({"shed rate", Table::num(100.0 * report.shed_rate(), 2) + "%"});
  table.add_row({"reject rate",
             Table::num(100.0 * report.reject_rate(), 2) + "%"});
  table.print();
}

pb::ShardLoadConfig shard_config_from(const polarice::util::Args& args) {
  pb::ShardLoadConfig cfg;
  cfg.shards = static_cast<int>(args.get_int_in("shards", 2, 1, 64));
  cfg.qps = args.get_double("qps", 30.0);
  cfg.seconds = args.get_double("seconds", 2.0);
  cfg.clients = static_cast<int>(args.get_int("clients", 4));
  cfg.scene_size = static_cast<int>(args.get_int("scene_size", 128));
  cfg.unique_scenes = static_cast<int>(args.get_int("scenes", 4));
  cfg.interactive_fraction = args.get_double("interactive", 0.25);
  cfg.batch_fraction = args.get_double("batch", 0.25);
  cfg.interactive_deadline =
      std::chrono::milliseconds(args.get_int("deadline_ms", 1000));
  cfg.verify = args.get_bool("verify", true);
  cfg.tile_size = static_cast<int>(args.get_int("tile_size", 64));
  cfg.min_replicas = static_cast<int>(args.get_int("min_replicas", 1));
  cfg.max_replicas = static_cast<int>(args.get_int("max_replicas", 2));
  cfg.cache_mb = static_cast<int>(args.get_int_in("cache_mb", 64, 0, 1 << 20));
  cfg.kill_worker = static_cast<int>(args.get_int("kill_worker", -1));
  cfg.kill_busiest = args.get_bool("kill_busiest", false);
  cfg.restart_drill = args.get_bool("restart_drill", false);
  cfg.restart_delay_seconds = args.get_double("restart_delay", 0.2);
  cfg.cache_dir = args.get_string("cache_dir", "");
  cfg.cache_flush_kb =
      static_cast<int>(args.get_int_in("cache_flush_kb",
                                       cfg.restart_drill ? 1 : 4096, 1,
                                       1 << 20));
  cfg.shed_queue_depth =
      static_cast<std::size_t>(args.get_int("shed_depth", 0));
  cfg.worker_bin = args.get_string("worker_bin", "");
  cfg.stat_bin = args.get_string("stat_bin", "");
  if (args.has("connect")) {
    // Endpoint-list parsing raises on any malformed element — a typo'd
    // fleet spec must fail loudly, not fall back to spawning workers.
    cfg.connect =
        polarice::net::parse_endpoint_list(args.require_string("connect"));
  }
  return cfg;
}

void print_shard_report(const pb::ShardLoadReport& report) {
  using polarice::util::Table;
  Table table({"metric", "value"});
  table.add_row({"submitted", std::to_string(report.submitted)});
  table.add_row({"completed", std::to_string(report.completed)});
  table.add_row({"rejected", std::to_string(report.rejected)});
  table.add_row({"shed (deadline)", std::to_string(report.shed)});
  table.add_row({"failed", std::to_string(report.failed)});
  table.add_row({"corrupt", std::to_string(report.corrupt)});
  table.add_row({"failovers", std::to_string(report.router.failovers)});
  table.add_row({"dispatch errors",
                 std::to_string(report.router.dispatch_errors)});
  table.add_row({"quarantines", std::to_string(report.router.quarantines)});
  table.add_row({"recoveries", std::to_string(report.router.recoveries)});
  table.add_row({"wall seconds", Table::num(report.wall_seconds, 2)});
  table.add_row({"achieved qps", Table::num(report.achieved_qps, 1)});
  table.add_row({"p50 ms", Table::num(report.p50_ms, 2)});
  table.add_row({"p99 ms", Table::num(report.p99_ms, 2)});
  table.add_row({"max ms", Table::num(report.max_ms, 2)});
  if (report.restarted_shard >= 0) {
    table.add_row({"restarted shard", std::to_string(report.restarted_shard)});
  }
  if (report.scrape_exit >= 0) {
    table.add_row({"mid-run scrape",
                   report.scrape_exit == 0
                       ? std::string("ok")
                       : "FAILED (exit " + std::to_string(report.scrape_exit) +
                             ")"});
  }
  if (report.cache_persisted > 0 || report.cache_warmed > 0 ||
      report.warm_hits > 0 || report.cache_corrupt > 0) {
    table.add_row({"cache persisted", std::to_string(report.cache_persisted)});
    table.add_row({"cache warmed", std::to_string(report.cache_warmed)});
    table.add_row({"warm hits", std::to_string(report.warm_hits)});
    table.add_row({"cache corrupt", std::to_string(report.cache_corrupt)});
  }
  for (std::size_t i = 0; i < report.router.shards.size(); ++i) {
    const auto& shard = report.router.shards[i];
    table.add_row({"shard " + std::to_string(i),
                   shard.endpoint.to_string() + " " +
                       (shard.healthy ? "healthy" : "quarantined") +
                       ", dispatched " + std::to_string(shard.dispatched)});
  }
  table.print();
}

int run_sharded(const polarice::util::Args& args, bool smoke) {
  auto cfg = shard_config_from(args);
  if (smoke) {
    // The restart drill needs its window: kill at 40%, re-exec, redial,
    // rejoin, and then enough post-rejoin traffic to prove warm hits —
    // that story does not fit in 1.5 seconds.
    if (cfg.restart_drill) {
      cfg.seconds = std::max(cfg.seconds, 4.0);
    } else {
      cfg.seconds = std::min(cfg.seconds, 1.5);
    }
    cfg.unique_scenes = std::min(cfg.unique_scenes, 3);
  }
  pb::banner("ShardRouter closed-loop load (" +
             (cfg.connect.empty()
                  ? std::to_string(cfg.shards) + " workers"
                  : std::to_string(cfg.connect.size()) +
                        " external workers") +
             ", " + std::to_string(cfg.clients) +
             " clients, target " + polarice::util::Table::num(cfg.qps, 0) +
             " qps" +
             (cfg.restart_drill
                  ? std::string(", SIGKILL + re-exec busiest worker")
                  : cfg.kill_busiest
                        ? std::string(", SIGKILL busiest worker")
                        : cfg.kill_worker >= 0
                              ? ", SIGKILL worker " +
                                    std::to_string(cfg.kill_worker)
                              : std::string()) +
             ")");
  const auto report = pb::run_shard_load(cfg);
  print_shard_report(report);

  if (smoke) {
    if (report.completed == 0) {
      std::fprintf(stderr, "smoke: no requests completed\n");
      return EXIT_FAILURE;
    }
    if (report.corrupt > 0) {
      std::fprintf(stderr, "smoke: %zu corrupt planes\n", report.corrupt);
      return EXIT_FAILURE;
    }
    if (report.failed > 0) {
      std::fprintf(stderr, "smoke: %zu failed requests\n", report.failed);
      return EXIT_FAILURE;
    }
    if ((cfg.kill_worker >= 0 || cfg.kill_busiest || cfg.restart_drill) &&
        report.router.failovers == 0) {
      std::fprintf(stderr,
                   "smoke: killed a worker but recorded no failovers\n");
      return EXIT_FAILURE;
    }
    if (!cfg.stat_bin.empty() && report.scrape_exit != 0) {
      // The scrape gate: every live worker answered both exchanges
      // mid-run, the fleet shows non-zero forward-pass histogram counts,
      // and no worker completed scenes without recording forward passes.
      std::fprintf(stderr, "smoke: mid-run polarice_stat scrape failed "
                           "(exit %d)\n",
                   report.scrape_exit);
      return EXIT_FAILURE;
    }
    if (cfg.restart_drill) {
      // The full crash/recover story: the corpse was re-exec'd
      // (restarted_shard), the router readmitted it (recoveries), it
      // warmed from the dead process's segments and served from them
      // (warm hits), and nothing on disk was accepted corrupted.
      if (report.restarted_shard < 0) {
        std::fprintf(stderr, "smoke: restart drill never re-exec'd\n");
        return EXIT_FAILURE;
      }
      if (report.router.recoveries == 0) {
        std::fprintf(stderr,
                     "smoke: restarted worker was never readmitted\n");
        return EXIT_FAILURE;
      }
      if (report.warm_hits == 0) {
        std::fprintf(stderr,
                     "smoke: restarted worker served no warm cache hits\n");
        return EXIT_FAILURE;
      }
      if (report.cache_corrupt > 0) {
        std::fprintf(stderr, "smoke: %zu corrupt cache entries accepted\n",
                     report.cache_corrupt);
        return EXIT_FAILURE;
      }
    }
  }
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  const polarice::util::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  if (args.get_bool("sharded", false)) {
    try {
      return run_sharded(args, smoke);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "sharded load failed: %s\n", error.what());
      return EXIT_FAILURE;
    }
  }
  auto cfg = config_from(args);
  if (smoke) {
    // Small but still multi-client and fault-exercising: the smoke run must
    // prove the harness end to end, not just that it links.
    cfg.seconds = std::min(cfg.seconds, 1.0);
    cfg.unique_scenes = std::min(cfg.unique_scenes, 3);
  }

  pb::banner("SceneServer closed-loop load (" +
             std::to_string(cfg.clients) + " clients, target " +
             polarice::util::Table::num(cfg.qps, 0) + " qps" +
             (cfg.fault_every > 0
                  ? ", fault every " + std::to_string(cfg.fault_every)
                  : std::string()) +
             ")");
  const auto report = pb::run_serve_load(cfg);
  print_report(report);

  if (args.get_bool("dump_metrics", false)) {
    // Everything the process-global registry accumulated over the run, in
    // the same exposition format a worker serves on kMetricsRequest. The
    // harness-vs-registry percentile agreement was already asserted inside
    // run_serve_load; here we just publish both sides for eyeballing.
    std::printf("\n# registry exposition (full process history)\n%s",
                polarice::obs::render_text(polarice::obs::registry().snapshot())
                    .c_str());
    if (report.percentiles_cross_checked) {
      std::printf(
          "# percentile cross-check: harness p50=%.2fms p99=%.2fms vs "
          "registry p50=%.2fms p99=%.2fms (agree within one bucket)\n",
          report.p50_ms, report.p99_ms, report.registry_p50_ms,
          report.registry_p99_ms);
    } else {
      std::printf("# percentile cross-check: skipped (no registry "
                  "observations — metrics compiled out?)\n");
    }
  }

  if (smoke) {
    if (report.completed == 0) {
      std::fprintf(stderr, "smoke: no requests completed\n");
      return EXIT_FAILURE;
    }
    if (report.corrupt > 0) {
      std::fprintf(stderr, "smoke: %zu corrupt planes\n", report.corrupt);
      return EXIT_FAILURE;
    }
    if (report.failed > 0) {
      std::fprintf(stderr, "smoke: %zu failed requests\n", report.failed);
      return EXIT_FAILURE;
    }
  }
  return EXIT_SUCCESS;
}
