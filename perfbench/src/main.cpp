// perfbench — the workflow benchmark's executable.
//
//   perfbench --workload <corpus_label|train_unet|serve_unique>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// Prints run metadata, human-readable notes and metric tables, and as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to <dir>/<workload>-seed<n>-trace1.*.
// Exits 0 when every correctness check passed, 1 otherwise, 2 on bad usage.

#include <sched.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/hash.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_OPTIONS
#define PERFBENCH_OPTIONS ""
#endif

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string isa_flags() {
  __builtin_cpu_init();
  std::string out;
  const auto add = [&](bool on, const char* name) {
    if (on) out += out.empty() ? name : std::string(" ") + name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  return out;
}

/// Build options of the library this binary links, as compiled.
std::string build_options() {
  std::string out = PERFBENCH_OPTIONS;
#ifdef POLARICE_MEM_STATS
  out += " POLARICE_MEM_STATS=ON";
#else
  out += " POLARICE_MEM_STATS=OFF";
#endif
#if defined(POLARICE_FAULT_INJECT) && POLARICE_FAULT_INJECT
  out += " POLARICE_FAULT_INJECT=ON";
#else
  out += " POLARICE_FAULT_INJECT=OFF";
#endif
  out += POLARICE_METRICS ? " POLARICE_METRICS=ON" : " POLARICE_METRICS=OFF";
  return out;
}

std::string metadata(const Options& opt, const Tracer& tracer) {
  char run_id[32];
  std::snprintf(run_id, sizeof run_id, "%016" PRIx64, tracer.run_id());
  std::ostringstream out;
  out << "{\"run_id\":\"" << run_id << "\",\"workload\":\"" << opt.workload
      << "\",\"seed\":" << opt.seed << ",\"seconds\":" << number(opt.seconds)
      << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"cpu_model\":\""
      << json_escape(cpu_model()) << "\",\"nproc\":" << opt.nproc
      << ",\"isa\":\"" << isa_flags() << "\",\"build_type\":\""
      << PERFBENCH_BUILD_TYPE << "\",\"build_options\":\""
      << json_escape(build_options()) << "\"}";
  return out.str();
}

std::string result_line(const Report& report, bool trace) {
  std::ostringstream out;
  out << "{\"correct\":" << (report.correct ? "true" : "false")
      << ",\"attempted\":" << report.attempted << ",\"failed\":"
      << report.failed << ",\"metrics\":{";
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << metrics[i].name
        << "\":{\"value\":" << number(metrics[i].value) << ",\"unit\":\""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <corpus_label|"
               "train_unet|serve_unique> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir>\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--out") {
        opt.out_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.nproc = available_cpus();

  const std::string key =
      opt.workload + "/" + std::to_string(opt.seed) + "/" +
      std::to_string(Clock::now().time_since_epoch().count());
  Tracer tracer(polarice::util::fnv64(key.data(), key.size()));
  std::printf("meta %s\n", metadata(opt, tracer).c_str());
  std::fflush(stdout);

  Report report;
  if (opt.workload == "corpus_label") {
    run_corpus_label(opt, tracer, report);
  } else if (opt.workload == "train_unet") {
    run_train_unet(opt, tracer, report);
  } else if (opt.workload == "serve_unique") {
    run_serve(opt, tracer, report);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace) {
    run_layer_probes(opt, tracer, report);
    run_serve_probes(opt, tracer, report,
                     /*batching=*/opt.workload != "serve_unique");
    report.note("spans recorded: " + std::to_string(tracer.size()));
  }

  for (const auto* list : {&report.end_to_end, &report.per_layer}) {
    for (const auto& m : *list) {
      if (!std::isfinite(m.value)) {
        report.fail("metric " + m.name + " is not finite");
      }
    }
  }

  for (const auto& line : report.notes) std::printf("note %s\n", line.c_str());
  print_table(opt.trace ? "end-to-end (traced run, for reference):"
                        : "end-to-end:",
              report.end_to_end);
  if (opt.trace) {
    print_table("per-layer:", report.per_layer);
    std::printf("span self time:\n%s", tracer.self_time_table().c_str());
  }

  const std::string line = result_line(report, opt.trace);
  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    if (opt.trace) {
      tracer.write_chrome_json(stem + ".trace.json");
      std::ofstream(stem + ".selftime.txt") << tracer.self_time_table();
    }
    std::ofstream(stem + ".result.json")
        << "{\"meta\":" << metadata(opt, tracer) << ",\"result\":" << line
        << "}\n";
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
