#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::uint64_t run_id) : run_id_(run_id), epoch_(Clock::now()) {}

std::uint64_t& Tracer::current() noexcept {
  thread_local std::uint64_t open = 0;
  return open;
}

void Tracer::record(std::uint64_t id, std::uint64_t parent, const char* name,
                    Clock::time_point start, Clock::time_point end) {
  const std::scoped_lock lock(mutex_);
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(tids_.size()) + 1);
  records_.push_back(Record{id, parent, name, start, end, it->second});
}

std::size_t Tracer::size() const {
  const std::scoped_lock lock(mutex_);
  return records_.size();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  char run_id[32];
  std::snprintf(run_id, sizeof run_id, "%016" PRIx64, run_id_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run_id\":\"" << run_id
      << "\"},\"traceEvents\":[";
  const std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(r.start - epoch_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(r.end - r.start).count();
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"run_id\":\""
        << run_id << "\",\"span\":" << r.id << ",\"parent\":" << r.parent
        << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

std::string Tracer::self_time_table() const {
  const std::scoped_lock lock(mutex_);
  // Children of each span, as intervals, to subtract from its duration.
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Record& r : records_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start, r.end);
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Record& r : records_) {
    double covered_ms = 0.0;
    if (auto it = children.find(r.id); it != children.end()) {
      auto spans = it->second;
      std::sort(spans.begin(), spans.end());
      Clock::time_point reach = r.start;  // union of child intervals so far
      for (auto [lo, hi] : spans) {
        lo = std::max(lo, reach);
        hi = std::min(hi, r.end);
        if (hi <= lo) continue;
        covered_ms += ms_between(lo, hi);
        reach = hi;
      }
    }
    Row& row = rows[r.name];
    const double total = ms_between(r.start, r.end);
    ++row.count;
    row.total_ms += total;
    row.self_ms += std::max(0.0, total - covered_ms);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-40s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "%-40s %8zu %12.3f %12.3f\n",
                  name.c_str(), row.count, row.total_ms, row.self_ms);
    out << line;
  }
  return out.str();
}

Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer.enabled() ? &tracer : nullptr), name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = Tracer::current();
  Tracer::current() = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const auto end = Clock::now();
  Tracer::current() = parent_;
  tracer_->record(id_, parent_, name_, start_, end);
}

}  // namespace perfbench
