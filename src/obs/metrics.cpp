#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace polarice::obs {

namespace detail {

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>(bounds_.size() + 1);
  }
}

std::size_t Histogram::bucket_index(double v) const noexcept {
  // First bound >= v: boundary values land in the bucket they bound.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

void Histogram::observe(double v) noexcept {
#if POLARICE_METRICS
  Shard& shard = *shards_[detail::thread_shard()];
  shard.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  shard.n.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
#else
  (void)v;
#endif
}

const std::vector<double>& latency_buckets_seconds() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> bounds;
    for (double b = 10e-6; b < 130.0; b *= 1.25) bounds.push_back(b);
    return bounds;
  }();
  return kBounds;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

double HistogramSample::percentile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double first = static_cast<double>(seen);
    seen += counts[i];
    if (rank < static_cast<double>(seen)) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // The +Inf bucket has no upper edge; report its lower edge.
      const double hi = i < bounds.size() ? bounds[i] : lo;
      const double frac =
          counts[i] <= 1 ? 1.0 : (rank - first + 1.0) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::size_t HistogramSample::bucket_index(double v) const noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

HistogramSample histogram_delta(const HistogramSample& later,
                                const HistogramSample& earlier) {
  if (later.bounds != earlier.bounds) {
    throw std::invalid_argument("histogram_delta: mismatched bucket bounds");
  }
  HistogramSample out = later;
  for (std::size_t i = 0; i < out.counts.size(); ++i) {
    out.counts[i] -= std::min(out.counts[i], earlier.counts[i]);
  }
  out.count -= std::min(out.count, earlier.count);
  out.sum = std::max(0.0, out.sum - earlier.sum);
  return out;
}

namespace {

template <typename Vec>
const typename Vec::value_type* find_by_name(const Vec& v,
                                             const std::string& name) {
  for (const auto& s : v) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

const CounterSample* Snapshot::find_counter(const std::string& name) const& {
  return find_by_name(counters, name);
}
const GaugeSample* Snapshot::find_gauge(const std::string& name) const& {
  return find_by_name(gauges, name);
}
const HistogramSample* Snapshot::find_histogram(
    const std::string& name) const& {
  return find_by_name(histograms, name);
}

// ---------------------------------------------------------------------------
// Text exposition
// ---------------------------------------------------------------------------

namespace {

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  // max_digits10: the printed decimal parses back to the identical double,
  // so a scraped snapshot's bucket_index/percentile agree exactly with the
  // worker that rendered it.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string render_text(const Snapshot& snapshot) {
  std::ostringstream out;
  auto sorted_names = [](const auto& v) {
    std::vector<const typename std::remove_reference_t<decltype(v)>::value_type*>
        ptrs;
    for (const auto& s : v) ptrs.push_back(&s);
    std::sort(ptrs.begin(), ptrs.end(),
              [](const auto* a, const auto* b) { return a->name < b->name; });
    return ptrs;
  };
  for (const auto* c : sorted_names(snapshot.counters)) {
    out << "# TYPE " << c->name << " counter\n";
    out << c->name << ' ' << c->value << '\n';
  }
  for (const auto* g : sorted_names(snapshot.gauges)) {
    out << "# TYPE " << g->name << " gauge\n";
    out << g->name << ' ' << format_double(g->value) << '\n';
  }
  for (const auto* h : sorted_names(snapshot.histograms)) {
    out << "# TYPE " << h->name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->counts.size(); ++i) {
      cumulative += h->counts[i];
      const std::string le =
          i < h->bounds.size() ? format_double(h->bounds[i]) : "+Inf";
      out << h->name << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    out << h->name << "_sum " << format_double(h->sum) << '\n';
    out << h->name << "_count " << h->count << '\n';
  }
  return out.str();
}

namespace {

[[noreturn]] void parse_fail(const std::string& line) {
  throw std::runtime_error("metrics parse error at line: " + line);
}

double parse_double(const std::string& s, const std::string& line) {
  if (s == "+Inf") return std::numeric_limits<double>::infinity();
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) parse_fail(line);
    return v;
  } catch (const std::exception&) {
    parse_fail(line);
  }
}

std::uint64_t parse_u64(const std::string& s, const std::string& line) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size() || s[0] == '-') parse_fail(line);
    return v;
  } catch (const std::runtime_error&) {
    throw;  // parse_fail's own error, already typed
  } catch (const std::exception&) {
    parse_fail(line);  // stoull's invalid_argument / out_of_range
  }
}

}  // namespace

Snapshot parse_text(const std::string& text) {
  Snapshot snap;
  // name -> partially assembled histogram, in declaration order.
  std::vector<HistogramSample> hists;
  auto hist_for = [&](const std::string& name) -> HistogramSample& {
    for (auto& h : hists) {
      if (h.name == name) return h;
    }
    hists.push_back(HistogramSample{});
    hists.back().name = name;
    return hists.back();
  };

  std::istringstream in(text);
  std::string line;
  std::string pending_type_name, pending_type;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kw;
      meta >> hash >> kw >> pending_type_name >> pending_type;
      if (kw != "TYPE") parse_fail(line);
      continue;
    }
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0) parse_fail(line);
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);

    const auto brace = key.find('{');
    if (brace != std::string::npos) {
      // Histogram bucket: name_bucket{le="X"} cumulative
      const std::string full = key.substr(0, brace);
      if (full.size() < 8 || full.substr(full.size() - 7) != "_bucket") {
        parse_fail(line);
      }
      const std::string name = full.substr(0, full.size() - 7);
      const auto q1 = key.find('"', brace);
      const auto q2 = key.find('"', q1 + 1);
      if (q1 == std::string::npos || q2 == std::string::npos) parse_fail(line);
      const std::string le = key.substr(q1 + 1, q2 - q1 - 1);
      HistogramSample& h = hist_for(name);
      // Shape: finite, strictly ascending bounds, then exactly one +Inf
      // bucket, last — so counts.size() == bounds.size() + 1 and
      // percentile() never indexes past the bounds. _count is deliberately
      // not checked against the bucket sum: snapshot() folds them as
      // separate relaxed atomics.
      if (h.counts.size() > h.bounds.size()) parse_fail(line);  // after +Inf
      const std::uint64_t cum = parse_u64(value, line);
      std::uint64_t prev = 0;
      for (std::uint64_t c : h.counts) prev += c;
      if (cum < prev) parse_fail(line);
      if (le != "+Inf") {
        const double bound = parse_double(le, line);
        if (!std::isfinite(bound) ||
            (!h.bounds.empty() && bound <= h.bounds.back())) {
          parse_fail(line);
        }
        h.bounds.push_back(bound);
      }
      h.counts.push_back(cum - prev);
      continue;
    }
    auto ends_with = [&](const std::string& suffix) {
      return key.size() > suffix.size() &&
             key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    if (ends_with("_sum") &&
        find_by_name(hists, key.substr(0, key.size() - 4)) != nullptr) {
      hist_for(key.substr(0, key.size() - 4)).sum = parse_double(value, line);
      continue;
    }
    if (ends_with("_count") &&
        find_by_name(hists, key.substr(0, key.size() - 6)) != nullptr) {
      hist_for(key.substr(0, key.size() - 6)).count = parse_u64(value, line);
      continue;
    }
    if (pending_type_name == key && pending_type == "gauge") {
      snap.gauges.push_back({key, parse_double(value, line)});
    } else if (pending_type_name == key && pending_type == "counter") {
      snap.counters.push_back({key, parse_u64(value, line)});
    } else {
      parse_fail(line);
    }
  }
  for (const auto& h : hists) {
    if (h.counts.size() != h.bounds.size() + 1) {
      throw std::runtime_error("metrics parse error: histogram " + h.name +
                               " has no +Inf bucket");
    }
  }
  snap.histograms = std::move(hists);
  return snap;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

GaugeHandle& GaugeHandle::operator=(GaugeHandle&& other) noexcept {
  if (this != &other) {
    reset();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void GaugeHandle::reset() noexcept {
  if (registry_ != nullptr) {
    registry_->unregister_gauge(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

Counter& Registry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  for (auto& [n, c] : counters_) {
    if (n == name) return *c;
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  for (auto& [n, g] : gauges_) {
    if (n == name) return *g;
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return *gauges_.back().second;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  const std::scoped_lock lock(mutex_);
  for (auto& [n, h] : histograms_) {
    if (n == name) {
      if (h->bounds() != bounds) {
        throw std::invalid_argument("histogram '" + name +
                                    "' re-registered with different bounds");
      }
      return *h;
    }
  }
  histograms_.emplace_back(name, std::make_unique<Histogram>(std::move(bounds)));
  return *histograms_.back().second;
}

GaugeHandle Registry::register_gauge(const std::string& name,
                                     std::function<double()> fn) {
  const std::scoped_lock lock(mutex_);
  const std::uint64_t id = next_callback_id_++;
  callbacks_.push_back(CallbackGauge{id, name, std::move(fn)});
  return GaugeHandle(this, id);
}

void Registry::unregister_gauge(std::uint64_t id) noexcept {
  const std::scoped_lock lock(mutex_);
  std::erase_if(callbacks_, [id](const CallbackGauge& g) { return g.id == id; });
}

Snapshot Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  for (const auto& cb : callbacks_) {
    double v = 0.0;
    try {
      v = cb.fn();
    } catch (...) {
      continue;  // a dying component's sample is skipped, not fatal
    }
    bool merged = false;
    for (auto& g : snap.gauges) {
      if (g.name == cb.name) {
        g.value += v;
        merged = true;
        break;
      }
    }
    if (!merged) snap.gauges.push_back({cb.name, v});
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds = h->bounds();
    sample.counts.assign(h->bounds().size() + 1, 0);
    for (const auto& shard : h->shards_) {
      for (std::size_t i = 0; i < shard->counts.size(); ++i) {
        sample.counts[i] += shard->counts[i].load(std::memory_order_relaxed);
      }
      sample.count += shard->n.load(std::memory_order_relaxed);
      sample.sum += shard->sum.load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

}  // namespace polarice::obs
