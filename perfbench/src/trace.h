#pragma once
// Benchmark-side spans. Each span is (name, start, end, parent) and wraps
// one of the benchmark's own calls into a layer's public API; nothing in
// the library is instrumented. Spans are kept in memory and written once,
// at exit, as Chrome trace-event JSON plus a per-name self-time table. A
// span's self time is its duration minus the part of it that its child
// spans cover.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Recording is off until enabled; a disabled tracer records nothing.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t run_id() const noexcept { return run_id_; }

  /// A fresh span id; 0 is never returned and means "no parent".
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span. `name` must have static storage. Safe from
  /// any thread; a span may start on one thread and end on another.
  void record(std::uint64_t id, std::uint64_t parent, const char* name,
              Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::size_t size() const;

  /// Chrome trace-event JSON ("X" events, microseconds since the tracer
  /// was created); every event carries the run id, span id and parent.
  void write_chrome_json(const std::string& path) const;

  /// One line per span name: count, total ms, self ms, sorted by self time.
  [[nodiscard]] std::string self_time_table() const;

  /// Innermost open Span on the calling thread (0 when none).
  [[nodiscard]] static std::uint64_t& current() noexcept;

 private:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* name = "";
    Clock::time_point start, end;
    int tid = 0;
  };

  const std::uint64_t run_id_;
  const Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex mutex_;
  std::vector<Record> records_;                     // guarded by mutex_
  std::unordered_map<std::thread::id, int> tids_;   // guarded by mutex_
};

/// Scoped span on the calling thread; its parent is the innermost open
/// span of the same thread. Does nothing while the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;  // null when tracing was off at construction
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench
