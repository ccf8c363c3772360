#pragma once
// ExecutionContext — the one object every pipeline entry point takes in
// place of the raw `par::ThreadPool*` that used to thread through the whole
// call graph. It bundles the execution substrate (pool), determinism (base
// RNG seed), cooperative cancellation, a progress/telemetry sink, and a
// per-thread scratch-arena set, with value semantics: copies share the
// cancellation flag, progress sink, and arenas, so a context handed down a
// stage graph behaves like one logical execution.
//
// A default-constructed context is the sequential, non-cancellable, silent
// configuration — exactly what `pool = nullptr` used to mean — so leaf code
// can take `const ExecutionContext& = {}` and keep working untouched.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "par/thread_pool.h"

namespace polarice::par {

/// Thrown by throw_if_cancelled() (and by any pipeline honouring the token)
/// when cancellation was requested.
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(const std::string& where)
      : std::runtime_error("operation cancelled: " + where) {}
};

/// Copyable handle to a shared cancellation flag. Cancelling any copy
/// cancels them all; checking is one relaxed atomic load.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }
  void throw_if_cancelled(const char* where = "") const {
    if (cancelled()) throw OperationCancelled(where);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// One progress tick: `completed` of `total` units done in `stage`. `total`
/// may be 0 when the stage cannot estimate its size up front.
struct ProgressEvent {
  const char* stage = "";
  std::size_t completed = 0;
  std::size_t total = 0;
};

/// Telemetry callback. Must be thread-safe: stages report from pool workers.
using ProgressSink = std::function<void(const ProgressEvent&)>;

/// Growable byte scratch with bump allocation — the generic cousin of
/// tensor::PackArena, offered to pipeline stages for per-call temporaries
/// (production consumer: core::infer_scene_tiles' prediction buffers,
/// leased per scene). Memory comes in geometrically-grown
/// 64-byte-aligned chunks that are never moved or freed before destruction,
/// so every pointer handed out stays valid until reset() or the owning
/// Lease ends. reset() recycles all chunks; capacity only ever grows.
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;
  ~ScratchArena() {
    for (auto& chunk : chunks_) {
      ::operator delete(chunk.data, std::align_val_t{kAlign});
    }
  }

  /// Stack-disciplined borrow of the arena: records the bump cursor at
  /// construction and rewinds to it at destruction, so a library routine
  /// can take per-call temporaries from a long-lived per-thread arena
  /// without growing it forever and without clobbering outer leases (a
  /// bare reset() would). Leases must end in reverse order of creation —
  /// the natural scoping of nested calls.
  class Lease {
   public:
    explicit Lease(ScratchArena& arena)
        : arena_(&arena),
          chunk_(arena.cursor_),
          used_(arena.cursor_ < arena.chunks_.size()
                    ? arena.chunks_[arena.cursor_].used
                    : 0) {}
    Lease(Lease&& other) noexcept
        : arena_(other.arena_), chunk_(other.chunk_), used_(other.used_) {
      other.arena_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (arena_ != nullptr) arena_->rewind(chunk_, used_);
    }

    /// `bytes` of 64-byte-aligned scratch, valid until this lease ends.
    void* allocate(std::size_t bytes) { return arena_->allocate(bytes); }
    template <typename T>
    T* allocate_n(std::size_t count) {
      return arena_->allocate_n<T>(count);
    }

   private:
    ScratchArena* arena_;
    std::size_t chunk_;
    std::size_t used_;
  };

  [[nodiscard]] Lease lease() { return Lease(*this); }

  /// Returns `bytes` of 64-byte-aligned scratch valid until reset().
  void* allocate(std::size_t bytes) {
    bytes = std::max<std::size_t>(
        kAlign, (bytes + kAlign - 1) / kAlign * kAlign);
    while (cursor_ < chunks_.size() &&
           chunks_[cursor_].used + bytes > chunks_[cursor_].size) {
      ++cursor_;
    }
    if (cursor_ == chunks_.size()) {
      std::size_t size = chunks_.empty() ? 4096 : chunks_.back().size * 2;
      while (size < bytes) size *= 2;
      chunks_.push_back(Chunk{
          static_cast<std::byte*>(::operator new(size, std::align_val_t{kAlign})),
          size, 0});
    }
    Chunk& chunk = chunks_[cursor_];
    void* out = chunk.data + chunk.used;
    chunk.used += bytes;
    return out;
  }

  template <typename T>
  T* allocate_n(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  void reset() noexcept {
    for (auto& chunk : chunks_) chunk.used = 0;
    cursor_ = 0;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const auto& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  static constexpr std::size_t kAlign = 64;
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// Restores the bump state recorded by a Lease. Chunks past the recorded
  /// cursor were only ever touched by the ending lease (the cursor moves
  /// forward monotonically between resets), so zeroing them is exact.
  void rewind(std::size_t chunk, std::size_t used) noexcept {
    for (std::size_t i = chunk + 1; i < chunks_.size(); ++i) {
      chunks_[i].used = 0;
    }
    if (chunk < chunks_.size()) chunks_[chunk].used = used;
    cursor_ = chunk;
  }

  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;
};

/// Execution environment for one logical pipeline run.
class ExecutionContext {
 public:
  /// Sequential, non-cancellable, silent — the old `pool = nullptr`.
  ExecutionContext() : shared_(std::make_shared<Shared>()) {}

  /// Runs parallel sections on `pool` (nullptr = sequential). The pool must
  /// outlive every use of this context and its copies.
  explicit ExecutionContext(ThreadPool* pool, std::uint64_t seed = 0)
      : ExecutionContext() {
    pool_ = pool;
    seed_ = seed;
  }

  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Absolute deadline for the work submitted under this context, on the
  /// steady-clock axis (a serving tier with an injectable Clock interprets
  /// it against that clock). Advisory: stages that understand deadlines
  /// (SceneServer shedding) honour it; everything else ignores it.
  [[nodiscard]] const std::optional<std::chrono::steady_clock::time_point>&
  deadline() const noexcept {
    return deadline_;
  }

  /// Value-semantic dials: derived contexts share cancellation/progress/
  /// scratch with the parent but override one knob.
  [[nodiscard]] ExecutionContext with_pool(ThreadPool* pool) const {
    ExecutionContext out(*this);
    out.pool_ = pool;
    return out;
  }
  [[nodiscard]] ExecutionContext with_seed(std::uint64_t seed) const {
    ExecutionContext out(*this);
    out.seed_ = seed;
    return out;
  }
  [[nodiscard]] ExecutionContext with_deadline(
      std::chrono::steady_clock::time_point deadline) const {
    ExecutionContext out(*this);
    out.deadline_ = deadline;
    return out;
  }

  // ---- cancellation ----
  [[nodiscard]] const CancellationToken& cancellation() const noexcept {
    return shared_->cancel;
  }
  void request_cancel() const noexcept { shared_->cancel.cancel(); }
  [[nodiscard]] bool cancelled() const noexcept {
    return shared_->cancel.cancelled();
  }
  void throw_if_cancelled(const char* where = "") const {
    shared_->cancel.throw_if_cancelled(where);
  }

  // ---- progress / telemetry ----
  void set_progress_sink(ProgressSink sink) const {
    const std::scoped_lock lock(shared_->mutex);
    shared_->progress = std::move(sink);
  }
  /// Reports one tick; no-op without a sink. Safe from pool workers.
  void report_progress(const char* stage, std::size_t completed,
                       std::size_t total) const {
    ProgressSink sink;
    {
      const std::scoped_lock lock(shared_->mutex);
      sink = shared_->progress;
    }
    if (sink) sink(ProgressEvent{stage, completed, total});
  }

  // ---- scratch ----
  /// The calling thread's scratch arena (created on first use). Arenas are
  /// per-thread, so pool workers and concurrent sessions never contend on
  /// the memory itself — only on the map guarding lookup.
  [[nodiscard]] ScratchArena& scratch() const {
    const std::scoped_lock lock(shared_->mutex);
    auto& slot = shared_->arenas[std::this_thread::get_id()];
    if (!slot) slot = std::make_unique<ScratchArena>();
    return *slot;
  }

 private:
  struct Shared {
    CancellationToken cancel;
    mutable std::mutex mutex;
    ProgressSink progress;
    std::unordered_map<std::thread::id, std::unique_ptr<ScratchArena>> arenas;
  };

  ThreadPool* pool_ = nullptr;
  std::uint64_t seed_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::shared_ptr<Shared> shared_;
};

}  // namespace polarice::par
