#pragma once
// ReplicaPool — the SceneServer's replica-lease discipline, with elastic
// sizing.
//
// The pool owns `size()` U-Net replicas (weights cloned once from the
// source model, which is not retained). A Lease removes one replica from
// the free list for its whole scope; further acquirers block on a condition
// variable until a replica frees up. Replica weights are never mutated
// after cloning, so a leased replica is safe to run forward passes on from
// any one thread at a time.
//
// Elasticity: the pool starts at `initial` replicas and may grow on demand
// up to `max_size` when acquire(/*allow_grow=*/true) finds no free replica
// (SceneServer's queue-depth-driven scale-up). shrink() retires free
// replicas back down to a floor (idle scale-down). Growth clones from an
// existing replica: forward passes only write a model's private caches,
// never its parameters, so cloning while other replicas serve is safe.
//
// Failure handling: a worker that watches its replica misbehave (forward
// pass threw — possibly via an injected fault) calls Lease::mark_failed();
// the ending lease then routes the replica to a quarantine list instead of
// the free list, so the suspect weights/caches can never serve another
// batch. A watchdog calls repair() to destroy quarantined corpses and clone
// replacements from a healthy source. The pool keeps one pristine master
// clone (never leased, not counted in size()) as the rebuild source of last
// resort, so recovery works even when every serving replica died at once.
//
// Telemetry: the pool tracks how long acquirers waited for a free replica,
// the peak number of concurrently leased replicas, the peak pool size, and
// cumulative quarantine/rebuild counts.

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/unet.h"
#include "util/virtual_clock.h"

namespace polarice::core::serve {

class ReplicaPool {
 public:
  /// Clones `initial` replicas from `source` (not retained; it may be freed
  /// or keep training afterwards). The pool may later grow to `max_size`.
  /// `clock` times acquire-wait telemetry (nullptr = process clock; must
  /// outlive the pool). Throws std::invalid_argument unless
  /// 1 <= initial <= max_size.
  ReplicaPool(nn::UNet& source, int initial, int max_size,
              const util::Clock* clock = nullptr);

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// RAII lease of one replica. Blocks until a replica is free; with
  /// allow_grow, a new replica is cloned instead of blocking whenever the
  /// pool is below max_size (the clone happens outside the pool lock, so
  /// concurrent leases/releases are not stalled by weight copying).
  class Lease {
   public:
    explicit Lease(ReplicaPool& pool, bool allow_grow = false);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    [[nodiscard]] nn::UNet& model() noexcept { return *model_; }

    /// Marks the leased replica as failed: when this lease ends the replica
    /// is quarantined (removed from service) instead of returned to the
    /// free list. Call when a forward pass on it threw — the model's
    /// internal caches may be mid-write and its correctness can no longer
    /// be trusted.
    void mark_failed() noexcept { failed_ = true; }

   private:
    ReplicaPool& pool_;
    nn::UNet* model_;
    bool failed_ = false;
  };

  /// Grows the pool (cloning new replicas into the free list) until it
  /// holds at least min(target, max_size()) replicas — the queue-depth-
  /// driven scale-up entry point. Clones happen outside the pool lock.
  void ensure(int target);

  /// Retires free replicas until the pool holds at most
  /// max(target, leased-out count) — leased replicas are never destroyed.
  void shrink(int target);

  /// Destroys quarantined replicas and clones replacements from a healthy
  /// source (a serving replica if any survive, else the pristine master),
  /// up to max_size(). The watchdog's entry point; safe to call
  /// concurrently with acquire/ensure/shrink. Returns replicas rebuilt.
  int repair();

  [[nodiscard]] int size() const;           // replicas currently owned
  [[nodiscard]] int peak_size() const;      // high-water pool size
  [[nodiscard]] int max_size() const noexcept { return max_size_; }
  [[nodiscard]] std::size_t leases() const;       // currently leased out
  [[nodiscard]] std::size_t peak_leases() const;  // peak concurrent leases
  [[nodiscard]] double wait_seconds() const;      // summed acquire blocking
  [[nodiscard]] int quarantined() const;     // corpses awaiting repair()
  [[nodiscard]] std::size_t total_quarantined() const;  // cumulative
  [[nodiscard]] std::size_t total_rebuilt() const;      // cumulative

 private:
  nn::UNet* acquire(bool allow_grow);
  void release(nn::UNet* model);
  void quarantine(nn::UNet* model);

  /// Clones one replica and installs it in replicas_. Caller holds `lock`
  /// (on mutex_) and has verified !growing_ and size() < max_size(); the
  /// lock is released around the clone (growing_/grow_source_ latch the
  /// protocol, and are cleared even when the clone throws). Returns the
  /// new replica; the caller decides whether it goes to free_ or straight
  /// into a lease.
  nn::UNet* grow_one(std::unique_lock<std::mutex>& lock);

  const int max_size_;
  const util::Clock* clock_;
  mutable std::mutex mutex_;
  std::condition_variable free_cv_;
  std::unique_ptr<nn::UNet> master_;  // pristine; never leased or counted
  std::vector<std::unique_ptr<nn::UNet>> replicas_;  // guarded by mutex_
  std::vector<nn::UNet*> free_;                      // guarded by mutex_
  std::vector<std::unique_ptr<nn::UNet>> quarantined_;  // guarded by mutex_
  bool growing_ = false;           // one clone in flight at a time
  nn::UNet* grow_source_ = nullptr;  // shrink() must not destroy this
  std::size_t leases_ = 0;       // currently leased out
  std::size_t peak_leases_ = 0;
  int peak_size_ = 0;
  double wait_seconds_ = 0.0;
  std::size_t total_quarantined_ = 0;
  std::size_t total_rebuilt_ = 0;
};

}  // namespace polarice::core::serve
