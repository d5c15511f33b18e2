// Engine-owned scratch for the steady-state serving loop.
//
// One EngineScratch aggregates every reusable working set a single
// route_one_into call needs — the restricted route scratch, the
// optimum's column-generation scratch, the distance bound's Dijkstra state
// and memo, and the packet staging list (one edge-id span per packet,
// pointing into the route's integral candidates). All of it is
// capacity-retaining (see the per-layer scratch structs), and the two
// Dijkstra users (the distance bound and the optimum's pricer) keep their
// CSR snapshot of the served graph across calls (FlatAdjacencyCache,
// rebuilt only when the topology stamp changes), so a warm EngineScratch
// makes fractional routes and their certificates allocation-free, also
// right after a capacity edit — the measured contract
// bench_m7_service_memory gates. One scratch also carries a memo across
// calls: the distance bound remembers the pair distances it computed,
// keyed on the topology stamp and the bitwise lengths 1/cap_e (see
// DistanceBoundScratch), so a route over pairs the scratch has seen runs
// no Dijkstra. "Warm" means every buffer has
// grown to the largest size the demand mix asks of it: buffers only grow,
// and the per-commodity rows a smaller demand drops are parked in spare
// lists for the next larger one (resize_keeping_buffers), so the
// commodity count may change from route to route. Rounding (its trials and
// the integral solution's copy of the candidates and their vertex paths) and
// the packet simulator still allocate per route.
//
// ScratchPool is the concurrency story: route_batch fans demands out across
// the engine's thread pool, and scratch contents must never be shared
// mid-solve, so each route_one_into call leases a scratch from a
// mutex-guarded free list (RAII; returned on lease destruction). WHICH scratch a call
// gets is scheduling-dependent, but scratch contents never influence
// results — every consumer resets its buffers with assign()/clear() before
// reading them, and a remembered distance equals the recomputed one bit
// for bit — so the nondeterministic borrowing is invisible in outputs
// (route_batch's bit-identity across thread counts is pinned by
// tests/test_route_batch.cpp and re-checked by tests/test_runtime.cpp).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/semi_oblivious.h"

namespace sor::runtime {

/// Everything one route_one_into call scratches on, pre-warmed across calls.
struct EngineScratch {
  RouteScratch route;            ///< restricted solve
  OptimumScratch optimum;        ///< offline optimum (column generation)
  DistanceBoundScratch distance; ///< distance bound: memo, Dijkstra, CSR
  std::vector<std::span<const int>> packets;  ///< packet-simulation staging
};

/// Mutex-guarded free list of EngineScratch instances. acquire() pops a
/// warm scratch (or mints a fresh one when the list is empty — at most once
/// per concurrently-active route call, so a pool serving a route_batch
/// settles at the pool's thread width); the lease returns it on
/// destruction.
class ScratchPool {
 public:
  class Lease {
   public:
    Lease(ScratchPool& pool, std::unique_ptr<EngineScratch> scratch)
        : pool_(&pool), scratch_(std::move(scratch)) {}
    ~Lease() {
      if (scratch_) pool_->put(std::move(scratch_));
    }
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    EngineScratch& operator*() const { return *scratch_; }
    EngineScratch* operator->() const { return scratch_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<EngineScratch> scratch_;
  };

  ScratchPool() = default;
  // Movable so the owning engine stays movable. Only the free list moves —
  // each pool keeps its own mutex — and moving is only legal while no
  // lease is outstanding (exactly the engine's own move precondition: no
  // in-flight route call).
  ScratchPool(ScratchPool&& other) noexcept {
    std::lock_guard<std::mutex> lock(other.mutex_);
    free_ = std::move(other.free_);
  }
  ScratchPool& operator=(ScratchPool&& other) noexcept {
    if (this != &other) {
      std::scoped_lock lock(mutex_, other.mutex_);
      free_ = std::move(other.free_);
    }
    return *this;
  }

  Lease acquire();

 private:
  void put(std::unique_ptr<EngineScratch> scratch);

  std::mutex mutex_;
  std::vector<std::unique_ptr<EngineScratch>> free_;
};

}  // namespace sor::runtime
