#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

/// \file host_pool.hpp
/// homme::HostPool — the one process-wide pool of host worker threads that
/// runs the independent per-element (per-column, per-level, per-shard)
/// loops of a model step. It plays the part of the paper's 64 CPEs of a
/// core group and 4 core groups of a processor (sections 6-7) on the host
/// that runs this reproduction: each loop body is one "team" per element,
/// as in the TinMan compute_and_apply_rhs exemplar, drawing its temporaries
/// from its own thread's ScratchArena.
///
/// Contract:
///   - hardware_concurrency() - 1 workers, created on first use; the
///     calling thread always works on its own loop too, so a loop makes
///     progress even when every worker is busy elsewhere or descheduled;
///   - parallel_for(n, fn) self-schedules small chunks of [0, n) and
///     returns once every *item* has run — it never waits for an idle
///     worker to wake up;
///   - several threads may call at once (the rank threads of an N-rank
///     session, svc::Engine workers): their loops share the workers;
///   - a parallel_for inside an item runs inline on the item's thread;
///   - if items throw, the exception of the lowest failing index is
///     rethrown on the caller — the one a serial loop would have thrown —
///     and items above it that have not started are skipped;
///   - no heap allocation per loop: the callable is passed by reference
///     (IndexFn) and the loop's bookkeeping lives in a fixed slot table.
///
/// Bit-identity is the caller's side of the contract: items must write
/// disjoint data and must not depend on each other's order (DESIGN.md
/// section 18).

namespace homme {

/// Non-owning, non-allocating reference to a callable `void(std::size_t)`.
/// The referenced callable must outlive every call through the reference
/// (a lambda passed straight to parallel_for lives until it returns).
class IndexFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, IndexFn> &&
             std::is_invocable_v<F&, std::size_t>)
  IndexFn(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, std::size_t i) {
          (*static_cast<std::remove_reference_t<F>*>(o))(i);
        }) {}

  void operator()(std::size_t i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

class HostPool {
 public:
  /// The process-wide pool (created on first use).
  static HostPool& instance();

  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Worker threads, excluding callers.
  int workers() const;

  /// Run fn(i) for every i in [0, n), spread over the workers and the
  /// calling thread; see the file comment for the contract.
  void parallel_for(std::size_t n, IndexFn fn);

 private:
  HostPool();

  struct Impl;  // threads, slot table, wake-up; host_pool.cpp
  std::unique_ptr<Impl> impl_;
};

/// HostPool::instance().parallel_for(n, fn).
inline void parallel_for(std::size_t n, IndexFn fn) {
  HostPool::instance().parallel_for(n, fn);
}

}  // namespace homme
