#include "homme/host_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

namespace homme {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Nonzero while this thread runs pool items (a worker, or a caller inside
/// its own parallel_for): a nested parallel_for then runs inline.
thread_local int tl_depth = 0;

/// Chunks per thread a loop is cut into: small enough that a descheduled
/// worker holds back little work, large enough that claiming (one atomic
/// add) stays negligible next to an item.
constexpr std::size_t kChunksPerThread = 8;

/// How long an idle worker polls for the next loop, and a caller for the
/// last items of its own, before sleeping. The loops of a step follow each
/// other within microseconds and workers finish their last chunks about
/// when the caller does, while a futex wake-up takes tens of microseconds
/// on a virtual machine. Polling yields the core on every turn, so other
/// runnable threads are not held off.
constexpr std::chrono::microseconds kPoll{100};

/// Yield until \p done() or kPoll has passed; returns done().
template <typename Pred>
bool poll(Pred done) {
  const auto until = std::chrono::steady_clock::now() + kPoll;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::yield();
  }
  return true;
}

/// One loop in flight. Slots are reused, never freed while the pool lives,
/// so a worker that attaches to a loop just as its last item finishes
/// still touches valid memory; it claims nothing and detaches.
struct Job {
  // Set by the owner under Impl::mu while refs == 0; workers read them
  // after attaching under the same mutex.
  const IndexFn* fn = nullptr;  ///< the owner's parallel_for argument
  std::size_t n = 0;
  std::size_t chunk = 1;
  bool posted = false;  ///< open for workers to attach; guarded by Impl::mu

  // Claimed by every chunk and settled once per participant: separate
  // cache lines, so claims do not slow the settling and vice versa.
  alignas(64) std::atomic<std::size_t> next{0};  ///< first unclaimed index
  alignas(64) std::atomic<std::size_t> done{0};  ///< items finished/skipped
  std::atomic<std::size_t> fail{kNone};  ///< lowest failing index so far
  std::exception_ptr error;  ///< its exception; guarded by Impl::mu
  /// Owner + attached workers; the slot is free again at 0.
  std::atomic<int> refs{0};
};

}  // namespace

struct HostPool::Impl {
  explicit Impl(int nworkers) : nworkers(nworkers), jobs(new Job[kSlots]) {
    threads.reset(new std::thread[static_cast<std::size_t>(nworkers)]);
    for (int i = 0; i < nworkers; ++i) {
      threads[static_cast<std::size_t>(i)] =
          std::thread([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    for (int i = 0; i < nworkers; ++i) {
      threads[static_cast<std::size_t>(i)].join();
    }
  }

  /// A free slot set up for \p n items of \p fn and posted, or nullptr
  /// when every slot is in use (the caller then runs the loop inline).
  Job* post(std::size_t n, const IndexFn& fn) {
    const std::size_t threads_total = static_cast<std::size_t>(nworkers) + 1;
    const std::size_t chunk =
        std::max<std::size_t>(1, n / (kChunksPerThread * threads_total));
    const std::size_t nchunks = (n + chunk - 1) / chunk;
    Job* job = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t s = 0; s < kSlots && job == nullptr; ++s) {
        if (!jobs[s].posted &&
            jobs[s].refs.load(std::memory_order_acquire) == 0) {
          job = &jobs[s];
        }
      }
      if (job == nullptr) return nullptr;
      job->fn = &fn;
      job->n = n;
      job->chunk = chunk;
      job->next.store(0, std::memory_order_relaxed);
      job->done.store(0, std::memory_order_relaxed);
      job->fail.store(kNone, std::memory_order_relaxed);
      job->error = nullptr;
      job->refs.store(1, std::memory_order_relaxed);
      job->posted = true;
    }
    epoch.fetch_add(1, std::memory_order_release);
    // Wake only as many workers as there are chunks besides the caller's.
    if (nchunks - 1 >= static_cast<std::size_t>(nworkers)) {
      cv.notify_all();
    } else {
      for (std::size_t i = 0; i + 1 < nchunks; ++i) cv.notify_one();
    }
    return job;
  }

  /// Close \p job to late workers and release the owner's reference;
  /// returns the exception to rethrow, if any.
  std::exception_ptr retire(Job& job) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mu);
      job.posted = false;
      err = std::exchange(job.error, nullptr);
    }
    job.refs.fetch_sub(1, std::memory_order_release);
    return err;
  }

  /// Record that item \p i threw; keeps the lowest index's exception.
  void record_failure(Job& job, std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    if (i < job.fail.load(std::memory_order_relaxed)) {
      job.fail.store(i, std::memory_order_relaxed);
      job.error = std::current_exception();
    }
  }

  /// Claim and run chunks of \p job until none are left, then count the
  /// items run as done in one step. Items above a recorded failure are
  /// skipped (a serial loop never reached them); items below it still
  /// run, so the lowest failing index is found.
  void work(Job& job) {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t b =
          job.next.fetch_add(job.chunk, std::memory_order_relaxed);
      if (b >= job.n) break;
      const std::size_t e = std::min(b + job.chunk, job.n);
      for (std::size_t i = b; i < e; ++i) {
        if (i > job.fail.load(std::memory_order_relaxed)) continue;
        try {
          (*job.fn)(i);
        } catch (...) {
          record_failure(job, i);
        }
      }
      ran += e - b;
    }
    if (ran != 0 &&
        job.done.fetch_add(ran, std::memory_order_acq_rel) + ran == job.n) {
      job.done.notify_all();
    }
  }

  /// A posted job with unclaimed items, scanning from a rotating start so
  /// concurrent loops share the workers; requires mu.
  Job* find_work() {
    for (std::size_t k = 0; k < kSlots; ++k) {
      Job& j = jobs[(rr + k) % kSlots];
      if (j.posted && j.next.load(std::memory_order_relaxed) < j.n) {
        rr = (rr + k + 1) % kSlots;
        return &j;
      }
    }
    return nullptr;
  }

  void worker_loop() {
    tl_depth = 1;
    for (;;) {
      const std::uint64_t seen = epoch.load(std::memory_order_acquire);
      poll([&] { return epoch.load(std::memory_order_acquire) != seen; });
      std::unique_lock<std::mutex> lock(mu);
      Job* job = nullptr;
      cv.wait(lock, [&] { return stop || (job = find_work()) != nullptr; });
      if (stop) return;
      job->refs.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      work(*job);
      job->refs.fetch_sub(1, std::memory_order_release);
    }
  }

  static constexpr std::size_t kSlots = 64;

  const int nworkers;
  std::mutex mu;
  std::condition_variable cv;  ///< workers wait here for posted jobs
  bool stop = false;           ///< guarded by mu
  std::atomic<std::uint64_t> epoch{0};  ///< loops posted so far
  std::size_t rr = 0;          ///< find_work's scan start; guarded by mu
  std::unique_ptr<Job[]> jobs;  ///< kSlots loop slots
  std::unique_ptr<std::thread[]> threads;  // last: uses everything above
};

HostPool::HostPool() {
  const unsigned hw = std::thread::hardware_concurrency();
  impl_ = std::make_unique<Impl>(hw > 1 ? static_cast<int>(hw) - 1 : 0);
}

HostPool::~HostPool() = default;

HostPool& HostPool::instance() {
  static HostPool pool;
  return pool;
}

int HostPool::workers() const { return impl_->nworkers; }

void HostPool::parallel_for(std::size_t n, IndexFn fn) {
  if (n == 0) return;
  Job* job = (n > 1 && tl_depth == 0 && impl_->nworkers > 0)
                 ? impl_->post(n, fn)
                 : nullptr;
  if (job == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ++tl_depth;
  impl_->work(*job);
  --tl_depth;
  // Wait for the items workers claimed — not for idle workers.
  const auto finished = [&] {
    return job->done.load(std::memory_order_acquire) == n;
  };
  if (!poll(finished)) {
    for (std::size_t d = job->done.load(std::memory_order_acquire); d < n;
         d = job->done.load(std::memory_order_acquire)) {
      job->done.wait(d, std::memory_order_acquire);
    }
  }
  if (std::exception_ptr err = impl_->retire(*job)) {
    std::rethrow_exception(err);
  }
}

}  // namespace homme
