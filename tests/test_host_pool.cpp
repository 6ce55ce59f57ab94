// homme::HostPool: every index runs exactly once, the lowest failing
// index's exception reaches the caller, nested loops run inline, and
// concurrent callers share the workers without starving one another.

#include "homme/host_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

void expect_each_index_once(std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  homme::parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

TEST(HostPool, EveryIndexRunsExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 10000u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_each_index_once(n);
  }
}

TEST(HostPool, RethrowsTheLowestFailingIndex) {
  // Every index from 100 up throws its own index; a serial loop would
  // have stopped at 100, so that is the exception the caller must see.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      homme::parallel_for(1000, [](std::size_t i) {
        if (i >= 100) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "100");
    }
  }
  // The pool stays usable after a failed loop.
  expect_each_index_once(257);
}

TEST(HostPool, IndicesBelowTheFailureStillRun) {
  std::vector<std::atomic<int>> hits(500);
  EXPECT_THROW(homme::parallel_for(hits.size(),
                                   [&](std::size_t i) {
                                     hits[i].fetch_add(1);
                                     if (i == 499) throw std::logic_error("x");
                                   }),
               std::logic_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(HostPool, NestedLoopCompletes) {
  constexpr std::size_t kOuter = 37, kInner = 53;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  homme::parallel_for(kOuter, [&](std::size_t o) {
    homme::parallel_for(kInner, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(HostPool, ConcurrentCallersAllComplete) {
  // Three callers (like three svc::Engine workers) each run many small
  // loops at once; every loop must see each of its indices exactly once.
  constexpr int kCallers = 3, kLoops = 200;
  constexpr std::size_t kN = 97;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int c = 0; c < kCallers; ++c) hits.emplace_back(kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int l = 0; l < kLoops; ++l) {
        homme::parallel_for(kN, [&](std::size_t i) {
          hits[static_cast<std::size_t>(c)][i].fetch_add(
              1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(c)][i].load(), kLoops)
          << "caller " << c << " index " << i;
    }
  }
}

TEST(HostPool, SizedToTheHostLessTheCaller) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(homme::HostPool::instance().workers(),
            hw > 1 ? static_cast<int>(hw) - 1 : 0);
}

}  // namespace
