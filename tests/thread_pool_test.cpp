// Tests for util/thread_pool's parallel_for_index: every index runs
// exactly once whatever the team size, and a body's exception reaches the
// caller after the team has joined.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace minrej {
namespace {

TEST(ParallelForIndex, CoversTheRangeAndPropagatesExceptions) {
  // Team sizes that divide the range, leave a short last slice, and
  // exceed the range.
  for (const std::size_t threads : {1u, 3u, 4u, 100u}) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for_index(
        64, [&hits](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
  EXPECT_THROW(parallel_for_index(
                   8,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("body boom");
                   },
                   2),
               std::runtime_error);
}

}  // namespace
}  // namespace minrej
