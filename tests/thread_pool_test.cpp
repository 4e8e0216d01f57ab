// Tests for sim/runner's parallel_trials fork-join team: every trial runs
// exactly once and lands in its own slot whatever the team size, a
// one-thread team runs inline in trial order, and a body's exception
// reaches the caller after the team has joined.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/runner.h"

namespace minrej {
namespace {

TEST(ParallelTrials, CoversTheRangeAndPropagatesExceptions) {
  // Team sizes that divide the range, leave a short last slice, and
  // exceed the range.
  for (const std::size_t threads : {1u, 3u, 4u, 100u}) {
    std::vector<std::atomic<int>> hits(64);
    const std::vector<double> results = parallel_trials(
        64,
        [&hits](std::size_t i) {
          hits[i].fetch_add(1);
          return static_cast<double>(i) * 0.5;
        },
        threads);
    ASSERT_EQ(results.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      ASSERT_EQ(results[i], static_cast<double>(i) * 0.5) << "i=" << i;
    }
  }

  // Zero trials: no result and the body never runs.
  EXPECT_TRUE(parallel_trials(0, [](std::size_t) -> double {
                ADD_FAILURE() << "must not run";
                return 0.0;
              }).empty());

  // One thread: inline on the caller, in trial order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_trials(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return 0.0;
      },
      1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  EXPECT_THROW(parallel_trials(
                   100,
                   [](std::size_t i) -> double {
                     if (i == 57) throw std::runtime_error("body boom");
                     return 0.0;
                   },
                   4),
               std::runtime_error);
}

}  // namespace
}  // namespace minrej
