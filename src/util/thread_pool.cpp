#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace minrej {

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body,
                        std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, count);
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> team;
  team.reserve(threads);

  const std::size_t chunk = (count + threads - 1) / threads;
  for (std::size_t w = 0; w < threads; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    team.emplace_back([&, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : team) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace minrej
