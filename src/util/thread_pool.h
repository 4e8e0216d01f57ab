// thread_pool.h — fork-join parallel_for over an index range.
//
// The experiment harness runs thousands of independent online-algorithm
// trials (seeds × parameter points).  parallel_for_index slices the trial
// index range over a team of threads so that per-trial RNGs stay
// deterministic (trial i always uses seed base+i, regardless of
// scheduling).
//
// Design choices (C++ Core Guidelines CP.*):
//  * RAII: every thread is joined before the call returns; no detached
//    threads.
//  * No task futures: the sweep pattern is fork-join, so the call blocks
//    until every index is processed and rethrows the first exception
//    raised by any worker.
#pragma once

#include <cstddef>
#include <functional>

namespace minrej {

/// Runs body(i) for every i in [0, count) across `threads` workers.
///
/// Static block partitioning: worker w handles a contiguous slice, so the
/// workload-to-thread mapping is deterministic.  Blocks until done; the
/// first exception thrown by any body is rethrown in the caller.
/// threads == 0 selects hardware concurrency; count == 0 is a no-op;
/// with one available thread everything runs inline (no spawn).
void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body,
                        std::size_t threads = 0);

}  // namespace minrej
