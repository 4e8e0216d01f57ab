// harness_test.cpp — checks of the driver's own helpers: the percentile
// reporting rule, open-loop latency measured from the due time, and span
// self times.  run.py runs it before every benchmark run; any failed check
// exits non-zero and stops the run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "harness_test: FAILED %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void percentile_rule() {
  using perfbench::tail_percentile_level;
  // Highest ladder percentile with at least ten samples beyond it.
  expect(tail_percentile_level(19) == 0.0, "19 samples support no percentile");
  expect(tail_percentile_level(20) == 50.0, "20 samples support the median");
  expect(tail_percentile_level(99) == 50.0, "99 samples: p90 leaves 9");
  expect(tail_percentile_level(100) == 90.0, "100 samples support p90");
  expect(tail_percentile_level(999) == 90.0, "999 samples: p99 leaves 9");
  expect(tail_percentile_level(1000) == 99.0, "1000 samples support p99");
  expect(tail_percentile_level(10000) == 99.9, "10^4 samples support p99.9");
  expect(tail_percentile_level(100000) == 99.99, "10^5 samples support p99.99");
  expect(tail_percentile_level(10000000) == 99.999, "top of the ladder");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(perfbench::percentile(v, 50.0) == 50.0, "nearest-rank median");
  expect(perfbench::percentile(v, 99.0) == 99.0, "nearest-rank p99");
  expect(perfbench::percentile(v, 100.0) == 100.0, "p100 is the max");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  std::vector<double> empty;
  expect(perfbench::percentile(empty, 50.0) == 0.0, "empty sample");

  // Passes of 400 samples: windows of three passes reach 1000; the
  // two-pass remainder of seven passes joins the last window.
  const std::vector<std::size_t> begin = {0, 400, 800, 1200, 1600, 2000, 2400};
  const std::vector<std::size_t> w = perfbench::pass_windows(begin, 2800, 1000);
  expect(w == std::vector<std::size_t>({0, 1200, 2800}), "windows of whole passes");
  expect(perfbench::pass_windows(begin, 2800, 5000) ==
             std::vector<std::size_t>({0, 2800}),
         "too few samples: one window");
  // Window medians 1, 1 and 100: the one disturbed window does not move
  // the result.
  std::vector<double> samples(3000, 1.0);
  for (std::size_t i = 2000; i < 3000; ++i) samples[i] = 100.0;
  expect(perfbench::windowed_percentile(samples, {0, 1000, 2000}, 50.0, 1000) == 1.0,
         "median over windows resists one disturbed window");
}

void open_loop_latency() {
  // 1000 arrivals/s: arrival k is due at k ms.
  const perfbench::OpenLoopSchedule schedule{0, 1000.0};
  constexpr std::int64_t kMs = 1000000;
  expect(schedule.due_count(0, 100) == 1, "arrival 0 is due at the start");
  expect(schedule.due_count(kMs - 1, 100) == 1, "arrival 1 not yet due");
  expect(schedule.due_count(kMs, 100) == 2, "arrival 1 due at 1 ms");
  expect(schedule.due_count(1000 * kMs, 100) == 100, "capped at the total");
  expect(schedule.due_count(-5, 100) == 0, "nothing due before the start");

  // A generator that submits everything due after each call returns.  The
  // first call carries arrival 0 and stalls for 10 ms; the second carries
  // arrivals 1..10, which fell due during the stall, and takes 0.1 ms.
  std::vector<float> lat;
  perfbench::charge_call(schedule, 0, 1, 10 * kMs, lat);
  const std::int64_t t = 10 * kMs;
  const std::size_t due = schedule.due_count(t, 100);
  expect(due == 11, "ten arrivals fell due during the stall");
  perfbench::charge_call(schedule, 1, due - 1, t + kMs / 10, lat);
  expect(lat.size() == 11, "one latency per arrival");
  expect(near(lat[0], 10000.0), "the stalled arrival waited 10 ms");
  for (std::size_t k = 1; k < lat.size(); ++k) {
    // Charged from its due time: the stall's remainder plus the 0.1 ms
    // call, never just the call's own duration.
    const double expected_us = 10100.0 - 1000.0 * static_cast<double>(k);
    expect(std::abs(lat[k] - expected_us) < 1e-3,
           "later arrival charged from its due time");
    expect(lat[k] > 100.0 || k == 10, "stall charged to later arrivals");
  }
}

void self_time() {
  // root [0,100] ⊃ a [10,40] ⊃ c [20,30];  root ⊃ b [50,60].
  perfbench::SpanRecorder rec;
  const std::uint32_t root = rec.intern("root");
  const std::uint32_t a = rec.intern("a");
  const std::uint32_t b = rec.intern("b");
  const std::uint32_t c = rec.intern("c");
  expect(rec.intern("a") == a, "names are interned once");
  rec.open(root, 0, 0);
  rec.open(a, 1, 10);
  rec.leaf(c, 2, 20, 30);
  rec.close(40);
  rec.leaf(b, 3, 50, 60);
  rec.close(100);
  expect(rec.balanced(), "every span closed");
  const std::vector<perfbench::Span>& spans = rec.spans();
  expect(spans.size() == 4, "four spans");
  expect(spans[2].parent == 1 && spans[3].parent == 0 &&
             spans[0].parent == perfbench::Span::kNoParent,
         "parents follow nesting");
  const std::vector<double> self = perfbench::self_times(spans);
  expect(near(self[0], 60e-9), "root self = 100 - 30 - 10");
  expect(near(self[1], 20e-9), "a self = 30 - 10");
  expect(near(self[2], 10e-9), "leaf self = its duration");
  expect(near(self[3], 10e-9), "b self = its duration");
  const std::vector<perfbench::SpanTotals> totals =
      perfbench::totals_by_name(rec);
  expect(totals.size() == 4 && totals[1].calls == 1 &&
             near(totals[1].total_s, 30e-9) && near(totals[1].self_s, 20e-9),
         "per-name totals");
  double sum_self = 0.0;
  for (const double s : self) sum_self += s;
  expect(near(sum_self, spans[0].seconds()),
         "self times partition the root's wall time");
}

}  // namespace

int main() {
  percentile_rule();
  open_loop_latency();
  self_time();
  if (failures == 0) std::puts("harness_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
