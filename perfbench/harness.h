// harness.h — measurement helpers of the admission benchmark driver:
// percentiles under the reporting rule, open-loop latency accounting, and
// in-memory spans with self-time derivation.  Everything here is measured
// from outside the library: the driver wraps its own calls into the public
// service/core/io functions, and nothing in src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; the
/// sample is partially reordered.  0 for an empty sample.
/// 1-based nearest rank of the p-th percentile among n samples.  The small
/// slack keeps p/100·n from rounding up past an exact integer (0.999·10⁴).
inline std::size_t nearest_rank(double p, std::size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::min(n, static_cast<std::size_t>(
                         std::max(1.0, std::ceil(exact - 1e-9 * exact))));
}

template <typename T>
double percentile(std::vector<T>& sample, double p) {
  if (sample.empty()) return 0.0;
  const std::size_t rank = nearest_rank(p, sample.size());
  auto nth = sample.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(sample.begin(), nth, sample.end());
  return static_cast<double>(*nth);
}

/// The reporting rule for a timing's tail: the highest percentile of the
/// ladder 50, 90, 99, 99.9, 99.99, 99.999 that leaves at least ten samples
/// beyond it.  Returns 0 when even the median has fewer than ten samples
/// beyond it (n < 20): such a sample supports no percentile at all.
inline double tail_percentile_level(std::size_t n) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    if (n >= 1 && n - nearest_rank(p, n) >= 10) return p;
  }
  return 0.0;
}

/// Median of a small sample (copied).
inline double median(std::vector<double> sample) {
  return percentile(sample, 50.0);
}

/// Splits a run's samples into windows of whole passes: each window is the
/// shortest run of consecutive passes holding at least `min_samples`
/// samples, and a short remainder joins the last window.  `pass_begin[i]`
/// is the offset of pass i's first sample.  Returns window start offsets
/// (plus samples.size() as the end sentinel).
inline std::vector<std::size_t> pass_windows(
    const std::vector<std::size_t>& pass_begin, std::size_t total,
    std::size_t min_samples) {
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < pass_begin.size(); ++i) {
    if (pass_begin[i] - bounds.back() >= min_samples &&
        total - pass_begin[i] >= min_samples) {
      bounds.push_back(pass_begin[i]);
    }
  }
  bounds.push_back(total);
  return bounds;
}

/// The p-th percentile within each window (pass_windows), then the median
/// over windows.  Every window shares the deterministic events of a pass
/// (the same instance replayed), while a burst of host interference lands
/// in a minority of windows and leaves the median.
template <typename T>
double windowed_percentile(const std::vector<T>& samples,
                           const std::vector<std::size_t>& pass_begin,
                           double p, std::size_t min_samples) {
  const std::vector<std::size_t> bounds =
      pass_windows(pass_begin, samples.size(), min_samples);
  std::vector<double> per_window;
  for (std::size_t w = 0; w + 1 < bounds.size(); ++w) {
    std::vector<T> window(samples.begin() + static_cast<std::ptrdiff_t>(bounds[w]),
                          samples.begin() + static_cast<std::ptrdiff_t>(bounds[w + 1]));
    per_window.push_back(percentile(window, p));
  }
  return median(per_window);
}

// ---------------------------------------------------------------------------
// Open-loop accounting.
// ---------------------------------------------------------------------------

/// Fixed-rate arrival schedule: arrival k of a pass is due at
/// start_ns + k / rate.  Latency is charged from the due time, so a call
/// that stalls delays — and is charged to — every arrival that fell due
/// while it ran, not just the ones it carried.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double rate_per_s = 1.0;

  std::int64_t due_ns(std::size_t k) const {
    return start_ns +
           static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / rate_per_s);
  }

  /// Arrivals due at `t_ns` (count of k with due_ns(k) <= t_ns), capped at
  /// `total`.
  std::size_t due_count(std::int64_t t_ns, std::size_t total) const {
    if (t_ns < start_ns) return 0;
    std::size_t k = static_cast<std::size_t>(
        static_cast<double>(t_ns - start_ns) * rate_per_s / 1e9);
    // Guard the float rounding at the boundary in both directions.
    while (k < total && due_ns(k) <= t_ns) ++k;
    while (k > 0 && due_ns(k - 1) > t_ns) --k;
    return std::min(k, total);
  }
};

/// Per-arrival latencies (microseconds) of arrivals [first, first+count)
/// carried by one call that returned at end_ns.
inline void charge_call(const OpenLoopSchedule& schedule, std::size_t first,
                        std::size_t count, std::int64_t end_ns,
                        std::vector<float>& latencies_us) {
  for (std::size_t k = first; k < first + count; ++k) {
    latencies_us.push_back(
        static_cast<float>(static_cast<double>(end_ns - schedule.due_ns(k)) /
                           1e3));
  }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One timed interval around a call the driver makes.  `parent` indexes
/// the enclosing span (kNoParent for a root); `id` is the batch or arrival
/// index the call carried.
struct Span {
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Single-threaded span recorder: spans nest through an open-span stack
/// and stay in memory until the driver writes them out at exit.
class SpanRecorder {
 public:
  /// Interned name id for `name`.
  std::uint32_t intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span at `start_ns` as a child of the innermost open span.
  void open(std::uint32_t name, std::uint64_t id, std::int64_t start_ns) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
    s.id = id;
    s.start_ns = start_ns;
    s.end_ns = start_ns;
    spans_.push_back(s);
    stack_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
  }

  /// Closes the innermost open span at `end_ns`.
  void close(std::int64_t end_ns) {
    spans_[stack_.back()].end_ns = end_ns;
    stack_.pop_back();
  }

  /// Records an already-measured leaf span under the innermost open span
  /// (for calls whose start/end the driver reads anyway).
  void leaf(std::uint32_t name, std::uint64_t id, std::int64_t start_ns,
            std::int64_t end_ns) {
    open(name, id, start_ns);
    close(end_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  bool balanced() const { return stack_.empty(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
};

/// RAII span; a null recorder records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint32_t name, std::uint64_t id = 0)
      : recorder_(recorder) {
    if (recorder_) recorder_->open(name, id, now_ns());
  }
  ~ScopedSpan() {
    if (recorder_) recorder_->close(now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Self time of every span in seconds: its duration minus the part of its
/// interval covered by its direct children.  Children of one span do not
/// overlap (one recording thread), so the covered part is the sum of their
/// durations clipped to the parent's interval.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == Span::kNoParent) continue;
    const Span& p = spans[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                 covered[i]) /
             1e9;
  }
  return out;
}

/// Per-name totals: calls, summed duration and summed self time.
struct SpanTotals {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

inline std::vector<SpanTotals> totals_by_name(const SpanRecorder& recorder) {
  const std::vector<double> self = self_times(recorder.spans());
  std::vector<SpanTotals> out(recorder.names().size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].name = recorder.names()[i];
  for (std::size_t i = 0; i < recorder.spans().size(); ++i) {
    const Span& s = recorder.spans()[i];
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.total_s += s.seconds();
    t.self_s += self[i];
  }
  return out;
}

}  // namespace perfbench
