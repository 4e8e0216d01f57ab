// Tests for src/util: rng, stats, table, cli.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/spsc_ring.h"
#include "util/stats.h"
#include "util/table.h"

namespace minrej {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(4, 3), InvalidArgument);
}

TEST(Rng, IndexIsUnbiasedAcrossSmallRange) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.index(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.2, 0.01);
  }
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(Rng, ExponentialHasCorrectMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.log_uniform(1.0, 100.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Rng, LogUniformDegenerateRange) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.log_uniform(5.0, 5.0), 5.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(37);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t idx : unique) EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleIndicesFullRange) {
  Rng rng(41);
  const auto sample = rng.sample_indices(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_indices(3, 4), InvalidArgument);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  // The child stream should not reproduce the parent stream.
  Rng parent_copy(99);
  (void)parent_copy.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child() == parent());
  EXPECT_LT(equal, 4);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3, 7);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Summary, QuantilesOfKnownSample) {
  const Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_NEAR(s.p25, 3.25, 1e-12);
  EXPECT_NEAR(s.p75, 7.75, 1e-12);
}

TEST(Summary, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile_sorted({}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile_sorted({1.0}, 1.5), InvalidArgument);
}

TEST(LinearFit, ExactLine) {
  const LinearFit f = fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHasHighR2) {
  Rng rng(1);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 10 + rng.uniform(-1, 1));
  }
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 3.0, 0.05);
  EXPECT_GT(f.r_squared, 0.999);
}

TEST(LinearFit, DegenerateXIsFlat) {
  const LinearFit f = fit_linear({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(LinearFit, RequiresTwoPoints) {
  EXPECT_THROW(fit_linear({1}, {1}), InvalidArgument);
  EXPECT_THROW(fit_linear({1, 2}, {1}), InvalidArgument);
}

TEST(GeometricMean, KnownValues) {
  EXPECT_NEAR(geometric_mean({1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2, 2, 2}), 2.0, 1e-12);
}

TEST(GeometricMean, RejectsNonPositive) {
  EXPECT_THROW(geometric_mean({1.0, 0.0}), InvalidArgument);
  EXPECT_THROW(geometric_mean({}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, AsciiContainsTitleColumnsAndData) {
  Table t("demo", {"name", "value"});
  t.add_row({"alpha", 3});
  t.add_row({"beta", Cell(2.5, 1)});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("demo"), std::string::npos);
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("2.5"), std::string::npos);
  EXPECT_NE(ascii.find("value"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t("csv", {"a", "b"});
  t.add_row({"has,comma", "has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("bad", {"one", "two"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, EmptyColumnsThrow) {
  EXPECT_THROW(Table("empty", {}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// CliFlags
// ---------------------------------------------------------------------------

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--name", "x", "--flag"};
  const CliFlags flags =
      CliFlags::parse(5, argv, {"alpha", "name", "flag"});
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_string("name", ""), "x");
  EXPECT_TRUE(flags.get_bool("flag", false));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliFlags flags = CliFlags::parse(1, argv, {"x"});
  EXPECT_EQ(flags.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(flags.has("x"));
}

TEST(Cli, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(CliFlags::parse(2, argv, {"real"}), InvalidArgument);
}

TEST(Cli, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--n=abc"};
  const CliFlags flags = CliFlags::parse(2, argv, {"n"});
  EXPECT_THROW(flags.get_int("n", 0), InvalidArgument);
  EXPECT_THROW(flags.get_double("n", 0), InvalidArgument);
}

TEST(Cli, BooleanParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=maybe"};
  const CliFlags flags = CliFlags::parse(4, argv, {"a", "b", "c"});
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_THROW(flags.get_bool("c", false), InvalidArgument);
}

// ---------------------------------------------------------------------------
// SpscRing (util/spsc_ring.h) — the concurrent shard pump's ingest lane
// ---------------------------------------------------------------------------

TEST(SpscRing, SingleThreadedFifoAndCapacity) {
  SpscRing<int> ring(5);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i)) << i;
  EXPECT_FALSE(ring.try_push(99));  // full
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty again
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, WrapsAroundWithoutLosingOrder) {
  SpscRing<std::uint32_t> ring(4);
  std::uint32_t next_push = 0, next_pop = 0, out = 0;
  // Push/pop in ragged strides so head and tail lap the buffer many times.
  for (int round = 0; round < 1000; ++round) {
    for (int k = 0; k < 3 && ring.try_push(next_push); ++k) ++next_push;
    for (int k = 0; k < 2 && ring.try_pop(out); ++k) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  while (ring.try_pop(out)) {
    ASSERT_EQ(out, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, TransfersEverythingAcrossThreadsInOrder) {
  // One producer, one consumer, a ring much smaller than the stream: both
  // sides hit the full/empty paths constantly.  The consumer must see
  // exactly 0..N-1 in order (the determinism contract the shard pump
  // builds on).
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(64);
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    std::uint64_t out;
    while (expect < kItems) {
      if (!ring.try_pop(out)) {
        std::this_thread::yield();
        continue;
      }
      if (out != expect) {
        failed.store(true);
        return;
      }
      ++expect;
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(ring.empty());
}

TEST(CacheAlignedAllocator, AlignsToTheCacheLine) {
  std::vector<std::uint8_t, CacheAlignedAllocator<std::uint8_t>> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes,
            0u);
}

}  // namespace
}  // namespace minrej
