#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"

namespace xts {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowZeroBoundReturnsZero) {
  Rng r(7);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanIsRoughlyHalf) {
  Rng r(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(5);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(child1.next_u64());
    seen.insert(child2.next_u64());
  }
  EXPECT_EQ(seen.size(), 200u) << "child streams should not collide";
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(0.25), 25.75, 1e-12);
}

TEST(SampleSet, PercentileValidation) {
  SampleSet s;
  EXPECT_THROW((void)s.percentile(0.5), UsageError);
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-0.1), UsageError);
  EXPECT_THROW((void)s.percentile(1.1), UsageError);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 1.0);
}

TEST(SampleSet, PercentileEdgeCases) {
  SampleSet empty;
  EXPECT_THROW((void)empty.percentile(0.0), UsageError);
  EXPECT_THROW((void)empty.percentile(1.0), UsageError);
  EXPECT_THROW((void)empty.min(), UsageError);
  EXPECT_THROW((void)empty.max(), UsageError);
  EXPECT_EQ(empty.mean(), 0.0);  // mean of nothing is defined as 0

  SampleSet one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(1.0), 42.0);

  SampleSet two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.percentile(0.0), 10.0);  // q=0 is the minimum
  EXPECT_DOUBLE_EQ(two.percentile(1.0), 20.0);  // q=1 is the maximum
  EXPECT_NEAR(two.percentile(0.5), 15.0, 1e-12);
}

TEST(SampleSet, AddAfterSortKeepsCorrectness) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);  // forces a sort
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

}  // namespace
}  // namespace xts
