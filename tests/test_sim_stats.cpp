// Online statistics tests.

#include <gtest/gtest.h>

#include <vector>

#include "sim/stats.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gm::sim {
namespace {

TEST(Accumulator, MatchesNaiveComputation) {
  Accumulator acc;
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0, -1.0};
  double sum = 0.0;
  for (double x : xs) {
    acc.add(x);
    sum += x;
  }
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_DOUBLE_EQ(acc.sum(), sum);
  EXPECT_NEAR(acc.mean(), sum / xs.size(), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  // Naive sample variance.
  double var = 0.0;
  for (double x : xs) var += (x - acc.mean()) * (x - acc.mean());
  var /= xs.size() - 1;
  EXPECT_NEAR(acc.variance(), var, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeEqualsSingleStream) {
  Rng rng(99);
  Accumulator whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(TimeWeighted, IntegratesPiecewiseConstant) {
  TimeWeighted tw(0, 2.0);
  tw.set(10, 5.0);   // 2.0 over [0, 10) = 20
  tw.set(20, 0.0);   // 5.0 over [10, 20) = 50
  tw.advance_to(30); // 0.0 over [20, 30) = 0
  EXPECT_DOUBLE_EQ(tw.integral(), 70.0);
  EXPECT_DOUBLE_EQ(tw.time_average(), 70.0 / 30.0);
  EXPECT_DOUBLE_EQ(tw.value(), 0.0);
}

TEST(TimeWeighted, RejectsBackwardsTime) {
  TimeWeighted tw(0, 1.0);
  tw.set(10, 2.0);
  EXPECT_THROW(tw.set(5, 3.0), InvalidArgument);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(15.0);
  h.add(5.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, QuantileOfEmptyThrows) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW(h.quantile(0.5), InvalidArgument);
  h.add(0.5);
  EXPECT_THROW(h.quantile(1.5), InvalidArgument);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

}  // namespace
}  // namespace gm::sim
