// RNG and distribution tests: determinism, bounds, and statistical
// shape checks with generous tolerances (fixed seeds, so no flakes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "nhpp_oracle.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/math_utils.hpp"
#include "util/rng.hpp"

namespace gm {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformU64Bounded) {
  Rng rng(11);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.uniform_u64(n), n);
  }
}

TEST(Rng, UniformU64CoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  // fork(key) depends only on the parent's current state; two
  // identically-seeded parents give identical children.
  Rng a(5), b(5);
  Rng ca = a.fork(1), cb = b.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next(), cb.next());
}

TEST(Rng, ForkDifferentKeysDiffer) {
  Rng a(5);
  Rng c1 = a.fork(1), c2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.next() == c2.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(MixHash, DeterministicAndSpread) {
  EXPECT_EQ(mix_hash(1, 2), mix_hash(1, 2));
  EXPECT_NE(mix_hash(1, 2), mix_hash(2, 1));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix_hash(42, i));
  EXPECT_EQ(seen.size(), 1000u);
}

// ---------------------------------------------------------------------
// Distributions

TEST(Distributions, ExponentialMoments) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += sample_exponential(rng, 2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Distributions, ExponentialRejectsBadRate) {
  Rng rng(1);
  EXPECT_THROW(sample_exponential(rng, 0.0), InvalidArgument);
  EXPECT_THROW(sample_exponential(rng, -1.0), InvalidArgument);
}

TEST(Distributions, NormalMoments) {
  Rng rng(37);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = sample_normal(rng, 3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

// The generator replays split draws; each split must reproduce the
// one-call sampler on a twin stream, bit for bit and draw for draw.
TEST(Distributions, PolarSplitMatchesSampleNormal) {
  Rng a(41), b(41);
  for (int i = 0; i < 10000; ++i) {
    const double mean = 0.25 * (i % 7);
    const double sd = 0.5 * (i % 5);
    ASSERT_EQ(sample_normal(a, mean, sd),
              polar_normal(mean, sd, polar_draw(b)))
        << "draw " << i;
  }
  EXPECT_EQ(a.next(), b.next());
  EXPECT_THROW(polar_normal(0.0, -1.0, polar_draw(b)), InvalidArgument);
}

TEST(Distributions, LognormalMedian) {
  Rng rng(41);
  std::vector<double> xs(20001);
  for (auto& x : xs) x = sample_lognormal(rng, 2.0, 0.7);
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], std::exp(2.0), 0.3);
}

TEST(Distributions, WeibullMean) {
  Rng rng(43);
  // k=2, λ=1 → mean = Γ(1.5) = √π/2 ≈ 0.8862.
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += sample_weibull(rng, 2.0, 1.0);
  EXPECT_NEAR(sum / n, 0.8862, 0.02);
}

TEST(Distributions, PoissonSmallMean) {
  Rng rng(47);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(sample_poisson(rng, 3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Distributions, PoissonLargeMean) {
  Rng rng(53);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(sample_poisson(rng, 200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Distributions, PoissonZeroMean) {
  Rng rng(59);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_poisson(rng, 0.0), 0);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) sum += zipf.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroMostPopular) {
  ZipfSampler zipf(1000, 0.9);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(10));
  EXPECT_GT(zipf.pmf(10), zipf.pmf(999));
}

TEST(Zipf, EmpiricalMatchesPmf) {
  ZipfSampler zipf(50, 1.2);
  Rng rng(61);
  std::vector<int> counts(50, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t k : {0u, 1u, 5u, 20u}) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k),
                0.01)
        << "rank " << k;
  }
}

TEST(Zipf, RankOfMatchesSampler) {
  ZipfSampler zipf(100000, 1.1);
  Rng a(63), b(63);
  for (int i = 0; i < 10000; ++i)
    ASSERT_EQ(zipf(a), zipf.rank_of(b.uniform())) << "draw " << i;
  EXPECT_EQ(a.next(), b.next());
}

TEST(Zipf, UniformWhenExponentZero) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k)
    EXPECT_NEAR(zipf.pmf(k), 0.1, 1e-9);
}

TEST(Nhpp, CountMatchesIntegratedRate) {
  Rng rng(67);
  // rate(t) = 2 + sin-free ramp: mean count = ∫ rate over [0, 1000].
  const auto rate = [](double t) { return 2.0 + t / 1000.0; };
  double total = 0.0;
  const int reps = 50;
  for (int i = 0; i < reps; ++i)
    total += static_cast<double>(
        sample_nhpp(rng, 0.0, 1000.0, 3.0, rate).size());
  EXPECT_NEAR(total / reps, 2500.0, 60.0);
}

TEST(Nhpp, SortedAndInRange) {
  Rng rng(71);
  const auto arr =
      sample_nhpp(rng, 10.0, 20.0, 5.0, [](double) { return 4.0; });
  EXPECT_TRUE(std::is_sorted(arr.begin(), arr.end()));
  for (double t : arr) {
    EXPECT_GE(t, 10.0);
    EXPECT_LT(t, 20.0);
  }
}

TEST(Nhpp, EmptyIntervalYieldsNothing) {
  Rng rng(73);
  EXPECT_TRUE(
      sample_nhpp(rng, 5.0, 5.0, 1.0, [](double) { return 1.0; })
          .empty());
  // Inverted windows are a caller bug and rejected loudly.
  Rng rng2(73);
  EXPECT_THROW(
      sample_nhpp(rng2, 9.0, 5.0, 1.0, [](double) { return 1.0; }),
      InvalidArgument);
}

TEST(Nhpp, RateHittingZeroMidWindowThinsEverythingThere) {
  // rate drops to 0 on [400, 600): thinning must accept no arrival in
  // the dead zone while still producing arrivals on both sides.
  Rng rng(79);
  const auto rate = [](double t) {
    return (t >= 400.0 && t < 600.0) ? 0.0 : 2.0;
  };
  const auto arr = sample_nhpp(rng, 0.0, 1000.0, 2.0, rate);
  ASSERT_FALSE(arr.empty());
  bool before = false, after = false;
  for (double t : arr) {
    EXPECT_FALSE(t >= 400.0 && t < 600.0) << "arrival in zero-rate zone";
    before |= t < 400.0;
    after |= t >= 600.0;
  }
  EXPECT_TRUE(before);
  EXPECT_TRUE(after);
}

TEST(Nhpp, TightRateMaxBoundAcceptsEveryCandidate) {
  // When rate == rate_max everywhere, thinning accepts every
  // candidate: the NHPP degenerates to a plain Poisson process whose
  // count matches rate_max * |window|.
  Rng rng(83);
  double total = 0.0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i)
    total += static_cast<double>(
        sample_nhpp(rng, 0.0, 500.0, 3.0, [](double) { return 3.0; })
            .size());
  EXPECT_NEAR(total / reps, 1500.0, 30.0);
}

TEST(Nhpp, CrossSeedDeterminismAndDivergence) {
  const auto rate = [](double t) { return 1.0 + 0.5 * (t > 100.0); };
  Rng a(89), b(89), c(97);
  const auto ra = sample_nhpp(a, 0.0, 400.0, 1.5, rate);
  const auto rb = sample_nhpp(b, 0.0, 400.0, 1.5, rate);
  const auto rc = sample_nhpp(c, 0.0, 400.0, 1.5, rate);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_DOUBLE_EQ(ra[i], rb[i]);
  bool differs = ra.size() != rc.size();
  for (std::size_t i = 0; !differs && i < ra.size(); ++i)
    differs = ra[i] != rc[i];
  EXPECT_TRUE(differs);
}

// ------------------------------------- Parallel sampler vs serial loop

// sample_nhpp against the serial loop from the same Rng state: the
// arrivals bit for bit (operator==, not the 4-ULP EXPECT_DOUBLE_EQ)
// and the Rng state after the call.
void expect_matches_oracle(const Rng& rng, double t0, double t1,
                           double rate_max,
                           const std::function<double(double)>& rate) {
  Rng got_rng = rng;
  Rng want_rng = rng;
  const auto got = sample_nhpp(got_rng, t0, t1, rate_max, rate);
  const auto want = test::serial_nhpp(want_rng, t0, t1, rate_max, rate);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "arrival " << i;
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(got_rng.next(), want_rng.next()) << "Rng state, output " << i;
}

// The first n candidate times from `rng` on [t0, ∞): the running sums
// of the gaps, each candidate's thinning uniform skipped.
std::vector<double> candidate_times(Rng rng, double t0, double rate_max,
                                    std::size_t n) {
  std::vector<double> times;
  double t = t0;
  for (std::size_t i = 0; i < n; ++i) {
    t += sample_exponential(rng, rate_max);
    times.push_back(t);
    rng.next();
  }
  return times;
}

// An interval end that makes candidate k the first at or past it.
double end_stopping_at(const std::vector<double>& times, double t0,
                       std::size_t k) {
  return 0.5 * ((k == 0 ? t0 : times[k - 1]) + times[k]);
}

// A generator-like diurnal rate: base × a seeded day shape × a
// weekend factor, cached per whole second in each copy of the
// function, as the workload generator caches it.
struct DiurnalRate {
  double base = 1.0;
  PiecewiseLinear day;
  double weekend = 1.0;

  double bound() const {
    return base * day.max_value() * std::max(1.0, weekend);
  }
  std::function<double(double)> cached() const {
    return [self = *this, second = std::int64_t{-1},
            value = 0.0](double t) mutable {
      const auto s = static_cast<std::int64_t>(t);
      if (s != second) {
        second = s;
        const bool weekend_day = (s / 86400) % 7 >= 5;
        value = self.base *
                self.day(static_cast<double>(s % 86400) / 3600.0) *
                (weekend_day ? self.weekend : 1.0);
      }
      return value;
    };
  }
};

DiurnalRate seeded_rate(Rng& params) {
  DiurnalRate rate;
  rate.base = params.uniform(0.05, 0.6);
  std::vector<double> xs{0.0};
  for (int i = 0; i < 5; ++i)
    xs.push_back(xs.back() + params.uniform(1.0, 4.5));
  xs.push_back(24.0);
  std::vector<double> ys;
  for (std::size_t i = 0; i < xs.size(); ++i)
    ys.push_back(params.uniform(0.1, 2.0));
  rate.day = PiecewiseLinear(xs, ys);
  rate.weekend = params.uniform(0.0, 1.6);
  return rate;
}

// 24 seeded specs over one to nine days, so the weekend factor (above
// 1 in some, where it sets rate_max) applies in most of them; the
// longer ones take several waves.
TEST(Nhpp, MatchesTheSerialLoopOnSeededSpecs) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng params(1000 + seed);
    const DiurnalRate rate = seeded_rate(params);
    const double days = static_cast<double>(1 + seed % 9);
    const double t0 = seed % 3 == 0 ? params.uniform(0.0, 86400.0) : 0.0;
    expect_matches_oracle(Rng(seed), t0, t0 + days * 86400.0, rate.bound(),
                          rate.cached());
    if (HasFatalFailure()) return;
  }
}

TEST(Nhpp, IntervalShorterThanTheFirstGap) {
  const Rng rng(101);
  const auto times = candidate_times(rng, 5.0, 2.0, 1);
  const double t1 = end_stopping_at(times, 5.0, 0);
  Rng got = rng;
  EXPECT_TRUE(sample_nhpp(got, 5.0, t1, 2.0, [](double) { return 1.0; })
                  .empty());
  expect_matches_oracle(rng, 5.0, t1, 2.0, [](double) { return 1.0; });
}

const auto kWavy = [](double t) { return 1.0 + std::sin(t / 500.0); };

TEST(Nhpp, StopsOnTheLastCandidateOfABlock) {
  const Rng rng(103);
  const auto times = candidate_times(rng, 0.0, 2.0, 3 * kNhppBlock);
  for (const std::size_t k : {kNhppBlock - 1, 2 * kNhppBlock - 1,
                              3 * kNhppBlock - 1}) {
    SCOPED_TRACE("stopping candidate " + std::to_string(k));
    expect_matches_oracle(rng, 0.0, end_stopping_at(times, 0.0, k), 2.0,
                          kWavy);
    if (HasFatalFailure()) return;
  }
}

// A wave holds up to kNhppWaveBlocks blocks; an interval expected to
// hold at least a wave of candidates fills the first wave, so the
// candidate after it opens the next.
TEST(Nhpp, StopsOnTheFirstCandidateOfAWave) {
  constexpr std::size_t kWave = kNhppWaveBlocks * kNhppBlock;
  const Rng rng(107);
  const auto times = candidate_times(rng, 0.0, 2.0, 2 * kWave + 1);
  for (const std::size_t k : {kWave, kWave + 1, 2 * kWave}) {
    SCOPED_TRACE("stopping candidate " + std::to_string(k));
    expect_matches_oracle(rng, 0.0, end_stopping_at(times, 0.0, k), 2.0,
                          kWavy);
    if (HasFatalFailure()) return;
  }
}

TEST(Nhpp, RejectsEveryCandidateAtRateZero) {
  // ≈ 600 k candidates, three waves, none kept.
  Rng rng(109);
  const Rng start = rng;
  EXPECT_TRUE(
      sample_nhpp(rng, 0.0, 3e5, 2.0, [](double) { return 0.0; }).empty());
  expect_matches_oracle(start, 0.0, 3e5, 2.0, [](double) { return 0.0; });
}

TEST(Nhpp, AcceptsEveryCandidateAtTheBound) {
  Rng rng(113);
  const Rng start = rng;
  const auto arrivals =
      sample_nhpp(rng, 0.0, 3e5, 2.0, [](double) { return 2.0; });
  const auto times = candidate_times(start, 0.0, 2.0, arrivals.size() + 1);
  ASSERT_GE(times.back(), 3e5);
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    ASSERT_EQ(arrivals[i], times[i]) << "candidate " << i;
  expect_matches_oracle(start, 0.0, 3e5, 2.0, [](double) { return 2.0; });
}

// nhpp_capacity samples the rate at cell midpoints, so a rate that is
// zero there and at its bound around the cell edges draws far more
// arrivals than the estimate, which sizes buffers and never output.
TEST(Nhpp, CountAboveTheCapacityEstimate) {
  const double cell = 8.0;
  const double t1 = cell * kNhppCapacityCells;
  const auto edges = [cell](double t) {
    const double phase = t / cell - std::floor(t / cell);
    return phase < 0.25 || phase >= 0.75 ? 2.0 : 0.0;
  };
  Rng rng(127);
  const Rng start = rng;
  const auto arrivals = sample_nhpp(rng, 0.0, t1, 2.0, edges);
  EXPECT_GT(arrivals.size(), 100 * nhpp_capacity(0.0, t1, 2.0, edges));
  expect_matches_oracle(start, 0.0, t1, 2.0, edges);
}

TEST(Nhpp, RateAboveTheBoundThrows) {
  // Past t = 2e5 the rate exceeds its bound: the candidates there sit
  // in a later block of the first wave.
  Rng rng(131);
  EXPECT_THROW(sample_nhpp(rng, 0.0, 3e5, 2.0,
                           [](double t) { return t < 2e5 ? 1.0 : 2.5; }),
               std::logic_error);
  Rng oracle(131);
  EXPECT_THROW(test::serial_nhpp(oracle, 0.0, 3e5, 2.0,
                                 [](double t) { return t < 2e5 ? 1.0 : 2.5; }),
               std::logic_error);
}

TEST(Nhpp, CapacityIsTheRateIntegralPlusAMargin) {
  // A constant rate integrates exactly: mean 3,000, sd ≈ 54.8.
  const auto cap = nhpp_capacity(0.0, 1000.0, 5.0, [](double) { return 3.0; });
  EXPECT_EQ(cap, static_cast<std::size_t>(
                     std::ceil(3000.0 + 6.0 * std::sqrt(3000.0) + 64.0)));
  // Capped by the candidate count the bound allows.
  EXPECT_EQ(nhpp_capacity(0.0, 1000.0, 1.0, [](double) { return 3.0; }),
            static_cast<std::size_t>(
                std::ceil(1000.0 + 6.0 * std::sqrt(1000.0) + 64.0)));
  EXPECT_EQ(nhpp_capacity(5.0, 5.0, 1.0, [](double) { return 3.0; }), 64u);
}

// Determinism across all distributions, parameterized by seed.
class SeedDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedDeterminism, StreamsReproduce) {
  const std::uint64_t seed = GetParam();
  Rng a(seed), b(seed);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(sample_exponential(a, 1.5),
                     sample_exponential(b, 1.5));
    EXPECT_DOUBLE_EQ(sample_normal(a), sample_normal(b));
    EXPECT_DOUBLE_EQ(sample_weibull(a, 2.0, 3.0),
                     sample_weibull(b, 2.0, 3.0));
    EXPECT_EQ(sample_poisson(a, 8.0), sample_poisson(b, 8.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminism,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 1234ULL,
                                           0xdeadbeefULL,
                                           UINT64_MAX));

}  // namespace
}  // namespace gm
