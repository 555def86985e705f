#include "util/distributions.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "util/assert.hpp"

namespace gm {

double sample_exponential(Rng& rng, double lambda) {
  GM_CHECK(lambda > 0.0, "exponential rate must be positive: " << lambda);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng.uniform()) / lambda;
}

PolarDraw polar_draw(Rng& rng) {
  double u, v, s;
  do {
    u = rng.uniform(-1.0, 1.0);
    v = rng.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return {u, s};
}

double polar_normal(double mean, double stddev, PolarDraw draw) {
  GM_CHECK(stddev >= 0.0, "stddev must be non-negative: " << stddev);
  const double factor = std::sqrt(-2.0 * std::log(draw.s) / draw.s);
  return mean + stddev * draw.u * factor;
}

double sample_normal(Rng& rng, double mean, double stddev) {
  return polar_normal(mean, stddev, polar_draw(rng));
}

double sample_lognormal(Rng& rng, double mu, double sigma) {
  return std::exp(sample_normal(rng, mu, sigma));
}

double sample_weibull(Rng& rng, double shape_k, double scale_lambda) {
  GM_CHECK(shape_k > 0.0 && scale_lambda > 0.0,
           "weibull parameters must be positive: k=" << shape_k
                                                     << " λ=" << scale_lambda);
  const double u = 1.0 - rng.uniform();  // in (0, 1]
  return scale_lambda * std::pow(-std::log(u), 1.0 / shape_k);
}

std::int64_t sample_poisson(Rng& rng, double mean) {
  GM_CHECK(mean >= 0.0, "poisson mean must be non-negative: " << mean);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Inversion by sequential search.
    const double l = std::exp(-mean);
    double p = 1.0;
    std::int64_t k = 0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction is accurate enough
  // for the workload-generation use cases (mean >= 30) and keeps the
  // sampler branch-free; clamp at zero.
  const double x = sample_normal(rng, mean, std::sqrt(mean));
  return x < 0.5 ? 0 : static_cast<std::int64_t>(std::llround(x));
}

namespace {

std::shared_ptr<const detail::ZipfTable> build_zipf_table(std::size_t n,
                                                          double s) {
  auto table = std::make_shared<detail::ZipfTable>();
  auto& cdf = table->cdf;
  cdf.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = sum;
  }
  for (auto& c : cdf) c /= sum;
  cdf.back() = 1.0;  // guard against accumulated rounding

  // bucket[i] = first rank whose CDF value exceeds i/B (clamped to
  // n-1). Monotone, so one forward scan fills it.
  constexpr std::size_t kB = detail::kZipfBuckets;
  table->bucket.resize(kB + 1);
  std::size_t k = 0;
  for (std::size_t i = 0; i <= kB; ++i) {
    const double threshold =
        static_cast<double>(i) / static_cast<double>(kB);
    while (k < n && cdf[k] <= threshold) ++k;
    table->bucket[i] =
        static_cast<std::uint32_t>(std::min(k, n - 1));
  }
  return table;
}

/// Process-wide (n, s) → table memo. Building the CDF is by far the
/// dominant cost of workload generation for large catalogs; sweeps
/// and bench loops construct the same sampler over and over, so the
/// first build is shared. The tables are immutable once published.
std::shared_ptr<const detail::ZipfTable> shared_zipf_table(std::size_t n,
                                                           double s) {
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, double>,
                  std::shared_ptr<const detail::ZipfTable>>
      cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[{n, s}];
  if (!slot) slot = build_zipf_table(n, s);
  return slot;
}

}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double exponent_s) : s_(exponent_s) {
  GM_CHECK(n > 0, "zipf requires at least one rank");
  GM_CHECK(exponent_s >= 0.0, "zipf exponent must be non-negative");
  table_ = shared_zipf_table(n, exponent_s);
}

std::size_t ZipfSampler::rank_of(double u) const {
  const std::vector<double>& cdf = table_->cdf;
  // Narrow the window with the bucket index, then find the first
  // index whose CDF value exceeds u — identical to a full-range
  // binary search, because cdf[bucket[i+1]] > (i+1)/B > u and every
  // rank before bucket[i] has cdf <= i/B <= u.
  constexpr std::size_t kB = detail::kZipfBuckets;
  const auto i = std::min(
      static_cast<std::size_t>(u * static_cast<double>(kB)), kB - 1);
  std::size_t lo = table_->bucket[i];
  std::size_t hi = table_->bucket[i + 1];
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] <= u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

double ZipfSampler::pmf(std::size_t k) const {
  const auto& cdf = table_->cdf;
  GM_CHECK(k < cdf.size(), "zipf pmf rank out of range: " << k);
  return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

std::vector<double> sample_nhpp(Rng& rng, double t0, double t1,
                                double rate_max,
                                const std::function<double(double)>& rate) {
  GM_CHECK(t1 >= t0, "NHPP interval must be ordered");
  GM_CHECK(rate_max > 0.0, "NHPP rate bound must be positive");
  std::vector<double> arrivals;
  double t = t0;
  while (true) {
    t += sample_exponential(rng, rate_max);
    if (t >= t1) break;
    const double r = rate(t);
    GM_ASSERT_MSG(r <= rate_max * (1.0 + 1e-9),
                  "NHPP rate exceeds declared bound at t=" << t);
    if (rng.uniform() * rate_max < r) arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace gm
