#include "util/distributions.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

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

namespace {

/// The mean of a Poisson count plus six standard deviations and 64.
double poisson_bound(double mean) {
  return mean + 6.0 * std::sqrt(mean) + 64.0;
}

}  // namespace

std::size_t nhpp_capacity(double t0, double t1, double rate_max,
                          const std::function<double(double)>& rate) {
  GM_CHECK(t1 >= t0, "NHPP interval must be ordered");
  const double cell = (t1 - t0) / kNhppCapacityCells;
  double sum = 0.0;
  for (int i = 0; i < kNhppCapacityCells; ++i)
    sum += std::max(0.0, rate(t0 + (i + 0.5) * cell));
  const double mean = std::min(sum * cell, rate_max * (t1 - t0));
  return static_cast<std::size_t>(std::ceil(poisson_bound(mean)));
}

std::vector<double> sample_nhpp(Rng& rng, double t0, double t1,
                                double rate_max,
                                const std::function<double(double)>& rate) {
  GM_CHECK(t1 >= t0, "NHPP interval must be ordered");
  GM_CHECK(rate_max > 0.0, "NHPP rate bound must be positive");
  std::vector<double> arrivals;
  arrivals.reserve(nhpp_capacity(t0, t1, rate_max, rate));

  // The calling thread runs the serial chain: it draws each block's
  // uniforms, adds its gaps in candidate order once they are computed,
  // and hands the block on to be thinned. Both block steps are offered
  // to one transient pool, and whoever claims a step first runs it:
  // the calling thread runs any step no worker has started, so a
  // starved pool costs no more than doing the work inline. On a worker
  // of any pool, or for a one-block wave, every step runs inline.
  const bool inline_only = on_pool_worker();
  std::optional<ThreadPool> pool;
  std::vector<double> times;   // a wave's gap uniforms, gaps, then sums
  std::vector<double> thin_u;  // a wave's thinning uniforms
  std::vector<Rng> start(kNhppWaveBlocks);
  std::vector<std::size_t> inside_end(kNhppWaveBlocks);
  std::vector<std::size_t> kept(kNhppWaveBlocks);
  const auto gaps_claimed =
      std::make_unique<std::atomic<bool>[]>(kNhppWaveBlocks);
  const auto gaps_done =
      std::make_unique<std::atomic<bool>[]>(kNhppWaveBlocks);
  const auto thin_claimed =
      std::make_unique<std::atomic<bool>[]>(kNhppWaveBlocks);

  // sample_exponential's expression, bit for bit.
  const auto compute_gaps = [&](std::size_t b) {
    if (gaps_claimed[b].exchange(true)) return false;
    double* gap = times.data() + b * kNhppBlock;
    for (std::size_t c = 0; c < kNhppBlock; ++c)
      gap[c] = -std::log(1.0 - gap[c]) / rate_max;
    gaps_done[b] = true;
    gaps_done[b].notify_one();
    return true;
  };
  const auto thin = [&](std::size_t b) {
    if (thin_claimed[b].exchange(true)) return;
    // The block's own copy, made on its own thread: copies made side
    // by side would share cache lines if the rate keeps state.
    std::function<double(double)> rate_of = rate;
    std::size_t out = b * kNhppBlock;
    for (std::size_t i = b * kNhppBlock; i < inside_end[b]; ++i) {
      const double ti = times[i];
      const double r_t = rate_of(ti);
      GM_ASSERT_MSG(r_t <= rate_max * (1.0 + 1e-9),
                    "NHPP rate exceeds declared bound at t=" << ti);
      if (thin_u[i] * rate_max < r_t) times[out++] = ti;
    }
    kept[b] = out - b * kNhppBlock;
  };

  Rng cursor = rng;  // the stream at the next block's first candidate
  double t = t0;
  while (true) {
    // Size the wave to the candidates still expected.
    const double expected = poisson_bound(rate_max * (t1 - t));
    const auto blocks = static_cast<std::size_t>(std::ceil(std::min(
        expected / kNhppBlock, static_cast<double>(kNhppWaveBlocks))));
    const std::size_t count = blocks * kNhppBlock;
    if (times.size() < count) {
      times.resize(count);
      thin_u.resize(count);
    }
    std::optional<ThreadPool::Batch> batch;
    if (blocks > 1 && !inline_only) {
      if (!pool) pool.emplace();
      batch.emplace(*pool);
    }

    for (std::size_t b = 0; b < blocks; ++b) {
      start[b] = cursor;
      const std::size_t begin = b * kNhppBlock;
      for (std::size_t i = begin; i < begin + kNhppBlock; ++i) {
        times[i] = cursor.uniform();
        thin_u[i] = cursor.uniform();
      }
      gaps_claimed[b] = false;
      gaps_done[b] = false;
      thin_claimed[b] = false;
      if (batch) batch->submit([&, b] { compute_gaps(b); });
    }

    // The serial loop's own sums, block by block, stopping at the
    // first t >= t1; each block is thinned once its sums are in.
    std::size_t inside = 0;
    std::size_t thinned = 0;
    bool stopped = false;
    while (!stopped && thinned < blocks) {
      const std::size_t b = thinned;
      if (!compute_gaps(b)) gaps_done[b].wait(false);
      for (const std::size_t end = (b + 1) * kNhppBlock; inside < end;
           ++inside) {
        t += times[inside];
        if (t >= t1) {
          stopped = true;
          break;
        }
        times[inside] = t;
      }
      if (inside == b * kNhppBlock) break;  // stopped on its first
      inside_end[b] = inside;
      ++thinned;
      if (batch) batch->submit([&, b] { thin(b); });
    }
    for (std::size_t b = 0; b < thinned; ++b) thin(b);
    if (batch) batch->wait();
    for (std::size_t b = 0; b < thinned; ++b) {
      const double* survivors = times.data() + b * kNhppBlock;
      arrivals.insert(arrivals.end(), survivors, survivors + kept[b]);
    }

    if (stopped) {
      // 2K + 1 outputs: two per candidate inside, one for the gap of
      // the candidate that stopped the process.
      rng = start[inside / kNhppBlock];
      for (std::size_t i = 0; i < 2 * (inside % kNhppBlock) + 1; ++i)
        rng.next();
      return arrivals;
    }
  }
}

}  // namespace gm
