#pragma once
// Sampling helpers for the distributions the workload and energy models
// need: exponential, normal, lognormal, Weibull, Poisson, Zipf, and a
// non-homogeneous Poisson process sampler (thinning).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace gm {

/// Exponential with rate `lambda` (mean 1/lambda).
double sample_exponential(Rng& rng, double lambda);

/// The random half of one polar Box–Muller draw: the accepted point
/// (u, v) of the unit disc, kept as u and s = u² + v² ∈ (0, 1).
struct PolarDraw {
  double u;
  double s;
};

/// Draws uniforms in pairs until one lands strictly inside the unit
/// disc (and off its centre). No transcendental math.
PolarDraw polar_draw(Rng& rng);

/// The pure half: maps an accepted draw to a normal variate. Checks
/// that `stddev` is non-negative.
double polar_normal(double mean, double stddev, PolarDraw draw);

/// Standard normal via polar Box–Muller (no cached second value, so
/// sampling stays stateless with respect to the caller). Equal to
/// polar_normal(mean, stddev, polar_draw(rng)).
double sample_normal(Rng& rng, double mean = 0.0, double stddev = 1.0);

/// Lognormal parameterized by the *underlying* normal's mu/sigma.
double sample_lognormal(Rng& rng, double mu, double sigma);

/// Weibull with shape k and scale lambda.
double sample_weibull(Rng& rng, double shape_k, double scale_lambda);

/// Poisson count with the given mean (inversion for small means,
/// PTRS-style transformed rejection for large).
std::int64_t sample_poisson(Rng& rng, double mean);

namespace detail {
/// Precomputed Zipf tables: the CDF plus a first-level bucket index.
/// `bucket[i]` is the first rank whose CDF value exceeds i/B, so a
/// draw u only binary-searches the narrow window
/// [bucket[floor(u·B)], bucket[floor(u·B)+1]] instead of the whole
/// table — the same result, but ~5 cache-local probes instead of ~21
/// scattered across a multi-megabyte CDF.
struct ZipfTable {
  std::vector<double> cdf;
  std::vector<std::uint32_t> bucket;  ///< size kZipfBuckets + 1
};
inline constexpr std::size_t kZipfBuckets = 1u << 16;
}  // namespace detail

/// Zipf(s) sampler over ranks {0, ..., n-1}: P(k) ∝ 1/(k+1)^s.
/// Precomputes the CDF once; sampling is O(log n).
///
/// The tables are a pure function of (n, s) and cost n `pow` calls to
/// build (~35 ms for the canonical 2M-object catalog), so samplers
/// share them through a process-wide memo: constructing the same
/// (n, s) twice — every sweep point and bench iteration does —
/// reuses the first build instead of repeating it. The cache is
/// mutex-guarded (sweeps generate workloads on pool workers) and the
/// shared values are bit-identical to a private build by definition.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent_s);

  /// Draws one uniform and returns rank_of it.
  std::size_t operator()(Rng& rng) const { return rank_of(rng.uniform()); }
  /// The rank a uniform u ∈ [0, 1) maps to: the first rank whose CDF
  /// value exceeds u.
  std::size_t rank_of(double u) const;
  std::size_t size() const { return table_->cdf.size(); }
  double exponent() const { return s_; }
  /// Probability mass of rank k.
  double pmf(std::size_t k) const;

 private:
  std::shared_ptr<const detail::ZipfTable> table_;
  double s_;
};

/// sample_nhpp's work split: thinning candidates are drawn in blocks
/// of kNhppBlock, and up to kNhppWaveBlocks blocks (2 MB of candidate
/// times) make one wave.
inline constexpr std::size_t kNhppBlock = 16384;
inline constexpr std::size_t kNhppWaveBlocks = 16;
inline constexpr int kNhppCapacityCells = 4096;

/// A capacity for the arrivals sample_nhpp draws on [t0, t1): the
/// rate's integral by the midpoint rule on kNhppCapacityCells equal
/// cells, at most rate_max · (t1 - t0), plus a Poisson margin of six
/// standard deviations and 64. It sizes buffers and never output: a
/// rate that peaks between cell midpoints can draw more. Calls `rate`
/// in increasing t.
std::size_t nhpp_capacity(double t0, double t1, double rate_max,
                          const std::function<double(double)>& rate);

/// Draws arrival times of a non-homogeneous Poisson process on
/// [t0, t1) with instantaneous rate `rate(t)` (events per second),
/// bounded above by `rate_max`, using Lewis–Shedler thinning: each
/// candidate takes two outputs of `rng`, an exponential gap and then
/// a thinning uniform, and the first candidate at or past t1 takes
/// only its gap. The output and the final state of `rng` are those of
/// the serial loop (kept as the tests' oracle), but the costly work is
/// parallel: the calling thread draws each block's uniforms, blocks
/// turn them into gaps, the calling thread adds the gaps in candidate
/// order (the loop's own sums), and the blocks then thin their
/// candidates. It runs in waves on one transient pool, where the
/// calling thread also runs any block step no worker has started, and
/// inline on a worker of any ThreadPool. Each block calls its own copy
/// of `rate`, in increasing t, so copies must share no mutable state;
/// a per-copy cache is safe.
std::vector<double> sample_nhpp(Rng& rng, double t0, double t1,
                                double rate_max,
                                const std::function<double(double)>& rate);

}  // namespace gm
