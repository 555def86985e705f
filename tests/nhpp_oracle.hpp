#pragma once
// The serial Lewis–Shedler loop that the parallel sample_nhpp
// replaced, kept as its oracle: one candidate at a time, an
// exponential gap and then a thinning uniform, stopping at the first
// candidate at or past t1 after drawing only its gap. sample_nhpp
// must return the same arrivals, bit for bit, and leave `rng` in the
// same state.

#include <functional>
#include <vector>

#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace gm::test {

inline std::vector<double> serial_nhpp(
    Rng& rng, double t0, double t1, double rate_max,
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

}  // namespace gm::test
