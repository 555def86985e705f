#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/time_types.hpp"

namespace gm::workload {

std::uint64_t Workload::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& r : requests) total += r.size_bytes;
  return total;
}

Seconds Workload::total_task_work_s() const {
  Seconds total = 0.0;
  for (const auto& t : tasks) total += t.work_s;
  return total;
}

namespace {

/// The random half of one request: every uniform it takes from the
/// detail stream, in draw order.
struct RequestDraws {
  double rank_u;   ///< Zipf popularity rank
  PolarDraw size;  ///< lognormal size
  double read_u;   ///< read or write
};

RequestDraws draw_request(Rng& rng) {
  RequestDraws d;
  d.rank_u = rng.uniform();
  d.size = polar_draw(rng);
  d.read_u = rng.uniform();
  return d;
}

void generate_foreground(const WorkloadSpec& spec, Rng& rng,
                         Workload& out) {
  const auto& fg = spec.foreground;
  if (fg.base_rate_per_s <= 0.0) return;

  const double horizon_s = days_to_s(spec.duration_days);
  // rate(t) reads t only through its whole second, so a one-entry
  // cache keyed on that second is exact; each copy the sampler makes
  // is called in increasing t, several times a second, so it mostly
  // hits. The cache lives in each copy, so the blocks share no state.
  const std::function<double(double)> rate =
      [&fg, cached_second = SimTime{-1},
       cached_rate = 0.0](double t) mutable {
        const auto second = static_cast<SimTime>(t);
        if (second != cached_second) {
          const auto cal = calendar_of(second);
          const bool weekend = cal.day_of_week >= 5;
          cached_rate = fg.base_rate_per_s * fg.diurnal(cal.hour) *
                        (weekend ? fg.weekend_factor : 1.0);
          cached_second = second;
        }
        return cached_rate;
      };
  const double rate_max =
      fg.base_rate_per_s * fg.diurnal.max_value() *
      std::max(1.0, fg.weekend_factor);

  Rng arrivals_rng = rng.fork(0x41);
  Rng detail_rng = rng.fork(0x42);

  // The walk of the detail stream copies the Rng at the start of every
  // block; each block then replays its draws from that copy. The walk
  // and the zero-filled request vector depend only on the request
  // count, so they run beside the thinning up to a capacity estimate,
  // and are trimmed, or extended, once the count is known.
  std::vector<Rng> block_start;
  std::size_t walked = 0;
  const auto walk_to = [&](std::size_t count) {
    for (; walked < count; ++walked) {
      if (walked % kRequestBlock == 0) block_start.push_back(detail_rng);
      draw_request(detail_rng);
    }
  };
  const std::size_t estimate =
      nhpp_capacity(0.0, horizon_s, rate_max, rate);
  std::vector<double> arrivals;
  run_beside(
      [&] {
        out.requests.resize(estimate);
        block_start.reserve((estimate + kRequestBlock - 1) / kRequestBlock);
        walk_to(estimate);
      },
      [&] {
        arrivals = sample_nhpp(arrivals_rng, 0.0, horizon_s, rate_max, rate);
      });
  const std::size_t n = arrivals.size();
  walk_to(n);
  block_start.resize((n + kRequestBlock - 1) / kRequestBlock);
  out.requests.resize(n);

  ZipfSampler zipf(
      static_cast<std::size_t>(std::min<std::uint64_t>(
          fg.object_count, 4'000'000ULL)),
      fg.zipf_exponent);
  // Each block does the costly pure half (Zipf search, object hash,
  // lognormal transform) into its own slice of the vector, so every
  // request gets exactly the uniforms a sequential loop gives it.
  parallel_for(block_start.size(), [&](std::size_t b) {
    Rng block_rng = block_start[b];
    const std::size_t end = std::min(n, (b + 1) * kRequestBlock);
    for (std::size_t i = b * kRequestBlock; i < end; ++i) {
      const RequestDraws d = draw_request(block_rng);
      storage::IoRequest& req = out.requests[i];
      req.id = static_cast<storage::RequestId>(i + 1);
      req.arrival = static_cast<SimTime>(arrivals[i]);
      // Popularity rank → object id through a stable permutation hash
      // so hot objects are spread over the id space.
      req.object =
          mix_hash(spec.seed, zipf.rank_of(d.rank_u)) % fg.object_count;
      const double bytes = std::exp(
          polar_normal(fg.size_log_mu, fg.size_log_sigma, d.size));
      req.size_bytes =
          static_cast<std::uint64_t>(std::max(512.0, std::min(bytes, 1e10)));
      req.is_write = d.read_u >= fg.read_fraction;
    }
  });
}

void generate_tasks(const WorkloadSpec& spec, std::uint32_t group_count,
                    Rng& rng, Workload& out) {
  Rng task_rng = rng.fork(0x43);
  storage::TaskId id = 1;
  for (const auto& cls : spec.task_classes) {
    for (int day = 0; day < spec.duration_days; ++day) {
      const std::int64_t count =
          sample_poisson(task_rng, cls.mean_per_day * spec.task_scale);
      for (std::int64_t i = 0; i < count; ++i) {
        storage::BackgroundTask task;
        task.id = id++;
        task.type = cls.type;
        const double release_h =
            cls.windowed
                ? task_rng.uniform(cls.window_start_h, cls.window_end_h)
                : task_rng.uniform(0.0, 24.0);
        task.release = static_cast<SimTime>(days_to_s(day) +
                                            hours_to_s(release_h));
        const double log_mu =
            std::log(cls.mean_work_s) - 0.5 * cls.work_sigma * cls.work_sigma;
        task.work_s = std::max(
            60.0, sample_lognormal(task_rng, log_mu, cls.work_sigma));
        task.deadline = task.release +
                        static_cast<SimTime>(task.work_s +
                                             cls.deadline_slack_s);
        task.utilization = cls.utilization;
        task.group = static_cast<storage::GroupId>(
            task_rng.uniform_u64(group_count));
        out.tasks.push_back(task);
      }
    }
  }
}

}  // namespace

Workload generate_workload(const WorkloadSpec& spec,
                           std::uint32_t group_count) {
  spec.validate();
  GM_CHECK(group_count > 0, "workload needs a non-empty group universe");

  Workload out;
  out.duration = static_cast<SimTime>(days_to_s(spec.duration_days));

  Rng rng(spec.seed);
  generate_foreground(spec, rng, out);
  generate_tasks(spec, group_count, rng, out);

  // Requests need no sort: NHPP arrivals increase and ids follow them.
  std::sort(out.tasks.begin(), out.tasks.end(),
            [](const auto& a, const auto& b) {
              if (a.release != b.release) return a.release < b.release;
              return a.id < b.id;
            });
  return out;
}

}  // namespace gm::workload
