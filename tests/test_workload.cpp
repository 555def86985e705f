// Workload generator and trace serialization tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/time_types.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace gm::workload {
namespace {

WorkloadSpec tiny_spec(int days = 2, std::uint64_t seed = 7) {
  WorkloadSpec spec = WorkloadSpec::canonical(days, seed);
  spec.foreground.base_rate_per_s = 0.5;  // keep tests fast
  return spec;
}

TEST(Generator, DeterministicPerSeed) {
  const Workload a = generate_workload(tiny_spec(), 128);
  const Workload b = generate_workload(tiny_spec(), 128);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival, b.requests[i].arrival);
    EXPECT_EQ(a.requests[i].object, b.requests[i].object);
    EXPECT_EQ(a.requests[i].size_bytes, b.requests[i].size_bytes);
  }
  const Workload c = generate_workload(tiny_spec(2, 8), 128);
  EXPECT_NE(a.requests.size(), c.requests.size());
}

TEST(Generator, RequestsSortedAndInRange) {
  const Workload w = generate_workload(tiny_spec(), 128);
  EXPECT_TRUE(std::is_sorted(
      w.requests.begin(), w.requests.end(),
      [](const auto& a, const auto& b) { return a.arrival < b.arrival; }));
  for (const auto& r : w.requests) {
    EXPECT_GE(r.arrival, 0);
    EXPECT_LT(r.arrival, w.duration);
    EXPECT_GE(r.size_bytes, 512u);
  }
}

TEST(Generator, RequestCountTracksRateAndDuration) {
  WorkloadSpec spec = tiny_spec(4);
  const Workload w = generate_workload(spec, 128);
  // Mean diurnal multiplier ≈ 0.93 by construction of the default
  // profile; accept a broad band.
  const double expected =
      spec.foreground.base_rate_per_s * 4 * 86400.0;
  EXPECT_GT(static_cast<double>(w.requests.size()), expected * 0.5);
  EXPECT_LT(static_cast<double>(w.requests.size()), expected * 1.3);

  const Workload longer = generate_workload(tiny_spec(8), 128);
  EXPECT_GT(longer.requests.size(), w.requests.size());
}

TEST(Generator, DiurnalShapePresent) {
  WorkloadSpec spec = tiny_spec(7);
  spec.foreground.base_rate_per_s = 2.0;
  const Workload w = generate_workload(spec, 128);
  // Afternoon (12–18 h) should out-arrive night (0–6 h) clearly.
  std::int64_t day_hits = 0, night_hits = 0;
  for (const auto& r : w.requests) {
    const double hour =
        static_cast<double>(r.arrival % 86400) / 3600.0;
    if (hour >= 12.0 && hour < 18.0) ++day_hits;
    if (hour < 6.0) ++night_hits;
  }
  EXPECT_GT(day_hits, night_hits * 2);
}

TEST(Generator, ReadWriteMixMatchesSpec) {
  WorkloadSpec spec = tiny_spec(4);
  spec.foreground.read_fraction = 0.8;
  spec.foreground.base_rate_per_s = 2.0;
  const Workload w = generate_workload(spec, 128);
  std::int64_t reads = 0;
  for (const auto& r : w.requests) reads += !r.is_write;
  EXPECT_NEAR(static_cast<double>(reads) /
                  static_cast<double>(w.requests.size()),
              0.8, 0.03);
}

TEST(Generator, PopularitySkewed) {
  WorkloadSpec spec = tiny_spec(4);
  spec.foreground.base_rate_per_s = 3.0;
  spec.foreground.object_count = 10000;
  spec.foreground.zipf_exponent = 1.1;
  const Workload w = generate_workload(spec, 128);
  std::unordered_map<storage::ObjectId, int> counts;
  for (const auto& r : w.requests) ++counts[r.object];
  // Top object should carry far more than the mean.
  int top = 0;
  for (const auto& [o, c] : counts) top = std::max(top, c);
  const double mean_count = static_cast<double>(w.requests.size()) /
                            static_cast<double>(counts.size());
  EXPECT_GT(top, mean_count * 5);
}

TEST(Generator, TasksRespectInvariants) {
  const Workload w = generate_workload(tiny_spec(3), 64);
  EXPECT_FALSE(w.tasks.empty());
  for (const auto& t : w.tasks) {
    EXPECT_GE(t.release, 0);
    EXPECT_GE(t.work_s, 60.0);
    EXPECT_GE(t.deadline,
              t.release + static_cast<SimTime>(t.work_s));
    EXPECT_GT(t.utilization, 0.0);
    EXPECT_LE(t.utilization, 1.0);
    EXPECT_LT(t.group, 64u);
  }
  EXPECT_TRUE(std::is_sorted(
      w.tasks.begin(), w.tasks.end(),
      [](const auto& a, const auto& b) { return a.release < b.release; }));
}

TEST(Generator, BackupsReleasedInWindow) {
  const Workload w = generate_workload(tiny_spec(5), 64);
  for (const auto& t : w.tasks) {
    if (t.type != storage::TaskType::kBackup) continue;
    const double hour =
        static_cast<double>(t.release % 86400) / 3600.0;
    EXPECT_GE(hour, 18.0);
    EXPECT_LT(hour, 23.0);
  }
}

TEST(Generator, TaskVolumeScalesWithRate) {
  WorkloadSpec base = tiny_spec(4);
  WorkloadSpec doubled = base;
  for (auto& c : doubled.task_classes) c.mean_per_day *= 2.0;
  const auto w1 = generate_workload(base, 64);
  const auto w2 = generate_workload(doubled, 64);
  EXPECT_GT(w2.tasks.size(), w1.tasks.size() * 3 / 2);
}

TEST(Generator, MixesDiffer) {
  const auto canonical = generate_workload(
      WorkloadSpec::canonical(2, 1), 64);
  const auto read_heavy = generate_workload(
      WorkloadSpec::read_heavy(2, 1), 64);
  const auto backup_heavy = generate_workload(
      WorkloadSpec::backup_heavy(2, 1), 64);
  EXPECT_GT(read_heavy.requests.size(), canonical.requests.size());
  EXPECT_LT(read_heavy.tasks.size(), canonical.tasks.size());

  const auto count_backups = [](const Workload& w) {
    return std::count_if(w.tasks.begin(), w.tasks.end(),
                         [](const auto& t) {
                           return t.type == storage::TaskType::kBackup;
                         });
  };
  EXPECT_GT(count_backups(backup_heavy), count_backups(canonical));
}

TEST(Generator, TelemetryHelpers) {
  const Workload w = generate_workload(tiny_spec(2), 64);
  EXPECT_GT(w.total_bytes(), 0u);
  EXPECT_GT(w.total_task_work_s(), 0.0);
}

TEST(Generator, ValidatesInput) {
  EXPECT_THROW(generate_workload(tiny_spec(), 0), InvalidArgument);
  WorkloadSpec bad = tiny_spec();
  bad.duration_days = 0;
  EXPECT_THROW(generate_workload(bad, 64), InvalidArgument);
  bad = tiny_spec();
  bad.foreground.read_fraction = 2.0;
  EXPECT_THROW(generate_workload(bad, 64), InvalidArgument);
}

// ----------------------------------------------- Request draw oracle

// The sequential request loop: one pass over the arrivals that draws
// each request's rank, size and direction from the detail stream in
// turn, with the rate evaluated afresh at every thinning candidate.
// generate_workload splits these draws into a serial walk and a
// parallel replay, and caches the rate; its requests must equal these
// field for field.
std::vector<storage::IoRequest> reference_requests(const WorkloadSpec& spec) {
  const auto& fg = spec.foreground;
  std::vector<storage::IoRequest> out;
  if (fg.base_rate_per_s <= 0.0) return out;
  const auto rate = [&](double t) {
    const auto cal = calendar_of(static_cast<SimTime>(t));
    const bool weekend = cal.day_of_week >= 5;
    return fg.base_rate_per_s * fg.diurnal(cal.hour) *
           (weekend ? fg.weekend_factor : 1.0);
  };
  const double rate_max = fg.base_rate_per_s * fg.diurnal.max_value() *
                          std::max(1.0, fg.weekend_factor);
  const Rng rng(spec.seed);
  Rng arrivals_rng = rng.fork(0x41);
  const auto arrivals = sample_nhpp(
      arrivals_rng, 0.0, days_to_s(spec.duration_days), rate_max, rate);
  const ZipfSampler zipf(
      static_cast<std::size_t>(
          std::min<std::uint64_t>(fg.object_count, 4'000'000ULL)),
      fg.zipf_exponent);
  Rng detail_rng = rng.fork(0x42);
  storage::RequestId id = 1;
  for (double t : arrivals) {
    storage::IoRequest req;
    req.id = id++;
    req.arrival = static_cast<SimTime>(t);
    req.object = mix_hash(spec.seed, zipf(detail_rng)) % fg.object_count;
    const double bytes =
        sample_lognormal(detail_rng, fg.size_log_mu, fg.size_log_sigma);
    req.size_bytes =
        static_cast<std::uint64_t>(std::max(512.0, std::min(bytes, 1e10)));
    req.is_write = !detail_rng.bernoulli(fg.read_fraction);
    out.push_back(req);
  }
  return out;
}

// Stops at the first differing request, so a mismatch reports one
// index rather than a flood.
void expect_same_requests(const std::vector<storage::IoRequest>& got,
                          const std::vector<storage::IoRequest>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    ASSERT_TRUE(a.id == b.id && a.arrival == b.arrival &&
                a.object == b.object && a.size_bytes == b.size_bytes &&
                a.is_write == b.is_write)
        << "request " << i << ": id " << a.id << "/" << b.id
        << " arrival " << a.arrival << "/" << b.arrival << " object "
        << a.object << "/" << b.object << " bytes " << a.size_bytes
        << "/" << b.size_bytes << " write " << a.is_write << "/"
        << b.is_write;
  }
}

// A spec whose request count spans several draw blocks with a partial
// last one (≈165 k requests, ≈10 blocks).
WorkloadSpec multi_block_spec() {
  WorkloadSpec spec = tiny_spec(2, 11);
  spec.foreground.base_rate_per_s = 1.0;
  return spec;
}

TEST(GeneratorOracle, NoForeground) {
  WorkloadSpec spec = tiny_spec();
  spec.foreground.base_rate_per_s = 0.0;
  const Workload w = generate_workload(spec, 64);
  EXPECT_TRUE(w.requests.empty());
  EXPECT_FALSE(w.tasks.empty());
}

TEST(GeneratorOracle, FewerRequestsThanOneBlock) {
  WorkloadSpec spec = tiny_spec(1, 5);
  spec.foreground.base_rate_per_s = 0.05;
  const Workload w = generate_workload(spec, 64);
  ASSERT_GT(w.requests.size(), 0u);
  ASSERT_LT(w.requests.size(), kRequestBlock);
  expect_same_requests(w.requests, reference_requests(spec));
}

TEST(GeneratorOracle, SeveralBlocksWithPartialLast) {
  const WorkloadSpec spec = multi_block_spec();
  const Workload w = generate_workload(spec, 64);
  ASSERT_GT(w.requests.size(), 3 * kRequestBlock);
  ASSERT_NE(w.requests.size() % kRequestBlock, 0u);
  expect_same_requests(w.requests, reference_requests(spec));
  // Ids run 1..n in arrival order.
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    ASSERT_EQ(w.requests[i].id, i + 1);
    if (i > 0) {
      ASSERT_GE(w.requests[i].arrival, w.requests[i - 1].arrival);
    }
  }
}

TEST(GeneratorOracle, ReadFractionAtBothEnds) {
  for (const double fraction : {0.0, 1.0}) {
    WorkloadSpec spec = multi_block_spec();
    spec.foreground.read_fraction = fraction;
    const Workload w = generate_workload(spec, 64);
    expect_same_requests(w.requests, reference_requests(spec));
    for (const auto& r : w.requests) ASSERT_EQ(r.is_write, fraction == 0.0);
  }
}

TEST(GeneratorOracle, ZeroSizeSigma) {
  WorkloadSpec spec = multi_block_spec();
  spec.foreground.size_log_sigma = 0.0;
  const Workload w = generate_workload(spec, 64);
  expect_same_requests(w.requests, reference_requests(spec));
  for (const auto& r : w.requests)
    ASSERT_EQ(r.size_bytes, w.requests.front().size_bytes);
}

TEST(GeneratorOracle, NegativeSizeSigmaThrows) {
  WorkloadSpec spec = multi_block_spec();
  spec.foreground.size_log_sigma = -0.5;
  EXPECT_THROW(generate_workload(spec, 64), InvalidArgument);
}

// On a pool worker the draw runs inline on that worker; the workload
// must be the one the test thread's parallel draw makes.
TEST(GeneratorOracle, PoolWorkerMatchesTestThread) {
  const WorkloadSpec spec = multi_block_spec();
  const Workload here = generate_workload(spec, 128);
  Workload on_worker;
  ThreadPool pool(1);
  parallel_for(pool, 1, [&](std::size_t) {
    on_worker = generate_workload(spec, 128);
  });
  expect_same_requests(on_worker.requests, here.requests);
  ASSERT_EQ(on_worker.tasks.size(), here.tasks.size());
}

// --------------------------------------------------------------- Trace

TEST(Trace, RoundTripExact) {
  const Workload original = generate_workload(tiny_spec(2), 64);
  std::ostringstream os;
  write_trace(os, original);
  const Workload loaded = read_trace(os.str());

  ASSERT_EQ(loaded.requests.size(), original.requests.size());
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    const auto& a = original.requests[i];
    const auto& b = loaded.requests[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.size_bytes, b.size_bytes);
    EXPECT_EQ(a.is_write, b.is_write);
  }
  ASSERT_EQ(loaded.tasks.size(), original.tasks.size());
  for (std::size_t i = 0; i < original.tasks.size(); ++i) {
    const auto& a = original.tasks[i];
    const auto& b = loaded.tasks[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.release, b.release);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_DOUBLE_EQ(a.work_s, b.work_s);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.group, b.group);
  }
}

TEST(Trace, FileRoundTrip) {
  const Workload original = generate_workload(tiny_spec(1), 32);
  const std::string path = "/tmp/gm_trace_test.csv";
  write_trace_file(path, original);
  const Workload loaded = read_trace_file(path);
  EXPECT_EQ(loaded.requests.size(), original.requests.size());
  EXPECT_EQ(loaded.tasks.size(), original.tasks.size());
}

TEST(Trace, RejectsMalformedRows) {
  EXPECT_THROW(read_trace("kind,id,t0,a,b,c,d,e\nX,1,2,3,4,5,6,7\n"),
               InvalidArgument);
  EXPECT_THROW(read_trace("R,1,2\n"), InvalidArgument);
  EXPECT_THROW(read_trace(""), InvalidArgument);
  // Bad task type.
  EXPECT_THROW(read_trace("T,1,0,99,10,60,0.5,0\n"), InvalidArgument);
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/trace.csv"), RuntimeError);
}

}  // namespace
}  // namespace gm::workload
