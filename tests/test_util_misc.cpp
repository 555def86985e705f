// Tests for CSV, tables, math helpers, units, calendar/slot time,
// assertion machinery, the thread pool and the flat id set.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/id_set.hpp"
#include "util/math_utils.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time_types.hpp"
#include "util/units.hpp"

namespace gm {
namespace {

// ---------------------------------------------------------------- CSV

TEST(Csv, WriterBasicRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("a").field(std::int64_t{42}).field(2.5);
  w.end_row();
  EXPECT_EQ(os.str(), "a,42,2.5\n");
}

TEST(Csv, WriterQuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field("has,comma").field("has\"quote").field("has\nnewline");
  w.end_row();
  EXPECT_EQ(os.str(), "\"has,comma\",\"has\"\"quote\",\"has\nnewline\"\n");
}

TEST(Csv, RoundTripPreservesFields) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"x,y", "plain", "q\"q", "line\nbreak", ""});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"x,y", "plain", "q\"q",
                                      "line\nbreak", ""}));
}

TEST(Csv, ParseMultipleRowsAndCrlf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, ParseNoTrailingNewline) {
  const auto rows = parse_csv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, ParseEmptyTextYieldsNoRows) {
  EXPECT_TRUE(parse_csv("").empty());
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("\"open"), InvalidArgument);
}

TEST(Csv, DoubleRoundTripExact) {
  std::ostringstream os;
  CsvWriter w(os);
  const double v = 0.1 + 0.2;  // not exactly representable
  w.field(v);
  w.end_row();
  const auto rows = parse_csv(os.str());
  EXPECT_DOUBLE_EQ(csv_to_double(rows[0][0]), v);
}

TEST(Csv, NumericConversionRejectsGarbage) {
  EXPECT_THROW(csv_to_double("12abc"), InvalidArgument);
  EXPECT_THROW(csv_to_double("xyz"), InvalidArgument);
  EXPECT_THROW(csv_to_int("1.5"), InvalidArgument);
  EXPECT_THROW(csv_to_int(""), InvalidArgument);
  EXPECT_EQ(csv_to_int("-17"), -17);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path.csv"), RuntimeError);
}

// -------------------------------------------------------------- Table

TEST(Table, AlignsColumnsAndCountsRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("-----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::integer(-5), "-5");
  EXPECT_EQ(TextTable::percent(0.1234, 1), "12.3%");
}

TEST(Table, MarkdownShape) {
  TextTable t({"h1", "h2"});
  t.add_row({"x", "y"});
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_EQ(os.str(), "| h1 | h2 |\n|---|---|\n| x | y |\n");
}

// --------------------------------------------------------------- Math

TEST(Math, LerpAndClamp) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.4, 0.0, 1.0), 0.4);
}

TEST(Math, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1e12, 1e12 + 1.0));
}

TEST(Math, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Math, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50.0), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 101.0), InvalidArgument);
}

TEST(Math, MeanHandlesEmpty) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
}

TEST(PiecewiseLinear, InterpolatesAndExtrapolatesFlat) {
  PiecewiseLinear f({0.0, 10.0, 20.0}, {1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(f(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(f(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f(5.0), 2.0);
  EXPECT_DOUBLE_EQ(f(15.0), 2.5);
  EXPECT_DOUBLE_EQ(f(25.0), 2.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 3.0);
}

TEST(PiecewiseLinear, RejectsUnsortedXs) {
  EXPECT_THROW(PiecewiseLinear({1.0, 1.0}, {0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(PiecewiseLinear({2.0, 1.0}, {0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(PiecewiseLinear({1.0}, {0.0, 0.0}), InvalidArgument);
}

// -------------------------------------------------------------- Units

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(kwh_to_j(1.0), 3.6e6);
  EXPECT_DOUBLE_EQ(j_to_kwh(3.6e6), 1.0);
  EXPECT_DOUBLE_EQ(wh_to_j(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(hours_to_s(2.0), 7200.0);
  EXPECT_DOUBLE_EQ(s_to_days(86400.0), 1.0);
  EXPECT_DOUBLE_EQ(energy_j(100.0, 10.0), 1000.0);
  EXPECT_DOUBLE_EQ(power_w(1000.0, 10.0), 100.0);
}

// --------------------------------------------------------------- Time

TEST(Time, CalendarDecomposition) {
  const auto c = calendar_of(0);
  EXPECT_EQ(c.day, 0);
  EXPECT_EQ(c.day_of_week, 0);
  EXPECT_DOUBLE_EQ(c.hour, 0.0);

  const auto d = calendar_of(86400 * 8 + 3600 * 14 + 1800);
  EXPECT_EQ(d.day, 8);
  EXPECT_EQ(d.day_of_week, 1);  // day 8 = Tuesday (day 0 Monday)
  EXPECT_DOUBLE_EQ(d.hour, 14.5);
}

TEST(Time, CalendarDayOfYearWraps) {
  const auto c = calendar_of(0, 365);
  EXPECT_EQ(c.day_of_year, 365);
  const auto d = calendar_of(86400, 365);
  EXPECT_EQ(d.day_of_year, 1);
}

TEST(Time, CalendarRejectsBadInput) {
  EXPECT_THROW(calendar_of(-1), InvalidArgument);
  EXPECT_THROW(calendar_of(0, 0), InvalidArgument);
  EXPECT_THROW(calendar_of(0, 366), InvalidArgument);
}

TEST(Time, SlotGridArithmetic) {
  SlotGrid grid(3600);
  EXPECT_EQ(grid.slot_of(0), 0);
  EXPECT_EQ(grid.slot_of(3599), 0);
  EXPECT_EQ(grid.slot_of(3600), 1);
  EXPECT_EQ(grid.start_of(2), 7200);
  EXPECT_EQ(grid.end_of(2), 10800);
  EXPECT_EQ(grid.next_boundary(0), 0);
  EXPECT_EQ(grid.next_boundary(1), 3600);
  EXPECT_EQ(grid.next_boundary(3600), 3600);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_sim_time(0), "d0 00:00:00");
  EXPECT_EQ(format_sim_time(86400 + 3661), "d1 01:01:01");
}

// ------------------------------------------------------------- Assert

TEST(Assert, CheckThrowsWithMessage) {
  try {
    GM_CHECK(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"),
              std::string::npos);
  }
}

TEST(Assert, AssertThrowsLogicError) {
  EXPECT_THROW(GM_ASSERT(1 == 2), std::logic_error);
  EXPECT_NO_THROW(GM_ASSERT(1 == 1));
}

// --------------------------------------------------------- ThreadPool

TEST(ThreadPool, BatchRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  ThreadPool::Batch batch(pool);
  for (int i = 0; i < 100; ++i)
    batch.submit([&] { count.fetch_add(1); });
  batch.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 64,
                            [](std::size_t i) {
                              if (i == 33)
                                throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

// "First one wins": with a single failing index the propagated
// exception is necessarily that one; the throw aborts only the rest
// of its own chunk, other chunks still complete, and the pool stays
// usable for the next batch.
TEST(ThreadPool, ExceptionFirstOneWinsAndPoolSurvives) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  try {
    parallel_for(pool, 64, [&](std::size_t i) {
      if (i == 33) throw std::runtime_error("boom-33");
      count.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-33");
  }
  // All chunks but the throwing one's tail ran: with 2 threads the
  // 64 indices split into 8 chunks of 8, so at most 7 more indices
  // (the remainder of the failing chunk) can be skipped.
  EXPECT_GE(count.load(), 64 - 8);
  EXPECT_LT(count.load(), 64);
  std::atomic<int> again{0};
  parallel_for(pool, 8, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 8);
}

// Per-batch completion: a batch's wait() returns once *its own* tasks
// finish, even while another client's tasks sit blocked on the same
// pool. The old pool-wide wait_idle() hung here forever.
TEST(ThreadPool, OverlappingBatchesWaitOnlyForTheirOwnWork) {
  ThreadPool pool(4);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> blocked{0};

  ThreadPool::Batch slow(pool);
  for (int i = 0; i < 2; ++i)
    slow.submit([&] {
      blocked.fetch_add(1);
      std::unique_lock lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    });
  while (blocked.load() < 2) std::this_thread::yield();

  std::atomic<int> quick{0};
  parallel_for(pool, 16, [&](std::size_t) { quick.fetch_add(1); });
  EXPECT_EQ(quick.load(), 16);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  slow.wait();
}

// Nested parallel_for on the same pool runs inline on the calling
// worker instead of deadlocking a saturated pool.
TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(pool, 8, [&](std::size_t outer) {
    EXPECT_TRUE(pool.on_worker_thread());
    parallel_for(pool, 8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  EXPECT_FALSE(pool.on_worker_thread());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Constructing a Batch on a worker of its own pool is the deadlock
// shape the nested-submit safety check rejects.
TEST(ThreadPool, BatchOnOwnWorkerAsserts) {
  ThreadPool pool(1);
  std::atomic<bool> threw{false};
  ThreadPool::Batch batch(pool);
  batch.submit([&] {
    try {
      ThreadPool::Batch nested(pool);
    } catch (const std::logic_error&) {
      threw.store(true);
    }
  });
  batch.wait();
  EXPECT_TRUE(threw.load());
}

// On a worker of any pool, not only its own, the transient helper
// runs the whole range on the calling thread instead of starting a
// pool; off a worker it hands the range to a pool it starts.
TEST(ThreadPool, TransientHelperRunsInlineOnAnyPoolWorker) {
  std::vector<std::thread::id> ran_on(64);
  const auto run = [&] {
    parallel_for(ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
  };
  ThreadPool outer(1);
  std::thread::id worker;
  parallel_for(outer, 1, [&](std::size_t) {
    worker = std::this_thread::get_id();
    run();
  });
  for (const auto& id : ran_on) EXPECT_EQ(id, worker);

  run();
  for (const auto& id : ran_on) EXPECT_NE(id, std::this_thread::get_id());
}

TEST(ThreadPool, TransientHelper) {
  std::atomic<long> sum{0};
  parallel_for(500, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 500L * 499L / 2);
}

// run_beside starts one thread for the task and runs the body on the
// caller; on a worker of any pool it starts nothing and runs the task,
// then the body, inline.
TEST(ThreadPool, RunBesideRunsTheTaskOnAThreadOfItsOwn) {
  EXPECT_FALSE(on_pool_worker());
  std::thread::id task_on, body_on;
  std::atomic<bool> task_done{false};
  run_beside(
      [&] {
        task_on = std::this_thread::get_id();
        task_done = true;
      },
      [&] { body_on = std::this_thread::get_id(); });
  EXPECT_TRUE(task_done.load());
  EXPECT_EQ(body_on, std::this_thread::get_id());
  EXPECT_NE(task_on, body_on);
}

TEST(ThreadPool, RunBesideRunsInlineOnAPoolWorker) {
  ThreadPool outer(1);
  std::thread::id worker;
  std::vector<std::pair<char, std::thread::id>> ran;
  bool on_worker = false;
  parallel_for(outer, 1, [&](std::size_t) {
    worker = std::this_thread::get_id();
    on_worker = on_pool_worker();
    run_beside([&] { ran.emplace_back('t', std::this_thread::get_id()); },
               [&] { ran.emplace_back('b', std::this_thread::get_id()); });
  });
  EXPECT_TRUE(on_worker);
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0].first, 't');
  EXPECT_EQ(ran[1].first, 'b');
  for (const auto& [what, id] : ran) EXPECT_EQ(id, worker) << what;
}

TEST(ThreadPool, RunBesideRethrowsTheBodysErrorFirst) {
  std::atomic<bool> task_done{false};
  const auto task_ok = [&] { task_done = true; };
  const auto task_fails = [] { throw std::runtime_error("task"); };
  const auto body_ok = [] {};
  const auto body_fails = [] { throw std::invalid_argument("body"); };
  EXPECT_THROW(run_beside(task_ok, body_fails), std::invalid_argument);
  EXPECT_TRUE(task_done.load());  // joined before the rethrow
  EXPECT_THROW(run_beside(task_fails, body_ok), std::runtime_error);
  EXPECT_THROW(run_beside(task_fails, body_fails), std::invalid_argument);
}

TEST(IdSet, InsertAndContainsAcrossIdRanges) {
  // Generated, offload, repair and arrival ranges, and the top bit.
  const std::vector<std::uint64_t> ids = {0, 1'000'000'000ULL,
                                          2'000'000'000ULL,
                                          3'000'000'000ULL,
                                          std::uint64_t{1} << 63};
  IdSet set;
  set.reset(ids.size());
  for (const std::uint64_t id : ids) {
    EXPECT_FALSE(set.contains(id)) << id;
    EXPECT_TRUE(set.insert(id)) << id;
  }
  EXPECT_EQ(set.size(), ids.size());
  for (const std::uint64_t id : ids) EXPECT_TRUE(set.contains(id)) << id;
  const std::vector<std::uint64_t> absent = {
      1, 999'999'999ULL, 2'000'000'001ULL, (std::uint64_t{1} << 63) + 1,
      IdSet::kEmpty - 1, IdSet::kEmpty};
  for (const std::uint64_t id : absent)
    EXPECT_FALSE(set.contains(id)) << id;
}

TEST(IdSet, DuplicatesAreHeldOnce) {
  IdSet set;
  set.reset(6);  // sized for the inserts, duplicates included
  EXPECT_TRUE(set.insert(7));
  EXPECT_TRUE(set.insert(3'000'000'000ULL));
  EXPECT_FALSE(set.insert(7));
  EXPECT_FALSE(set.insert(3'000'000'000ULL));
  EXPECT_FALSE(set.insert(7));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(7));
  EXPECT_TRUE(set.contains(3'000'000'000ULL));
}

TEST(IdSet, ProbesWrapPastTheTableEnd) {
  IdSet set;
  set.reset(64);
  set.reset(4);  // eight cells, in the larger allocation
  const std::span<const std::uint64_t> cells = set.cells();
  ASSERT_EQ(cells.size(), 8u);
  const std::size_t last = cells.size() - 1;
  // Five ids whose probes start at the last cell.
  std::vector<std::uint64_t> at_end;
  for (std::uint64_t id = 1; at_end.size() < 5; ++id)
    if (set.home(id) == last) at_end.push_back(id);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(set.insert(at_end[i]));
  // The first keeps its home; the rest wrap to cells 0, 1 and 2.
  EXPECT_EQ(cells[last], at_end[0]);
  EXPECT_EQ(cells[0], at_end[1]);
  EXPECT_EQ(cells[1], at_end[2]);
  EXPECT_EQ(cells[2], at_end[3]);
  EXPECT_EQ(cells[3], IdSet::kEmpty);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(set.contains(at_end[i]));
  // A miss homed at the end walks the wrapped run to cell 3.
  EXPECT_FALSE(set.contains(at_end[4]));
  EXPECT_FALSE(set.insert(at_end[2]));
}

TEST(IdSet, ResetEmptiesToASmallerOrLargerTable) {
  IdSet set;
  set.reset(100);
  EXPECT_EQ(set.cells().size(), 256u);
  for (std::uint64_t id = 1; id <= 100; ++id) set.insert(id);
  EXPECT_EQ(set.size(), 100u);
  const std::uint64_t* storage = set.cells().data();

  set.reset(3);  // smaller: empties the table and keeps the allocation
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.cells().size(), 8u);
  EXPECT_EQ(set.cells().data(), storage);
  for (std::uint64_t id = 1; id <= 100; ++id)
    ASSERT_FALSE(set.contains(id)) << id;
  for (std::uint64_t id : {5ULL, 2'000'000'000ULL, 64ULL})
    EXPECT_TRUE(set.insert(id));
  EXPECT_TRUE(set.contains(2'000'000'000ULL));
  EXPECT_FALSE(set.contains(6));

  set.reset(1000);  // larger
  EXPECT_EQ(set.cells().size(), 2048u);
  EXPECT_FALSE(set.contains(5));
  for (std::uint64_t k = 0; k < 1000; ++k)
    ASSERT_TRUE(set.insert(3'000'000'000ULL + 7 * k)) << k;
  EXPECT_EQ(set.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(set.contains(3'000'000'000ULL + 7 * k)) << k;
    ASSERT_FALSE(set.contains(3'000'000'000ULL + 7 * k + 1)) << k;
  }

  set.reset(0);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(3'000'000'000ULL));
}

TEST(IdSet, GuardsItsMarkerAndItsSize) {
  IdSet set;
  set.reset(2);
  EXPECT_THROW(set.insert(IdSet::kEmpty), std::logic_error);
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(2));
  EXPECT_FALSE(set.insert(2));  // a duplicate needs no room
  EXPECT_THROW(set.insert(3), std::logic_error);
  EXPECT_FALSE(IdSet().contains(0));
}

}  // namespace
}  // namespace gm
