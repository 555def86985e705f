// Tests for CSV, tables, math helpers, units, calendar/slot time,
// assertion machinery and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/csv.hpp"
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

}  // namespace
}  // namespace gm
