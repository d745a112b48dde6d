#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qulrb::util {
namespace {

// ---------------------------------------------------------------- rng ------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedResets) {
  Rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanIsRoughlyHalf) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.next_double());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextInDegenerateRange) {
  Rng rng(19);
  EXPECT_EQ(rng.next_in(4, 4), 4);
  EXPECT_EQ(rng.next_in(4, 2), 4);  // inverted range collapses to lo
}

TEST(Rng, NormalHasUnitVariance) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.next_normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

// -------------------------------------------------------------- stats ------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean_before);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean_before);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, -1.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 10.0);
}

// --------------------------------------------------------------- math ------

TEST(Math, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
  EXPECT_EQ(ilog2_floor(std::uint64_t{1} << 63), 63);
}

TEST(Math, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(4), 2);
  EXPECT_EQ(ilog2_ceil(5), 3);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 1), 1);
}

TEST(Math, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
  EXPECT_TRUE(approx_equal(1e9, 1e9 * (1.0 + 1e-10)));
}

TEST(Math, KahanSumBeatsNaive) {
  // 1 + many tiny values that a naive float sum would lose less precisely.
  std::vector<double> xs(1000001, 1e-16);
  xs[0] = 1.0;
  const double sum = kahan_sum(xs);
  EXPECT_NEAR(sum, 1.0 + 1e-10, 1e-15);
}

// -------------------------------------------------------------- error ------

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), InvalidArgument);
}

TEST(Error, EnsureThrowsInternalError) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  EXPECT_THROW(ensure(false, "bug"), InternalError);
}

// -------------------------------------------------------------- table ------

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(Table({}), InvalidArgument); }

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, RendersAllCells) {
  Table t({"Algorithm", "Value"});
  t.add_row({"Greedy", "1.5"});
  t.add_row({"KK", "2.25"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Greedy"), std::string::npos);
  EXPECT_NE(text.find("2.25"), std::string::npos);
  EXPECT_NE(text.find("Algorithm"), std::string::npos);
}

TEST(Table, MarkdownFormat) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_EQ(os.str(), "| x | y |\n|---|---|\n| 1 | 2 |\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(1.0, 4), "1.0000");
  EXPECT_EQ(Table::integer(-42), "-42");
}

// -------------------------------------------------------- thread pool ------

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequested) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  pool.parallel_for(10, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 20);
}

// Two threads share one pool. One batch blocks until released; the other
// must still return once its own tasks are done, not when the pool is idle.
TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnBatch) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> blocked_done{0};
  std::thread blocked([&] {
    pool.parallel_for(2, [&](std::size_t) {
      released.wait();
      blocked_done.fetch_add(1);
    });
  });
  std::atomic<int> quick{0};
  std::thread quick_caller([&] {
    pool.parallel_for(8, [&](std::size_t) { quick.fetch_add(1); });
  });
  quick_caller.join();  // hangs if parallel_for waits for the whole pool
  EXPECT_EQ(quick.load(), 8);
  EXPECT_EQ(blocked_done.load(), 0);
  release.set_value();
  blocked.join();
  EXPECT_EQ(blocked_done.load(), 2);
}

// parallel_for called from the pool's only worker finds no free worker and
// runs its whole batch inline instead of deadlocking.
TEST(ThreadPool, NestedParallelForOnBusyPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.submit([&] {
    pool.parallel_for(5, [&](std::size_t) { inner.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 5);
}

TEST(ThreadPool, ParallelForForwardsExceptionAfterBatch) {
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(6,
                                 [&](std::size_t i) {
                                   if (i == 2) throw std::runtime_error("task 2");
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 5);  // the other indices still ran to completion
}

// -------------------------------------------------------------- timer ------

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.elapsed_ms(), 15.0);
  EXPECT_LT(timer.elapsed_ms(), 5000.0);
}

TEST(WallTimer, ResetRestartsClock) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.reset();
  EXPECT_LT(timer.elapsed_ms(), 15.0);
}

TEST(WallTimer, UnitsAreConsistent) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double s = timer.elapsed_seconds();
  const double ms = timer.elapsed_ms();
  EXPECT_NEAR(ms / s, 1000.0, 100.0);
}

}  // namespace
}  // namespace qulrb::util
