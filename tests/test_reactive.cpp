#include <gtest/gtest.h>

#include <numeric>

#include "mpirt/reactive.hpp"
#include "util/error.hpp"

namespace qulrb::mpirt {
namespace {

TEST(Reactive, BalancedInputExecutesEverythingLocally) {
  const lrp::LrpProblem p = lrp::LrpProblem::uniform({1.0, 1.0, 1.0, 1.0}, 8);
  const ReactiveResult r = run_reactive(p);
  std::int64_t total = 0;
  for (auto t : r.tasks_executed) total += t;
  EXPECT_EQ(total, p.total_tasks());
  const double work = std::accumulate(r.compute_ms.begin(), r.compute_ms.end(), 0.0);
  EXPECT_NEAR(work, p.total_load(), 1e-9);
}

TEST(Reactive, OffloadingRelievesTheStraggler) {
  // One heavy rank, three idle: offloading must spread the work.
  const lrp::LrpProblem p({4.0, 0.0, 0.0, 0.0}, {32, 0, 0, 0});
  const ReactiveResult r = run_reactive(p);
  EXPECT_GT(r.offload_requests, 0);
  EXPECT_GT(r.tasks_offloaded, 0);
  // The straggler sheds real work: its executed share is below 100%.
  EXPECT_LT(r.compute_ms[0], p.total_load() - 1e-9);
  EXPECT_LT(r.virtual_makespan_ms, p.total_load());
  // Nothing is lost or duplicated.
  const double work = std::accumulate(r.compute_ms.begin(), r.compute_ms.end(), 0.0);
  EXPECT_NEAR(work, p.total_load(), 1e-9);
  std::int64_t tasks = 0;
  for (auto t : r.tasks_executed) tasks += t;
  EXPECT_EQ(tasks, 32);
}

TEST(Reactive, ImbalanceDropsOnSkewedInstance) {
  // Only rank 0 holds tasks. The idle ranks send their first requests to it
  // before the start barrier, and it answers them all before it runs a task,
  // so three batches leave rank 0 however the threads are scheduled. (With
  // every rank busy and zero-cost tasks, whether anything is stolen before
  // rank 0 drains its own queue is a race.) Later, rank 0 asks each thief
  // once, and a thief holds one batch and keeps the task it is about to run,
  // so rank 0 wins back fewer tasks than it gave away.
  const lrp::LrpProblem p({4.0, 0.0, 0.0, 0.0}, {50, 0, 0, 0});
  const ReactiveResult r = run_reactive(p);
  EXPECT_LT(r.measured_imbalance, p.imbalance_ratio());
  const double work = std::accumulate(r.compute_ms.begin(), r.compute_ms.end(), 0.0);
  EXPECT_NEAR(work, p.total_load(), 1e-6);
}

TEST(Reactive, BatchSizeControlsGranularity) {
  const lrp::LrpProblem p({4.0, 0.0, 0.0, 0.0}, {32, 0, 0, 0});
  ReactiveConfig small;
  small.batch_size = 1;
  ReactiveConfig large;
  large.batch_size = 16;
  const ReactiveResult a = run_reactive(p, small);
  const ReactiveResult b = run_reactive(p, large);
  // Both conserve work; the large-batch run needs no more requests.
  EXPECT_NEAR(std::accumulate(a.compute_ms.begin(), a.compute_ms.end(), 0.0),
              std::accumulate(b.compute_ms.begin(), b.compute_ms.end(), 0.0), 1e-9);
  EXPECT_GT(a.offload_requests, 0);
  EXPECT_GT(b.tasks_offloaded, 0);
}

TEST(Reactive, TwoRanksTerminate) {
  const lrp::LrpProblem p({2.0, 1.0}, {16, 4});
  const ReactiveResult r = run_reactive(p);
  std::int64_t tasks = 0;
  for (auto t : r.tasks_executed) tasks += t;
  EXPECT_EQ(tasks, 20);
}

TEST(Reactive, RejectsBadInputs) {
  ReactiveConfig config;
  config.batch_size = 0;
  const lrp::LrpProblem p = lrp::LrpProblem::uniform({1.0, 1.0}, 2);
  EXPECT_THROW(run_reactive(p, config), util::InvalidArgument);
  const lrp::LrpProblem single({1.0}, {2});
  EXPECT_THROW(run_reactive(single), util::InvalidArgument);
}

TEST(Reactive, StressManyTasksManyRanks) {
  std::vector<double> loads = {3.0, 0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.5};
  const lrp::LrpProblem p = lrp::LrpProblem::uniform(std::move(loads), 64);
  const ReactiveResult r = run_reactive(p);
  std::int64_t tasks = 0;
  for (auto t : r.tasks_executed) tasks += t;
  EXPECT_EQ(tasks, p.total_tasks());
  // With zero-cost tasks the steal timing is scheduler-dependent (even the
  // heavy rank may grab one batch when it drains first), so the hard
  // guarantee is conservation plus bounded deterioration; improvement is the
  // common case but not certain on an oversubscribed host.
  EXPECT_LE(r.measured_imbalance, p.imbalance_ratio() + 0.1);
  EXPECT_GT(r.tasks_offloaded, 0);
}

}  // namespace
}  // namespace qulrb::mpirt
