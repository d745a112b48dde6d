#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "anneal/hybrid.hpp"
#include "anneal/sa.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/problem.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace qulrb {
namespace {

// ---------------------------------------------------- token semantics -----

TEST(CancelToken, DefaultIsInert) {
  util::CancelToken token;
  EXPECT_FALSE(token.can_expire());
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.expired());
  token.cancel();  // no flag to trip; still inert
  EXPECT_FALSE(token.expired());
}

TEST(CancelToken, CancelPropagatesToCopies) {
  util::CancelToken token = util::CancelToken::cancellable();
  util::CancelToken copy = token;
  EXPECT_FALSE(copy.expired());
  token.cancel();
  EXPECT_TRUE(copy.cancel_requested());
  EXPECT_TRUE(copy.expired());
}

TEST(CancelToken, DeadlineExpires) {
  const util::CancelToken token = util::CancelToken{}.with_deadline_ms(20.0);
  EXPECT_TRUE(token.can_expire());
  EXPECT_FALSE(token.cancel_requested());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(token.expired());
  EXPECT_LE(token.remaining_ms(), 0.0);
}

TEST(CancelToken, RemainingMsDecreases) {
  const util::CancelToken token = util::CancelToken{}.with_deadline_ms(5000.0);
  const double first = token.remaining_ms();
  EXPECT_GT(first, 0.0);
  EXPECT_LE(first, 5000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LT(token.remaining_ms(), first);
}

// ---------------------------------------------------- sampler polling -----

TEST(Cancel, PreCancelledSaReturnsImmediately) {
  model::QuboModel qubo(64);
  for (model::VarId v = 0; v < 64; ++v) qubo.add_linear(v, -1.0);
  anneal::SaParams params;
  params.sweeps = 2'000'000;  // would run for minutes if the poll were dead
  params.num_reads = 4;
  params.sinks.cancel = util::CancelToken::cancellable();
  params.sinks.cancel.cancel();
  util::WallTimer timer;
  const anneal::SampleSet samples = anneal::SimulatedAnnealer(params).sample(qubo);
  EXPECT_LT(timer.elapsed_ms(), 2000.0);
  EXPECT_FALSE(samples.empty());  // the incumbent survives cancellation
}

// ------------------------------------------- hybrid deadline regression -----

lrp::LrpProblem big_problem() {
  std::vector<double> loads(12, 1.0);
  loads[0] = 20.0;
  loads[1] = 14.0;
  return lrp::LrpProblem::uniform(loads, 64);
}

// Satellite regression: a tiny time_limit_ms makes the solve return within a
// bounded wall-clock while still reporting a usable incumbent.
TEST(Cancel, HybridTimeLimitBoundsWallClock) {
  const lrp::LrpCqm lrp_cqm(big_problem(), lrp::CqmVariant::kReduced, 64);
  anneal::HybridSolverParams params;
  params.num_restarts = 8;
  params.sweeps = 500'000;  // far beyond the budget on purpose
  params.seed = 3;
  params.time_limit_ms = 50.0;
  util::WallTimer timer;
  const anneal::HybridSolveResult result =
      anneal::HybridCqmSolver(params).solve(lrp_cqm.cqm());
  // Generous bound: budget 50 ms plus polling granularity and CI slack.
  EXPECT_LT(timer.elapsed_ms(), 2000.0);
  EXPECT_TRUE(result.stats.budget_expired);
  ASSERT_EQ(result.best.state.size(), lrp_cqm.cqm().num_variables());
}

TEST(Cancel, HybridStopsWhenTokenTrippedMidSolve) {
  const lrp::LrpCqm lrp_cqm(big_problem(), lrp::CqmVariant::kReduced, 64);
  anneal::HybridSolverParams params;
  params.num_restarts = 8;
  params.sweeps = 500'000;
  params.seed = 3;
  params.cancel = util::CancelToken::cancellable();

  util::CancelToken trigger = params.cancel;
  std::thread canceller([trigger]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    trigger.cancel();
  });
  util::WallTimer timer;
  const anneal::HybridSolveResult result =
      anneal::HybridCqmSolver(params).solve(lrp_cqm.cqm());
  canceller.join();
  EXPECT_LT(timer.elapsed_ms(), 2000.0);
  EXPECT_TRUE(result.stats.budget_expired);
  ASSERT_EQ(result.best.state.size(), lrp_cqm.cqm().num_variables());
}

TEST(Cancel, InertTokenPreservesDeterminism) {
  const lrp::LrpProblem problem = lrp::LrpProblem::uniform({6.0, 1.0, 1.0, 1.0}, 8);
  const lrp::LrpCqm lrp_cqm(problem, lrp::CqmVariant::kReduced, 8);
  anneal::HybridSolverParams params;
  params.num_restarts = 2;
  params.sweeps = 300;
  params.seed = 11;
  params.exhaustive_max_vars = 0;  // force the sampling path
  const auto a = anneal::HybridCqmSolver(params).solve(lrp_cqm.cqm());
  params.cancel = util::CancelToken::cancellable();  // live but never tripped
  const auto b = anneal::HybridCqmSolver(params).solve(lrp_cqm.cqm());
  EXPECT_EQ(a.best.state, b.best.state);
  EXPECT_DOUBLE_EQ(a.best.energy, b.best.energy);
}

}  // namespace
}  // namespace qulrb
