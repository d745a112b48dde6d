#include <gtest/gtest.h>
#include "util/error.hpp"

#include <cstdint>
#include <vector>

#include "anneal/hybrid.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/problem.hpp"
#include "lrp/quantum_solver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/samoa.hpp"

namespace qulrb::anneal {
namespace {

using model::CqmModel;
using model::LinearExpr;
using model::Sense;
using model::State;
using model::VarId;

/// min (sum x - 3)^2 subject to sum x <= 4 over 8 variables.
CqmModel target_three() {
  CqmModel m;
  for (int i = 0; i < 8; ++i) m.add_variable();
  LinearExpr g(-3.0);
  for (VarId v = 0; v < 8; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  LinearExpr cap;
  for (VarId v = 0; v < 8; ++v) cap.add_term(v, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 4.0);
  return m;
}

HybridSolverParams fast_params() {
  HybridSolverParams p;
  p.num_restarts = 2;
  p.sweeps = 200;
  p.max_penalty_rounds = 2;
  p.seed = 9;
  return p;
}

TEST(Hybrid, SolvesToyToOptimum) {
  const CqmModel m = target_three();
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 0.0);
  EXPECT_EQ(r.stats.num_variables, 8u);
  EXPECT_EQ(r.stats.num_constraints, 1u);
}

TEST(Hybrid, StatsArepopulated) {
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(target_three());
  EXPECT_GT(r.stats.cpu_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.stats.simulated_qpu_ms, 32.0);
  EXPECT_GE(r.stats.restarts_used, 1u);
  EXPECT_GE(r.samples.size(), 1u);
}

TEST(Hybrid, PresolveInfeasibleShortCircuits) {
  CqmModel m;
  m.add_variable();
  LinearExpr lhs;
  lhs.add_term(0, 1.0);
  m.add_constraint(std::move(lhs), Sense::GE, 2.0);  // impossible
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.stats.presolve_infeasible);
  EXPECT_FALSE(r.best.feasible);
}

TEST(Hybrid, EqualityConstraintSatisfied) {
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  for (VarId v = 0; v < 6; ++v) m.add_objective_linear(v, -1.0);  // wants all on
  LinearExpr sum;
  for (VarId v = 0; v < 6; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::EQ, 2.0);  // but only 2 allowed
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, -2.0);
}

TEST(Hybrid, DeterministicForSeed) {
  const CqmModel m = target_three();
  const auto a = HybridCqmSolver(fast_params()).solve(m);
  const auto b = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_EQ(a.best.state, b.best.state);
  EXPECT_EQ(a.best.energy, b.best.energy);
}

TEST(Hybrid, InitialHintIsHonored) {
  // A flat objective with a tight equality: the hint is already optimal, so
  // the refinement restart must return (at least) a solution this good.
  CqmModel m;
  for (int i = 0; i < 10; ++i) m.add_variable();
  LinearExpr sum;
  for (VarId v = 0; v < 10; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::EQ, 5.0);
  HybridSolverParams p = fast_params();
  p.initial_hint = State{1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
  const HybridSolveResult r = HybridCqmSolver(p).solve(m);
  EXPECT_TRUE(r.best.feasible);
}

TEST(Hybrid, GreedyDescentReachesLocalMinimum) {
  CqmModel m;
  for (int i = 0; i < 5; ++i) m.add_variable();
  for (VarId v = 0; v < 5; ++v) m.add_objective_linear(v, -1.0);
  util::Rng rng(4);
  CqmIncrementalState walk(m, State(5, 0), {});
  HybridCqmSolver::greedy_descent(walk, rng);
  EXPECT_DOUBLE_EQ(walk.objective(), -5.0);  // all bits turned on
}

TEST(Hybrid, ThreadedRestartsMatchSequentialQuality) {
  const CqmModel m = target_three();
  HybridSolverParams p = fast_params();
  p.threads = 4;
  p.num_restarts = 4;
  const HybridSolveResult r = HybridCqmSolver(p).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 0.0);
}

TEST(Hybrid, ZeroVariableModel) {
  CqmModel m;
  m.add_objective_offset(5.0);
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 5.0);
}

TEST(Hybrid, RefinementSkippedWhenZerosInfeasible) {
  // All-zeros violates the GE constraint; the solver must still find the
  // optimum via penalty annealing.
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  for (VarId v = 0; v < 6; ++v) m.add_objective_linear(v, 1.0);
  LinearExpr sum;
  for (VarId v = 0; v < 6; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::GE, 2.0);
  const HybridSolveResult r = HybridCqmSolver(fast_params()).solve(m);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_DOUBLE_EQ(r.best.energy, 2.0);
}

lrp::LrpProblem skewed_problem() {
  std::vector<double> loads(10, 1.0);
  loads[0] = 12.0;
  loads[1] = 7.0;
  return lrp::LrpProblem::uniform(loads, 24);
}

// A freshly built model has not built its incidence caches yet. The threaded
// portfolio must build them once before fanning out, not from every restart
// and tempering replica at once (a data race the thread sanitizer reports).
TEST(Hybrid, FreshModelThreadedTemperingSolve) {
  const lrp::LrpCqm lrp_cqm(skewed_problem(), lrp::CqmVariant::kReduced, 12);
  HybridSolverParams p;
  p.num_restarts = 3;
  p.sweeps = 20;
  p.max_penalty_rounds = 1;
  p.threads = 4;
  p.use_tempering = true;
  p.exhaustive_max_vars = 0;
  const HybridSolveResult r = HybridCqmSolver(p).solve(lrp_cqm.cqm());
  EXPECT_EQ(r.stats.restarts_used, 3u);
  EXPECT_EQ(r.best.state.size(), lrp_cqm.cqm().num_variables());
}

TEST(Hybrid, TimeLimitedThreadedTemperingKeepsIncumbent) {
  const lrp::LrpCqm lrp_cqm(skewed_problem(), lrp::CqmVariant::kFull, 12);
  HybridSolverParams p;
  p.num_restarts = 2;
  p.sweeps = 500'000;  // far beyond the budget on purpose
  p.threads = 4;
  p.use_tempering = true;
  p.exhaustive_max_vars = 0;
  p.time_limit_ms = 50.0;
  util::WallTimer timer;
  const HybridSolveResult r = HybridCqmSolver(p).solve(lrp_cqm.cqm());
  // Budget 50 ms plus polling granularity and CI slack.
  EXPECT_LT(timer.elapsed_ms(), 2000.0);
  EXPECT_TRUE(r.stats.budget_expired);
  EXPECT_GE(r.stats.restarts_used, 1u);
  EXPECT_EQ(r.best.state.size(), lrp_cqm.cqm().num_variables());
}

// Behaviour digest of the paper's headline instance: the Table V sam(oa)^2
// case (M=32) at reduced sweeps must yield the same Q_CQM1_k1 and Q_CQM2_k2
// plans inline and on a four-worker pool.
TEST(Hybrid, TableVPlansIdenticalAtOneAndFourThreads) {
  const workloads::SamoaWorkload workload = workloads::make_samoa_workload();
  const lrp::KSelection ks = lrp::select_k(workload.problem);
  struct Case {
    lrp::CqmVariant variant;
    std::int64_t k;
  };
  for (const Case c : {Case{lrp::CqmVariant::kReduced, ks.k1},
                       Case{lrp::CqmVariant::kFull, ks.k2}}) {
    SCOPED_TRACE(c.variant == lrp::CqmVariant::kReduced ? "Q_CQM1_k1" : "Q_CQM2_k2");
    std::vector<lrp::MigrationPlan> plans;
    for (const std::size_t threads : {1u, 4u}) {
      lrp::QcqmOptions options;
      options.variant = c.variant;
      options.k = c.k;
      options.hybrid.seed = 1;
      options.hybrid.sweeps = 40;
      options.hybrid.num_restarts = 3;
      options.hybrid.threads = threads;
      plans.push_back(lrp::QcqmSolver(options).solve(workload.problem).plan);
    }
    const std::size_t m = workload.problem.num_processes();
    ASSERT_EQ(plans[0].num_processes(), m);
    ASSERT_EQ(plans[1].num_processes(), m);
    for (std::size_t to = 0; to < m; ++to) {
      for (std::size_t from = 0; from < m; ++from) {
        EXPECT_EQ(plans[0].count(to, from), plans[1].count(to, from))
            << "x(" << to << ", " << from << ")";
      }
    }
  }
}

}  // namespace
}  // namespace qulrb::anneal
