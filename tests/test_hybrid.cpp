#include <gtest/gtest.h>
#include "util/error.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "anneal/hybrid.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/problem.hpp"
#include "lrp/quantum_solver.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
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

// Every equality below is bitwise: doubles are compared with EXPECT_EQ (IEEE
// equality on identical bit patterns), never near().
void expect_sample_eq(const Sample& a, const Sample& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.feasible, b.feasible);
}

// Small LRP instance with skewed loads and a tight migration bound, so the
// sampling portfolio has real constraints to satisfy.
CqmModel skewed_lrp_cqm() {
  const lrp::LrpProblem problem({30.0, 9.0, 8.0, 4.0, 3.0, 2.0},
                                {12, 12, 12, 12, 12, 12});
  return lrp::build_lrp_cqm(problem, lrp::CqmVariant::kReduced, 8, {}).cqm();
}

HybridSolverParams lrp_portfolio_params() {
  HybridSolverParams params;
  params.num_restarts = 4;
  params.sweeps = 60;
  params.seed = 42;
  params.threads = 1;
  params.exhaustive_max_vars = 0;  // force the sampling portfolio
  return params;
}

// The scheduling contract: the portfolio produces the same bytes whether it
// runs inline or on a shared pool of any size, with tracing on or off.
TEST(Hybrid, OutputInvariantAcrossThreads) {
  const model::CqmModel cqm = skewed_lrp_cqm();
  const auto serial = HybridCqmSolver(lrp_portfolio_params()).solve(cqm);
  EXPECT_EQ(serial.stats.replica_lanes, 1u);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (traced ? " traced" : " untraced"));
      obs::Recorder recorder("solve");
      auto params = lrp_portfolio_params();
      params.threads = threads;
      params.recorder = traced ? &recorder : nullptr;
      const auto got = HybridCqmSolver(params).solve(cqm);
      expect_sample_eq(got.best, serial.best);
      EXPECT_EQ(got.stats.restarts_used, serial.stats.restarts_used);
      EXPECT_EQ(got.stats.penalty_rounds_used, serial.stats.penalty_rounds_used);
      EXPECT_EQ(got.stats.winner_restart, serial.stats.winner_restart);
      ASSERT_EQ(got.samples.size(), serial.samples.size());
      for (std::size_t i = 0; i < got.samples.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        expect_sample_eq(got.samples.at(i), serial.samples.at(i));
      }
    }
  }
}

TEST(Hybrid, CountsSweeps) {
  const CqmModel cqm = skewed_lrp_cqm();
  obs::MetricsRegistry reg;
  auto params = lrp_portfolio_params();
  params.metrics = &reg;
  const auto result = HybridCqmSolver(params).solve(cqm);
  EXPECT_TRUE(result.best.feasible);
  EXPECT_EQ(result.stats.replica_lanes, 1u);
  // Every annealed restart runs at least `sweeps` sweeps; the tempered
  // restart adds its ladder rounds on top.
  EXPECT_GE(reg.counter("qulrb_solver_sweeps_total").value(),
            (params.num_restarts - 1) * params.sweeps);
}

// A single restart on Q_CQM1, whose no-migration point is feasible, is the
// refinement member, and it is the winner the solve reports.
TEST(Hybrid, OneRestartQcqm1ReportsRefineWinner) {
  const CqmModel cqm = skewed_lrp_cqm();
  obs::Recorder recorder("solve");
  auto params = lrp_portfolio_params();
  params.num_restarts = 1;
  params.recorder = &recorder;
  const auto result = HybridCqmSolver(params).solve(cqm);
  EXPECT_EQ(result.stats.winner_restart, 0u);
  EXPECT_EQ(result.stats.winner_kind, RestartKind::kRefine);
  EXPECT_STREQ(to_string(result.stats.winner_kind), "refine");

  bool annotated = false;
  for (const auto& [key, value] : recorder.annotations()) {
    if (key == "winner_kind") annotated = value == "refine";
  }
  EXPECT_TRUE(annotated);
  bool labelled = false;
  for (const auto& [track, label] : recorder.track_names()) {
    labelled = labelled || label == "restart 0 (refine) (winner)";
  }
  EXPECT_TRUE(labelled);
}

// The reported winner is the restart whose sample was returned: no other
// restart beats it, and its kind follows its position in the portfolio.
TEST(Hybrid, WinnerIsTheReturnedRestart) {
  const CqmModel cqm = skewed_lrp_cqm();
  const auto params = lrp_portfolio_params();
  const auto result = HybridCqmSolver(params).solve(cqm);
  ASSERT_EQ(result.samples.size(), params.num_restarts);
  const std::size_t w = result.stats.winner_restart;
  ASSERT_LT(w, params.num_restarts);
  expect_sample_eq(result.samples.at(w), result.best);
  for (std::size_t r = 0; r < result.samples.size(); ++r) {
    EXPECT_FALSE(result.samples.at(r).better_than(result.best));
  }
  const RestartKind expected = w == 0 ? RestartKind::kRefine
                               : w + 1 == params.num_restarts ? RestartKind::kTempered
                                                              : RestartKind::kAnneal;
  EXPECT_EQ(result.stats.winner_kind, expected);
}

TEST(Hybrid, SolveEventSerializesReplicasFieldWhenKnown) {
  obs::SolveEvent event;
  event.source = "test";
  EXPECT_EQ(obs::to_json_line(event).find("replicas"), std::string::npos);
  event.replicas = 8;
  EXPECT_NE(obs::to_json_line(event).find("\"replicas\":8"), std::string::npos);
}

}  // namespace
}  // namespace qulrb::anneal
