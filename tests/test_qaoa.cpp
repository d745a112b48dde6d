#include <gtest/gtest.h>

#include <limits>

#include "lrp/gate_solver.hpp"
#include "lrp/kselect.hpp"
#include "quantum/qaoa.hpp"
#include "util/error.hpp"
#include "util/nelder_mead.hpp"
#include "util/rng.hpp"

namespace qulrb {
namespace {

// ------------------------------------------------------- nelder-mead -------

TEST(NelderMead, MinimizesQuadraticBowl) {
  const auto f = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto result = util::nelder_mead(f, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], -2.0, 1e-3);
  EXPECT_NEAR(result.value, 0.0, 1e-6);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const auto f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  util::NelderMeadParams params;
  params.max_evaluations = 5000;
  params.tolerance = 1e-12;
  const auto result = util::nelder_mead(f, {-1.2, 1.0}, params);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], 1.0, 2e-2);
}

TEST(NelderMead, OneDimensional) {
  const auto f = [](const std::vector<double>& x) { return std::abs(x[0] - 3.0); };
  const auto result = util::nelder_mead(f, {0.0});
  EXPECT_NEAR(result.x[0], 3.0, 1e-3);
}

TEST(NelderMead, RespectsEvaluationBudget) {
  std::size_t calls = 0;
  const auto f = [&calls](const std::vector<double>& x) {
    ++calls;
    return x[0] * x[0];
  };
  util::NelderMeadParams params;
  params.max_evaluations = 25;
  const auto result = util::nelder_mead(f, {10.0}, params);
  EXPECT_LE(calls, 30u);  // budget plus the in-flight shrink pass
  EXPECT_EQ(result.evaluations, calls);
}

TEST(NelderMead, EmptyStartRejected) {
  EXPECT_THROW(util::nelder_mead([](const std::vector<double>&) { return 0.0; }, {}),
               util::InvalidArgument);
}

// --------------------------------------------------------------- qaoa ------

model::QuboModel tiny_qubo() {
  // min -2 x0 - x1 + 3 x0 x1: optimum is x0=1, x1=0 with energy -2.
  model::QuboModel q(2);
  q.add_linear(0, -2.0);
  q.add_linear(1, -1.0);
  q.add_quadratic(0, 1, 3.0);
  return q;
}

TEST(Qaoa, SolvesTinyQubo) {
  quantum::QaoaParams params;
  params.layers = 2;
  params.seed = 3;
  const auto result = quantum::QaoaSolver(params).solve_qubo(tiny_qubo());
  EXPECT_DOUBLE_EQ(result.best.energy, -2.0);
  EXPECT_EQ(result.best.state, (model::State{1, 0}));
  EXPECT_EQ(result.gammas.size(), 2u);
  EXPECT_EQ(result.betas.size(), 2u);
  EXPECT_GT(result.circuit_evaluations, 0u);
}

TEST(Qaoa, ExpectationAtZeroAnglesIsUniformMean) {
  // gamma = beta = 0 leaves |+>^n untouched: <C> = mean energy.
  const model::QuboModel q = tiny_qubo();
  const double expectation = quantum::QaoaSolver::expectation(q, {0.0}, {0.0});
  // Energies: 0, -2, -1, 0 -> mean -0.75.
  EXPECT_NEAR(expectation, -0.75, 1e-12);
}

TEST(Qaoa, OptimizedExpectationBeatsUniform) {
  const model::QuboModel q = tiny_qubo();
  quantum::QaoaParams params;
  params.layers = 2;
  params.seed = 5;
  const auto result = quantum::QaoaSolver(params).solve_qubo(q);
  EXPECT_LT(result.expectation, -0.75);  // better than the unoptimized start
}

TEST(Qaoa, MoreLayersDoNotHurt) {
  const model::QuboModel q = tiny_qubo();
  quantum::QaoaParams one;
  one.layers = 1;
  one.seed = 9;
  quantum::QaoaParams three;
  three.layers = 3;
  three.seed = 9;
  three.optimizer_evals = 600;
  const auto r1 = quantum::QaoaSolver(one).solve_qubo(q);
  const auto r3 = quantum::QaoaSolver(three).solve_qubo(q);
  EXPECT_LE(r3.expectation, r1.expectation + 0.1);
}

TEST(Qaoa, SolvesRandomFiveVariableInstances) {
  util::Rng rng(31);
  for (int trial = 0; trial < 3; ++trial) {
    model::QuboModel q(5);
    for (model::VarId v = 0; v < 5; ++v) q.add_linear(v, rng.next_normal());
    for (model::VarId i = 0; i < 5; ++i) {
      for (model::VarId j = i + 1; j < 5; ++j) {
        if (rng.next_bool(0.5)) q.add_quadratic(i, j, rng.next_normal());
      }
    }
    double brute = std::numeric_limits<double>::infinity();
    for (unsigned bits = 0; bits < 32; ++bits) {
      model::State s(5);
      for (std::size_t b = 0; b < 5; ++b) s[b] = (bits >> b) & 1u;
      brute = std::min(brute, q.energy(s));
    }
    quantum::QaoaParams params;
    params.layers = 3;
    params.seed = static_cast<std::uint64_t>(trial) + 1;
    params.samples = 512;
    params.optimizer_evals = 600;
    const auto result = quantum::QaoaSolver(params).solve_qubo(q);
    // Sampling the optimized distribution must find the true optimum on
    // these tiny instances.
    EXPECT_NEAR(result.best.energy, brute, 1e-9) << "trial " << trial;
  }
}

TEST(Qaoa, RejectsOversizedInstances) {
  model::QuboModel q(21);
  quantum::QaoaParams params;
  EXPECT_THROW(quantum::QaoaSolver(params).solve_qubo(q), util::InvalidArgument);
}

TEST(Qaoa, DeterministicForSeed) {
  const model::QuboModel q = tiny_qubo();
  quantum::QaoaParams params;
  params.seed = 77;
  const auto a = quantum::QaoaSolver(params).solve_qubo(q);
  const auto b = quantum::QaoaSolver(params).solve_qubo(q);
  EXPECT_EQ(a.best.state, b.best.state);
  EXPECT_DOUBLE_EQ(a.expectation, b.expectation);
}

// -------------------------------------------------------- gate solver ------

TEST(GateSolver, SolvesTinyLrp) {
  // M = 2, n = 4: Q_CQM1 has 2 * (floor(log2 4) + 1) = ... (M-1) pairs * 3
  // bits = 6 qubits with the reduced variant — easily simulable.
  const lrp::LrpProblem problem = lrp::LrpProblem::uniform({3.0, 1.0}, 4);
  const lrp::KSelection k = lrp::select_k(problem);
  ASSERT_GT(k.k1, 0);

  lrp::GateSolverOptions options;
  options.variant = lrp::CqmVariant::kReduced;
  options.k = k.k1;
  options.qaoa.layers = 3;
  options.qaoa.seed = 4;
  options.qaoa.samples = 1024;
  options.qaoa.optimizer_evals = 900;
  lrp::GateQaoaSolver solver(options);
  const lrp::SolverReport report = lrp::run_and_evaluate(solver, problem);
  EXPECT_LE(report.metrics.total_migrated, k.k1);
  EXPECT_LT(report.metrics.imbalance_after, problem.imbalance_ratio());
  const auto& diag = solver.last_diagnostics();
  ASSERT_TRUE(diag.has_value());
  EXPECT_LE(diag->num_qubits, 20u);
  EXPECT_GT(diag->circuit_evaluations, 0u);
}

TEST(GateSolver, UnbalancedPenaltyAddsNoAncillas) {
  const lrp::LrpProblem problem = lrp::LrpProblem::uniform({2.0, 1.0}, 4);
  lrp::GateSolverOptions options;
  options.k = 2;
  options.qaoa.layers = 1;
  options.qaoa.optimizer_evals = 50;
  lrp::GateQaoaSolver solver(options);
  (void)solver.solve(problem);
  const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced, 2);
  EXPECT_EQ(solver.last_diagnostics()->num_qubits, cqm.num_binary_variables());
}

TEST(GateSolver, PlanAlwaysValid) {
  const lrp::LrpProblem problem = lrp::LrpProblem::uniform({2.5, 1.5}, 4);
  lrp::GateSolverOptions options;
  options.k = 3;
  options.qaoa.layers = 1;
  options.qaoa.optimizer_evals = 40;
  options.qaoa.samples = 16;
  lrp::GateQaoaSolver solver(options);
  const lrp::SolveOutput out = solver.solve(problem);
  EXPECT_NO_THROW(out.plan.validate(problem));
}

// --------------------------------------------------------- noisy QAOA ------

TEST(QaoaNoise, NoiseDegradesButStillSolvesTinyInstance) {
  model::QuboModel q(2);
  q.add_linear(0, -2.0);
  q.add_linear(1, -1.0);
  q.add_quadratic(0, 1, 3.0);

  quantum::QaoaParams ideal;
  ideal.layers = 2;
  ideal.seed = 3;
  quantum::QaoaParams noisy = ideal;
  noisy.depolarizing_prob = 0.05;
  noisy.noise_trajectories = 4;

  const auto clean = quantum::QaoaSolver(ideal).solve_qubo(q);
  const auto degraded = quantum::QaoaSolver(noisy).solve_qubo(q);
  // Sampling still finds the optimum at 2 qubits; the optimized expectation
  // is (weakly) worse under noise.
  EXPECT_DOUBLE_EQ(degraded.best.energy, -2.0);
  EXPECT_GE(degraded.expectation, clean.expectation - 1e-9);
}

TEST(QaoaNoise, HeavyNoiseFlattensTheDistribution) {
  model::QuboModel q(3);
  for (model::VarId v = 0; v < 3; ++v) q.add_linear(v, -1.0);
  quantum::QaoaParams params;
  params.layers = 2;
  params.seed = 7;
  params.depolarizing_prob = 0.5;  // near-depolarized circuit
  params.noise_trajectories = 4;
  const auto result = quantum::QaoaSolver(params).solve_qubo(q);
  // Expectation approaches the uniform mean (-1.5) rather than the optimum (-3).
  EXPECT_GT(result.expectation, -2.8);
}

}  // namespace
}  // namespace qulrb
