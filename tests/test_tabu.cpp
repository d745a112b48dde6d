#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "anneal/sa.hpp"
#include "anneal/tabu.hpp"
#include "model/cqm_to_qubo.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/quantum_solver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {
namespace {

using model::QuboModel;
using model::State;
using model::VarId;

double brute_min(const QuboModel& q) {
  double best = std::numeric_limits<double>::infinity();
  for (unsigned bits = 0; bits < (1u << q.num_variables()); ++bits) {
    State s(q.num_variables());
    for (std::size_t i = 0; i < q.num_variables(); ++i) s[i] = (bits >> i) & 1u;
    best = std::min(best, q.energy(s));
  }
  return best;
}

TEST(Tabu, SolvesTrivialLinearModel) {
  QuboModel q(6);
  for (VarId v = 0; v < 6; ++v) q.add_linear(v, v % 2 == 0 ? 1.0 : -1.0);
  const auto best = TabuSampler(TabuParams{}).sample(q).best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->energy, -3.0);
}

TEST(Tabu, ReachesBruteForceOptimumOnRandomInstances) {
  util::Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    QuboModel q(12);
    for (VarId i = 0; i < 12; ++i) q.add_linear(i, rng.next_normal());
    for (VarId i = 0; i < 12; ++i) {
      for (VarId j = i + 1; j < 12; ++j) {
        if (rng.next_bool(0.4)) q.add_quadratic(i, j, rng.next_normal());
      }
    }
    TabuParams params;
    params.seed = static_cast<std::uint64_t>(trial) + 1;
    params.max_iterations = 4000;
    const auto best = TabuSampler(params).sample(q).best();
    ASSERT_TRUE(best.has_value());
    EXPECT_NEAR(best->energy, brute_min(q), 1e-9) << "trial " << trial;
  }
}

TEST(Tabu, ReportedEnergyMatchesState) {
  util::Rng rng(9);
  QuboModel q(10);
  for (VarId i = 0; i < 10; ++i) q.add_linear(i, rng.next_normal());
  for (VarId i = 0; i < 10; ++i) {
    for (VarId j = i + 1; j < 10; ++j) {
      if (rng.next_bool(0.5)) q.add_quadratic(i, j, rng.next_normal());
    }
  }
  const auto set = TabuSampler(TabuParams{}).sample(q);
  for (std::size_t s = 0; s < set.size(); ++s) {
    EXPECT_NEAR(q.energy(set.at(s).state), set.at(s).energy, 1e-9);
  }
}

TEST(Tabu, EscapesLocalMinimumSaCanMissAtZeroTemperature) {
  // A two-well landscape: pure descent from the wrong side stalls, tabu's
  // memory forces it across the barrier.
  QuboModel q(4);
  // E = (x0+x1+x2+x3 - 3)^2 - 2 x3: optimum 1110 with x3 on.
  model::LinearExpr g(-3.0);
  for (VarId v = 0; v < 4; ++v) g.add_term(v, 1.0);
  g.normalize();
  q.add_squared_expr(g, 1.0);
  q.add_linear(3, -2.0);
  TabuParams params;
  params.seed = 3;
  const auto best = TabuSampler(params).sample(q).best();
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->energy, brute_min(q), 1e-9);
}

TEST(Tabu, DeterministicForSeed) {
  QuboModel q(8);
  util::Rng rng(3);
  for (VarId v = 0; v < 8; ++v) q.add_linear(v, rng.next_normal());
  TabuParams params;
  params.seed = 42;
  const auto a = TabuSampler(params).sample(q).best();
  const auto b = TabuSampler(params).sample(q).best();
  EXPECT_EQ(a->state, b->state);
  EXPECT_EQ(a->energy, b->energy);
}

TEST(Tabu, RespectsInitialState) {
  QuboModel q(4);  // flat landscape
  util::Rng rng(1);
  TabuParams params;
  params.max_iterations = 10;
  const State init{1, 0, 1, 0};
  const Sample s = TabuSampler(params).search_once(q, rng, init);
  EXPECT_DOUBLE_EQ(s.energy, 0.0);
}

TEST(Tabu, ZeroVariableModel) {
  QuboModel q(0);
  q.add_offset(2.0);
  const auto best = TabuSampler(TabuParams{}).sample(q).best();
  EXPECT_DOUBLE_EQ(best->energy, 2.0);
}

TEST(Tabu, DecodesToValidPlanOnLrpQubo) {
  // On the LRP penalty QUBO (rugged landscape with huge penalty deltas) the
  // deterministic tabu walk is not guaranteed to beat SA, but it must land
  // at a state whose decode survives repair into a valid plan and whose
  // energy is far below a random assignment's.
  const lrp::LrpProblem problem = lrp::LrpProblem::uniform({3.0, 1.5, 1.0}, 8);
  const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced, 10);
  model::PenaltyOptions penalty;
  penalty.inequality = model::InequalityMethod::kUnbalanced;  // no slack bits
  const auto conv = model::cqm_to_qubo(cqm.cqm(), penalty);

  TabuParams params;
  params.seed = 7;
  params.max_iterations = 8000;
  const auto best = TabuSampler(params).sample(conv.qubo).best();
  ASSERT_TRUE(best.has_value());

  // Random-assignment yardstick.
  util::Rng rng(11);
  double random_mean = 0.0;
  for (int trial = 0; trial < 32; ++trial) {
    State s(conv.qubo.num_variables());
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
    random_mean += conv.qubo.energy(s);
  }
  random_mean /= 32.0;
  EXPECT_LT(best->energy, random_mean * 0.5);

  lrp::MigrationPlan plan = cqm.decode(conv.project(best->state));
  lrp::repair_plan(problem, plan);
  EXPECT_NO_THROW(plan.validate(problem));
}

// Tabu candidate scan vs a plain reference loop over admissibility
// (not tabu, or aspirating) with the strict-less, lowest-index tie rule.
TEST(Tabu, ArgminMatchesReferenceScan) {
  util::Rng gen(23);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + gen.next_below(70);
    std::vector<double> deltas(n);
    std::vector<std::size_t> tabu_until(n);
    const std::size_t iteration = gen.next_below(50);
    // Quantized deltas force exact ties; generous tabu spans force both the
    // all-tabu and the aspiration branches across trials.
    for (std::size_t v = 0; v < n; ++v) {
      deltas[v] = static_cast<double>(gen.next_in(-4, 4));
      tabu_until[v] = gen.next_below(60);
    }
    const double energy = static_cast<double>(gen.next_in(-10, 10));
    const double best_energy = static_cast<double>(gen.next_in(-10, 10));

    std::size_t expected = n;
    double best_delta = 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      const bool tabu = tabu_until[v] >= iteration;
      const bool aspirates = energy + deltas[v] < best_energy - 1e-12;
      if (tabu && !aspirates) continue;
      if (expected == n || deltas[v] < best_delta) {
        expected = v;
        best_delta = deltas[v];
      }
    }

    EXPECT_EQ(tabu_argmin(deltas, tabu_until, iteration, energy, best_energy),
              expected);
  }
}

}  // namespace
}  // namespace qulrb::anneal
