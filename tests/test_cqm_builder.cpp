#include <gtest/gtest.h>

#include "lrp/cqm_builder.hpp"
#include "lrp/encoding.hpp"
#include "util/error.hpp"

namespace qulrb::lrp {
namespace {

const LrpProblem kSmall = LrpProblem::uniform({2.0, 1.0, 1.0}, 4);

/// Encode a full migration plan into a CQM state.
model::State encode_plan(const LrpCqm& cqm, const MigrationPlan& plan) {
  model::State state(cqm.num_binary_variables(), 0);
  const std::size_t m = cqm.num_processes();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (cqm.variant() == CqmVariant::kReduced && i == j) continue;
      const auto bits = encode_count(plan.count(i, j), cqm.coefficients(j));
      for (std::size_t l = 0; l < bits.size(); ++l) {
        if (bits[l]) state[cqm.var(i, j, l)] = 1;
      }
    }
  }
  return state;
}

TEST(CqmBuilder, VariableCounts) {
  // M = 3, n = 4 -> bits = 3. Full: 9 * 3 = 27. Reduced drops the diagonal:
  // 6 * 3 = 18 (the paper's (M-1)^2 formula is reported by predicted_qubits).
  const LrpCqm full(kSmall, CqmVariant::kFull, 4);
  const LrpCqm reduced(kSmall, CqmVariant::kReduced, 4);
  EXPECT_EQ(full.num_binary_variables(), 27u);
  EXPECT_EQ(reduced.num_binary_variables(), 18u);
}

TEST(CqmBuilder, PredictedQubitsMatchTableOneFormulas) {
  // Table I: Q_CQM1 -> (M-1)^2 (floor(log2 n)+1); Q_CQM2 -> M^2 (...).
  EXPECT_EQ(LrpCqm::predicted_qubits(CqmVariant::kFull, 8, 50), 64u * 6u);
  EXPECT_EQ(LrpCqm::predicted_qubits(CqmVariant::kReduced, 8, 50), 49u * 6u);
  EXPECT_EQ(LrpCqm::predicted_qubits(CqmVariant::kReduced, 32, 208), 961u * 8u);
}

TEST(CqmBuilder, ConstraintStructureFull) {
  // Q_CQM2: M equality (conservation) + M capacity + 1 migration bound.
  const LrpCqm full(kSmall, CqmVariant::kFull, 4);
  EXPECT_EQ(full.cqm().num_constraints(), 7u);
  EXPECT_EQ(full.cqm().num_equality_constraints(), 3u);
  EXPECT_EQ(full.cqm().num_inequality_constraints(), 4u);
}

TEST(CqmBuilder, ConstraintStructureReduced) {
  // Q_CQM1: same count, all inequalities (as the paper notes).
  const LrpCqm reduced(kSmall, CqmVariant::kReduced, 4);
  EXPECT_EQ(reduced.cqm().num_constraints(), 7u);
  EXPECT_EQ(reduced.cqm().num_equality_constraints(), 0u);
  EXPECT_EQ(reduced.cqm().num_inequality_constraints(), 7u);
}

TEST(CqmBuilder, ObjectiveHasOneGroupPerProcess) {
  const LrpCqm cqm(kSmall, CqmVariant::kFull, 4);
  EXPECT_EQ(cqm.cqm().squared_groups().size(), 3u);
}

TEST(CqmBuilder, IdentityPlanFeasibleInReducedOnly) {
  // All-zeros state: in Q_CQM1 that decodes to the identity plan and is
  // feasible; in Q_CQM2 it violates conservation (no task is placed).
  const LrpCqm reduced(kSmall, CqmVariant::kReduced, 4);
  const LrpCqm full(kSmall, CqmVariant::kFull, 4);
  const model::State zeros_r(reduced.num_binary_variables(), 0);
  const model::State zeros_f(full.num_binary_variables(), 0);
  EXPECT_TRUE(reduced.cqm().is_feasible(zeros_r));
  EXPECT_FALSE(full.cqm().is_feasible(zeros_f));
}

TEST(CqmBuilder, DecodeZerosIsIdentityInReduced) {
  const LrpCqm reduced(kSmall, CqmVariant::kReduced, 4);
  const MigrationPlan plan = reduced.decode(model::State(reduced.num_binary_variables(), 0));
  EXPECT_NO_THROW(plan.validate(kSmall));
  EXPECT_EQ(plan.total_migrated(), 0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(plan.count(i, i), 4);
}

TEST(CqmBuilder, EncodedValidPlanIsFeasibleBothVariants) {
  // A balanced plan: move 1 task from the heavy P0 to P1 and 1 to P2.
  MigrationPlan plan = MigrationPlan::identity(kSmall);
  plan.add_count(0, 0, -2);
  plan.add_count(1, 0, 1);
  plan.add_count(2, 0, 1);
  plan.validate(kSmall);
  for (auto variant : {CqmVariant::kReduced, CqmVariant::kFull}) {
    const LrpCqm cqm(kSmall, variant, /*k=*/2);
    const model::State state = encode_plan(cqm, plan);
    EXPECT_TRUE(cqm.cqm().is_feasible(state)) << to_string(variant);
    const MigrationPlan decoded = cqm.decode(state);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(decoded.count(i, j), plan.count(i, j))
            << to_string(variant) << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CqmBuilder, MigrationBoundViolatedWhenPlanExceedsK) {
  MigrationPlan plan = MigrationPlan::identity(kSmall);
  plan.add_count(0, 0, -2);
  plan.add_count(1, 0, 1);
  plan.add_count(2, 0, 1);
  for (auto variant : {CqmVariant::kReduced, CqmVariant::kFull}) {
    const LrpCqm cqm(kSmall, variant, /*k=*/1);  // plan migrates 2 > 1
    const model::State state = encode_plan(cqm, plan);
    EXPECT_FALSE(cqm.cqm().is_feasible(state)) << to_string(variant);
  }
}

TEST(CqmBuilder, ObjectiveValueMatchesLoadVariance) {
  // Objective = sum_i (L'_i - L_avg)^2 for the decoded plan.
  MigrationPlan plan = MigrationPlan::identity(kSmall);
  plan.add_count(0, 0, -1);
  plan.add_count(1, 0, 1);
  plan.validate(kSmall);
  for (auto variant : {CqmVariant::kReduced, CqmVariant::kFull}) {
    const LrpCqm cqm(kSmall, variant, 4);
    const model::State state = encode_plan(cqm, plan);
    const auto loads = plan.new_loads(kSmall);
    const double avg = kSmall.average_load();
    double expected = 0.0;
    for (double l : loads) expected += (l - avg) * (l - avg);
    EXPECT_NEAR(cqm.cqm().objective_value(state), expected, 1e-9)
        << to_string(variant);
  }
}

TEST(CqmBuilder, CapacityConstraintBindsAtBaselineMax) {
  // A plan that pushes any process above L_max(baseline) must be infeasible.
  MigrationPlan plan = MigrationPlan::identity(kSmall);
  // Move 2 tasks of load 1.0 from P1 onto P0 (already the heaviest: 8.0 -> 10).
  plan.add_count(1, 1, -2);
  plan.add_count(0, 1, 2);
  plan.validate(kSmall);
  const LrpCqm cqm(kSmall, CqmVariant::kFull, 10);
  const model::State state = encode_plan(cqm, plan);
  EXPECT_FALSE(cqm.cqm().is_feasible(state));
}

TEST(CqmBuilder, DecodeInfersReducedDiagonal) {
  const LrpCqm cqm(kSmall, CqmVariant::kReduced, 4);
  model::State state(cqm.num_binary_variables(), 0);
  // Migrate 1 task (coefficient bit 0 == 1) from P0 to P1.
  state[cqm.var(1, 0, 0)] = 1;
  const MigrationPlan plan = cqm.decode(state);
  EXPECT_EQ(plan.count(1, 0), 1);
  EXPECT_EQ(plan.count(0, 0), 3);  // inferred: 4 - 1
  EXPECT_NO_THROW(plan.validate(kSmall));
}

TEST(CqmBuilder, ReducedDiagonalVarAccessThrows) {
  const LrpCqm cqm(kSmall, CqmVariant::kReduced, 4);
  EXPECT_THROW(cqm.var(1, 1, 0), util::InvalidArgument);
  EXPECT_NO_THROW(cqm.var(0, 1, 0));
}

TEST(CqmBuilder, SupportsUnequalTaskCounts) {
  // Extension over the paper: each source column gets its own coefficient
  // set built from its n_j, so post-migration (unequal) states stay exact.
  const LrpProblem unequal({1.0, 2.0}, {3, 5});
  const LrpCqm cqm(unequal, CqmVariant::kFull, 2);
  EXPECT_EQ(cqm.coefficients(0).size(), bits_per_count(3));
  EXPECT_EQ(cqm.coefficients(1).size(), bits_per_count(5));
  // All-bits-set per column decodes to exactly n_j in that column.
  model::State state(cqm.num_binary_variables(), 1);
  const MigrationPlan plan = cqm.decode(state);
  std::int64_t col0 = 0, col1 = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    col0 += plan.count(i, 0);
    col1 += plan.count(i, 1);
  }
  EXPECT_EQ(col0, 2 * 3);  // both rows saturated: 2 * n_0
  EXPECT_EQ(col1, 2 * 5);
}

TEST(CqmBuilder, ZeroTaskSourceGetsNoVariables) {
  const LrpProblem lopsided({4.0, 1.0}, {6, 0});
  const LrpCqm cqm(lopsided, CqmVariant::kReduced, 3);
  // Only column 0 has bits; column 1 contributes nothing.
  EXPECT_EQ(cqm.num_binary_variables(), bits_per_count(6));
  EXPECT_TRUE(cqm.coefficients(1).empty());
  const MigrationPlan plan = cqm.decode(model::State(cqm.num_binary_variables(), 0));
  EXPECT_NO_THROW(plan.validate(lopsided));
}

TEST(CqmBuilder, RejectsNegativeK) {
  EXPECT_THROW(LrpCqm(kSmall, CqmVariant::kFull, -1), util::InvalidArgument);
}

TEST(CqmBuilder, StandardBinaryEncodingOption) {
  CqmBuildOptions options;
  options.use_paper_coefficient_set = false;
  const LrpCqm cqm(kSmall, CqmVariant::kFull, 4, options);
  // n = 4 -> standard set {1,2,1} (clamped) has 3 coefficients, same as paper.
  EXPECT_EQ(cqm.coefficients(0).size(), 3u);
  const MigrationPlan plan = cqm.decode(model::State(cqm.num_binary_variables(), 0));
  EXPECT_EQ(plan.total_migrated(), 0);
}

// var(to, from, bit) addresses the variables in (to, from, bit) order with
// no gaps.
TEST(CqmBuilder, VarAddressesUnnamedVariablesInOrder) {
  const LrpCqm cqm(kSmall, CqmVariant::kFull, 4);
  model::VarId expected = 0;
  for (std::size_t to = 0; to < cqm.num_processes(); ++to) {
    for (std::size_t from = 0; from < cqm.num_processes(); ++from) {
      for (std::size_t bit = 0; bit < cqm.bits_for_source(from); ++bit) {
        EXPECT_EQ(cqm.var(to, from, bit), expected);
        ++expected;
      }
    }
  }
  EXPECT_EQ(expected, cqm.num_binary_variables());
}

TEST(CqmBuilder, KZeroForcesIdentity) {
  const LrpCqm cqm(kSmall, CqmVariant::kReduced, 0);
  // Any single migration bit violates the k = 0 bound.
  model::State state(cqm.num_binary_variables(), 0);
  state[cqm.var(1, 0, 0)] = 1;
  EXPECT_FALSE(cqm.cqm().is_feasible(state));
  EXPECT_TRUE(cqm.cqm().is_feasible(model::State(cqm.num_binary_variables(), 0)));
}

}  // namespace
}  // namespace qulrb::lrp
