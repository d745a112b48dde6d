#include <gtest/gtest.h>

#include "model/cqm.hpp"
#include "util/error.hpp"

namespace qulrb::model {
namespace {

State make_state(std::size_t n, unsigned bits) {
  State s(n);
  for (std::size_t i = 0; i < n; ++i) s[i] = (bits >> i) & 1u;
  return s;
}

CqmModel two_var_model() {
  CqmModel m;
  m.add_variable();
  m.add_variable();
  return m;
}

TEST(Cqm, LinearObjective) {
  CqmModel m = two_var_model();
  m.add_objective_linear(0, 2.0);
  m.add_objective_linear(1, -1.0);
  m.add_objective_offset(0.5);
  EXPECT_DOUBLE_EQ(m.objective_value(make_state(2, 0b01)), 2.5);
  EXPECT_DOUBLE_EQ(m.objective_value(make_state(2, 0b10)), -0.5);
}

TEST(Cqm, SquaredGroupObjective) {
  CqmModel m = two_var_model();
  LinearExpr e(-1.0);
  e.add_term(0, 1.0);
  e.add_term(1, 2.0);
  m.add_squared_group(e, 3.0);
  // expr values: 00 -> -1, 01 -> 0, 10 -> 1, 11 -> 2; objective = 3 expr^2.
  EXPECT_DOUBLE_EQ(m.objective_value(make_state(2, 0b00)), 3.0);
  EXPECT_DOUBLE_EQ(m.objective_value(make_state(2, 0b01)), 0.0);
  EXPECT_DOUBLE_EQ(m.objective_value(make_state(2, 0b10)), 3.0);
  EXPECT_DOUBLE_EQ(m.objective_value(make_state(2, 0b11)), 12.0);
}

TEST(Cqm, ConstraintConstantFoldsIntoRhs) {
  CqmModel m = two_var_model();
  LinearExpr lhs(5.0);
  lhs.add_term(0, 1.0);
  const std::size_t c = m.add_constraint(lhs, Sense::LE, 6.0, "c");
  // Folded to: x0 <= 1.
  EXPECT_DOUBLE_EQ(m.constraints()[c].rhs, 1.0);
  EXPECT_DOUBLE_EQ(m.constraints()[c].lhs.constant(), 0.0);
  EXPECT_TRUE(m.is_feasible(make_state(2, 0b01)));
}

TEST(Cqm, ViolationSemantics) {
  EXPECT_DOUBLE_EQ(CqmModel::violation_of(Sense::LE, 3.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(CqmModel::violation_of(Sense::LE, 2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(CqmModel::violation_of(Sense::GE, 1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(CqmModel::violation_of(Sense::GE, 3.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(CqmModel::violation_of(Sense::EQ, 1.5, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(CqmModel::violation_of(Sense::EQ, 2.0, 2.0), 0.0);
}

TEST(Cqm, FeasibilityAndTotalViolation) {
  CqmModel m = two_var_model();
  LinearExpr sum;
  sum.add_term(0, 1.0);
  sum.add_term(1, 1.0);
  m.add_constraint(sum, Sense::EQ, 1.0, "pick-one");
  EXPECT_TRUE(m.is_feasible(make_state(2, 0b01)));
  EXPECT_TRUE(m.is_feasible(make_state(2, 0b10)));
  EXPECT_FALSE(m.is_feasible(make_state(2, 0b00)));
  EXPECT_FALSE(m.is_feasible(make_state(2, 0b11)));
  EXPECT_DOUBLE_EQ(m.total_violation(make_state(2, 0b11)), 1.0);
}

TEST(Cqm, ConstraintCountsBySense) {
  CqmModel m = two_var_model();
  LinearExpr a;
  a.add_term(0, 1.0);
  m.add_constraint(a, Sense::EQ, 1.0);
  LinearExpr b;
  b.add_term(1, 1.0);
  m.add_constraint(b, Sense::LE, 1.0);
  LinearExpr c;
  c.add_term(1, 1.0);
  m.add_constraint(c, Sense::GE, 0.0);
  EXPECT_EQ(m.num_constraints(), 3u);
  EXPECT_EQ(m.num_equality_constraints(), 1u);
  EXPECT_EQ(m.num_inequality_constraints(), 2u);
}

TEST(Cqm, GroupIncidenceMapsVariablesToGroups) {
  CqmModel m = two_var_model();
  LinearExpr g0;
  g0.add_term(0, 2.0);
  m.add_squared_group(g0, 1.0);
  LinearExpr g1;
  g1.add_term(0, 1.0);
  g1.add_term(1, -1.0);
  m.add_squared_group(g1, 3.0);
  const auto& rows = m.group_kernel();
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0].index, 0u);
  EXPECT_EQ(rows[0][1].index, 1u);
  EXPECT_DOUBLE_EQ(rows[0][0].coeff, 2.0);
  ASSERT_EQ(rows[1].size(), 1u);
  EXPECT_EQ(rows[1][0].index, 1u);
  EXPECT_DOUBLE_EQ(rows[1][0].coeff, -1.0);
  EXPECT_DOUBLE_EQ(rows[1][0].alpha, 2.0 * 3.0 * -1.0);
  EXPECT_DOUBLE_EQ(rows[1][0].beta, 3.0 * 1.0);
}

TEST(Cqm, ConstraintIncidence) {
  CqmModel m = two_var_model();
  LinearExpr lhs;
  lhs.add_term(1, 4.0);
  m.add_constraint(lhs, Sense::LE, 3.0);
  const auto& inc = m.constraint_incidence();
  EXPECT_TRUE(inc[0].empty());
  ASSERT_EQ(inc[1].size(), 1u);
  EXPECT_DOUBLE_EQ(inc[1][0].coeff, 4.0);
}

TEST(Cqm, ObjectiveScalePositive) {
  CqmModel m = two_var_model();
  EXPECT_GT(m.objective_scale(), 0.0);  // never zero, even when empty
  LinearExpr g;
  g.add_term(0, 10.0);
  m.add_squared_group(g, 2.0);
  EXPECT_GE(m.objective_scale(), 200.0);
}

TEST(Cqm, OutOfRangeVariableThrows) {
  CqmModel m = two_var_model();
  EXPECT_THROW(m.add_objective_linear(5, 1.0), util::InvalidArgument);
  LinearExpr bad;
  bad.add_term(9, 1.0);
  EXPECT_THROW(m.add_constraint(bad, Sense::LE, 1.0), util::InvalidArgument);
  EXPECT_THROW(m.add_squared_group(bad, 1.0), util::InvalidArgument);
}

TEST(Cqm, StateSizeMismatchThrows) {
  CqmModel m = two_var_model();
  EXPECT_THROW(m.objective_value(make_state(1, 0)), util::InvalidArgument);
}

TEST(Cqm, SenseToString) {
  EXPECT_EQ(to_string(Sense::LE), "<=");
  EXPECT_EQ(to_string(Sense::GE), ">=");
  EXPECT_EQ(to_string(Sense::EQ), "==");
}

}  // namespace
}  // namespace qulrb::model
