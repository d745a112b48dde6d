#include <gtest/gtest.h>

#include <sstream>

#include "classical/exact.hpp"
#include "classical/greedy.hpp"
#include "classical/rnp.hpp"
#include "model/lp_format.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qulrb {
namespace {

// ------------------------------------------------------------------ rnp ----

TEST(Rnp, RequiresPowerOfTwoBins) {
  const std::vector<double> items = {1.0, 2.0};
  EXPECT_THROW(classical::rnp_partition(items, 3), util::InvalidArgument);
  EXPECT_THROW(classical::rnp_partition(items, 0), util::InvalidArgument);
  EXPECT_NO_THROW(classical::rnp_partition(items, 4));
}

TEST(Rnp, OneBinTakesEverything) {
  const std::vector<double> items = {3.0, 1.0};
  const auto r = classical::rnp_partition(items, 1);
  EXPECT_EQ(r.bins[0].size(), 2u);
  EXPECT_DOUBLE_EQ(r.makespan(), 4.0);
}

TEST(Rnp, TwoWayMatchesCkkOptimum) {
  const std::vector<double> items = {8.0, 7.0, 6.0, 5.0, 4.0};
  const auto r = classical::rnp_partition(items, 2);
  // CKK on this instance is optimal: spread 0 (15/15).
  EXPECT_DOUBLE_EQ(r.spread(), 0.0);
  EXPECT_TRUE(r.is_valid(items.size()));
}

TEST(Rnp, ValidAndCompetitiveOnRandomInputs) {
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> items(32);
    for (auto& w : items) w = 1.0 + rng.next_double() * 50.0;
    const auto rnp = classical::rnp_partition(items, 8);
    EXPECT_TRUE(rnp.is_valid(items.size()));
    const auto greedy = classical::greedy_partition(items, 8);
    // RNP is usually close to Greedy; never catastrophically worse.
    EXPECT_LT(rnp.makespan(), greedy.makespan() * 1.5) << "trial " << trial;
  }
}

TEST(Rnp, NearOptimalOnTinyInstances) {
  util::Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> items(12);
    for (auto& w : items) w = static_cast<double>(rng.next_in(1, 30));
    const auto rnp = classical::rnp_partition(items, 4);
    const auto exact = classical::exact_partition(items, 4);
    ASSERT_TRUE(exact.proven_optimal);
    // Recursive bisection is not optimal in general, but stays close here.
    EXPECT_LE(rnp.makespan(), exact.partition.makespan() * 1.3 + 1e-9);
  }
}

TEST(Rnp, EmptyInput) {
  const auto r = classical::rnp_partition({}, 4);
  EXPECT_TRUE(r.is_valid(0));
  EXPECT_DOUBLE_EQ(r.makespan(), 0.0);
}

// ------------------------------------------------------------ lp format ----

model::CqmModel lp_model() {
  model::CqmModel m;
  m.add_variable("a");
  m.add_variable("b");
  m.add_objective_linear(0, 2.0);
  m.add_objective_linear(1, -1.0);
  model::LinearExpr g(-3.0);
  g.add_term(0, 1.0);
  g.add_term(1, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  model::LinearExpr cap;
  cap.add_term(0, 1.0);
  cap.add_term(1, 1.0);
  m.add_constraint(std::move(cap), model::Sense::LE, 2.0, "capacity");
  return m;
}

TEST(LpFormat, ContainsAllSections) {
  const std::string lp = model::to_lp_string(lp_model());
  EXPECT_NE(lp.find("Minimize"), std::string::npos);
  EXPECT_NE(lp.find("Subject To"), std::string::npos);
  EXPECT_NE(lp.find("Binary"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
}

TEST(LpFormat, UsesVariableNamesAndLabels) {
  const std::string lp = model::to_lp_string(lp_model());
  EXPECT_NE(lp.find("capacity:"), std::string::npos);
  EXPECT_NE(lp.find(" a "), std::string::npos);
  EXPECT_NE(lp.find("<= 2"), std::string::npos);
}

TEST(LpFormat, SquaredGroupRendered) {
  const std::string lp = model::to_lp_string(lp_model());
  EXPECT_NE(lp.find("]^2"), std::string::npos);
  EXPECT_NE(lp.find("[ "), std::string::npos);
}

TEST(LpFormat, EmptyObjectiveRendersZero) {
  model::CqmModel m;
  m.add_variable("x");
  const std::string lp = model::to_lp_string(m);
  EXPECT_NE(lp.find("obj: 0"), std::string::npos);
}

TEST(LpFormat, AnonymousVariablesAndConstraintsGetNames) {
  model::CqmModel m;
  m.add_variable();  // unnamed
  model::LinearExpr lhs;
  lhs.add_term(0, 1.0);
  m.add_constraint(std::move(lhs), model::Sense::GE, 1.0);  // unlabeled
  const std::string lp = model::to_lp_string(m);
  EXPECT_NE(lp.find("v0"), std::string::npos);
  EXPECT_NE(lp.find("c0:"), std::string::npos);
}

}  // namespace
}  // namespace qulrb
