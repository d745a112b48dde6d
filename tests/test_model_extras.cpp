#include <gtest/gtest.h>

#include "classical/exact.hpp"
#include "classical/greedy.hpp"
#include "classical/rnp.hpp"
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

}  // namespace
}  // namespace qulrb
