#include <gtest/gtest.h>
#include "util/error.hpp"

#include <limits>
#include <string>

#include "anneal/sa.hpp"
#include "anneal/schedule.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {
namespace {

using model::QuboModel;
using model::State;
using model::VarId;

State make_state(std::size_t n, unsigned bits) {
  State s(n);
  for (std::size_t i = 0; i < n; ++i) s[i] = (bits >> i) & 1u;
  return s;
}

double brute_min(const QuboModel& q) {
  double best = std::numeric_limits<double>::infinity();
  for (unsigned bits = 0; bits < (1u << q.num_variables()); ++bits) {
    best = std::min(best, q.energy(make_state(q.num_variables(), bits)));
  }
  return best;
}

// ----------------------------------------------------------- schedule ------

TEST(BetaSchedule, MonotoneGeometric) {
  BetaSchedule s(0.1, 10.0, 100);
  double prev = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const double b = s.at(i);
    EXPECT_GT(b, prev);
    prev = b;
  }
  EXPECT_NEAR(s.at(0), 0.1, 1e-12);
  EXPECT_NEAR(s.at(99), 10.0, 1e-9);
}

TEST(BetaSchedule, SingleSweepIsCold) {
  BetaSchedule s(1.0, 9.0, 1);
  EXPECT_DOUBLE_EQ(s.at(0), 9.0);
}

TEST(BetaSchedule, ClampsBeyondEnd) {
  BetaSchedule s(1.0, 2.0, 10);
  EXPECT_DOUBLE_EQ(s.at(500), 2.0);
}

TEST(BetaSchedule, RejectsInvalidRanges) {
  EXPECT_THROW(BetaSchedule(0.0, 1.0, 10), util::InvalidArgument);
  EXPECT_THROW(BetaSchedule(2.0, 1.0, 10), util::InvalidArgument);
  EXPECT_THROW(BetaSchedule(1.0, 2.0, 0), util::InvalidArgument);
}

TEST(BetaSchedule, ForEnergyScaleOrdersEndpoints) {
  const auto s = BetaSchedule::for_energy_scale(0.01, 100.0, 50);
  EXPECT_LT(s.beta_hot(), s.beta_cold());
  EXPECT_GT(s.beta_hot(), 0.0);
}

// ----------------------------------------------------------------- sa ------

TEST(SimulatedAnnealer, FindsTrivialMinimum) {
  QuboModel q(4);
  for (VarId v = 0; v < 4; ++v) q.add_linear(v, 1.0);  // all-zero optimal
  SaParams params;
  params.sweeps = 200;
  params.num_reads = 4;
  const auto set = SimulatedAnnealer(params).sample(q);
  const auto best = set.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->energy, 0.0);
}

TEST(SimulatedAnnealer, SolvesSmallFrustratedQubo) {
  util::Rng rng(17);
  QuboModel q(10);
  for (VarId i = 0; i < 10; ++i) q.add_linear(i, rng.next_normal());
  for (VarId i = 0; i < 10; ++i) {
    for (VarId j = i + 1; j < 10; ++j) {
      if (rng.next_bool(0.5)) q.add_quadratic(i, j, rng.next_normal());
    }
  }
  SaParams params;
  params.sweeps = 500;
  params.num_reads = 8;
  params.seed = 5;
  const auto best = SimulatedAnnealer(params).sample(q).best();
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->energy, brute_min(q), 1e-9);
}

TEST(SimulatedAnnealer, EnergyMatchesReportedState) {
  QuboModel q(6);
  q.add_linear(0, -2.0);
  q.add_quadratic(0, 1, 1.0);
  SaParams params;
  params.sweeps = 100;
  const auto set = SimulatedAnnealer(params).sample(q);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_NEAR(q.energy(set.at(i).state), set.at(i).energy, 1e-9);
  }
}

TEST(SimulatedAnnealer, DeterministicForSeed) {
  QuboModel q(8);
  util::Rng rng(3);
  for (VarId i = 0; i < 8; ++i) q.add_linear(i, rng.next_normal());
  SaParams params;
  params.sweeps = 50;
  params.seed = 99;
  const auto a = SimulatedAnnealer(params).sample(q).best();
  const auto b = SimulatedAnnealer(params).sample(q).best();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->state, b->state);
  EXPECT_EQ(a->energy, b->energy);
}

TEST(SimulatedAnnealer, RespectsInitialState) {
  QuboModel q(4);  // flat landscape: nothing to move for
  util::Rng rng(1);
  const State init{1, 0, 1, 0};
  SaParams p5;
  p5.sweeps = 5;
  const Sample s = SimulatedAnnealer(p5).anneal_once(q, rng, init);
  EXPECT_DOUBLE_EQ(s.energy, 0.0);
}

TEST(SimulatedAnnealer, NumReadsProducesThatManySamples) {
  QuboModel q(3);
  SaParams params;
  params.num_reads = 7;
  params.sweeps = 10;
  EXPECT_EQ(SimulatedAnnealer(params).sample(q).size(), 7u);
}

TEST(SimulatedAnnealer, ZeroVariableModel) {
  QuboModel q(0);
  q.add_offset(4.0);
  SaParams p5;
  p5.sweeps = 5;
  const auto best = SimulatedAnnealer(p5).sample(q).best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->energy, 4.0);
}

// Every read of sample() is anneal_once on the read's own pre-split stream,
// in read order, whether or not a recorder or deadline is attached.
TEST(SimulatedAnnealer, SampleReadsMatchAnnealOnce) {
  QuboModel q(120);
  util::Rng gen(7);
  for (VarId i = 0; i < 120; ++i) {
    q.add_linear(i, gen.next_double() * 4.0 - 2.0);
    for (int t = 0; t < 4; ++t) {
      const auto j = static_cast<VarId>(gen.next_below(120));
      if (j != i) q.add_quadratic(i, j, gen.next_double() * 2.0 - 1.0);
    }
  }
  SaParams params;
  params.sweeps = 40;
  params.num_reads = 6;
  params.seed = 17;
  const SimulatedAnnealer annealer(params);
  const SampleSet got = annealer.sample(q);
  ASSERT_EQ(got.size(), params.num_reads);
  util::Rng master(params.seed);
  for (std::size_t read = 0; read < params.num_reads; ++read) {
    SCOPED_TRACE("read " + std::to_string(read));
    util::Rng rng = master.split();
    const Sample expected = annealer.anneal_once(q, rng);
    EXPECT_EQ(got.at(read).state, expected.state);
    EXPECT_EQ(got.at(read).energy, expected.energy);
  }
}

// ----------------------------------------------------------- sampleset -----

TEST(SampleSet, BestPrefersFeasibleOverLowEnergy) {
  SampleSet set;
  set.add({State{}, -100.0, 5.0, false});
  set.add({State{}, 3.0, 0.0, true});
  const auto best = set.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->feasible);
  EXPECT_DOUBLE_EQ(best->energy, 3.0);
}

TEST(SampleSet, BestFeasibleNulloptWhenNone) {
  SampleSet set;
  set.add({State{}, 1.0, 2.0, false});
  EXPECT_FALSE(set.best_feasible().has_value());
  EXPECT_TRUE(set.best().has_value());
}

TEST(SampleSet, MergeCombines) {
  SampleSet a, b;
  a.add({State{}, 1.0, 0.0, true});
  b.add({State{}, -1.0, 0.0, true});
  a.merge(std::move(b));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.best()->energy, -1.0);
  EXPECT_EQ(a.num_feasible(), 2u);
}

TEST(SampleSet, TieBreakOnViolation) {
  Sample lower_violation{State{}, 10.0, 1.0, false};
  Sample higher_violation{State{}, -10.0, 2.0, false};
  EXPECT_TRUE(lower_violation.better_than(higher_violation));
}

}  // namespace
}  // namespace qulrb::anneal
