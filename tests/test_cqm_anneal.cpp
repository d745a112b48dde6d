#include <gtest/gtest.h>
#include "util/error.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "anneal/hybrid.hpp"
#include "anneal/tempering.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/problem.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qulrb::anneal {
namespace {

using model::CqmModel;
using model::LinearExpr;
using model::Sense;
using model::State;
using model::VarId;

/// Random CQM with linear + squared-group objective and mixed constraints,
/// for cross-checking incremental evaluation. Pairwise couplings are small
/// squared pair groups w * (x_i + x_j)^2 of either sign.
CqmModel random_cqm(util::Rng& rng, std::size_t n) {
  CqmModel m;
  for (std::size_t i = 0; i < n; ++i) m.add_variable();
  for (VarId v = 0; v < n; ++v) m.add_objective_linear(v, rng.next_normal());
  for (VarId i = 0; i < n; ++i) {
    for (VarId j = i + 1; j < n; ++j) {
      if (!rng.next_bool(0.3)) continue;
      LinearExpr pair;
      pair.add_term(i, 1.0);
      pair.add_term(j, 1.0);
      m.add_squared_group(std::move(pair), 0.5 * rng.next_normal());
    }
  }
  for (int g = 0; g < 3; ++g) {
    LinearExpr e(rng.next_normal());
    for (VarId v = 0; v < n; ++v) {
      if (rng.next_bool(0.5)) e.add_term(v, rng.next_normal());
    }
    m.add_squared_group(std::move(e), std::abs(rng.next_normal()) + 0.1);
  }
  for (int c = 0; c < 3; ++c) {
    LinearExpr lhs;
    for (VarId v = 0; v < n; ++v) {
      if (rng.next_bool(0.5)) lhs.add_term(v, rng.next_normal());
    }
    const Sense sense = c == 0 ? Sense::LE : (c == 1 ? Sense::GE : Sense::EQ);
    m.add_constraint(std::move(lhs), sense, rng.next_normal());
  }
  return m;
}

State random_state(util::Rng& rng, std::size_t n) {
  State s(n);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  return s;
}

TEST(CqmIncrementalState, InitialValuesMatchModel) {
  util::Rng rng(5);
  const CqmModel m = random_cqm(rng, 10);
  const State s = random_state(rng, 10);
  CqmIncrementalState walk(m, s, std::vector<double>(m.num_constraints(), 2.0));
  EXPECT_NEAR(walk.objective(), m.objective_value(s), 1e-9);
  EXPECT_NEAR(walk.total_violation(), m.total_violation(s), 1e-9);
  EXPECT_EQ(walk.feasible(), m.is_feasible(s));
}

TEST(CqmIncrementalState, FlipDeltaMatchesRecompute) {
  util::Rng rng(7);
  const CqmModel m = random_cqm(rng, 10);
  State s = random_state(rng, 10);
  const std::vector<double> penalties(m.num_constraints(), 3.0);
  CqmIncrementalState walk(m, s, penalties);
  for (VarId v = 0; v < 10; ++v) {
    const auto d = walk.flip_delta_parts(v);
    State flipped = s;
    flipped[v] ^= 1u;
    const double obj_delta = m.objective_value(flipped) - m.objective_value(s);
    EXPECT_NEAR(d.objective, obj_delta, 1e-8) << "var " << v;
    double pen_before = 0.0, pen_after = 0.0;
    for (std::size_t c = 0; c < m.num_constraints(); ++c) {
      pen_before += 3.0 * m.constraint_violation(c, s);
      pen_after += 3.0 * m.constraint_violation(c, flipped);
    }
    EXPECT_NEAR(d.penalty, pen_after - pen_before, 1e-8) << "var " << v;
  }
}

TEST(CqmIncrementalState, ApplyFlipKeepsRunningValuesConsistent) {
  util::Rng rng(11);
  const CqmModel m = random_cqm(rng, 12);
  State s = random_state(rng, 12);
  CqmIncrementalState walk(m, s, std::vector<double>(m.num_constraints(), 1.5));
  // Long random walk; verify against full recomputation at the end.
  for (int step = 0; step < 500; ++step) {
    walk.apply_flip(static_cast<VarId>(rng.next_below(12)));
  }
  EXPECT_NEAR(walk.objective(), m.objective_value(walk.state()), 1e-6);
  EXPECT_NEAR(walk.total_violation(), m.total_violation(walk.state()), 1e-8);
}

TEST(CqmIncrementalState, MismatchedSizesThrow) {
  util::Rng rng(15);
  const CqmModel m = random_cqm(rng, 4);
  EXPECT_THROW(CqmIncrementalState(m, State(3, 0),
                                   std::vector<double>(m.num_constraints(), 1.0)),
               util::InvalidArgument);
  EXPECT_THROW(CqmIncrementalState(m, State(4, 0), std::vector<double>{}),
               util::InvalidArgument);
}

TEST(PairMoves, IndexGroupsEqualCoefficients) {
  CqmModel m;
  for (int i = 0; i < 4; ++i) m.add_variable();
  LinearExpr lhs;
  lhs.add_term(0, 1.0);
  lhs.add_term(1, 1.0);
  lhs.add_term(2, 2.0);
  lhs.add_term(3, 2.0);
  m.add_constraint(lhs, Sense::LE, 3.0);
  const PairMoveIndex index = PairMoveIndex::build(m);
  EXPECT_EQ(index.num_classes(), 2u);  // the 1.0 pair and the 2.0 pair
}

TEST(PairMoves, SingletonCoefficientsFormNoClass) {
  CqmModel m;
  for (int i = 0; i < 3; ++i) m.add_variable();
  LinearExpr lhs;
  lhs.add_term(0, 1.0);
  lhs.add_term(1, 2.0);
  lhs.add_term(2, 4.0);
  m.add_constraint(lhs, Sense::LE, 3.0);
  EXPECT_TRUE(PairMoveIndex::build(m).empty());
}

TEST(PairMoves, AttemptPreservesConstraintActivity) {
  CqmModel m;
  for (int i = 0; i < 4; ++i) m.add_variable();
  LinearExpr lhs;
  for (VarId v = 0; v < 4; ++v) lhs.add_term(v, 1.0);
  m.add_constraint(lhs, Sense::EQ, 2.0);
  // Objective prefers x2, x3 over x0, x1.
  m.add_objective_linear(0, 1.0);
  m.add_objective_linear(1, 1.0);
  m.add_objective_linear(2, -1.0);
  m.add_objective_linear(3, -1.0);
  const PairMoveIndex index = PairMoveIndex::build(m);
  ASSERT_FALSE(index.empty());
  CqmIncrementalState walk(m, State{1, 1, 0, 0},
                           std::vector<double>(m.num_constraints(), 100.0));
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) index.attempt(walk, rng, 1e30);
  // Pair moves must keep the equality satisfied and reach the optimum.
  EXPECT_TRUE(walk.feasible());
  EXPECT_DOUBLE_EQ(walk.objective(), -2.0);
  EXPECT_EQ(walk.state(), (State{0, 0, 1, 1}));
}

TEST(CqmAnnealer, SolvesConstrainedToyToOptimum) {
  // min (x0 + x1 + x2 - 2)^2 - x2   s.t.  x0 + x1 <= 1.
  CqmModel m;
  for (int i = 0; i < 3; ++i) m.add_variable();
  LinearExpr g(-2.0);
  for (VarId v = 0; v < 3; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  m.add_objective_linear(2, -1.0);
  LinearExpr cap;
  cap.add_term(0, 1.0);
  cap.add_term(1, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 1.0);

  util::Rng rng(21);
  CqmAnnealParams params;
  params.sweeps = 300;
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 50.0), rng);
  EXPECT_TRUE(s.feasible);
  // Optimum: x2 = 1 plus one of x0/x1 -> group hits 2 exactly, objective -1.
  EXPECT_DOUBLE_EQ(s.energy, -1.0);
}

TEST(CqmAnnealer, BestSeenIsReturnedNotFinal) {
  // With zero constraints the annealer tracks objective only; its returned
  // energy must match a fresh evaluation of its returned state.
  util::Rng rng(23);
  CqmModel m = random_cqm(rng, 8);
  CqmAnnealParams params;
  params.sweeps = 100;
  util::Rng walk_rng(5);
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 10.0), walk_rng);
  EXPECT_NEAR(s.energy, m.objective_value(s.state), 1e-7);
  EXPECT_NEAR(s.violation, m.total_violation(s.state), 1e-8);
}

TEST(CqmAnnealer, EndsFeasibleFromRandomStart) {
  // min sum x s.t. sum x >= 2 over 6 variables: the penalty anneal from a
  // random state (refinement off) must end on a feasible incumbent.
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  for (VarId v = 0; v < 6; ++v) m.add_objective_linear(v, 1.0);
  LinearExpr sum;
  for (VarId v = 0; v < 6; ++v) sum.add_term(v, 1.0);
  m.add_constraint(std::move(sum), Sense::GE, 2.0);

  CqmAnnealParams params;
  params.sweeps = 50;
  util::Rng rng(3);
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 20.0), rng);
  EXPECT_TRUE(s.feasible);
}

TEST(CqmAnnealer, RefinementModeKeepsFeasibility) {
  // Start feasible; refinement mode must never leave the feasible region.
  CqmModel m;
  for (int i = 0; i < 6; ++i) m.add_variable();
  LinearExpr g(-3.0);
  for (VarId v = 0; v < 6; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  LinearExpr cap;
  for (VarId v = 0; v < 6; ++v) cap.add_term(v, 1.0);
  m.add_constraint(std::move(cap), Sense::LE, 3.0);

  util::Rng rng(31);
  CqmAnnealParams params;
  params.sweeps = 200;
  params.refinement = true;
  const Sample s = CqmAnnealer(params).anneal_once(
      m, std::vector<double>(m.num_constraints(), 100.0), rng, State(6, 0));
  EXPECT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.energy, 0.0);  // reaches exactly 3 bits set
}

TEST(ParallelTempering, FindsToyOptimum) {
  CqmModel m;
  for (int i = 0; i < 4; ++i) m.add_variable();
  LinearExpr g(-2.0);
  for (VarId v = 0; v < 4; ++v) g.add_term(v, 1.0);
  m.add_squared_group(std::move(g), 1.0);
  TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 100;
  params.seed = 9;
  const Sample s = ParallelTempering(params).run(
      m, std::vector<double>(m.num_constraints(), 1.0));
  EXPECT_DOUBLE_EQ(s.energy, 0.0);
  EXPECT_TRUE(s.feasible);
}

TEST(ParallelTempering, RequiresTwoReplicas) {
  CqmModel m;
  m.add_variable();
  TemperingParams params;
  params.num_replicas = 1;
  EXPECT_THROW(ParallelTempering(params).run(m, std::vector<double>{}), util::InvalidArgument);
}

// ------------------------------------------------- tempering vs reference -

// Every equality below is bitwise: doubles are compared with EXPECT_EQ (IEEE
// equality on identical bit patterns), never near().
void expect_sample_eq(const Sample& a, const Sample& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.feasible, b.feasible);
}

// Small but structurally complete LRP instance: skewed loads, unequal task
// counts, tight migration bound — exercises squared groups, inequality and
// (for kFull) equality constraints, and non-trivial pair-move classes.
CqmModel skewed_lrp_cqm(lrp::CqmVariant variant) {
  const lrp::LrpProblem problem({30.0, 9.0, 8.0, 4.0, 3.0, 2.0},
                                {12, 12, 12, 12, 12, 12});
  return lrp::build_lrp_cqm(problem, variant, 8, {}).cqm();
}

// Reference replica exchange with configuration swaps: an exchange
// physically swaps the walker objects between ladder positions, and every
// walker sweeps in ladder order on one thread. The production
// ParallelTempering keeps configurations in place, swaps a ladder
// permutation instead, and walks each swap interval as per-replica tasks —
// the two must be indistinguishable draw for draw and bit for bit.
Sample reference_tempering(const model::CqmModel& cqm,
                           const std::vector<double>& penalties,
                           const TemperingParams& params,
                           const PairMoveIndex& pairs) {
  const std::size_t n = cqm.num_variables();
  util::Rng master(params.seed);
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < params.num_replicas; ++r) rngs.push_back(master.split());

  std::vector<CqmIncrementalState> walkers;
  for (std::size_t r = 0; r < params.num_replicas; ++r) {
    model::State start(n);
    for (auto& b : start) b = static_cast<std::uint8_t>(rngs[r].next_below(2));
    walkers.emplace_back(cqm, std::move(start), penalties);
  }

  const std::vector<double> betas =
      tempering_ladder(walkers[0], rngs[0], params.num_replicas);

  auto snapshot = [](const CqmIncrementalState& w) {
    return Sample{w.state(), w.objective(), w.total_violation(), w.feasible()};
  };
  Sample best = snapshot(walkers.back());

  for (std::size_t sweep = 0; sweep < params.sweeps; ++sweep) {
    for (std::size_t r = 0; r < walkers.size(); ++r) {
      auto& walk = walkers[r];
      auto& rng = rngs[r];
      const double beta = betas[r];
      for (std::size_t step = 0; step < n; ++step) {
        if (!pairs.empty() && rng.next_bool(0.5)) {
          pairs.attempt(walk, rng, beta);
          continue;
        }
        const auto v = static_cast<model::VarId>(rng.next_below(n));
        const double delta = walk.flip_delta(v);
        if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
          walk.apply_flip(v);
        }
      }
      Sample current{{}, walk.objective(), walk.total_violation(), walk.feasible()};
      if (current.better_than(best)) {
        current.state = walk.state();
        best = std::move(current);
      }
    }
    if ((sweep + 1) % params.swap_interval == 0) {
      for (std::size_t r = 0; r + 1 < walkers.size(); ++r) {
        const double ea = walkers[r].total_energy();
        const double eb = walkers[r + 1].total_energy();
        const double log_accept = (betas[r] - betas[r + 1]) * (ea - eb);
        if (log_accept >= 0.0 || rngs[0].next_double() < std::exp(log_accept)) {
          std::swap(walkers[r], walkers[r + 1]);
        }
      }
    }
  }
  return best;
}

TEST(ParallelTempering, PermutationSwapMatchesConfigurationSwap) {
  for (const auto variant : {lrp::CqmVariant::kReduced, lrp::CqmVariant::kFull}) {
    const model::CqmModel cqm = skewed_lrp_cqm(variant);
    const PairMoveIndex pairs = PairMoveIndex::build(cqm);
    const std::vector<double> penalties(cqm.num_constraints(), 2.0);
    TemperingParams params;
    params.num_replicas = 4;
    params.sweeps = 30;
    params.swap_interval = 5;
    params.seed = 31;
    const Sample expected = reference_tempering(cqm, penalties, params, pairs);
    const Sample got = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
    SCOPED_TRACE(variant == lrp::CqmVariant::kReduced ? "Q_CQM1" : "Q_CQM2");
    expect_sample_eq(got, expected);
  }
}

TEST(ParallelTempering, DeterministicAndCountsRounds) {
  const model::CqmModel cqm = skewed_lrp_cqm(lrp::CqmVariant::kReduced);
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 2.0);

  obs::MetricsRegistry reg;
  TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 20;
  params.swap_interval = 5;
  params.seed = 77;
  params.sinks.sweep_counter = &reg.counter("rounds");

  const Sample a = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
  EXPECT_EQ(reg.counter("rounds").value(), 20u);

  const Sample b = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
  expect_sample_eq(a, b);
}

/// min (sum x - 4)^2 s.t. sum x <= 6 over 12 variables: 495 optimal
/// states, so several replicas reach an equal best in the same sweep and the
/// earliest-position tie rule decides which state is returned.
model::CqmModel degenerate_cqm() {
  model::CqmModel m;
  for (int i = 0; i < 12; ++i) m.add_variable();
  model::LinearExpr g(-4.0);
  model::LinearExpr cap;
  for (model::VarId v = 0; v < 12; ++v) {
    g.add_term(v, 1.0);
    cap.add_term(v, 1.0);
  }
  m.add_squared_group(std::move(g), 1.0);
  m.add_constraint(std::move(cap), model::Sense::LE, 6.0);
  return m;
}

// Interval tasks on a pool replay the sequential ladder scan exactly: the
// same incumbent as the reference at every pool size (and inline), and the
// same incumbent-energy trace samples.
TEST(ParallelTempering, PoolOfAnySizeMatchesReference) {
  const std::pair<const char*, model::CqmModel> models[] = {
      {"Q_CQM1", skewed_lrp_cqm(lrp::CqmVariant::kReduced)},
      {"Q_CQM2", skewed_lrp_cqm(lrp::CqmVariant::kFull)},
      {"degenerate", degenerate_cqm()},
  };
  for (const auto& [label, cqm] : models) {
    SCOPED_TRACE(label);
    const PairMoveIndex pairs = PairMoveIndex::build(cqm);
    const std::vector<double> penalties(cqm.num_constraints(), 2.0);
    TemperingParams params;
    params.num_replicas = 6;
    params.sweeps = 33;  // the last interval is partial and ends without a swap
    params.swap_interval = 5;
    params.seed = 19;
    const Sample expected = reference_tempering(cqm, penalties, params, pairs);

    auto incumbent_trace = [](const obs::Recorder& recorder) {
      std::vector<double> values;
      for (const auto& s : recorder.samples()) values.push_back(s.value);
      return values;
    };
    obs::Recorder inline_recorder("inline");
    params.sinks.recorder = &inline_recorder;
    expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                     expected);
    const std::vector<double> inline_trace = incumbent_trace(inline_recorder);
    EXPECT_FALSE(inline_trace.empty());

    for (const std::size_t workers : {1u, 2u, 3u, 6u}) {
      SCOPED_TRACE("pool of " + std::to_string(workers));
      util::ThreadPool pool(workers);
      obs::Recorder recorder("pool");
      params.pool = &pool;
      params.sinks.recorder = &recorder;
      expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                       expected);
      EXPECT_EQ(incumbent_trace(recorder), inline_trace);
      params.sinks.recorder = nullptr;
      expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                       expected);
      params.pool = nullptr;
    }
  }
}

// ------------------------------------------------------ tempering ladder -

// Largest |total| and |objective| single-flip deltas over the probes
// tempering_ladder draws from a copy of `rng`.
std::pair<double, double> probed_move_scales(const CqmIncrementalState& walk,
                                             util::Rng rng) {
  const std::size_t n = walk.num_variables();
  double max_total = 0.0;
  double max_objective = 0.0;
  for (std::size_t p = 0; p < std::min<std::size_t>(n, 256); ++p) {
    const auto d = walk.flip_delta_parts(static_cast<VarId>(rng.next_below(n)));
    max_total = std::max(max_total, std::abs(d.total()));
    max_objective = std::max(max_objective, std::abs(d.objective));
  }
  return {max_total, max_objective};
}

// degenerate_cqm() on the boundary of its constraint (six of twelve bits
// set): clearing a bit moves the objective by -3, setting one by +5 plus
// the penalty weight, so the weight sets how far penalties dominate.
CqmIncrementalState boundary_walk(const model::CqmModel& cqm, double weight) {
  State start(cqm.num_variables(), 0);
  std::fill(start.begin(), start.begin() + 6, std::uint8_t{1});
  return CqmIncrementalState(cqm, std::move(start),
                             std::vector<double>(cqm.num_constraints(), weight));
}

// When penalties dominate the move scale (here by ~2000x, under the
// 10^4 / log 2 where the ends swap), the hottest replica is still tuned to
// the objective: it accepts the largest probed objective move with
// probability 1/2, far colder than a hot end on the total (penalty) scale.
TEST(ParallelTempering, LadderHotEndFollowsObjectiveScale) {
  const model::CqmModel cqm = degenerate_cqm();
  const CqmIncrementalState walk = boundary_walk(cqm, 1e4);
  util::Rng rng(8);
  const auto [max_total, max_objective] = probed_move_scales(walk, rng);
  ASSERT_EQ(max_objective, 5.0);
  ASSERT_EQ(max_total, 1e4 + 5.0);

  const std::vector<double> betas = tempering_ladder(walk, rng, 6);
  ASSERT_EQ(betas.size(), 6u);
  EXPECT_DOUBLE_EQ(std::exp(-betas.front() * max_objective), 0.5);
  EXPECT_GT(betas.front(), 1000.0 * std::log(2.0) / max_total);
}

// Escalating the penalties (x8 per round, as the hybrid solver does) widens
// max|total| / max|objective| past 10^4 / log 2, where 10^4 / max|total|
// falls below the objective point log 2 / max|objective|. The ladder must
// keep both points as its ends, hottest first, and stay strictly increasing
// in every round.
TEST(ParallelTempering, LadderStaysOrderedUnderEscalatedPenalties) {
  const model::CqmModel cqm = degenerate_cqm();
  double weight = 2.0;
  bool points_swapped = false;
  for (int round = 0; round < 8; ++round, weight *= 8.0) {
    SCOPED_TRACE("round " + std::to_string(round));
    const CqmIncrementalState walk = boundary_walk(cqm, weight);
    util::Rng rng(12);
    const auto [max_total, max_objective] = probed_move_scales(walk, rng);
    const double objective_point = std::log(2.0) / max_objective;
    const double total_point = 1e4 / max_total;
    points_swapped = points_swapped || total_point < objective_point;
    const std::vector<double> betas = tempering_ladder(walk, rng, 6);
    EXPECT_DOUBLE_EQ(betas.front(), std::min(objective_point, total_point));
    EXPECT_DOUBLE_EQ(betas.back(), std::max(objective_point, total_point));
    for (std::size_t r = 0; r < betas.size(); ++r) {
      EXPECT_TRUE(std::isfinite(betas[r]) && betas[r] > 0.0);
      if (r > 0) {
        EXPECT_LT(betas[r - 1], betas[r]);
      }
    }
  }
  EXPECT_TRUE(points_swapped);
}

// ------------------------------------------------- pair proposal law ------

using PairDraw = std::optional<std::pair<VarId, VarId>>;  ///< (set, clear)

// The proposal PairMoveIndex::attempt had before it kept class occupancy,
// kept here as the reference for its law: up to 8 ordered member draws, and
// the first (set, clear) pair wins.
PairDraw rejection_pair(std::span<const VarId> members, const State& state,
                        util::Rng& rng) {
  for (int t = 0; t < 8; ++t) {
    const VarId a = members[static_cast<std::size_t>(rng.next_below(members.size()))];
    const VarId b = members[static_cast<std::size_t>(rng.next_below(members.size()))];
    if (a == b) continue;
    const bool sa = state[a] != 0;
    const bool sb = state[b] != 0;
    if (sa == sb) continue;
    return sa ? std::pair{a, b} : std::pair{b, a};
  }
  return std::nullopt;
}

// Upper 1e-4 quantile of chi-square with `dof` degrees of freedom
// (Wilson-Hilferty).
double chi_square_bound(std::size_t dof) {
  const double k = static_cast<double>(dof);
  const double h = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - h + 3.719 * std::sqrt(h), 3.0);
}

// Two-sample chi-square homogeneity test on category counts (the samples may
// differ in size). True when the two could share one law.
bool same_law(const std::vector<double>& a, const std::vector<double>& b) {
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    na += a[k];
    nb += b[k];
  }
  if (na == 0.0 || nb == 0.0) return na == nb;
  double stat = 0.0;
  std::size_t cells = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] + b[k] == 0.0) continue;
    const double d = std::sqrt(nb / na) * a[k] - std::sqrt(na / nb) * b[k];
    stat += d * d / (a[k] + b[k]);
    ++cells;
  }
  return cells < 2 || stat <= chi_square_bound(cells - 1);
}

// One class of m members (a single constraint with equal coefficients, no
// objective) with `set` of them set at random positions.
struct OneClass {
  CqmModel model;
  State state;
  std::vector<VarId> set_vars;
  std::vector<VarId> clear_vars;

  OneClass(std::size_t set, std::size_t m) : state(m, 0) {
    LinearExpr lhs;
    for (std::size_t i = 0; i < m; ++i) {
      lhs.add_term(model.add_variable(), 1.0);
    }
    model.add_constraint(std::move(lhs), Sense::LE, static_cast<double>(m));
    std::vector<VarId> order(m);
    for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<VarId>(i);
    util::Rng rng(set * 1000 + m);
    for (std::size_t i = m; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.next_below(i))]);
    }
    for (std::size_t i = 0; i < set; ++i) state[order[i]] = 1;
    for (VarId v = 0; v < m; ++v) (state[v] ? set_vars : clear_vars).push_back(v);
  }
};

// Same-law check between two samplers over `draws` proposals each: the
// "found" frequency, and given a find, the (set, clear) outcome. Outcomes are
// compared one by one when there are at most 256, else in 16 x 16 buckets
// of the set and clear members.
bool samplers_agree(const OneClass& cls, const std::function<PairDraw(util::Rng&)>& a,
                    const std::function<PairDraw(util::Rng&)>& b, std::size_t draws) {
  const std::size_t ns = cls.set_vars.size();
  const std::size_t nc = cls.clear_vars.size();
  const bool exact = ns * nc <= 256;
  const std::size_t bs = exact ? ns : 16;
  const std::size_t bc = exact ? nc : 16;
  std::vector<std::size_t> set_pos(cls.state.size());
  std::vector<std::size_t> clear_pos(cls.state.size());
  for (std::size_t i = 0; i < ns; ++i) set_pos[cls.set_vars[i]] = i * bs / ns;
  for (std::size_t j = 0; j < nc; ++j) clear_pos[cls.clear_vars[j]] = j * bc / nc;
  // Independent streams for the two samplers.
  auto tally = [&](const std::function<PairDraw(util::Rng&)>& sampler,
                   std::uint64_t seed, std::vector<double>& found,
                   std::vector<double>& pairs) {
    util::Rng rng(seed);
    found.assign(2, 0.0);
    pairs.assign(bs * bc, 0.0);
    for (std::size_t t = 0; t < draws; ++t) {
      const PairDraw d = sampler(rng);
      found[d ? 1 : 0] += 1.0;
      if (d) pairs[set_pos[d->first] * bc + clear_pos[d->second]] += 1.0;
    }
  };
  std::vector<double> found_a, pairs_a, found_b, pairs_b;
  tally(a, 97, found_a, pairs_a);
  tally(b, 98, found_b, pairs_b);
  return same_law(found_a, found_b) && same_law(pairs_a, pairs_b);
}

TEST(PairMoves, SamplerMatchesRejectionLaw) {
  constexpr std::size_t kDraws = 40000;
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 31}, {15, 31}, {30, 31}, {1, 2}, {0, 5}, {5, 5}, {30, 992}};
  for (const auto& [set, m] : cases) {
    SCOPED_TRACE("set " + std::to_string(set) + " of " + std::to_string(m));
    const OneClass cls(set, m);
    const PairMoveIndex index = PairMoveIndex::build(cls.model);
    ASSERT_EQ(index.num_classes(), 1u);
    const auto members = index.class_at(0);
    CqmIncrementalState walk(cls.model, cls.state,
                             std::vector<double>(cls.model.num_constraints(), 1.0));

    auto reference = [&](util::Rng& rng) {
      return rejection_pair(members, cls.state, rng);
    };
    // attempt() at beta = 0 applies every pair it finds: read the move back
    // from the state, then undo it.
    auto attempt = [&](util::Rng& rng) -> PairDraw {
      if (!index.attempt(walk, rng, 0.0)) return std::nullopt;
      const auto now = [&](VarId v) { return walk.state()[v] != 0; };
      const auto s = std::find_if(cls.set_vars.begin(), cls.set_vars.end(),
                                  [&](VarId v) { return !now(v); });
      const auto c = std::find_if(cls.clear_vars.begin(), cls.clear_vars.end(), now);
      if (s == cls.set_vars.end() || c == cls.clear_vars.end()) {
        ADD_FAILURE() << "attempt() applied something other than a (set, clear) pair";
        return std::nullopt;
      }
      walk.apply_flip(*s);
      walk.apply_flip(*c);
      return std::pair{*s, *c};
    };
    // The negative control: the occupancy sampler with the miss probability
    // raised to the 7th power, not the 8th.
    auto seventh_power = [&](util::Rng& rng) -> PairDraw {
      const auto ns = static_cast<double>(cls.set_vars.size());
      const auto nc = static_cast<double>(cls.clear_vars.size());
      if (ns == 0.0 || nc == 0.0) return std::nullopt;
      const double miss = 1.0 - 2.0 * ns * nc / static_cast<double>(m * m);
      if (rng.next_double() < std::pow(miss, 7.0)) return std::nullopt;
      return std::pair{
          cls.set_vars[static_cast<std::size_t>(rng.next_below(cls.set_vars.size()))],
          cls.clear_vars[static_cast<std::size_t>(rng.next_below(cls.clear_vars.size()))]};
    };

    EXPECT_TRUE(samplers_agree(cls, reference, attempt, kDraws));
    EXPECT_EQ(walk.state(), cls.state);
    const bool has_pairs = set > 0 && set < m;
    EXPECT_EQ(samplers_agree(cls, reference, seventh_power, kDraws), !has_pairs);
  }
}

// The walk's maintained class occupancy, against a recount from its state.
::testing::AssertionResult occupancy_matches_state(const CqmIncrementalState& walk,
                                                   const PairMoveIndex& index) {
  if (walk.bound_pairs() != &index) {
    return ::testing::AssertionFailure() << "walk not bound to the index";
  }
  for (std::size_t c = 0; c < index.num_classes(); ++c) {
    const auto members = index.class_at(c);
    std::size_t count = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const bool set = walk.state()[members[i]] != 0;
      count += set ? 1 : 0;
      if (walk.pair_member_set(c, i) != set) {
        return ::testing::AssertionFailure()
               << "class " << c << " member " << i << " bit is stale";
      }
    }
    if (walk.pair_set_count(c) != count) {
      return ::testing::AssertionFailure() << "class " << c << " count "
                                           << walk.pair_set_count(c) << " != " << count;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PairMoves, OccupancyTracksEveryFlip) {
  for (const auto variant : {lrp::CqmVariant::kReduced, lrp::CqmVariant::kFull}) {
    SCOPED_TRACE(variant == lrp::CqmVariant::kReduced ? "Q_CQM1" : "Q_CQM2");
    const CqmModel cqm = skewed_lrp_cqm(variant);
    const PairMoveIndex index = PairMoveIndex::build(cqm);
    ASSERT_FALSE(index.empty());
    const std::size_t n = cqm.num_variables();
    util::Rng rng(41);
    CqmIncrementalState walk(cqm, random_state(rng, n),
                             std::vector<double>(cqm.num_constraints(), 2.0));
    // attempt() binds the walk on first use.
    EXPECT_EQ(walk.bound_pairs(), nullptr);
    index.attempt(walk, rng, 1.0);
    ASSERT_TRUE(occupancy_matches_state(walk, index));

    const double betas[] = {0.0, 0.05, 1.0, 1e30};
    for (std::size_t step = 1; step <= 3000; ++step) {
      if (step % 3 == 0) {
        walk.apply_flip(static_cast<VarId>(rng.next_below(n)));
      } else {
        index.attempt(walk, rng, betas[(step / 3) % 4], step % 2 == 0);
      }
      if (step % 1000 == 0) {
        index.descend(walk);
        ASSERT_TRUE(occupancy_matches_state(walk, index)) << "after descend";
        HybridCqmSolver::greedy_descent(walk, rng);
      }
      if (step % 100 == 0) {
        ASSERT_TRUE(occupancy_matches_state(walk, index)) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace qulrb::anneal
