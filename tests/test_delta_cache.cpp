#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "anneal/delta_cache.hpp"
#include "anneal/hybrid.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/problem.hpp"
#include "model/cqm.hpp"
#include "model/qubo.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {
namespace {

using model::CqmModel;
using model::LinearExpr;
using model::QuboModel;
using model::Sense;
using model::State;
using model::VarId;

// Incremental updates and fresh recomputes walk the same data in different
// orders, so they agree only up to FP association error. Observed worst-case
// relative error across these tests is ~5e-15; the bound leaves headroom.
constexpr double kRelTol = 1e-10;

double rel_err(double cached, double fresh) {
  return std::abs(cached - fresh) / (1.0 + std::abs(fresh));
}

CqmModel random_cqm(util::Rng& rng, std::size_t n) {
  CqmModel cqm;
  for (std::size_t i = 0; i < n; ++i) cqm.add_variable();
  for (std::size_t i = 0; i < n; ++i) {
    cqm.add_objective_linear(static_cast<VarId>(i), rng.next_double() * 4 - 2);
  }
  // Pairwise couplings as small squared pair groups w * (x_i + x_j)^2.
  for (std::size_t t = 0; t < 2 * n; ++t) {
    const auto i = static_cast<VarId>(rng.next_below(n));
    const auto j = static_cast<VarId>(rng.next_below(n));
    if (i == j) continue;
    LinearExpr pair;
    pair.add_term(i, 1.0);
    pair.add_term(j, 1.0);
    cqm.add_squared_group(std::move(pair), rng.next_double() - 0.5);
  }
  for (std::size_t g = 0; g < 3; ++g) {
    LinearExpr e;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.5)) {
        e.add_term(static_cast<VarId>(i), rng.next_double() * 3 - 1.5);
      }
    }
    e.add_constant(rng.next_double() - 0.5);
    e.normalize();
    if (e.size() > 0) cqm.add_squared_group(std::move(e), rng.next_double() * 2 + 0.1);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    LinearExpr e;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.6)) {
        e.add_term(static_cast<VarId>(i), rng.next_double() * 4 - 2);
      }
    }
    e.normalize();
    if (e.size() == 0) continue;
    const Sense sense = c % 3 == 0 ? Sense::LE : (c % 3 == 1 ? Sense::GE : Sense::EQ);
    cqm.add_constraint(std::move(e), sense, rng.next_double() * 2 - 1);
  }
  return cqm;
}

double total_energy_brute(const CqmModel& m, const State& s,
                          const std::vector<double>& pen) {
  double e = m.objective_value(s);
  for (std::size_t c = 0; c < m.num_constraints(); ++c) {
    e += pen[c] * m.constraint_violation(c, s);
  }
  return e;
}

std::vector<double> random_penalties(util::Rng& rng, std::size_t n) {
  std::vector<double> pen(n);
  for (auto& p : pen) p = rng.next_double() * 5;
  return pen;
}

State random_state(util::Rng& rng, std::size_t n) {
  State s(n);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  return s;
}

// --------------------------------------------- flip/pair deltas vs brute ---

/// Whether two incidence rows name a common group or constraint.
template <typename Row>
bool share_an_index(const Row& a, const Row& b) {
  for (const auto& x : a) {
    for (const auto& y : b) {
      if (x.index == y.index) return true;
    }
  }
  return false;
}

TEST(CqmIncrementalState, FlipAndPairDeltasMatchBruteForce) {
  util::Rng rng(11);
  // Pairs whose merge walks meet on a shared group and a shared constraint.
  std::size_t shared_pairs = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 6 + rng.next_below(10);
    const CqmModel cqm = random_cqm(rng, n);
    const auto pen = random_penalties(rng, cqm.num_constraints());
    const State s = random_state(rng, n);
    const CqmIncrementalState walk(cqm, s, pen);
    const double base = total_energy_brute(cqm, s, pen);
    for (std::size_t v = 0; v < n; ++v) {
      State t = s;
      t[v] ^= 1u;
      EXPECT_LT(rel_err(walk.flip_delta(static_cast<VarId>(v)),
                        total_energy_brute(cqm, t, pen) - base),
                kRelTol);
    }
    for (int q = 0; q < 50; ++q) {
      const auto a = static_cast<VarId>(rng.next_below(n));
      const auto b = static_cast<VarId>(rng.next_below(n));
      if (a == b) continue;
      State t = s;
      t[a] ^= 1u;
      t[b] ^= 1u;
      EXPECT_LT(rel_err(walk.pair_delta_parts(a, b).total(),
                        total_energy_brute(cqm, t, pen) - base),
                kRelTol);
      if (share_an_index(cqm.group_kernel()[a], cqm.group_kernel()[b]) &&
          share_an_index(cqm.constraint_incidence()[a],
                         cqm.constraint_incidence()[b])) {
        ++shared_pairs;
      }
    }
  }
  EXPECT_GT(shared_pairs, 0u);
}

// ----------------------------------------------------- QUBO delta cache ----

TEST(QuboDeltaCacheTest, MatchesFreshFlipDeltasThroughRandomWalk) {
  util::Rng rng(3);
  for (int rep = 0; rep < 5; ++rep) {
    const std::size_t n = 8 + rng.next_below(24);
    QuboModel qubo(n);
    for (std::size_t i = 0; i < n; ++i) {
      qubo.add_linear(static_cast<VarId>(i), rng.next_double() * 2 - 1);
    }
    for (std::size_t t = 0; t < 4 * n; ++t) {
      const auto i = static_cast<VarId>(rng.next_below(n));
      const auto j = static_cast<VarId>(rng.next_below(n));
      if (i != j) qubo.add_quadratic(i, j, rng.next_double() * 2 - 1);
    }
    State s = random_state(rng, n);
    QuboDeltaCache cache(qubo, s);
    for (int step = 0; step < 400; ++step) {
      cache.apply_flip(s, static_cast<VarId>(rng.next_below(n)));
      ASSERT_LT(rel_err(cache.energy(), qubo.energy(s)), kRelTol);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_LT(rel_err(cache.delta(static_cast<VarId>(v)),
                          qubo.flip_delta(s, static_cast<VarId>(v))),
                  kRelTol);
      }
    }
  }
}

// ------------------------------------------------ determinism guarantees ---

lrp::LrpCqm medium_lrp_cqm() {
  // 48 variables: above the hybrid's exhaustive-enumeration threshold, so
  // this exercises the threaded annealing portfolio, not the Gray-code path.
  const lrp::LrpProblem problem =
      lrp::LrpProblem::uniform({4.0, 1.5, 2.0, 0.5}, 9);
  return lrp::build_lrp_cqm(problem, lrp::CqmVariant::kReduced,
                            problem.total_tasks(), {});
}

TEST(HybridDeterminism, ThreadCountDoesNotChangeResult) {
  const auto built = medium_lrp_cqm();
  HybridSolverParams p;
  p.num_restarts = 4;
  p.sweeps = 200;
  p.max_penalty_rounds = 2;
  p.seed = 21;
  p.threads = 1;
  const HybridSolveResult serial = HybridCqmSolver(p).solve(built.cqm());
  p.threads = 4;
  const HybridSolveResult threaded = HybridCqmSolver(p).solve(built.cqm());
  EXPECT_EQ(serial.best.state, threaded.best.state);
  EXPECT_EQ(serial.best.energy, threaded.best.energy);
  EXPECT_EQ(serial.best.violation, threaded.best.violation);
  EXPECT_EQ(serial.stats.restarts_used, threaded.stats.restarts_used);
  ASSERT_EQ(serial.samples.size(), threaded.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(serial.samples.at(i).state, threaded.samples.at(i).state);
    EXPECT_EQ(serial.samples.at(i).energy, threaded.samples.at(i).energy);
  }
}

TEST(CqmAnnealerDeterminism, SharedPairIndexMatchesPrivateBuild) {
  // anneal_once must consume the RNG identically whether the caller passes a
  // prebuilt PairMoveIndex or lets the annealer build its own.
  const auto built = medium_lrp_cqm();
  const std::vector<double> pen(built.cqm().num_constraints(), 10.0);
  CqmAnnealParams ap;
  ap.sweeps = 120;
  const PairMoveIndex shared = PairMoveIndex::build(built.cqm());

  util::Rng rng_a(77);
  const Sample a = CqmAnnealer(ap).anneal_once(built.cqm(), pen, rng_a);
  util::Rng rng_b(77);
  const Sample b = CqmAnnealer(ap).anneal_once(built.cqm(), pen, rng_b, {}, &shared);

  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

}  // namespace
}  // namespace qulrb::anneal
