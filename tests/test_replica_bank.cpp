#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "anneal/delta_cache.hpp"
#include "anneal/hybrid.hpp"
#include "anneal/replica_bank.hpp"
#include "anneal/sa.hpp"
#include "anneal/sampleset.hpp"
#include "anneal/simd.hpp"
#include "anneal/tempering.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/problem.hpp"
#include "model/cqm.hpp"
#include "model/qubo.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qulrb::anneal {
namespace {

// Every equality in this file is bitwise: the replica bank's contract is that
// each lane reproduces the scalar walk *exactly*, so doubles are compared
// with EXPECT_EQ (IEEE equality on identical bit patterns), never near().

// RAII guard: force a SIMD dispatch level for one scope, restore on exit.
class SimdLevelGuard {
 public:
  explicit SimdLevelGuard(simd::Level level) : saved_(simd::active_level()) {
    simd::set_active_level(level);
  }
  ~SimdLevelGuard() { simd::set_active_level(saved_); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;

 private:
  simd::Level saved_;
};

bool avx2_available() {
  return simd::detected_level() == simd::Level::kAvx2;
}

// Small but structurally complete LRP instance: skewed loads, unequal task
// counts, tight migration bound — exercises squared groups, inequality and
// (for kFull) equality constraints, and non-trivial pair-move classes.
lrp::LrpProblem skewed_problem() {
  return lrp::LrpProblem({30.0, 9.0, 8.0, 4.0, 3.0, 2.0},
                         {12, 12, 12, 12, 12, 12});
}

model::CqmModel build_cqm(lrp::CqmVariant variant) {
  return lrp::build_lrp_cqm(skewed_problem(), variant, 8, {}).cqm();
}

model::State random_state(std::size_t n, util::Rng& rng) {
  model::State s(n);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  return s;
}

void expect_sample_eq(const Sample& a, const Sample& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(a.feasible, b.feasible);
}

void expect_rng_eq(util::Rng a, util::Rng b) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ------------------------------------------------ bank primitives vs scalar -

// Drive R bank lanes and R CqmIncrementalState walks through the same random
// op sequence (flip deltas, pair deltas, commits, penalty swaps) and require
// every observable to stay bitwise identical at every step.
void check_bank_matches_incremental(lrp::CqmVariant variant, simd::Level level) {
  const model::CqmModel cqm = build_cqm(variant);
  const std::size_t n = cqm.num_variables();
  const std::size_t c = cqm.num_constraints();
  constexpr std::size_t kLanes = 5;  // not a multiple of the vector width

  util::Rng setup(42);
  std::vector<model::State> starts;
  std::vector<std::vector<double>> penalties;
  for (std::size_t r = 0; r < kLanes; ++r) {
    starts.push_back(random_state(n, setup));
    penalties.emplace_back(c, 1.0 + static_cast<double>(r));
  }

  SimdLevelGuard guard(level);
  CqmReplicaBank bank(cqm, starts, penalties);
  std::vector<CqmIncrementalState> ref;
  for (std::size_t r = 0; r < kLanes; ++r) {
    ref.emplace_back(cqm, starts[r], penalties[r]);
  }

  auto check_lane = [&](std::size_t r) {
    EXPECT_EQ(bank.objective(r), ref[r].objective());
    EXPECT_EQ(bank.penalty_energy(r), ref[r].penalty_energy());
    EXPECT_EQ(bank.total_energy(r), ref[r].total_energy());
    EXPECT_EQ(bank.total_violation(r), ref[r].total_violation());
    EXPECT_EQ(bank.feasible(r), ref[r].feasible());
    EXPECT_EQ(bank.extract_state(r), ref[r].state());
  };
  for (std::size_t r = 0; r < kLanes; ++r) check_lane(r);

  util::Rng ops(7);
  for (std::size_t step = 0; step < 600; ++step) {
    const std::size_t r = ops.next_below(kLanes);
    const auto v = static_cast<model::VarId>(ops.next_below(n));
    const auto w = static_cast<model::VarId>(ops.next_below(n));

    const auto bd = bank.flip_delta_parts(r, v);
    const auto rd = ref[r].flip_delta_parts(v);
    ASSERT_EQ(bd.objective, rd.objective);
    ASSERT_EQ(bd.penalty, rd.penalty);
    if (v != w) {
      const auto bp = bank.pair_delta_parts(r, v, w);
      const auto rp = ref[r].pair_delta_parts(v, w);
      ASSERT_EQ(bp.objective, rp.objective);
      ASSERT_EQ(bp.penalty, rp.penalty);
    }
    EXPECT_EQ(bank.state_bit(r, v), ref[r].state_bit(v));

    bank.apply_flip(r, v);
    ref[r].apply_flip(v);
    if (step % 97 == 0) {
      std::vector<double> fresh(c, 1.0 + ops.next_double());
      bank.set_penalties(r, fresh);
      ref[r].set_penalties(fresh);
    }
    check_lane(r);
  }
}

TEST(ReplicaBank, LaneMatchesIncrementalStateScalar_QCQM1) {
  check_bank_matches_incremental(lrp::CqmVariant::kReduced, simd::Level::kScalar);
}

TEST(ReplicaBank, LaneMatchesIncrementalStateScalar_QCQM2) {
  check_bank_matches_incremental(lrp::CqmVariant::kFull, simd::Level::kScalar);
}

TEST(ReplicaBank, LaneMatchesIncrementalStateSimd_QCQM1) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  check_bank_matches_incremental(lrp::CqmVariant::kReduced, simd::Level::kAvx2);
}

TEST(ReplicaBank, LaneMatchesIncrementalStateSimd_QCQM2) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  check_bank_matches_incremental(lrp::CqmVariant::kFull, simd::Level::kAvx2);
}

// The batched all-lane kernels must agree entry for entry with the per-lane
// scalar calls, and a masked batched commit must match selective commits.
void check_batched_kernels(simd::Level level) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kFull);
  const std::size_t n = cqm.num_variables();
  constexpr std::size_t kLanes = 7;

  util::Rng setup(11);
  std::vector<model::State> starts;
  std::vector<std::vector<double>> penalties;
  for (std::size_t r = 0; r < kLanes; ++r) {
    starts.push_back(random_state(n, setup));
    penalties.emplace_back(cqm.num_constraints(), 2.0);
  }

  SimdLevelGuard guard(level);
  CqmReplicaBank bank(cqm, starts, penalties);
  CqmReplicaBank mirror(cqm, starts, penalties);

  util::Rng ops(13);
  std::vector<CqmReplicaBank::FlipDelta> out(kLanes);
  std::vector<std::uint8_t> accept(kLanes);
  for (std::size_t step = 0; step < 300; ++step) {
    const auto v = static_cast<model::VarId>(ops.next_below(n));
    auto w = static_cast<model::VarId>(ops.next_below(n));
    if (w == v) w = static_cast<model::VarId>((w + 1) % n);

    bank.batched_flip_delta(v, out.data());
    for (std::size_t r = 0; r < kLanes; ++r) {
      const auto d = mirror.flip_delta_parts(r, v);
      ASSERT_EQ(out[r].objective, d.objective);
      ASSERT_EQ(out[r].penalty, d.penalty);
    }
    bank.batched_pair_delta(v, w, out.data());
    for (std::size_t r = 0; r < kLanes; ++r) {
      if (bank.state_bit(r, v) == bank.state_bit(r, w)) continue;
      const auto d = mirror.pair_delta_parts(r, v, w);
      ASSERT_EQ(out[r].objective, d.objective);
      ASSERT_EQ(out[r].penalty, d.penalty);
    }

    for (auto& a : accept) a = static_cast<std::uint8_t>(ops.next_below(2));
    bank.batched_apply_flip(v, accept.data());
    for (std::size_t r = 0; r < kLanes; ++r) {
      if (accept[r] != 0) mirror.apply_flip(r, v);
      ASSERT_EQ(bank.objective(r), mirror.objective(r));
      ASSERT_EQ(bank.penalty_energy(r), mirror.penalty_energy(r));
      ASSERT_EQ(bank.state_bit(r, v), mirror.state_bit(r, v));
    }
  }
  for (std::size_t r = 0; r < kLanes; ++r) {
    EXPECT_EQ(bank.extract_state(r), mirror.extract_state(r));
  }
}

TEST(ReplicaBank, BatchedKernelsMatchPerLaneScalar) {
  check_batched_kernels(simd::Level::kScalar);
}

TEST(ReplicaBank, BatchedKernelsMatchPerLaneSimd) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  check_batched_kernels(simd::Level::kAvx2);
}

// One identical walk executed under both dispatch levels must leave the two
// banks in bitwise-identical states: the level is a pure performance knob.
TEST(ReplicaBank, SimdAndScalarWalksBitwiseIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const std::size_t n = cqm.num_variables();
  constexpr std::size_t kLanes = 8;

  util::Rng setup(3);
  std::vector<model::State> starts;
  std::vector<std::vector<double>> penalties;
  for (std::size_t r = 0; r < kLanes; ++r) {
    starts.push_back(random_state(n, setup));
    penalties.emplace_back(cqm.num_constraints(), 4.0);
  }

  auto run_walk = [&](simd::Level level) {
    SimdLevelGuard guard(level);
    CqmReplicaBank bank(cqm, starts, penalties);
    util::Rng ops(99);
    std::vector<std::uint8_t> accept(kLanes);
    for (std::size_t step = 0; step < 500; ++step) {
      const auto v = static_cast<model::VarId>(ops.next_below(n));
      for (auto& a : accept) a = static_cast<std::uint8_t>(ops.next_below(2));
      bank.batched_apply_flip(v, accept.data());
    }
    std::vector<std::pair<double, double>> lanes;
    std::vector<model::State> states;
    for (std::size_t r = 0; r < kLanes; ++r) {
      lanes.emplace_back(bank.objective(r), bank.penalty_energy(r));
      states.push_back(bank.extract_state(r));
    }
    return std::make_pair(lanes, states);
  };

  const auto scalar = run_walk(simd::Level::kScalar);
  const auto vec = run_walk(simd::Level::kAvx2);
  EXPECT_EQ(scalar.first, vec.first);
  EXPECT_EQ(scalar.second, vec.second);
}

// ------------------------------------------------------- QUBO replica bank --

model::QuboModel random_qubo(std::size_t n, std::uint64_t seed) {
  model::QuboModel qubo(n);
  util::Rng gen(seed);
  for (std::size_t i = 0; i < n; ++i) {
    qubo.add_linear(static_cast<model::VarId>(i), gen.next_double() * 4.0 - 2.0);
    for (int t = 0; t < 4; ++t) {
      const auto j = static_cast<model::VarId>(gen.next_below(n));
      if (j == static_cast<model::VarId>(i)) continue;
      qubo.add_quadratic(static_cast<model::VarId>(i), j,
                         gen.next_double() * 2.0 - 1.0);
    }
  }
  qubo.add_offset(0.5);
  return qubo;
}

void check_qubo_bank(simd::Level level) {
  const model::QuboModel qubo = random_qubo(90, 5);
  constexpr std::size_t kLanes = 6;
  util::Rng setup(21);
  std::vector<model::State> starts;
  for (std::size_t r = 0; r < kLanes; ++r) starts.push_back(random_state(90, setup));

  SimdLevelGuard guard(level);
  QuboReplicaBank bank(qubo, starts);
  std::vector<model::State> ref_states = starts;
  std::vector<QuboDeltaCache> ref;
  for (std::size_t r = 0; r < kLanes; ++r) ref.emplace_back(qubo, ref_states[r]);

  util::Rng ops(17);
  for (std::size_t step = 0; step < 800; ++step) {
    const std::size_t r = ops.next_below(kLanes);
    const auto v = static_cast<model::VarId>(ops.next_below(90));
    ASSERT_EQ(bank.energy(r), ref[r].energy());
    ASSERT_EQ(bank.delta(r, v), ref[r].delta(v));
    ASSERT_EQ(bank.state_bit(r, v), ref_states[r][v] != 0);
    bank.apply_flip(r, v);
    ref[r].apply_flip(ref_states[r], v);
  }
  for (std::size_t r = 0; r < kLanes; ++r) {
    EXPECT_EQ(bank.extract_state(r), ref_states[r]);
    EXPECT_EQ(bank.energy(r), ref[r].energy());
  }
}

TEST(ReplicaBank, QuboLanesMatchDeltaCacheScalar) {
  check_qubo_bank(simd::Level::kScalar);
}

TEST(ReplicaBank, QuboLanesMatchDeltaCacheSimd) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  check_qubo_bank(simd::Level::kAvx2);
}

// ----------------------------------------------- batched annealer contracts -

// Exact per-lane mode: anneal_lanes with per-lane proposal streams must be
// bitwise identical to R independent CqmAnnealer::anneal_once runs with the
// same pre-split streams — samples and final RNG positions both match.
void check_exact_mode(lrp::CqmVariant variant, std::size_t lanes,
                      std::uint64_t seed) {
  const model::CqmModel cqm = build_cqm(variant);
  const std::size_t n = cqm.num_variables();
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 2.0);

  util::Rng master(seed);
  std::vector<util::Rng> streams;
  for (std::size_t r = 0; r < lanes; ++r) streams.push_back(master.split());
  std::vector<model::State> inits;
  {
    util::Rng init_rng(seed ^ 0x5bd1e995u);
    // Lane 0 refines the all-zeros point; the rest scramble random starts.
    inits.emplace_back(n, 0);
    for (std::size_t r = 1; r < lanes; ++r) inits.push_back(random_state(n, init_rng));
  }

  // Scalar oracle: one anneal_once per lane on a copy of its stream.
  std::vector<util::Rng> scalar_streams = streams;
  std::vector<Sample> expected;
  for (std::size_t r = 0; r < lanes; ++r) {
    CqmAnnealParams ap;
    ap.sweeps = 50;
    ap.refinement = (r == 0);
    expected.push_back(CqmAnnealer(ap).anneal_once(cqm, penalties,
                                                   scalar_streams[r], inits[r],
                                                   nullptr, &pairs));
  }

  std::vector<util::Rng> bank_streams = streams;
  std::vector<BatchedLaneSpec> specs(lanes);
  for (std::size_t r = 0; r < lanes; ++r) {
    specs[r].rng = &bank_streams[r];
    specs[r].initial = &inits[r];
    specs[r].penalties = &penalties;
    specs[r].refinement = (r == 0);
  }
  BatchedCqmAnnealParams bp;
  bp.sweeps = 50;
  const std::vector<Sample> got =
      BatchedCqmAnnealer(bp).anneal_lanes(cqm, specs, &pairs);

  ASSERT_EQ(got.size(), lanes);
  for (std::size_t r = 0; r < lanes; ++r) {
    SCOPED_TRACE("lane " + std::to_string(r));
    expect_sample_eq(got[r], expected[r]);
    expect_rng_eq(bank_streams[r], scalar_streams[r]);
  }
}

TEST(ReplicaBank, ExactModeMatchesScalarAnnealer_QCQM1) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::uint64_t seed : {7ull, 1234ull}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " seed=" + std::to_string(seed));
      check_exact_mode(lrp::CqmVariant::kReduced, lanes, seed);
    }
  }
}

TEST(ReplicaBank, ExactModeMatchesScalarAnnealer_QCQM2) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    check_exact_mode(lrp::CqmVariant::kFull, lanes, 99);
  }
}

// Shared-proposal lockstep mode, run end to end under both dispatch levels:
// per-lane samples and final stream positions must be bitwise identical.
TEST(ReplicaBank, LockstepModeSimdScalarIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 not available in this build";
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 2.0);
  constexpr std::size_t kLanes = 8;

  auto run = [&](simd::Level level) {
    SimdLevelGuard guard(level);
    util::Rng master(5);
    std::vector<util::Rng> streams;
    for (std::size_t r = 0; r < kLanes; ++r) streams.push_back(master.split());
    std::vector<BatchedLaneSpec> specs(kLanes);
    for (std::size_t r = 0; r < kLanes; ++r) {
      specs[r].rng = &streams[r];
      specs[r].penalties = &penalties;
    }
    BatchedCqmAnnealParams bp;
    bp.sweeps = 40;
    util::Rng proposal(17);
    auto samples = BatchedCqmAnnealer(bp).anneal_lanes(cqm, specs, &pairs, &proposal);
    return std::make_pair(std::move(samples), streams);
  };

  auto scalar = run(simd::Level::kScalar);
  auto vec = run(simd::Level::kAvx2);
  ASSERT_EQ(scalar.first.size(), vec.first.size());
  for (std::size_t r = 0; r < kLanes; ++r) {
    SCOPED_TRACE("lane " + std::to_string(r));
    expect_sample_eq(scalar.first[r], vec.first[r]);
    expect_rng_eq(scalar.second[r], vec.second[r]);
  }
}

// In lockstep mode a lane's trajectory depends only on (proposal stream, its
// own acceptance stream): the same lane run solo must reproduce its R = 8
// result exactly, whatever the other lanes were doing.
TEST(ReplicaBank, LockstepModeIndependentOfReplicaCount) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 2.0);
  constexpr std::size_t kLanes = 8;

  util::Rng master(5);
  std::vector<util::Rng> streams;
  for (std::size_t r = 0; r < kLanes; ++r) streams.push_back(master.split());

  BatchedCqmAnnealParams bp;
  bp.sweeps = 30;

  std::vector<util::Rng> full_streams = streams;
  std::vector<BatchedLaneSpec> specs(kLanes);
  for (std::size_t r = 0; r < kLanes; ++r) {
    specs[r].rng = &full_streams[r];
    specs[r].penalties = &penalties;
  }
  util::Rng proposal_full(17);
  const auto full =
      BatchedCqmAnnealer(bp).anneal_lanes(cqm, specs, &pairs, &proposal_full);

  for (const std::size_t r : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    SCOPED_TRACE("lane " + std::to_string(r));
    util::Rng solo_stream = streams[r];
    BatchedLaneSpec solo;
    solo.rng = &solo_stream;
    solo.penalties = &penalties;
    util::Rng proposal_solo(17);
    const auto got = BatchedCqmAnnealer(bp).anneal_lanes(
        cqm, std::span<const BatchedLaneSpec>(&solo, 1), &pairs, &proposal_solo);
    ASSERT_EQ(got.size(), 1u);
    expect_sample_eq(got[0], full[r]);
    expect_rng_eq(solo_stream, full_streams[r]);
  }
}

// --------------------------------------------------------- tempering swaps --

// Reference replica exchange with configuration swaps: walkers are scalar
// CqmIncrementalState instances and an exchange physically swaps the walker
// objects between ladder positions. The production ParallelTempering keeps
// configurations in bank lanes and swaps a lane permutation instead — the
// two must be indistinguishable draw for draw and bit for bit.
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

  double beta_hot = params.beta_hot;
  double beta_cold = params.beta_cold;
  if (beta_hot <= 0.0 || beta_cold <= 0.0) {
    double max_abs = 1e-9;
    const std::size_t probes = std::min<std::size_t>(n, 256);
    for (std::size_t p = 0; p < probes; ++p) {
      const auto v = static_cast<model::VarId>(rngs[0].next_below(n));
      max_abs = std::max(max_abs, std::abs(walkers[0].flip_delta(v)));
    }
    beta_hot = std::log(2.0) / max_abs;
    beta_cold = 1e4 / max_abs;
  }
  std::vector<double> betas(params.num_replicas);
  for (std::size_t r = 0; r < params.num_replicas; ++r) {
    const double t = static_cast<double>(r) /
                     static_cast<double>(params.num_replicas - 1);
    betas[r] = beta_hot * std::pow(beta_cold / beta_hot, t);
  }

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

TEST(ReplicaBank, TemperingPermutationSwapMatchesConfigurationSwap) {
  for (const auto variant : {lrp::CqmVariant::kReduced, lrp::CqmVariant::kFull}) {
    const model::CqmModel cqm = build_cqm(variant);
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

TEST(ReplicaBank, TemperingDeterministicAndCountsLaneSweeps) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const PairMoveIndex pairs = PairMoveIndex::build(cqm);
  const std::vector<double> penalties(cqm.num_constraints(), 2.0);

  obs::MetricsRegistry reg;
  TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 20;
  params.swap_interval = 5;
  params.seed = 77;
  params.sweep_counter = &reg.counter("rounds");
  params.replica_sweep_counter = &reg.counter("lane_sweeps");

  const Sample a = ParallelTempering(params).run(cqm, penalties, {}, &pairs);
  EXPECT_EQ(reg.counter("rounds").value(), 20u);
  EXPECT_EQ(reg.counter("lane_sweeps").value(), 20u * 4u);

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
      {"Q_CQM1", build_cqm(lrp::CqmVariant::kReduced)},
      {"Q_CQM2", build_cqm(lrp::CqmVariant::kFull)},
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
    params.recorder = &inline_recorder;
    expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                     expected);
    const std::vector<double> inline_trace = incumbent_trace(inline_recorder);
    EXPECT_FALSE(inline_trace.empty());

    for (const std::size_t workers : {1u, 2u, 3u, 6u}) {
      SCOPED_TRACE("pool of " + std::to_string(workers));
      util::ThreadPool pool(workers);
      obs::Recorder recorder("pool");
      params.pool = &pool;
      params.recorder = &recorder;
      expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                       expected);
      EXPECT_EQ(incumbent_trace(recorder), inline_trace);
      params.recorder = nullptr;
      expect_sample_eq(ParallelTempering(params).run(cqm, penalties, {}, &pairs),
                       expected);
      params.pool = nullptr;
    }
  }
}

// ------------------------------------------------------------ SA + tabu -----

// SimulatedAnnealer::sample's bank-batched multi-read path must emit exactly
// the sample set the legacy per-read scalar loop produced: one pre-split
// stream per read, each read bitwise equal to anneal_once on that stream.
TEST(ReplicaBank, SaBatchedReadsMatchScalarReads) {
  const model::QuboModel qubo = random_qubo(120, 7);
  SaParams params;
  params.sweeps = 40;
  params.num_reads = 6;
  params.seed = 17;

  const SimulatedAnnealer annealer(params);
  const SampleSet got = annealer.sample(qubo);
  ASSERT_EQ(got.size(), params.num_reads);

  util::Rng master(params.seed);
  for (std::size_t read = 0; read < params.num_reads; ++read) {
    SCOPED_TRACE("read " + std::to_string(read));
    util::Rng rng = master.split();
    const Sample expected = annealer.anneal_once(qubo, rng);
    expect_sample_eq(got.at(read), expected);
  }
}

// Dispatched tabu candidate scan vs a plain reference loop over admissibility
// (not tabu, or aspirating) with the strict-less, lowest-index tie rule.
TEST(ReplicaBank, TabuArgminMatchesReferenceScan) {
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

    {
      SimdLevelGuard guard(simd::Level::kScalar);
      EXPECT_EQ(tabu_argmin(deltas, tabu_until, iteration, energy, best_energy),
                expected);
    }
    if (avx2_available()) {
      SimdLevelGuard guard(simd::Level::kAvx2);
      EXPECT_EQ(tabu_argmin(deltas, tabu_until, iteration, energy, best_energy),
                expected);
    }
  }
}

// --------------------------------------------------- solver + observability -

anneal::HybridSolverParams solver_params() {
  anneal::HybridSolverParams params;
  params.num_restarts = 4;
  params.sweeps = 60;
  params.seed = 42;
  params.threads = 1;
  params.exhaustive_max_vars = 0;  // force the sampling portfolio
  return params;
}

// The scheduling contract: the portfolio produces the same bytes whether it
// runs inline or on a shared pool of any size, with tracing on or off.
TEST(ReplicaBank, HybridSolverOutputInvariantAcrossThreads) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  const auto serial = HybridCqmSolver(solver_params()).solve(cqm);
  EXPECT_EQ(serial.stats.replica_lanes, 1u);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (traced ? " traced" : " untraced"));
      obs::Recorder recorder("solve");
      auto params = solver_params();
      params.threads = threads;
      params.recorder = traced ? &recorder : nullptr;
      const auto got = HybridCqmSolver(params).solve(cqm);
      expect_sample_eq(got.best, serial.best);
      EXPECT_EQ(got.stats.restarts_used, serial.stats.restarts_used);
      EXPECT_EQ(got.stats.penalty_rounds_used, serial.stats.penalty_rounds_used);
      ASSERT_EQ(got.samples.size(), serial.samples.size());
      for (std::size_t i = 0; i < got.samples.size(); ++i) {
        SCOPED_TRACE("sample " + std::to_string(i));
        expect_sample_eq(got.samples.at(i), serial.samples.at(i));
      }
    }
  }
}

TEST(ReplicaBank, HybridSolverCountsReplicaSweeps) {
  const model::CqmModel cqm = build_cqm(lrp::CqmVariant::kReduced);
  obs::MetricsRegistry reg;
  auto params = solver_params();
  params.metrics = &reg;
  const auto result = HybridCqmSolver(params).solve(cqm);
  EXPECT_TRUE(result.best.feasible);
  EXPECT_EQ(result.stats.replica_lanes, 1u);
  // Every lane-sweep the bank executes lands in the counter; the portfolio
  // runs num_restarts chains of `sweeps` sweeps at minimum (penalty rounds
  // and tempering only add to it).
  EXPECT_GE(reg.counter("qulrb_solver_replica_sweeps").value(),
            params.num_restarts * params.sweeps);
}

TEST(ReplicaBank, SolveEventSerializesReplicasFieldWhenKnown) {
  obs::SolveEvent event;
  event.source = "test";
  EXPECT_EQ(obs::to_json_line(event).find("replicas"), std::string::npos);
  event.replicas = 8;
  EXPECT_NE(obs::to_json_line(event).find("\"replicas\":8"), std::string::npos);
}

}  // namespace
}  // namespace qulrb::anneal
