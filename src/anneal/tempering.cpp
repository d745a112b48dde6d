#include "anneal/tempering.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/phase.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qulrb::anneal {

using model::VarId;

std::vector<double> tempering_ladder(const CqmIncrementalState& walk,
                                     util::Rng& rng, std::size_t num_replicas) {
  util::require(num_replicas >= 2, "tempering_ladder: need >= 2 replicas");
  const std::size_t n = walk.num_variables();
  double max_total = 1e-9;
  double max_objective = 1e-9;
  const std::size_t probes = std::min<std::size_t>(n, 256);
  for (std::size_t p = 0; p < probes; ++p) {
    const auto d = walk.flip_delta_parts(static_cast<VarId>(rng.next_below(n)));
    max_total = std::max(max_total, std::abs(d.total()));
    max_objective = std::max(max_objective, std::abs(d.objective));
  }
  // A flat objective (no probed objective move) leaves only the total scale.
  const double objective_scale = max_objective > 1e-9 ? max_objective : max_total;
  const double objective_point = std::log(2.0) / std::min(max_total, objective_scale);
  const double total_point = 1e4 / max_total;
  const double beta_hot = std::min(objective_point, total_point);
  const double beta_cold =
      std::max({objective_point, total_point, beta_hot * (1.0 + 1e-9)});
  std::vector<double> betas(num_replicas);
  for (std::size_t r = 0; r < num_replicas; ++r) {
    const double t =
        static_cast<double>(r) / static_cast<double>(num_replicas - 1);
    betas[r] = beta_hot * std::pow(beta_cold / beta_hot, t);
  }
  return betas;
}

Sample ParallelTempering::run(const model::CqmModel& cqm,
                              std::vector<double> penalties,
                              const model::State& initial,
                              const PairMoveIndex* prebuilt_pairs) const {
  const std::size_t n = cqm.num_variables();
  const SamplerSinks& sinks = params_.sinks;
  util::require(params_.num_replicas >= 2, "ParallelTempering: need >= 2 replicas");
  util::require(params_.swap_interval >= 1,
                "ParallelTempering: swap_interval must be >= 1");
  util::require(initial.empty() || initial.size() == n,
                "ParallelTempering: initial state size mismatch");

  util::Rng master(params_.seed);

  // Per-replica RNG streams and walkers. Streams are independent, so
  // splitting them all before the init draws yields the same values as
  // interleaving the two.
  std::vector<util::Rng> rngs;
  rngs.reserve(params_.num_replicas);
  for (std::size_t r = 0; r < params_.num_replicas; ++r) {
    rngs.push_back(master.split());
  }
  std::vector<CqmIncrementalState> walkers;
  walkers.reserve(params_.num_replicas);
  for (std::size_t r = 0; r < params_.num_replicas; ++r) {
    model::State start(n);
    if (initial.empty()) {
      for (auto& b : start) b = static_cast<std::uint8_t>(rngs[r].next_below(2));
    } else {
      start = initial;
    }
    walkers.emplace_back(cqm, std::move(start), penalties);
  }

  // Ladder position -> walker. Replica exchange swaps configurations between
  // adjacent temperatures; the configurations stay in their walkers and only
  // this permutation moves.
  std::vector<std::size_t> perm(params_.num_replicas);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  const std::vector<double> betas =
      tempering_ladder(walkers[perm[0]], rngs[0], params_.num_replicas);

  const PairMoveIndex local_pairs =
      prebuilt_pairs == nullptr ? PairMoveIndex::build(cqm) : PairMoveIndex{};
  const PairMoveIndex& pairs =
      prebuilt_pairs != nullptr ? *prebuilt_pairs : local_pairs;

  const CqmIncrementalState& last = walkers[perm.back()];
  Sample best{last.state(), last.objective(), last.total_violation(),
              last.feasible()};

  if (n == 0) return best;

  SamplerRun run_phase(sinks, "tempering", params_.sweeps);

  // One ladder position's walk over sweeps [s0, s1): every sample that beat
  // its running best (which starts at the interval's incumbent), in sweep
  // order, and how many sweeps it completed before a cancellation.
  struct IntervalWalk {
    std::vector<std::pair<std::size_t, Sample>> improvements;
    std::size_t swept = 0;
  };
  std::vector<IntervalWalk> walks(params_.num_replicas);
  std::size_t s0 = 0;
  std::size_t s1 = 0;
  auto walk_interval = [&](std::size_t r) {
    // May run on a pool worker; the scopes must live here for profiler
    // samples of this walk to attribute.
    obs::prof::RidScope rid_scope(sinks.flight.rid);
    obs::prof::PhaseScope restart_phase("restart");
    IntervalWalk& out = walks[r];
    out.improvements.clear();
    out.swept = 0;
    CqmIncrementalState& walk = walkers[perm[r]];
    // Work on a copy: neighbouring streams share cache lines, and every
    // draw writes the stream state.
    util::Rng rng = rngs[r];
    const double beta = betas[r];
    Sample running{{}, best.energy, best.violation, best.feasible};
    for (std::size_t sweep = s0; sweep < s1; ++sweep) {
      if (sinks.cancel.expired()) break;
      metropolis_sweep(walk, pairs, rng, beta, false);
      Sample current{{}, walk.objective(), walk.total_violation(),
                     walk.feasible()};
      if (current.better_than(running)) {
        running = current;
        current.state = walk.state();
        out.improvements.emplace_back(sweep, std::move(current));
      }
      ++out.swept;
    }
    rngs[r] = rng;
  };

  std::vector<std::size_t> cursor(params_.num_replicas);
  for (; s0 < params_.sweeps; s0 = s1) {
    if (sinks.cancel.expired()) break;
    s1 = std::min(params_.sweeps, s0 + params_.swap_interval);
    if (params_.pool != nullptr) {
      params_.pool->parallel_for(walks.size(), walk_interval);
    } else {
      for (std::size_t r = 0; r < walks.size(); ++r) walk_interval(r);
    }

    // Replay the sequential ladder scan, which visits (sweep, position) in
    // order and keeps a sample only when it is strictly better than the
    // incumbent. Its winner is always an improvement some walk recorded, so
    // scanning just those in the same order yields the same incumbent bit
    // for bit, and the trace samples for the same sweeps.
    std::size_t swept = 0;
    bool cut_short = false;
    for (const IntervalWalk& w : walks) {
      swept = std::max(swept, w.swept);
      cut_short = cut_short || w.swept < s1 - s0;
    }
    std::fill(cursor.begin(), cursor.end(), std::size_t{0});
    for (std::size_t sweep = s0; sweep < s0 + swept; ++sweep) {
      for (std::size_t r = 0; r < walks.size(); ++r) {
        auto& found = walks[r].improvements;
        if (cursor[r] < found.size() && found[cursor[r]].first == sweep) {
          Sample& candidate = found[cursor[r]++].second;
          if (candidate.better_than(best)) best = std::move(candidate);
        }
      }
      run_phase.sweep_done(sweep, best.energy, best.violation);
    }
    if (cut_short) break;

    if (s1 % params_.swap_interval == 0) {
      for (std::size_t r = 0; r + 1 < perm.size(); ++r) {
        const double ea = walkers[perm[r]].total_energy();
        const double eb = walkers[perm[r + 1]].total_energy();
        const double log_accept = (betas[r] - betas[r + 1]) * (ea - eb);
        if (log_accept >= 0.0 ||
            rngs[0].next_double() < std::exp(log_accept)) {
          std::swap(perm[r], perm[r + 1]);
        }
      }
    }
  }
  return best;
}

}  // namespace qulrb::anneal
