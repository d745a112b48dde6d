#include "anneal/tabu.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "anneal/delta_cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

std::size_t tabu_argmin(std::span<const double> deltas,
                        std::span<const std::size_t> tabu_until,
                        std::size_t iteration, double energy,
                        double best_energy) noexcept {
  const std::size_t n = deltas.size();
  std::size_t chosen = n;
  double chosen_delta = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < n; ++v) {
    const bool tabu = tabu_until[v] >= iteration;
    const bool aspirates = energy + deltas[v] < best_energy - 1e-12;
    if (tabu && !aspirates) continue;
    if (deltas[v] < chosen_delta) {
      chosen_delta = deltas[v];
      chosen = v;
    }
  }
  return chosen;
}

Sample TabuSampler::search_once(const model::QuboModel& qubo, util::Rng& rng,
                                const model::State& initial) const {
  const std::size_t n = qubo.num_variables();
  util::require(initial.empty() || initial.size() == n,
                "TabuSampler: initial state size mismatch");

  model::State state(n);
  if (initial.empty()) {
    for (auto& b : state) b = static_cast<std::uint8_t>(rng.next_below(2));
  } else {
    state = initial;
  }
  if (n == 0) return {state, qubo.energy(state), 0.0, true};

  // All flip deltas live in the shared cache: O(1) candidate scoring, O(deg)
  // refresh per committed move.
  QuboDeltaCache cache(qubo, state);

  const std::size_t tenure =
      params_.tenure > 0 ? params_.tenure : std::max<std::size_t>(4, n / 10);
  std::vector<std::size_t> tabu_until(n, 0);

  model::State best_state = state;
  double best_energy = cache.energy();
  std::size_t stall = 0;

  obs::Recorder::Span restart_span(params_.recorder, "tabu-restart", "sampler",
                                   params_.trace_track);
  const std::size_t sample_every =
      std::max<std::size_t>(1, params_.max_iterations / 64);
  std::size_t iterations_done = 0;

  const auto deltas = cache.deltas();

  for (std::size_t iteration = 1;
       iteration <= params_.max_iterations && stall < params_.stall_limit;
       ++iteration) {
    // Each iteration already scans all n deltas, so a poll every 64
    // iterations keeps the clock read off the critical path.
    if (iteration % 64 == 0 && params_.cancel.expired()) break;
    // Pick the best admissible move; aspiration overrides tabu, ties go to
    // the lowest index.
    std::size_t chosen =
        tabu_argmin(deltas, tabu_until, iteration, cache.energy(), best_energy);
    if (chosen == n) {  // everything tabu and nothing aspirates: free the oldest
      chosen = static_cast<std::size_t>(rng.next_below(n));
    }

    cache.apply_flip(state, static_cast<model::VarId>(chosen));
    tabu_until[chosen] = iteration + tenure;

    if (cache.energy() < best_energy - 1e-12) {
      best_energy = cache.energy();
      best_state = state;
      stall = 0;
    } else {
      ++stall;
    }
    ++iterations_done;
    if (params_.recorder != nullptr && iteration % sample_every == 0) {
      params_.recorder->sample("incumbent_energy", params_.trace_track,
                               best_energy);
    }
  }
  if (params_.iteration_counter != nullptr && iterations_done > 0) {
    params_.iteration_counter->inc(iterations_done);
  }
  return {std::move(best_state), best_energy, 0.0, true};
}

SampleSet TabuSampler::sample(const model::QuboModel& qubo) const {
  SampleSet set;
  util::Rng master(params_.seed);
  for (std::size_t restart = 0; restart < params_.num_restarts; ++restart) {
    util::Rng rng = master.split();
    set.add(search_once(qubo, rng));
    // Keep at least one restart so callers always get a sample.
    if (params_.cancel.expired()) break;
  }
  return set;
}

}  // namespace qulrb::anneal
