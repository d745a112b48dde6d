#include "anneal/sa.hpp"

#include <cmath>
#include <vector>

#include "anneal/delta_cache.hpp"
#include "anneal/schedule.hpp"
#include "util/error.hpp"

namespace qulrb::anneal {

Sample SimulatedAnnealer::anneal_once(const model::QuboModel& qubo, util::Rng& rng,
                                      const model::State& initial) const {
  const std::size_t n = qubo.num_variables();
  util::require(initial.empty() || initial.size() == n,
                "SimulatedAnnealer: initial state size mismatch");

  model::State state(n);
  if (initial.empty()) {
    for (auto& b : state) b = static_cast<std::uint8_t>(rng.next_below(2));
  } else {
    state = initial;
  }

  if (n == 0) return {state, qubo.energy(state), 0.0, true};

  const double scale = qubo.max_abs_coefficient();
  const BetaSchedule schedule =
      BetaSchedule::for_energy_scale(scale * 1e-3, scale * 2.0, params_.sweeps);
  QuboDeltaCache cache(qubo, state);
  model::State best_state = state;
  double best_energy = cache.energy();

  SamplerRun run(params_.sinks, "sa-read", schedule.sweeps());

  // Incumbent tracking without per-improvement copies: log accepted flips in
  // a journal and remember where in it the best energy occurred. At sweep
  // end, sync best_state with one copy of the current state plus an undo of
  // the journal suffix past the best point (flips are involutions).
  std::vector<model::VarId> journal;
  journal.reserve(n);
  std::size_t best_pos = 0;
  bool improved_this_sweep = false;

  for (std::size_t sweep = 0; sweep < schedule.sweeps(); ++sweep) {
    if (params_.sinks.cancel.expired()) break;
    const double beta = schedule.at(sweep);
    for (std::size_t step = 0; step < n; ++step) {
      const auto v = static_cast<model::VarId>(rng.next_below(n));
      const double delta = cache.delta(v);
      if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
        cache.apply_flip(state, v);
        journal.push_back(v);
        if (cache.energy() < best_energy) {
          best_energy = cache.energy();
          best_pos = journal.size();
          improved_this_sweep = true;
        }
      }
    }
    if (improved_this_sweep) {
      best_state = state;
      for (std::size_t i = journal.size(); i > best_pos; --i) {
        best_state[journal[i - 1]] ^= 1u;
      }
      improved_this_sweep = false;
    }
    journal.clear();
    best_pos = 0;
    run.sweep_done(sweep, best_energy, 0.0);
  }
  return {std::move(best_state), best_energy, 0.0, true};
}

SampleSet SimulatedAnnealer::sample(const model::QuboModel& qubo) const {
  SampleSet set;
  util::Rng master(params_.seed);
  for (std::size_t read = 0; read < params_.num_reads; ++read) {
    util::Rng rng = master.split();
    set.add(anneal_once(qubo, rng));
    // Keep at least one read so callers always get a sample.
    if (params_.sinks.cancel.expired()) break;
  }
  return set;
}

}  // namespace qulrb::anneal
