#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "anneal/sampleset.hpp"
#include "model/qubo.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

struct TabuParams {
  std::size_t max_iterations = 20000;  ///< single-flip moves total
  /// Flips of a variable are forbidden for this many iterations after it
  /// moves; 0 derives ~ n/10 from the problem size.
  std::size_t tenure = 0;
  std::size_t num_restarts = 4;
  std::uint64_t seed = 1;
  /// Stop a restart after this many non-improving iterations.
  std::size_t stall_limit = 2000;
  /// Polled inside the iteration loop (and between restarts); when expired
  /// the best incumbent so far is returned. Inert by default.
  util::CancelToken cancel;
  /// Optional trace sink: one span per restart plus a sampled
  /// incumbent-energy timeline. Consumes no RNG; output is bitwise identical
  /// with it on/off.
  obs::Recorder* recorder = nullptr;
  std::uint32_t trace_track = 0;
  /// Optional metrics sink: bumped by iterations executed, once per restart.
  obs::Counter* iteration_counter = nullptr;
};

/// Single-flip tabu search over a QUBO (Glover's metaheuristic — the actual
/// classical workhorse inside commercial hybrid annealing services, and the
/// qbsolv default). Moves greedily to the best non-tabu neighbour, with the
/// standard aspiration criterion (a tabu move is allowed when it beats the
/// incumbent). Complements simulated annealing: deterministic descent plus
/// memory often outperforms SA on rugged penalty landscapes at equal budget.
class TabuSampler {
 public:
  explicit TabuSampler(TabuParams params = {}) : params_(params) {}

  SampleSet sample(const model::QuboModel& qubo) const;
  Sample search_once(const model::QuboModel& qubo, util::Rng& rng,
                     const model::State& initial = {}) const;

 private:
  TabuParams params_;
};

/// Tabu-search candidate scan: index of the admissible variable with the
/// smallest delta (ties resolved to the smallest index), or `deltas.size()`
/// when nothing is admissible. A move is admissible when it is not tabu
/// (`tabu_until[v] < iteration`) or when it aspirates
/// (`energy + deltas[v] < best_energy - 1e-12`).
std::size_t tabu_argmin(std::span<const double> deltas,
                        std::span<const std::size_t> tabu_until,
                        std::size_t iteration, double energy,
                        double best_energy) noexcept;

}  // namespace qulrb::anneal
