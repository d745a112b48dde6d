#pragma once

#include <cstdint>
#include <vector>

#include "anneal/sampleset.hpp"
#include "model/qubo.hpp"
#include "util/rng.hpp"

namespace qulrb::quantum {

struct QaoaParams {
  std::size_t layers = 2;           ///< p
  std::size_t optimizer_evals = 400;
  std::size_t samples = 256;        ///< measurement shots after optimization
  std::uint64_t seed = 1;
  /// Restarts of the classical parameter search from different angles.
  std::size_t optimizer_restarts = 3;
  /// Depolarizing noise: after every mixer layer each qubit suffers a random
  /// Pauli (X, Y or Z) with this probability — the simple hardware-noise
  /// model the paper's discussion says must be considered when scaling to
  /// real devices. 0 = ideal circuit.
  double depolarizing_prob = 0.0;
  /// Monte-Carlo trajectories averaged per expectation when noise is on.
  std::size_t noise_trajectories = 8;
};

struct QaoaResult {
  anneal::Sample best;              ///< best measured bitstring (QUBO energy)
  anneal::SampleSet samples;        ///< distinct measured bitstrings
  double expectation = 0.0;         ///< optimized <C>
  std::vector<double> gammas;       ///< optimal cost angles
  std::vector<double> betas;        ///< optimal mixer angles
  std::size_t circuit_evaluations = 0;
};

/// Quantum Approximate Optimization Algorithm on a state-vector simulator —
/// the gate-based solver path the paper's discussion (Section VI / MQSS)
/// proposes as the extension of its annealing-based pipeline.
///
/// The cost Hamiltonian is the diagonal operator induced by the QUBO energy;
/// each cost layer e^{-i gamma C} is applied exactly as a diagonal phase
/// table, the mixer is RX(2 beta) on every qubit, and the angles are
/// optimized with Nelder-Mead over the simulated expectation value.
/// Practical to ~20 variables; intended for the tiny-instance studies that
/// validate the formulations against gate-based hardware models.
class QaoaSolver {
 public:
  explicit QaoaSolver(QaoaParams params = {}) : params_(params) {}

  QaoaResult solve_qubo(const model::QuboModel& qubo) const;

  /// Expectation <C> for explicit angles (exposed for tests/benches).
  static double expectation(const model::QuboModel& qubo,
                            const std::vector<double>& gammas,
                            const std::vector<double>& betas);

 private:
  QaoaParams params_;
};

}  // namespace qulrb::quantum
