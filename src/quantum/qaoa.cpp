#include "quantum/qaoa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "quantum/statevector.hpp"
#include "util/error.hpp"
#include "util/nelder_mead.hpp"

namespace qulrb::quantum {

namespace {

/// Tabulate the QUBO energy of every basis state (the diagonal cost
/// Hamiltonian). O(2^n (n + m)) once; reused by every circuit evaluation.
std::vector<double> energy_table(const model::QuboModel& qubo) {
  const std::size_t n = qubo.num_variables();
  const std::size_t dim = std::size_t{1} << n;
  std::vector<double> energies(dim);
  model::State state(n);
  for (std::size_t z = 0; z < dim; ++z) {
    for (std::size_t q = 0; q < n; ++q) state[q] = (z >> q) & 1u;
    energies[z] = qubo.energy(state);
  }
  return energies;
}

/// One (possibly noisy) circuit execution. With noise, a random Pauli is
/// injected per qubit per layer with probability `depolarizing_prob` — the
/// Monte-Carlo trajectory (quantum-jump) unravelling of the depolarizing
/// channel.
double run_circuit(const std::vector<double>& energies, std::size_t n,
                   const std::vector<double>& gammas,
                   const std::vector<double>& betas, StateVector* out_state,
                   double depolarizing_prob = 0.0, util::Rng* noise_rng = nullptr) {
  StateVector psi(n);
  psi.apply_h_all();
  std::vector<double> phases(energies.size());
  for (std::size_t layer = 0; layer < gammas.size(); ++layer) {
    for (std::size_t z = 0; z < energies.size(); ++z) {
      phases[z] = gammas[layer] * energies[z];
    }
    psi.apply_diagonal_phases(phases);
    for (std::size_t q = 0; q < n; ++q) psi.apply_rx(q, 2.0 * betas[layer]);
    if (depolarizing_prob > 0.0 && noise_rng != nullptr) {
      for (std::size_t q = 0; q < n; ++q) {
        if (!noise_rng->next_bool(depolarizing_prob)) continue;
        switch (noise_rng->next_below(3)) {
          case 0: psi.apply_x(q); break;
          case 1: psi.apply_z(q); break;
          default:  // Y = iXZ; the global phase is irrelevant
            psi.apply_z(q);
            psi.apply_x(q);
            break;
        }
      }
    }
  }
  const double expectation = psi.expectation_diagonal(energies);
  if (out_state != nullptr) *out_state = std::move(psi);
  return expectation;
}

/// Noise-averaged expectation over Monte-Carlo trajectories.
double run_noisy_expectation(const std::vector<double>& energies, std::size_t n,
                             const std::vector<double>& gammas,
                             const std::vector<double>& betas, double prob,
                             std::size_t trajectories, util::Rng& rng) {
  if (prob <= 0.0) return run_circuit(energies, n, gammas, betas, nullptr);
  double sum = 0.0;
  for (std::size_t t = 0; t < trajectories; ++t) {
    sum += run_circuit(energies, n, gammas, betas, nullptr, prob, &rng);
  }
  return sum / static_cast<double>(trajectories);
}

}  // namespace

double QaoaSolver::expectation(const model::QuboModel& qubo,
                               const std::vector<double>& gammas,
                               const std::vector<double>& betas) {
  util::require(gammas.size() == betas.size(), "QAOA: angle count mismatch");
  const auto energies = energy_table(qubo);
  return run_circuit(energies, qubo.num_variables(), gammas, betas, nullptr);
}

QaoaResult QaoaSolver::solve_qubo(const model::QuboModel& qubo) const {
  const std::size_t n = qubo.num_variables();
  util::require(n >= 1 && n <= 20,
                "QaoaSolver: instance too large for state-vector simulation "
                "(max 20 variables)");
  util::require(params_.layers >= 1, "QaoaSolver: need at least one layer");

  const auto energies = energy_table(qubo);
  // Normalize the cost scale so gamma angles live on a sane range.
  double max_abs = 1e-12;
  for (double e : energies) max_abs = std::max(max_abs, std::abs(e));
  std::vector<double> scaled(energies.size());
  for (std::size_t z = 0; z < energies.size(); ++z) {
    scaled[z] = energies[z] / max_abs * std::numbers::pi;
  }

  QaoaResult result;
  util::Rng rng(params_.seed);

  std::size_t evals = 0;
  util::Rng noise_rng(params_.seed ^ 0xD1CEF00DULL);
  auto objective = [&](const std::vector<double>& angles) {
    std::vector<double> gammas(angles.begin(),
                               angles.begin() + static_cast<std::ptrdiff_t>(params_.layers));
    std::vector<double> betas(angles.begin() + static_cast<std::ptrdiff_t>(params_.layers),
                              angles.end());
    ++evals;
    return run_noisy_expectation(scaled, n, gammas, betas, params_.depolarizing_prob,
                                 params_.noise_trajectories, noise_rng);
  };

  double best_value = std::numeric_limits<double>::infinity();
  std::vector<double> best_angles;
  for (std::size_t restart = 0; restart < params_.optimizer_restarts; ++restart) {
    std::vector<double> start(2 * params_.layers);
    for (std::size_t layer = 0; layer < params_.layers; ++layer) {
      // Linear ramp initialization (a good QAOA heuristic) plus jitter.
      const double t = (static_cast<double>(layer) + 1.0) /
                       static_cast<double>(params_.layers + 1);
      start[layer] = 0.8 * t + 0.2 * rng.next_double();                  // gamma
      start[params_.layers + layer] = 0.8 * (1.0 - t) + 0.2 * rng.next_double();
    }
    util::NelderMeadParams nm;
    nm.max_evaluations = params_.optimizer_evals / params_.optimizer_restarts;
    nm.initial_step = 0.3;
    const auto opt = util::nelder_mead(objective, std::move(start), nm);
    if (opt.value < best_value) {
      best_value = opt.value;
      best_angles = opt.x;
    }
  }

  result.gammas.assign(best_angles.begin(),
                       best_angles.begin() + static_cast<std::ptrdiff_t>(params_.layers));
  result.betas.assign(best_angles.begin() + static_cast<std::ptrdiff_t>(params_.layers),
                      best_angles.end());
  result.circuit_evaluations = evals;

  // Final state with optimal angles; measure. With noise, shots are drawn
  // from a fresh trajectory each time (hardware-like sampling).
  StateVector psi(n);
  (void)run_circuit(scaled, n, result.gammas, result.betas, &psi,
                    params_.depolarizing_prob,
                    params_.depolarizing_prob > 0.0 ? &noise_rng : nullptr);
  result.expectation = psi.expectation_diagonal(energies);

  std::uint64_t best_z = 0;
  double best_energy = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> seen(energies.size(), 0);
  for (std::size_t shot = 0; shot < params_.samples; ++shot) {
    const std::uint64_t z = psi.sample(rng);
    if (!seen[z]) {
      seen[z] = 1;
      model::State state(n);
      for (std::size_t q = 0; q < n; ++q) state[q] = (z >> q) & 1u;
      result.samples.add({std::move(state), energies[z], 0.0, true});
    }
    if (energies[z] < best_energy) {
      best_energy = energies[z];
      best_z = z;
    }
  }
  model::State state(n);
  for (std::size_t q = 0; q < n; ++q) state[q] = (best_z >> q) & 1u;
  result.best = {std::move(state), best_energy, 0.0, true};
  return result;
}

}  // namespace qulrb::quantum
