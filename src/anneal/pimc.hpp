#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/sampleset.hpp"
#include "anneal/sinks.hpp"
#include "model/ising.hpp"
#include "model/qubo.hpp"

namespace qulrb::anneal {

struct PimcParams {
  std::size_t trotter_slices = 16;  ///< P
  std::size_t sweeps = 500;         ///< annealing steps (field schedule length)
  double beta = 4.0;                ///< inverse physical temperature
  std::uint64_t seed = 1;
  /// The cancel token is polled once per field-schedule sweep (the best
  /// slice seen so far is quenched and returned). The Trotter evolution is
  /// one "pimc-evolve" run; the readout quench is a "pimc-quench" phase.
  SamplerSinks sinks;
};

/// Path-integral Monte-Carlo simulated *quantum* annealing
/// (Martonak, Santoro, Tosatti 2002): the transverse-field Ising Hamiltonian
///   H = H_problem - Gamma(t) * sum_i sigma^x_i
/// is Trotterized into P coupled classical replicas with inter-slice
/// ferromagnetic coupling
///   J_perp(t) = -(P / (2 beta)) * ln tanh(beta * Gamma(t) / P),
/// then sampled with local (single spin) and global (all-slice) moves while
/// Gamma decays linearly from 3 to 1e-3. This is the classical stand-in for
/// the QPU stage of the hybrid pipeline (the repository has no quantum
/// hardware access).
class PimcAnnealer {
 public:
  explicit PimcAnnealer(PimcParams params = {}) : params_(params) {}

  /// Returns the best classical (single-slice) state seen.
  Sample sample_ising(const model::IsingModel& ising) const;

  /// Convenience: converts to Ising, anneals, reports QUBO energies.
  Sample sample_qubo(const model::QuboModel& qubo) const;

 private:
  PimcParams params_;
};

}  // namespace qulrb::anneal
