#include "anneal/pimc.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

using model::VarId;

namespace {

/// Transverse field at the start and at the end of the linear schedule.
constexpr double kGammaInitial = 3.0;
constexpr double kGammaFinal = 1e-3;

/// Local fields h_i + sum_j J_ij s_j for one spin configuration, maintained
/// incrementally: reading a candidate flip is O(1), committing one is
/// O(deg). Field storage is borrowed from the caller, so all Trotter slices
/// can share one contiguous P x n buffer (structure-of-arrays, slice-major)
/// instead of P separately allocated vectors; the quench lends a slice-sized
/// buffer of its own for the readout configuration.
class FieldCache {
 public:
  FieldCache(const model::IsingModel& ising, std::span<const std::int8_t> spins,
             std::span<double> field)
      : adjacency_(&ising.adjacency()), field_(field) {
    for (VarId i = 0; i < field_.size(); ++i) {
      field_[i] = ising.local_field(spins, i);
    }
  }

  double at(VarId i) const noexcept { return field_[i]; }

  /// Negate spin i in `spins` and propagate to the neighbours' fields.
  void flip(std::span<std::int8_t> spins, VarId i) noexcept {
    spins[i] = static_cast<std::int8_t>(-spins[i]);
    const double two_s = 2.0 * spins[i];
    for (const auto& nb : (*adjacency_)[i]) {
      field_[nb.other] += two_s * nb.coupling;
    }
  }

 private:
  const model::CsrRows<model::IsingModel::Neighbor>* adjacency_;
  std::span<double> field_;
};

}  // namespace

Sample PimcAnnealer::sample_ising(const model::IsingModel& ising) const {
  const std::size_t n = ising.num_spins();
  const std::size_t P = params_.trotter_slices;
  util::require(P >= 2, "PimcAnnealer: need at least 2 Trotter slices");
  util::require(params_.beta > 0.0, "PimcAnnealer: beta must be positive");

  util::Rng rng(params_.seed);

  if (n == 0) {
    return {model::State{}, ising.offset(), 0.0, true};
  }

  // Slice-major SoA storage: spin (k, i) lives at spins_flat[k * n + i] and
  // its local field at fields_flat[k * n + i] — one allocation each instead
  // of P, and slice k is the contiguous span [k * n, (k + 1) * n).
  std::vector<std::int8_t> spins_flat(P * n);
  for (auto& s : spins_flat) {
    s = rng.next_bool(0.5) ? std::int8_t{1} : std::int8_t{-1};
  }
  std::vector<double> fields_flat(P * n);
  auto spins = [&](std::size_t k) {
    return std::span<std::int8_t>(spins_flat.data() + k * n, n);
  };

  std::vector<FieldCache> fields;
  fields.reserve(P);
  for (std::size_t k = 0; k < P; ++k) {
    fields.emplace_back(ising, spins(k),
                        std::span<double>(fields_flat.data() + k * n, n));
  }

  std::vector<double> slice_energy(P);
  for (std::size_t k = 0; k < P; ++k) slice_energy[k] = ising.energy(spins(k));

  double best_energy = slice_energy[0];
  std::vector<std::int8_t> best_spins(spins(0).begin(), spins(0).end());
  for (std::size_t k = 1; k < P; ++k) {
    if (slice_energy[k] < best_energy) {
      best_energy = slice_energy[k];
      best_spins.assign(spins(k).begin(), spins(k).end());
    }
  }

  const double beta = params_.beta;
  const double Pd = static_cast<double>(P);

  const SamplerSinks& sinks = params_.sinks;
  SamplerRun evolve(sinks, "pimc-evolve", params_.sweeps);

  for (std::size_t sweep = 0; sweep < params_.sweeps; ++sweep) {
    if (sinks.cancel.expired()) break;
    const double t = params_.sweeps == 1
                         ? 1.0
                         : static_cast<double>(sweep) /
                               static_cast<double>(params_.sweeps - 1);
    const double gamma = kGammaInitial + t * (kGammaFinal - kGammaInitial);
    // Ferromagnetic inter-slice coupling strength; diverges as gamma -> 0,
    // freezing the slices together (the classical limit).
    const double arg = std::tanh(beta * gamma / Pd);
    const double j_perp = arg > 0.0 ? -0.5 * Pd / beta * std::log(arg) : 1e12;

    // Local moves: one Metropolis pass over every (slice, spin) pair.
    for (std::size_t k = 0; k < P; ++k) {
      const std::size_t up = (k + 1) % P;
      const std::size_t down = (k + P - 1) % P;
      for (std::size_t step = 0; step < n; ++step) {
        const auto i = static_cast<VarId>(rng.next_below(n));
        const double h_local = fields[k].at(i);
        const double s = spins_flat[k * n + i];
        // Problem part is scaled by 1/P in the Trotter decomposition.
        const double delta = 2.0 * s * h_local / Pd +
                             2.0 * s * j_perp *
                                 (spins_flat[up * n + i] + spins_flat[down * n + i]);
        if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
          fields[k].flip(spins(k), i);
          slice_energy[k] += 2.0 * (-s) * h_local;  // flip changes E by -2 s h
          if (slice_energy[k] < best_energy) {
            best_energy = slice_energy[k];
            best_spins.assign(spins(k).begin(), spins(k).end());
          }
        }
      }
    }

    // Global move: flip spin i in every slice simultaneously (the inter-slice
    // term is invariant, only the problem energy changes).
    for (std::size_t g = 0; g < n; ++g) {
      const auto i = static_cast<VarId>(rng.next_below(n));
      double delta = 0.0;
      for (std::size_t k = 0; k < P; ++k) {
        delta += 2.0 * spins_flat[k * n + i] * fields[k].at(i) / Pd;
      }
      if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
        for (std::size_t k = 0; k < P; ++k) {
          const double s = spins_flat[k * n + i];
          const double h_local = fields[k].at(i);
          fields[k].flip(spins(k), i);
          slice_energy[k] += 2.0 * (-s) * h_local;
          if (slice_energy[k] < best_energy) {
            best_energy = slice_energy[k];
            best_spins.assign(spins(k).begin(), spins(k).end());
          }
        }
      }
    }
    evolve.sweep_done(sweep, best_energy, 0.0);
  }
  evolve.close();

  // Zero-temperature quench of the best slice: accept all non-increasing
  // flips (plateau walks let residual domain walls diffuse and annihilate),
  // mirroring the classical readout quench of SQA implementations.
  {
    obs::Recorder::Span quench_span(sinks.recorder, "pimc-quench", "sampler",
                                    sinks.trace_track);
    std::vector<double> quench_field(n);
    FieldCache quench_fields(ising, best_spins, quench_field);
    double energy = ising.energy(best_spins);
    for (std::size_t pass = 0; pass < 20 * n; ++pass) {
      const auto i = static_cast<VarId>(rng.next_below(n));
      const double delta = -2.0 * best_spins[i] * quench_fields.at(i);
      if (delta <= 0.0) {
        quench_fields.flip(best_spins, i);
        energy += delta;
        if (energy < best_energy) best_energy = energy;
      }
    }
    // The plateau walk may end above the best point it visited; re-descend.
    bool improved = true;
    while (improved) {
      improved = false;
      for (VarId i = 0; i < n; ++i) {
        const double delta = -2.0 * best_spins[i] * quench_fields.at(i);
        if (delta < -1e-15) {
          quench_fields.flip(best_spins, i);
          improved = true;
        }
      }
    }
    best_energy = std::min(best_energy, ising.energy(best_spins));
  }

  return {model::spins_to_state(best_spins), best_energy, 0.0, true};
}

Sample PimcAnnealer::sample_qubo(const model::QuboModel& qubo) const {
  const model::IsingModel ising = model::qubo_to_ising(qubo);
  Sample s = sample_ising(ising);
  s.energy = qubo.energy(s.state);
  return s;
}

}  // namespace qulrb::anneal
