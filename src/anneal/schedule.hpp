#pragma once

#include <cstddef>

namespace qulrb::anneal {

/// Geometric inverse-temperature (beta) schedule for simulated annealing.
class BetaSchedule {
 public:
  BetaSchedule(double beta_hot, double beta_cold, std::size_t sweeps);

  /// Beta for sweep s in [0, sweeps).
  double at(std::size_t sweep) const noexcept;

  std::size_t sweeps() const noexcept { return sweeps_; }
  double beta_hot() const noexcept { return beta_hot_; }
  double beta_cold() const noexcept { return beta_cold_; }

  /// Pick a beta range from the energy scale of a model: at beta_hot a move
  /// of size `max_delta` is accepted with ~50% probability; at beta_cold a
  /// move of size `min_delta` is accepted with probability ~exp(-10).
  static BetaSchedule for_energy_scale(double min_delta, double max_delta,
                                       std::size_t sweeps);

 private:
  double beta_hot_;
  double beta_cold_;
  std::size_t sweeps_;
};

}  // namespace qulrb::anneal
