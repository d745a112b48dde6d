#include "anneal/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace qulrb::anneal {

BetaSchedule::BetaSchedule(double beta_hot, double beta_cold, std::size_t sweeps)
    : beta_hot_(beta_hot), beta_cold_(beta_cold), sweeps_(sweeps) {
  util::require(beta_hot > 0.0 && beta_cold >= beta_hot,
                "BetaSchedule: need 0 < beta_hot <= beta_cold");
  util::require(sweeps > 0, "BetaSchedule: need at least one sweep");
}

double BetaSchedule::at(std::size_t sweep) const noexcept {
  if (sweeps_ == 1) return beta_cold_;
  const double t =
      static_cast<double>(std::min(sweep, sweeps_ - 1)) / static_cast<double>(sweeps_ - 1);
  return beta_hot_ * std::pow(beta_cold_ / beta_hot_, t);
}

BetaSchedule BetaSchedule::for_energy_scale(double min_delta, double max_delta,
                                            std::size_t sweeps) {
  min_delta = std::max(min_delta, 1e-12);
  max_delta = std::max(max_delta, min_delta);
  // accept(max_delta) ~ 0.5 at the hot end; accept(min_delta) ~ e^-10 cold.
  const double beta_hot = std::log(2.0) / max_delta;
  const double beta_cold = std::max(10.0 / min_delta, beta_hot * (1.0 + 1e-9));
  return BetaSchedule(beta_hot, beta_cold, sweeps);
}

}  // namespace qulrb::anneal
