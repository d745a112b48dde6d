#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/qubo.hpp"

namespace qulrb::anneal {

/// O(1)-read flip-delta cache for a QUBO walk.
///
/// Maintains delta[v] = E(x with v flipped) - E(x) for every variable, plus
/// the running energy. Reading a candidate move is a single array load;
/// committing a move refreshes the affected entries in O(deg(v)). This turns
/// the accept/reject loop of SimulatedAnnealer from
/// "walk the adjacency row per attempt" into "walk it per accepted move" —
/// a strict win whenever acceptance < 100%.
class QuboDeltaCache {
 public:
  QuboDeltaCache(const model::QuboModel& qubo, const model::State& state);

  double delta(model::VarId v) const noexcept { return delta_[v]; }
  std::span<const double> deltas() const noexcept { return delta_; }
  double energy() const noexcept { return energy_; }

  /// Flip v in `state` (which must be the assignment the cache was built
  /// against, evolved only through this method) and update the cache.
  void apply_flip(model::State& state, model::VarId v) noexcept;

 private:
  const model::CsrRows<model::QuboModel::Neighbor>* adjacency_;
  std::vector<double> delta_;
  double energy_ = 0.0;
};

}  // namespace qulrb::anneal
