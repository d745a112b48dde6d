#include "anneal/delta_cache.hpp"

#include "util/error.hpp"

namespace qulrb::anneal {

using model::VarId;

QuboDeltaCache::QuboDeltaCache(const model::QuboModel& qubo,
                               const model::State& state)
    : adjacency_(&qubo.adjacency()) {
  util::require(state.size() == qubo.num_variables(),
                "QuboDeltaCache: state size mismatch");
  energy_ = qubo.energy(state);
  delta_.resize(state.size());
  for (VarId v = 0; v < delta_.size(); ++v) {
    delta_[v] = qubo.flip_delta(state, v);
  }
}

void QuboDeltaCache::apply_flip(model::State& state, VarId v) noexcept {
  const double d = delta_[v];
  const bool was_set = state[v] != 0;
  state[v] ^= 1u;
  energy_ += d;
  delta_[v] = -d;
  // Flipping v toggles whether each neighbour's delta includes the coupler
  // with v; the correction direction depends on whether the neighbour would
  // be turning on or off.
  const double sign_v = was_set ? -1.0 : 1.0;  // v's new contribution
  for (const auto& nb : (*adjacency_)[v]) {
    const double direction = state[nb.other] ? -1.0 : 1.0;
    delta_[nb.other] += direction * sign_v * nb.coeff;
  }
}

}  // namespace qulrb::anneal
