#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "model/cqm.hpp"
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

/// Exact incrementally-maintained flip-delta cache over a CQM walk.
///
/// Every cached entry is updated in place when a flip commits: squared-group
/// entries via the group-value step, constraint entries via the activity
/// step, quadratic entries via the neighbour's new value. The flipped
/// variable's own entry is recomputed fresh (its incremental negation is not
/// FP-exact).
///
/// This is reference/diagnostic machinery, not the CQM hot path: updating
/// all dependent entries costs O(sum of member-list sizes of everything v
/// touches), which degenerates to O(N) per flip on LRP models whose
/// migration-bound constraint spans every variable. The production kernel
/// (CqmIncrementalState) therefore recomputes deltas from running aggregates
/// in O(incidence of v) instead, and the O(1) eager caches are reserved for
/// the bounded-degree QUBO/Ising solvers. See DESIGN.md "Kernel memory
/// layout". The property tests drive this class against fresh recomputes to
/// pin down the incremental arithmetic both layouts share.
class CqmDeltaCache {
 public:
  CqmDeltaCache(const model::CqmModel& cqm, model::State initial,
                std::vector<double> penalties);

  const model::State& state() const noexcept { return walk_.state(); }
  double objective() const noexcept { return walk_.objective(); }
  double penalty_energy() const noexcept { return walk_.penalty_energy(); }

  /// The maintained entry for v (objective and penalty parts).
  CqmIncrementalState::FlipDelta cached_delta(model::VarId v) const noexcept {
    return deltas_[v];
  }
  /// Ground truth: recompute v's delta from the walk's running aggregates.
  CqmIncrementalState::FlipDelta fresh_delta(model::VarId v) const noexcept {
    return walk_.flip_delta_parts(v);
  }

  /// Commit the flip of v, updating the walk and every dependent cache entry.
  void apply_flip(model::VarId v);

  /// Swap in new penalty weights; penalty parts of all entries are rebuilt.
  void set_penalties(std::vector<double> penalties);

 private:
  const model::CqmModel* cqm_;
  CqmIncrementalState walk_;
  std::vector<CqmIncrementalState::FlipDelta> deltas_;
};

}  // namespace qulrb::anneal
