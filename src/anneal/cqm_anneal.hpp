#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "anneal/sampleset.hpp"
#include "anneal/schedule.hpp"
#include "model/cqm.hpp"
#include "obs/metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

/// Incrementally-maintained evaluation of a CqmModel under single-bit flips.
///
/// Keeps the running value of every squared objective group and every
/// constraint activity so that the *total* energy change of flipping one
/// variable — objective plus weighted constraint violations — costs
/// O(incidences of that variable), independent of model size. This is what
/// makes annealing the LRP formulation tractable at M = 64 (~28k binary
/// variables) without materialising the dense quadratic expansion.
///
/// The flip kernel is cache-resident: all per-variable incidence walks go
/// through the model's flat CSR rows (one contiguous scan per flip), group
/// flip arithmetic is pre-baked into (alpha, beta) coefficients, and
/// constraint senses / rhs / penalties / activities live in tight parallel
/// arrays so the inner loop never strides over LinearExpr or label storage.
class CqmIncrementalState {
 public:
  /// penalties: per-constraint weight on (linear) violation. Must match
  /// cqm.num_constraints().
  CqmIncrementalState(const model::CqmModel& cqm, model::State initial,
                      std::vector<double> penalties);

  std::size_t num_variables() const noexcept { return state_.size(); }
  const model::State& state() const noexcept { return state_; }
  const model::CqmModel& cqm() const noexcept { return *cqm_; }

  double objective() const noexcept { return objective_; }
  double penalty_energy() const noexcept { return penalty_; }
  double total_energy() const noexcept { return objective_ + penalty_; }
  double total_violation() const noexcept;
  bool feasible(double tol = 1e-9) const noexcept;

  /// Energy change of flipping variable v, split into objective and penalty
  /// contributions (solvers schedule temperatures on the objective scale and
  /// can veto violation-increasing moves via the penalty part).
  struct FlipDelta {
    double objective = 0.0;
    double penalty = 0.0;
    double total() const noexcept { return objective + penalty; }
  };
  FlipDelta flip_delta_parts(model::VarId v) const noexcept;

  /// Combined energy change (objective + penalty) of flipping variable v.
  double flip_delta(model::VarId v) const noexcept {
    return flip_delta_parts(v).total();
  }

  /// Exact combined energy change of flipping variables a and b together
  /// (a != b), evaluated without mutating the state: shared squared groups,
  /// shared constraints, and the (a, b) objective coupler are corrected via
  /// a merge walk over the two sorted incidence rows. Replaces the
  /// apply/evaluate/revert churn pair-move proposals otherwise need.
  FlipDelta pair_delta_parts(model::VarId a, model::VarId b) const noexcept;

  /// Commit the flip of variable v, updating all running values.
  void apply_flip(model::VarId v) noexcept;

  /// Replace the penalty weights and recompute the penalty energy (running
  /// activities are unaffected). Used by adaptive penalty loops.
  void set_penalties(std::vector<double> penalties);

  std::size_t num_constraints() const noexcept { return cons_.size(); }
  double constraint_activity(std::size_t c) const noexcept { return cons_[c].activity; }
  double constraint_violation(std::size_t c) const noexcept {
    return model::CqmModel::violation_of(cons_[c].sense, cons_[c].activity,
                                         cons_[c].rhs);
  }
  double penalty_weight(std::size_t c) const noexcept { return cons_[c].penalty; }
  std::span<const double> group_values() const noexcept { return group_values_; }

 private:
  /// Everything the penalty kernel needs for one constraint, packed so each
  /// incidence costs one contiguous load instead of four scattered ones.
  struct ConSlot {
    double activity;     ///< running lhs_c(x)
    double rhs;
    double penalty;      ///< weight on violation
    model::Sense sense;
  };

  static double penalty_of(const ConSlot& slot, double activity) noexcept {
    return slot.penalty *
           model::CqmModel::violation_of(slot.sense, activity, slot.rhs);
  }

  const model::CqmModel* cqm_;
  model::State state_;
  std::vector<double> group_values_;  ///< expr_g(x) including its constant
  std::vector<ConSlot> cons_;
  double objective_ = 0.0;
  double penalty_ = 0.0;

  // Borrowed flat views into the model (valid for the model's lifetime).
  std::span<const double> linear_;
  std::span<const double> group_weights_;
  const model::CsrRows<model::CqmModel::GroupKernelTerm>* group_kernel_ = nullptr;
  const model::CsrRows<model::CqmModel::Incidence>* group_inc_ = nullptr;
  const model::CsrRows<model::CqmModel::Incidence>* con_inc_ = nullptr;
  const model::CsrRows<model::CqmModel::QuadNeighbor>* quad_inc_ = nullptr;
};

/// Index of "pair move" candidates: for every constraint, variables sharing
/// the same |coefficient| form a class. Flipping a set bit and a clear bit of
/// one class keeps that constraint's activity unchanged — on the LRP models
/// this is "reroute a chunk of c_l tasks to a different process", the move
/// that makes equality constraints and tight migration bounds navigable.
///
/// Classes are stored as flat offsets + members arrays, and build() reuses a
/// single scratch buffer across constraints, so constructing the index is a
/// sort per constraint and nothing else. The index depends only on the model;
/// build it once per CQM and share it across restarts and sweeps.
class PairMoveIndex {
 public:
  static PairMoveIndex build(const model::CqmModel& cqm);

  bool empty() const noexcept { return class_offsets_.size() <= 1; }
  std::size_t num_classes() const noexcept {
    return class_offsets_.empty() ? 0 : class_offsets_.size() - 1;
  }
  std::span<const model::VarId> class_at(std::size_t c) const {
    return {members_.data() + class_offsets_.at(c),
            class_offsets_.at(c + 1) - class_offsets_.at(c)};
  }

  /// Propose flipping one set and one clear variable from a random class;
  /// accept with the Metropolis criterion at `beta` on the combined energy
  /// delta. With `feasible_only`, any violation-increasing proposal is
  /// rejected and the criterion applies to the objective part alone.
  /// Returns true when a move was applied.
  bool attempt(CqmIncrementalState& walk, util::Rng& rng, double beta,
               bool feasible_only = false) const;

  /// Zero-temperature systematic polish: scan every class's (set, clear)
  /// pairs and commit strictly improving moves, repeating until a full scan
  /// finds none (or max_passes). Returns the number of moves applied. One
  /// pass costs pair_scan_cost() delta evaluations — callers should prefer
  /// this over random attempt() sampling exactly when that is the cheaper
  /// budget. The cancel token (when given) is polled once per pass.
  std::size_t descend(CqmIncrementalState& walk, std::size_t max_passes = 8,
                      const util::CancelToken* cancel = nullptr) const;

  /// Ordered pair evaluations per descend() pass: sum of |class|^2.
  std::size_t pair_scan_cost() const noexcept;

 private:
  std::vector<std::size_t> class_offsets_;  ///< size num_classes()+1
  std::vector<model::VarId> members_;
};

struct CqmAnnealParams {
  std::size_t sweeps = 2000;
  ScheduleKind schedule = ScheduleKind::kGeometric;
  std::optional<double> beta_hot;
  std::optional<double> beta_cold;
  /// Fraction of steps using constraint-preserving pair moves instead of
  /// single-bit flips. 0 disables.
  double pair_move_prob = 0.5;
  /// Refinement mode: a flat, cold schedule (mostly-descent with rare uphill
  /// moves) that polishes the initial state instead of scrambling it. Used by
  /// the hybrid portfolio to refine trivially feasible starting points.
  bool refinement = false;
  /// Polled once per sweep; when expired the best-seen sample is returned
  /// immediately (anytime semantics). Inert by default.
  util::CancelToken cancel;
  /// Optional trace sink: records one span per anneal_once on `trace_track`
  /// plus sampled incumbent-energy/violation timelines (~64 points). Same
  /// discipline as `cancel`: consumes no RNG, never alters control flow, so
  /// output is bitwise identical with or without it.
  obs::Recorder* recorder = nullptr;
  std::uint32_t trace_track = 0;
  /// Optional metrics sink: bumped once per anneal_once by the number of
  /// sweeps actually executed.
  obs::Counter* sweep_counter = nullptr;
  /// Optional always-on flight ring: one compact span per anneal_once
  /// (carrying the executed sweep count), stamped with `flight_rid` so a
  /// retroactive dump slices out the triggering request's solver activity.
  /// Same null-object discipline as `recorder`: one predicted branch when
  /// off, no RNG, bitwise-identical output either way.
  obs::FlightRecorder* flight = nullptr;
  std::uint16_t flight_name = 0;  ///< interned record name (flight->intern)
  std::uint64_t flight_rid = 0;
};

/// Per-run diagnostics: convergence trace and move statistics. Opt-in via
/// the trace out-parameter of CqmAnnealer::anneal_once.
struct AnnealTrace {
  std::vector<double> best_energy_per_sweep;  ///< objective+penalty incumbent
  std::vector<double> violation_per_sweep;    ///< total violation at sweep end
  std::size_t flip_attempts = 0;
  std::size_t flip_accepts = 0;
  std::size_t pair_attempts = 0;
  std::size_t pair_accepts = 0;

  double flip_acceptance() const noexcept {
    return flip_attempts > 0
               ? static_cast<double>(flip_accepts) / static_cast<double>(flip_attempts)
               : 0.0;
  }
};

/// Single-flip Metropolis annealing directly on a CQM: energy is
/// objective + sum_c penalty_c * violation_c. Tracks the best feasible state
/// seen during the walk (the anytime semantics of hybrid CQM services).
class CqmAnnealer {
 public:
  explicit CqmAnnealer(CqmAnnealParams params = {}) : params_(params) {}

  /// Anneal from `initial` (random when empty) with the given per-constraint
  /// penalty weights. Returns the best-seen sample: best feasible if any
  /// state visited was feasible, otherwise the lowest (violation, energy).
  /// When `trace` is non-null, per-sweep convergence data is recorded.
  /// When `pairs` is non-null it is used as the pair-move index instead of
  /// rebuilding one (callers running many anneals on one model should build
  /// it once and pass it here).
  Sample anneal_once(const model::CqmModel& cqm, std::vector<double> penalties,
                     util::Rng& rng, const model::State& initial = {},
                     AnnealTrace* trace = nullptr,
                     const PairMoveIndex* pairs = nullptr) const;

  const CqmAnnealParams& params() const noexcept { return params_; }

 private:
  CqmAnnealParams params_;
};

// ---------------------------------------------------------------------------
// PairMoveIndex move bodies, inline so every sweep loop keeps them in its
// hot path.
// ---------------------------------------------------------------------------

inline bool PairMoveIndex::attempt(CqmIncrementalState& walk, util::Rng& rng,
                                   double beta, bool feasible_only) const {
  if (empty()) return false;
  const auto members =
      class_at(static_cast<std::size_t>(rng.next_below(num_classes())));
  // Find a (set, clear) pair by rejection sampling.
  model::VarId set_var = 0;
  model::VarId clear_var = 0;
  bool found = false;
  for (int attempt_i = 0; attempt_i < 8 && !found; ++attempt_i) {
    const model::VarId a =
        members[static_cast<std::size_t>(rng.next_below(members.size()))];
    const model::VarId b =
        members[static_cast<std::size_t>(rng.next_below(members.size()))];
    if (a == b) continue;
    const bool sa = walk.state()[a] != 0;
    const bool sb = walk.state()[b] != 0;
    if (sa == sb) continue;
    set_var = sa ? a : b;
    clear_var = sa ? b : a;
    found = true;
  }
  if (!found) return false;

  // Evaluate the joint move without touching the state; apply only on accept.
  const auto delta = walk.pair_delta_parts(set_var, clear_var);
  const double criterion = feasible_only ? delta.objective : delta.total();
  const bool vetoed = feasible_only && delta.penalty > 0.0;
  if (!vetoed &&
      (criterion <= 0.0 || rng.next_double() < std::exp(-beta * criterion))) {
    walk.apply_flip(set_var);
    walk.apply_flip(clear_var);
    return true;
  }
  return false;
}

inline std::size_t PairMoveIndex::descend(CqmIncrementalState& walk,
                                          std::size_t max_passes,
                                          const util::CancelToken* cancel) const {
  std::size_t applied = 0;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    if (cancel != nullptr && cancel->expired()) break;
    bool improved = false;
    for (std::size_t c = 0; c < num_classes(); ++c) {
      const auto members = class_at(c);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const model::VarId a = members[i];
        if (walk.state()[a] == 0) continue;
        for (std::size_t j = 0; j < members.size(); ++j) {
          const model::VarId b = members[j];
          if (b == a || walk.state()[b] != 0) continue;
          if (walk.pair_delta_parts(a, b).total() < -1e-12) {
            walk.apply_flip(a);
            walk.apply_flip(b);
            ++applied;
            improved = true;
            break;  // a is now clear; continue with the next set member
          }
        }
      }
    }
    if (!improved) break;
  }
  return applied;
}

}  // namespace qulrb::anneal
