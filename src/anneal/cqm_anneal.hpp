#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "anneal/sampleset.hpp"
#include "anneal/sinks.hpp"
#include "model/cqm.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

class PairMoveIndex;

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

  double objective() const noexcept { return objective_; }
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
  /// (a != b), evaluated without mutating the state: shared squared groups
  /// and shared constraints are corrected via a merge walk over the two
  /// sorted group-kernel rows and the two constraint rows. Replaces the
  /// apply/evaluate/revert churn pair-move proposals otherwise need.
  FlipDelta pair_delta_parts(model::VarId a, model::VarId b) const noexcept;

  /// Commit the flip of variable v, updating all running values (and the
  /// pair-class occupancy, when the walk is bound to a PairMoveIndex).
  void apply_flip(model::VarId v) noexcept;

  /// The pair-move index the walk keeps class occupancy for (see
  /// bind_pairs), or null. Below, that occupancy for class c: whether the
  /// member at position i is set, and how many members are.
  const PairMoveIndex* bound_pairs() const noexcept { return pairs_; }
  bool pair_member_set(std::size_t c, std::size_t i) const noexcept;
  std::size_t pair_set_count(std::size_t c) const noexcept;

  std::size_t num_constraints() const noexcept { return cons_.size(); }
  double constraint_violation(std::size_t c) const noexcept {
    return model::CqmModel::violation_of(cons_[c].sense, cons_[c].activity,
                                         cons_[c].rhs);
  }

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

  model::State state_;
  std::vector<double> group_values_;  ///< expr_g(x) including its constant
  std::vector<ConSlot> cons_;
  double objective_ = 0.0;
  double penalty_ = 0.0;

  // Borrowed flat views into the model (valid for the model's lifetime).
  std::span<const double> linear_;
  std::span<const double> group_weights_;
  const model::CsrRows<model::CqmModel::GroupKernelTerm>* group_kernel_ = nullptr;
  const model::CsrRows<model::CqmModel::Incidence>* con_inc_ = nullptr;

  // Pair-class occupancy of the bound index (empty while unbound). Per walk,
  // never shared, so results do not depend on the thread count.
  friend class PairMoveIndex;
  /// Bind the walk to a pair-move index built for its model. From then on
  /// apply_flip also keeps, for every class of `pairs`, a bitset of which
  /// members are set (one bit flip per class the variable belongs to), so
  /// PairMoveIndex::attempt draws a (set, clear) pair in O(1). attempt()
  /// binds on first use; binding to another index rebuilds the bitset in
  /// one pass over the class members.
  void bind_pairs(const PairMoveIndex& pairs);
  const PairMoveIndex* pairs_ = nullptr;
  const std::uint32_t* pair_inc_bits_ = nullptr;  ///< the index's inc_bits_
  std::vector<std::uint64_t> pair_bits_;  ///< bit set <=> member is set
};

/// Index of "pair move" candidates: for every constraint, variables sharing
/// the same |coefficient| form a class. Flipping a set bit and a clear bit of
/// one class keeps that constraint's activity unchanged — on the LRP models
/// this is "reroute a chunk of c_l tasks to a different process", the move
/// that makes equality constraints and tight migration bounds navigable.
///
/// Classes are stored as flat offsets + members arrays, and build() reuses a
/// single scratch buffer across constraints, so constructing the index is a
/// hash pass per constraint and nothing else. build() also emits, for every
/// variable, its bit in each class it belongs to (membership rows, laid out
/// parallel to the model's constraint incidence rows, which apply_flip walks
/// anyway): walks bound to the index read them to keep their class
/// occupancy current. The index depends only on the model; build it once
/// per CQM and share it across restarts, sweeps and walks.
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
  ///
  /// The proposal has the law of drawing up to 8 ordered member pairs of the
  /// class and taking the first (set, clear) one, but costs O(1): from the
  /// walk's class occupancy (it binds the walk to this index on first use),
  /// a pair is found with probability 1 - (1 - 2*set*clear/m^2)^8, and a
  /// found pair is uniform over set x clear.
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
  friend class CqmIncrementalState;

  /// Set members of class c in `walk`: a popcount per 64 members.
  std::size_t set_count(const CqmIncrementalState& walk, std::size_t c) const noexcept;
  /// Position in class c of a uniform member whose bit in `walk` equals
  /// `want_set`, given that `count` members match.
  std::size_t draw_member(const CqmIncrementalState& walk, std::size_t c,
                          bool want_set, std::size_t count, util::Rng& rng) const;

  std::vector<std::size_t> class_offsets_;  ///< size num_classes()+1
  std::vector<model::VarId> members_;
  /// Each class's occupancy words start at class_words_[c]; member i of the
  /// class is bit 64 * class_words_[c] + i. Size num_classes()+1.
  std::vector<std::uint32_t> class_words_;
  /// Per-variable membership rows, entry for entry parallel to the model's
  /// constraint_incidence(): the occupancy bit of the class that incidence
  /// falls in, or a spare bit past the last class when it is in none.
  std::vector<std::uint32_t> inc_bits_;
};

struct CqmAnnealParams {
  std::size_t sweeps = 2000;
  /// Refinement mode: a flat, cold schedule (mostly-descent with rare uphill
  /// moves) that polishes the initial state instead of scrambling it. Used by
  /// the hybrid portfolio to refine trivially feasible starting points.
  bool refinement = false;
  SamplerSinks sinks;
};

/// One Metropolis sweep at inverse temperature `beta`: num_variables()
/// steps, each a constraint-preserving pair move from `pairs` with
/// probability 1/2 (none when the index is empty) or else a flip of a
/// uniform variable, accepted on the combined energy delta. With
/// `refinement`, any violation-increasing move is rejected and the criterion
/// is the objective part alone. Returns whether any move was applied. Every
/// annealed step of CqmAnnealer and of ParallelTempering runs here.
bool metropolis_sweep(CqmIncrementalState& walk, const PairMoveIndex& pairs,
                      util::Rng& rng, double beta, bool refinement);

/// Metropolis annealing directly on a CQM: energy is
/// objective + sum_c penalty_c * violation_c. Tracks the best feasible state
/// seen during the walk (the anytime semantics of hybrid CQM services).
class CqmAnnealer {
 public:
  explicit CqmAnnealer(CqmAnnealParams params = {}) : params_(params) {}

  /// Anneal from `initial` (random when empty) with the given per-constraint
  /// penalty weights over a geometric schedule derived from the model's
  /// energy scale. Returns the best-seen sample: best feasible if any state
  /// visited was feasible, otherwise the lowest (violation, energy).
  /// When `pairs` is non-null it is used as the pair-move index instead of
  /// rebuilding one (callers running many anneals on one model should build
  /// it once and pass it here).
  Sample anneal_once(const model::CqmModel& cqm, std::vector<double> penalties,
                     util::Rng& rng, const model::State& initial = {},
                     const PairMoveIndex* pairs = nullptr) const;

  const CqmAnnealParams& params() const noexcept { return params_; }

 private:
  CqmAnnealParams params_;
};

// ---------------------------------------------------------------------------
// PairMoveIndex move bodies, inline so the sweep kernel keeps them in its
// hot path.
// ---------------------------------------------------------------------------

inline std::size_t PairMoveIndex::set_count(const CqmIncrementalState& walk,
                                            std::size_t c) const noexcept {
  std::size_t count = 0;
  for (std::size_t w = class_words_[c]; w < class_words_[c + 1]; ++w) {
    count += static_cast<std::size_t>(std::popcount(walk.pair_bits_[w]));
  }
  return count;
}

inline std::size_t PairMoveIndex::draw_member(const CqmIncrementalState& walk,
                                              std::size_t c, bool want_set,
                                              std::size_t count,
                                              util::Rng& rng) const {
  const std::size_t m = class_offsets_[c + 1] - class_offsets_[c];
  const std::uint64_t* words = walk.pair_bits_.data() + class_words_[c];
  if (2 * count >= m) {
    // Dense side: rejection takes at most two draws on average.
    for (;;) {
      const auto i = static_cast<std::size_t>(rng.next_below(m));
      if (((words[i >> 6] >> (i & 63)) & 1u) == static_cast<std::uint64_t>(want_set)) {
        return i;
      }
    }
  }
  // Sparse side: take the r-th matching member, counting by popcount.
  auto r = static_cast<int>(rng.next_below(count));
  for (std::size_t w = 0;; ++w) {
    std::uint64_t bits = want_set ? words[w] : ~words[w];
    if (64 * (w + 1) > m) bits &= (std::uint64_t{1} << (m & 63)) - 1;
    const int matches = std::popcount(bits);
    if (r < matches) {
      for (; r > 0; --r) bits &= bits - 1;
      return 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
    }
    r -= matches;
  }
}

inline bool PairMoveIndex::attempt(CqmIncrementalState& walk, util::Rng& rng,
                                   double beta, bool feasible_only) const {
  if (empty()) return false;
  if (walk.pairs_ != this) walk.bind_pairs(*this);
  const auto c = static_cast<std::size_t>(rng.next_below(num_classes()));
  const std::size_t m = class_offsets_[c + 1] - class_offsets_[c];
  const std::size_t set = set_count(walk, c);
  const std::size_t clear = m - set;
  if (set == 0 || clear == 0) return false;
  // One ordered draw (a, b) of members is a (set, clear) pair either way
  // round with probability 2*set*clear/m^2; eight draws all miss with the
  // eighth power of the complement.
  const double mm = static_cast<double>(m) * static_cast<double>(m);
  const double miss = 1.0 - 2.0 * static_cast<double>(set) *
                                static_cast<double>(clear) / mm;
  const double miss2 = miss * miss;
  const double miss4 = miss2 * miss2;
  if (rng.next_double() < miss4 * miss4) return false;
  const model::VarId* members = members_.data() + class_offsets_[c];
  const model::VarId set_var = members[draw_member(walk, c, true, set, rng)];
  const model::VarId clear_var = members[draw_member(walk, c, false, clear, rng)];

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
