#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/csr.hpp"
#include "model/expr.hpp"

namespace qulrb::model {

/// Sparse Quadratic Unconstrained Binary Optimization model:
///   E(x) = offset + sum_i a_i x_i + sum_{i<j} b_ij x_i x_j,  x in {0,1}^n.
///
/// Quadratic terms are stored upper-triangular (i < j); adding (j, i) or a
/// diagonal term folds into the canonical place (x_i^2 == x_i folds into the
/// linear part).
///
/// Storage is a flat, sorted CSR structure rather than a hash map: mutations
/// append to a pending COO buffer which is merged (sort + duplicate fold)
/// into a key-sorted term array on first read, and the symmetric adjacency
/// used by the annealing kernels is packed offsets + {other, coeff} arrays.
/// Term iteration order is therefore ascending (i, j) — deterministic across
/// platforms and insertion orders.
class QuboModel {
 public:
  explicit QuboModel(std::size_t num_variables = 0);

  std::size_t num_variables() const noexcept { return linear_.size(); }

  void add_variable();  ///< appends one variable with zero bias

  void add_linear(VarId i, double coeff);
  void add_quadratic(VarId i, VarId j, double coeff);
  void add_offset(double c) noexcept { offset_ += c; }

  /// Adds weight * (expr)^2 expanded into linear/quadratic/offset terms.
  /// The expression must be normalized. Cost: O(|expr|^2) — intended for
  /// small/medium expressions; large structured objectives should stay in
  /// CqmModel form instead (see CqmModel::SquaredGroup).
  void add_squared_expr(const LinearExpr& expr, double weight);

  double linear(VarId i) const { return linear_.at(i); }
  double quadratic(VarId i, VarId j) const;  ///< 0.0 if absent
  double offset() const noexcept { return offset_; }

  /// Full energy evaluation, O(n + m).
  double energy(std::span<const std::uint8_t> state) const;

  /// Neighbour list: for each variable, the (other, coeff) quadratic terms it
  /// participates in, sorted by `other`. Built lazily; invalidated by further
  /// mutation.
  struct Neighbor {
    VarId other;
    double coeff;
  };
  const CsrRows<Neighbor>& adjacency() const;

  /// Energy change of flipping variable v in `state`, O(deg(v)).
  double flip_delta(std::span<const std::uint8_t> state, VarId v) const;

  /// Largest |coefficient| over linear+quadratic terms (penalty scaling aid).
  double max_abs_coefficient() const;

  /// Iterate quadratic terms: f(i, j, coeff) with i < j, ascending (i, j).
  template <typename F>
  void for_each_quadratic(F&& f) const {
    ensure_finalized();
    for (const auto& t : terms_) {
      f(static_cast<VarId>(t.key >> 32), static_cast<VarId>(t.key & 0xFFFFFFFFu),
        t.coeff);
    }
  }

 private:
  struct Term {
    std::uint64_t key;  ///< (i << 32) | j with i < j
    double coeff;
  };

  static std::uint64_t key_of(VarId i, VarId j) noexcept {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  /// Sort + fold `pending_` into the key-sorted `terms_` array. Called when
  /// the pending buffer grows past a threshold (bounding memory during bulk
  /// construction, e.g. cqm_to_qubo's squared-group expansion) and on first
  /// read after a mutation.
  void merge_pending() const;
  void ensure_finalized() const;

  std::vector<double> linear_;
  mutable std::vector<Term> pending_;  ///< unmerged COO appends
  mutable std::vector<Term> terms_;    ///< merged, sorted by key
  double offset_ = 0.0;

  mutable CsrRows<Neighbor> adjacency_;
  mutable bool adjacency_valid_ = false;
};

}  // namespace qulrb::model
