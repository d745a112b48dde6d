#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/csr.hpp"
#include "model/expr.hpp"

namespace qulrb::model {

enum class Sense : std::uint8_t { LE, GE, EQ };

std::string to_string(Sense s);

/// Constrained Quadratic Model over binary variables, mirroring the model
/// class consumed by D-Wave's Leap hybrid CQM solver, restricted to the
/// objective form the LRP models use:
///
///   minimize   f(x) = offset + linear + sum_g weight_g * (expr_g(x))^2
///   subject to lhs_c(x) {<=,>=,==} rhs_c   for every constraint c
///
/// The *squared-linear-group* objective form is first-class (rather than
/// pre-expanded into quadratic terms) so that solvers can maintain each
/// group's running value and evaluate single-bit flips in O(groups touched).
/// The LRP objective  sum_i (L'_i - L_avg)^2  uses exactly this form; at
/// M = 64 processes its dense quadratic expansion would hold ~10^7 terms,
/// while the grouped form holds ~M^2 |C| linear terms. A pairwise coupling
/// c * x_i * x_j is still expressible: it equals the group
/// (c/2) * (x_i + x_j)^2 minus (c/2) * x_i and (c/2) * x_j.
class CqmModel {
 public:
  struct Constraint {
    LinearExpr lhs;       ///< normalized expression (constant folded into rhs by add_constraint)
    Sense sense;
    double rhs;
    std::string label;
  };

  struct SquaredGroup {
    LinearExpr expr;  ///< contributes weight * expr(x)^2 to the objective
    double weight;
  };

  CqmModel() = default;

  // --- construction -------------------------------------------------------

  VarId add_variable();
  std::size_t num_variables() const noexcept { return linear_.size(); }

  void add_objective_linear(VarId v, double coeff);
  void add_objective_offset(double c) noexcept { objective_offset_ += c; }

  /// Adds weight * (expr)^2 to the objective. The expression is normalized.
  std::size_t add_squared_group(LinearExpr expr, double weight);

  /// Adds `lhs sense rhs`; any constant inside lhs is folded into rhs.
  std::size_t add_constraint(LinearExpr lhs, Sense sense, double rhs,
                             std::string label = {});

  // --- in-place retargeting -----------------------------------------------
  // Session caches reuse one built model across solve requests that differ
  // only in coefficient values (same variables, same sparsity pattern). The
  // reset_* calls rewrite coefficients in place and patch the flat CSR
  // incidence caches without rebuilding them — offsets, orderings, and all
  // borrowed spans stay valid.

  /// Replace squared group g's expression. The normalized replacement must
  /// touch exactly the variables the current expression touches (in the same
  /// order); only coefficients and the constant may differ. Returns false —
  /// with the model untouched — when the sparsity pattern differs.
  bool reset_group_expr(std::size_t g, LinearExpr expr);

  /// Replace constraint c's lhs and rhs (sense and label are kept); any
  /// constant in lhs is folded into rhs. Same same-pattern contract and
  /// false-on-mismatch behaviour as reset_group_expr.
  bool reset_constraint(std::size_t c, LinearExpr lhs, double rhs);

  // --- introspection ------------------------------------------------------

  std::span<const Constraint> constraints() const noexcept { return constraints_; }
  std::span<const SquaredGroup> squared_groups() const noexcept { return groups_; }
  std::span<const double> objective_linear() const noexcept { return linear_; }
  double objective_offset() const noexcept { return objective_offset_; }

  std::size_t num_constraints() const noexcept { return constraints_.size(); }
  std::size_t num_equality_constraints() const noexcept;
  std::size_t num_inequality_constraints() const noexcept;

  // --- evaluation ---------------------------------------------------------

  double objective_value(std::span<const std::uint8_t> state) const;

  /// Non-negative amount by which constraint c is violated (0 if satisfied).
  double constraint_violation(std::size_t c, std::span<const std::uint8_t> state) const;

  /// Sum of violations across all constraints.
  double total_violation(std::span<const std::uint8_t> state) const;

  bool is_feasible(std::span<const std::uint8_t> state, double tol = 1e-9) const;

  /// Violation implied by a raw activity value (no state needed). Inline:
  /// this is the innermost operation of every penalty-annealing kernel.
  static double violation_of(Sense sense, double activity, double rhs) noexcept {
    switch (sense) {
      case Sense::LE: return activity > rhs ? activity - rhs : 0.0;
      case Sense::GE: return rhs > activity ? rhs - activity : 0.0;
      case Sense::EQ: return activity > rhs ? activity - rhs : rhs - activity;
    }
    return 0.0;
  }

  // --- incidence (solver support) -----------------------------------------

  struct Incidence {
    std::uint32_t index;  ///< constraint index
    double coeff;         ///< this variable's coefficient there
  };

  /// For each variable, the constraints it appears in, ascending by
  /// constraint index. Flat CSR; built lazily.
  const CsrRows<Incidence>& constraint_incidence() const;

  // --- flip kernel (solver hot path) ---------------------------------------

  /// For each variable, the squared groups it appears in, ascending by group
  /// index, with the flip arithmetic pre-baked: flipping v with sign s
  /// changes group g's contribution by
  ///   w * ((G + s*a)^2 - G^2) = s * alpha * G + beta,
  /// with alpha = 2*w*a and beta = w*a^2, so the annealing kernel reads one
  /// contiguous row per variable and does one fused multiply-add per
  /// incidence. Pair moves merge two rows on `index` and use `coeff`. Flat
  /// CSR; built lazily.
  struct GroupKernelTerm {
    std::uint32_t index;  ///< group index
    double alpha;         ///< 2 * weight * coeff
    double beta;          ///< weight * coeff^2
    double coeff;         ///< raw coefficient (for the group-value update)
  };
  const CsrRows<GroupKernelTerm>& group_kernel() const;

  /// Group weights as a tight flat array (indexable by group id) so
  /// pair-move evaluation never strides over the full SquaredGroup structs
  /// (LinearExpr) in the hot loop.
  std::span<const double> group_weight_flat() const;

  /// Builds the incidence views above now if they are not built yet. The
  /// const accessors otherwise build them lazily on first use, which writes
  /// shared caches: call this on one thread before several threads read the
  /// same model.
  void build_incidence() const;

  /// Rough magnitude of the objective (used to auto-scale penalties):
  /// max over groups of weight * (max|expr|)^2 and max |linear|.
  double objective_scale() const;

 private:
  void invalidate_incidence() noexcept { incidence_valid_ = false; }

  std::vector<double> linear_;  ///< one entry per variable
  std::vector<SquaredGroup> groups_;
  std::vector<Constraint> constraints_;
  double objective_offset_ = 0.0;

  mutable CsrRows<Incidence> constraint_incidence_;
  mutable CsrRows<GroupKernelTerm> group_kernel_;
  mutable std::vector<double> group_weight_flat_;
  mutable bool incidence_valid_ = false;
};

}  // namespace qulrb::model
