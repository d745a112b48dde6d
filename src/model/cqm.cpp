#include "model/cqm.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace qulrb::model {

std::string to_string(Sense s) {
  switch (s) {
    case Sense::LE: return "<=";
    case Sense::GE: return ">=";
    case Sense::EQ: return "==";
  }
  return "?";
}

VarId CqmModel::add_variable() {
  const auto id = static_cast<VarId>(linear_.size());
  linear_.push_back(0.0);
  invalidate_incidence();
  return id;
}

void CqmModel::add_objective_linear(VarId v, double coeff) {
  util::require(v < num_variables(), "CqmModel: objective variable out of range");
  linear_[v] += coeff;
}

std::size_t CqmModel::add_squared_group(LinearExpr expr, double weight) {
  expr.normalize();
  for (const auto& t : expr.terms()) {
    util::require(t.var < num_variables(), "CqmModel: group variable out of range");
  }
  groups_.push_back({std::move(expr), weight});
  invalidate_incidence();
  return groups_.size() - 1;
}

std::size_t CqmModel::add_constraint(LinearExpr lhs, Sense sense, double rhs,
                                     std::string label) {
  lhs.normalize();
  for (const auto& t : lhs.terms()) {
    util::require(t.var < num_variables(), "CqmModel: constraint variable out of range");
  }
  rhs -= lhs.constant();
  lhs.add_constant(-lhs.constant());
  constraints_.push_back({std::move(lhs), sense, rhs, std::move(label)});
  invalidate_incidence();
  return constraints_.size() - 1;
}

namespace {

/// Same variables in the same order (both exprs normalized).
bool same_pattern(const LinearExpr& a, const LinearExpr& b) {
  const auto ta = a.terms();
  const auto tb = b.terms();
  if (ta.size() != tb.size()) return false;
  for (std::size_t t = 0; t < ta.size(); ++t) {
    if (ta[t].var != tb[t].var) return false;
  }
  return true;
}

/// Entry for `index` in a CSR row that is ascending by index.
template <typename Entry>
Entry* find_in_row(std::span<Entry> row, std::uint32_t index) {
  auto it = std::lower_bound(
      row.begin(), row.end(), index,
      [](const Entry& e, std::uint32_t idx) { return e.index < idx; });
  return (it != row.end() && it->index == index) ? &*it : nullptr;
}

}  // namespace

bool CqmModel::reset_group_expr(std::size_t g, LinearExpr expr) {
  util::require(g < groups_.size(), "CqmModel: group index out of range");
  expr.normalize();
  auto& group = groups_[g];
  if (!same_pattern(group.expr, expr)) return false;
  group.expr = std::move(expr);
  if (!incidence_valid_) return true;

  const auto gid = static_cast<std::uint32_t>(g);
  const double w = group.weight;
  for (const auto& t : group.expr.terms()) {
    auto* ker = find_in_row(group_kernel_.mutable_row(t.var), gid);
    util::ensure(ker != nullptr,
                 "CqmModel: incidence cache out of sync with group pattern");
    ker->alpha = 2.0 * w * t.coeff;
    ker->beta = w * t.coeff * t.coeff;
    ker->coeff = t.coeff;
  }
  return true;
}

bool CqmModel::reset_constraint(std::size_t c, LinearExpr lhs, double rhs) {
  util::require(c < constraints_.size(), "CqmModel: constraint index out of range");
  lhs.normalize();
  rhs -= lhs.constant();
  lhs.add_constant(-lhs.constant());
  auto& con = constraints_[c];
  if (!same_pattern(con.lhs, lhs)) return false;
  con.lhs = std::move(lhs);
  con.rhs = rhs;
  if (!incidence_valid_) return true;

  const auto cid = static_cast<std::uint32_t>(c);
  for (const auto& t : con.lhs.terms()) {
    auto* inc = find_in_row(constraint_incidence_.mutable_row(t.var), cid);
    util::ensure(inc != nullptr,
                 "CqmModel: incidence cache out of sync with constraint pattern");
    inc->coeff = t.coeff;
  }
  return true;
}

std::size_t CqmModel::num_equality_constraints() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(constraints_.begin(), constraints_.end(),
                    [](const Constraint& c) { return c.sense == Sense::EQ; }));
}

std::size_t CqmModel::num_inequality_constraints() const noexcept {
  return constraints_.size() - num_equality_constraints();
}

double CqmModel::objective_value(std::span<const std::uint8_t> state) const {
  util::require(state.size() == num_variables(), "CqmModel: state size mismatch");
  double e = objective_offset_;
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    if (state[i]) e += linear_[i];
  }
  for (const auto& g : groups_) {
    const double v = g.expr.evaluate(state);
    e += g.weight * v * v;
  }
  return e;
}

double CqmModel::constraint_violation(std::size_t c,
                                      std::span<const std::uint8_t> state) const {
  const auto& con = constraints_.at(c);
  return violation_of(con.sense, con.lhs.evaluate(state), con.rhs);
}

double CqmModel::total_violation(std::span<const std::uint8_t> state) const {
  double v = 0.0;
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    v += constraint_violation(c, state);
  }
  return v;
}

bool CqmModel::is_feasible(std::span<const std::uint8_t> state, double tol) const {
  for (std::size_t c = 0; c < constraints_.size(); ++c) {
    if (constraint_violation(c, state) > tol) return false;
  }
  return true;
}

void CqmModel::build_incidence() const {
  if (incidence_valid_) return;
  const std::size_t n = num_variables();
  // Rows come out ascending by group / constraint index because the fill
  // callbacks iterate those containers in index order (CsrRows::build keeps
  // per-row emission order). This ordering is what makes the flip kernels
  // and pair-move merges deterministic across platforms.
  group_kernel_ = CsrRows<GroupKernelTerm>::build(n, [&](auto&& emit) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const double w = groups_[g].weight;
      for (const auto& t : groups_[g].expr.terms()) {
        emit(t.var, GroupKernelTerm{static_cast<std::uint32_t>(g),
                                    2.0 * w * t.coeff, w * t.coeff * t.coeff,
                                    t.coeff});
      }
    }
  });
  constraint_incidence_ = CsrRows<Incidence>::build(n, [&](auto&& emit) {
    for (std::size_t c = 0; c < constraints_.size(); ++c) {
      for (const auto& t : constraints_[c].lhs.terms()) {
        emit(t.var, Incidence{static_cast<std::uint32_t>(c), t.coeff});
      }
    }
  });
  group_weight_flat_.resize(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    group_weight_flat_[g] = groups_[g].weight;
  }
  incidence_valid_ = true;
}

const CsrRows<CqmModel::Incidence>& CqmModel::constraint_incidence() const {
  if (!incidence_valid_) build_incidence();
  return constraint_incidence_;
}

const CsrRows<CqmModel::GroupKernelTerm>& CqmModel::group_kernel() const {
  if (!incidence_valid_) build_incidence();
  return group_kernel_;
}

std::span<const double> CqmModel::group_weight_flat() const {
  if (!incidence_valid_) build_incidence();
  return group_weight_flat_;
}

double CqmModel::objective_scale() const {
  double scale = 0.0;
  for (double a : linear_) scale = std::max(scale, std::abs(a));
  for (const auto& g : groups_) {
    const double span =
        std::max(std::abs(g.expr.min_value()), std::abs(g.expr.max_value()));
    scale = std::max(scale, std::abs(g.weight) * span * span);
  }
  return scale > 0.0 ? scale : 1.0;
}

}  // namespace qulrb::model
