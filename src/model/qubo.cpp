#include "model/qubo.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace qulrb::model {

namespace {

/// Pending appends are folded eagerly once the buffer grows past this many
/// entries, so bulk construction with heavy duplicate accumulation (e.g.
/// expanding M squared groups over the same variable pairs) stays bounded by
/// the distinct-term count instead of the append count.
constexpr std::size_t kCompactThreshold = 1u << 16;

}  // namespace

QuboModel::QuboModel(std::size_t num_variables) : linear_(num_variables, 0.0) {}

void QuboModel::add_variable() {
  linear_.push_back(0.0);
  adjacency_valid_ = false;
}

void QuboModel::add_linear(VarId i, double coeff) {
  util::require(i < linear_.size(), "QuboModel::add_linear: variable out of range");
  linear_[i] += coeff;
}

void QuboModel::add_quadratic(VarId i, VarId j, double coeff) {
  util::require(i < linear_.size() && j < linear_.size(),
                "QuboModel::add_quadratic: variable out of range");
  if (i == j) {
    // x^2 == x for binary variables.
    linear_[i] += coeff;
    return;
  }
  if (i > j) std::swap(i, j);
  pending_.push_back({key_of(i, j), coeff});
  adjacency_valid_ = false;
  if (pending_.size() >= kCompactThreshold &&
      pending_.size() >= 2 * terms_.size()) {
    merge_pending();
  }
}

void QuboModel::add_squared_expr(const LinearExpr& expr, double weight) {
  const auto terms = expr.terms();
  const double b = expr.constant();
  add_offset(weight * b * b);
  for (std::size_t p = 0; p < terms.size(); ++p) {
    const auto& tp = terms[p];
    // a_p^2 x_p^2 = a_p^2 x_p, plus the 2 a_p b x_p cross term.
    add_linear(tp.var, weight * (tp.coeff * tp.coeff + 2.0 * tp.coeff * b));
    for (std::size_t q = p + 1; q < terms.size(); ++q) {
      const auto& tq = terms[q];
      add_quadratic(tp.var, tq.var, weight * 2.0 * tp.coeff * tq.coeff);
    }
  }
}

void QuboModel::merge_pending() const {
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end(),
            [](const Term& a, const Term& b) { return a.key < b.key; });
  // Fold duplicate keys within pending, then merge-join with the sorted terms.
  std::vector<Term> merged;
  merged.reserve(terms_.size() + pending_.size());
  std::size_t t = 0;
  std::size_t p = 0;
  while (t < terms_.size() || p < pending_.size()) {
    if (p == pending_.size() ||
        (t < terms_.size() && terms_[t].key < pending_[p].key)) {
      merged.push_back(terms_[t++]);
      continue;
    }
    Term next = pending_[p++];
    while (p < pending_.size() && pending_[p].key == next.key) {
      next.coeff += pending_[p++].coeff;
    }
    if (t < terms_.size() && terms_[t].key == next.key) {
      next.coeff += terms_[t++].coeff;
    }
    merged.push_back(next);
  }
  terms_ = std::move(merged);
  pending_.clear();
}

void QuboModel::ensure_finalized() const { merge_pending(); }

double QuboModel::quadratic(VarId i, VarId j) const {
  if (i == j) return 0.0;
  if (i > j) std::swap(i, j);
  ensure_finalized();
  const std::uint64_t key = key_of(i, j);
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), key,
      [](const Term& t, std::uint64_t k) { return t.key < k; });
  return (it != terms_.end() && it->key == key) ? it->coeff : 0.0;
}

double QuboModel::energy(std::span<const std::uint8_t> state) const {
  util::require(state.size() == linear_.size(),
                "QuboModel::energy: state size mismatch");
  ensure_finalized();
  double e = offset_;
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    if (state[i]) e += linear_[i];
  }
  for (const auto& t : terms_) {
    const auto i = static_cast<VarId>(t.key >> 32);
    const auto j = static_cast<VarId>(t.key & 0xFFFFFFFFu);
    if (state[i] && state[j]) e += t.coeff;
  }
  return e;
}

const CsrRows<QuboModel::Neighbor>& QuboModel::adjacency() const {
  if (!adjacency_valid_) {
    ensure_finalized();
    // terms_ is sorted by (i, j), so rows come out sorted by `other`: row i
    // receives its j-neighbours in ascending key order, and row j receives
    // its i-neighbours in the order the (sorted) i's appear.
    adjacency_ = CsrRows<Neighbor>::build(linear_.size(), [&](auto&& emit) {
      for (const auto& t : terms_) {
        const auto i = static_cast<VarId>(t.key >> 32);
        const auto j = static_cast<VarId>(t.key & 0xFFFFFFFFu);
        emit(i, Neighbor{j, t.coeff});
        emit(j, Neighbor{i, t.coeff});
      }
    });
    adjacency_valid_ = true;
  }
  return adjacency_;
}

double QuboModel::flip_delta(std::span<const std::uint8_t> state, VarId v) const {
  double delta = linear_[v];
  for (const auto& nb : adjacency()[v]) {
    if (state[nb.other]) delta += nb.coeff;
  }
  // Turning the bit on adds `delta`; turning it off removes it.
  return state[v] ? -delta : delta;
}

double QuboModel::max_abs_coefficient() const {
  ensure_finalized();
  double m = 0.0;
  for (double a : linear_) m = std::max(m, std::abs(a));
  for (const auto& t : terms_) m = std::max(m, std::abs(t.coeff));
  return m;
}

}  // namespace qulrb::model
