#include "lrp/cqm_builder.hpp"

#include <string>

#include "lrp/encoding.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace qulrb::lrp {

using model::LinearExpr;
using model::Sense;
using model::VarId;

const char* to_string(CqmVariant variant) {
  return variant == CqmVariant::kReduced ? "Q_CQM1" : "Q_CQM2";
}

std::size_t LrpCqm::predicted_qubits(CqmVariant variant, std::size_t num_processes,
                                     std::int64_t tasks_per_process) {
  const std::size_t bits = bits_per_count(tasks_per_process);
  const std::size_t m = num_processes;
  return variant == CqmVariant::kReduced ? (m - 1) * (m - 1) * bits : m * m * bits;
}

LrpCqm::LrpCqm(const LrpProblem& problem, CqmVariant variant, std::int64_t k,
               const CqmBuildOptions& options)
    : variant_(variant), k_(k) {
  util::require(k >= 0, "LrpCqm: migration bound k must be non-negative");

  m_ = problem.num_processes();
  counts_ = problem.task_counts();
  loads_ = problem.task_loads();

  // Per-source coefficient sets (empty for task-less sources).
  coeffs_.resize(m_);
  for (std::size_t j = 0; j < m_; ++j) {
    if (counts_[j] >= 1) {
      coeffs_[j] = options.use_paper_coefficient_set
                       ? coefficient_set(counts_[j])
                       : standard_binary_set(counts_[j]);
    }
  }

  const double l_avg = problem.average_load();
  const double l_max = problem.max_load();

  // --- variables -----------------------------------------------------------
  pair_base_.assign(m_ * m_, kInvalid);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      if (variant_ == CqmVariant::kReduced && i == j) continue;
      if (coeffs_[j].empty()) continue;  // nothing can come from process j
      // Unnamed: var(i, j, l) addresses every variable, so a formatted name
      // per variable would only cost the cold build.
      pair_base_[i * m_ + j] = static_cast<VarId>(cqm_.num_variables());
      for (std::size_t l = 0; l < coeffs_[j].size(); ++l) cqm_.add_variable();
    }
  }

  // --- objective: sum_i (L'_i - L_avg)^2 ------------------------------------
  for (std::size_t i = 0; i < m_; ++i) {
    LinearExpr load_i;
    append_load_terms(load_i, i);
    load_i.add_constant(-l_avg);
    cqm_.add_squared_group(std::move(load_i), 1.0);
  }

  // --- constraints ----------------------------------------------------------
  if (variant_ == CqmVariant::kFull) {
    // Conservation: column j sums to exactly n_j ("no task is lost").
    for (std::size_t j = 0; j < m_; ++j) {
      if (coeffs_[j].empty()) continue;
      LinearExpr column;
      for (std::size_t i = 0; i < m_; ++i) {
        for (std::size_t l = 0; l < coeffs_[j].size(); ++l) {
          column.add_term(var(i, j, l), static_cast<double>(coeffs_[j][l]));
        }
      }
      cqm_.add_constraint(std::move(column), Sense::EQ,
                          static_cast<double>(counts_[j]),
                          "conserve[" + std::to_string(j) + "]");
    }
  } else {
    // Reduced form: the inferred diagonal n_j - outflow_j must stay >= 0,
    // i.e. outflow_j <= n_j. Equalities become inequalities, as the paper
    // notes.
    for (std::size_t j = 0; j < m_; ++j) {
      if (coeffs_[j].empty()) continue;
      LinearExpr outflow;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == j) continue;
        for (std::size_t l = 0; l < coeffs_[j].size(); ++l) {
          outflow.add_term(var(i, j, l), static_cast<double>(coeffs_[j][l]));
        }
      }
      cqm_.add_constraint(std::move(outflow), Sense::LE,
                          static_cast<double>(counts_[j]),
                          "outflow[" + std::to_string(j) + "]");
    }
  }

  // Capacity: no process may end above the baseline maximum load.
  capacity_base_ = cqm_.num_constraints();
  for (std::size_t i = 0; i < m_; ++i) {
    LinearExpr load_i;
    append_load_terms(load_i, i);
    cqm_.add_constraint(std::move(load_i), Sense::LE, l_max,
                        "capacity[" + std::to_string(i) + "]");
  }

  // Migration bound: at most k tasks may move in total.
  LinearExpr migration;
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      if (i == j) continue;
      for (std::size_t l = 0; l < coeffs_[j].size(); ++l) {
        migration.add_term(var(i, j, l), static_cast<double>(coeffs_[j][l]));
      }
    }
  }
  cqm_.add_constraint(std::move(migration), Sense::LE, static_cast<double>(k_),
                      "migration_bound");
}

void LrpCqm::append_load_terms(LinearExpr& expr, std::size_t i) const {
  if (variant_ == CqmVariant::kFull) {
    for (std::size_t j = 0; j < m_; ++j) {
      const double w = loads_[j];
      for (std::size_t l = 0; l < coeffs_[j].size(); ++l) {
        expr.add_term(var(i, j, l), w * static_cast<double>(coeffs_[j][l]));
      }
    }
    return;
  }
  // Reduced: L'_i = w_i * (n_i - outflow_i) + inflow.
  expr.add_constant(loads_[i] * static_cast<double>(counts_[i]));
  for (std::size_t j = 0; j < m_; ++j) {
    if (j == i) continue;
    const double w_in = loads_[j];
    const double w_out = loads_[i];
    for (std::size_t l = 0; l < coeffs_[j].size(); ++l) {
      expr.add_term(var(i, j, l), w_in * static_cast<double>(coeffs_[j][l]));
    }
    for (std::size_t l = 0; l < coeffs_[i].size(); ++l) {
      expr.add_term(var(j, i, l), -w_out * static_cast<double>(coeffs_[i][l]));
    }
  }
}

bool LrpCqm::retarget(const LrpProblem& problem) {
  if (problem.num_processes() != m_) return false;
  if (problem.task_counts() != counts_) return false;
  // Zero task loads drop their terms at normalization, so a changed zero
  // pattern means a changed sparsity pattern — cold rebuild territory.
  for (std::size_t j = 0; j < m_; ++j) {
    if ((problem.task_load(j) == 0.0) != (loads_[j] == 0.0)) return false;
  }
  loads_ = problem.task_loads();
  const double l_avg = problem.average_load();
  const double l_max = problem.max_load();
  for (std::size_t i = 0; i < m_; ++i) {
    LinearExpr load_i;
    append_load_terms(load_i, i);
    LinearExpr group = load_i;
    group.add_constant(-l_avg);
    // The checks above pin the pattern, so these rewrites cannot fail.
    util::ensure(cqm_.reset_group_expr(i, std::move(group)),
                 "LrpCqm::retarget: group pattern drifted");
    util::ensure(cqm_.reset_constraint(capacity_base_ + i, std::move(load_i), l_max),
                 "LrpCqm::retarget: capacity pattern drifted");
  }
  return true;
}

std::span<const std::int64_t> LrpCqm::coefficients(std::size_t source) const {
  util::require(source < m_, "LrpCqm::coefficients: source out of range");
  return coeffs_[source];
}

VarId LrpCqm::var(std::size_t to, std::size_t from, std::size_t bit) const {
  util::require(to < m_ && from < m_, "LrpCqm::var: process index out of range");
  util::require(bit < coeffs_[from].size(), "LrpCqm::var: bit index out of range");
  const VarId base = pair_base_[to * m_ + from];
  util::require(base != kInvalid,
                "LrpCqm::var: diagonal counts are inferred in Q_CQM1");
  return base + static_cast<VarId>(bit);
}

MigrationPlan LrpCqm::decode(std::span<const std::uint8_t> state) const {
  util::require(state.size() == cqm_.num_variables(),
                "LrpCqm::decode: state size mismatch");
  MigrationPlan plan(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      if (variant_ == CqmVariant::kReduced && i == j) continue;
      std::int64_t count = 0;
      for (std::size_t l = 0; l < coeffs_[j].size(); ++l) {
        if (state[var(i, j, l)]) count += coeffs_[j][l];
      }
      plan.set_count(i, j, count);
    }
  }
  if (variant_ == CqmVariant::kReduced) {
    for (std::size_t j = 0; j < m_; ++j) {
      std::int64_t outflow = 0;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i != j) outflow += plan.count(i, j);
      }
      plan.set_count(j, j, counts_[j] - outflow);
    }
  }
  return plan;
}

LrpCqm build_lrp_cqm(const LrpProblem& problem, CqmVariant variant, std::int64_t k,
                     const CqmBuildOptions& options) {
  return LrpCqm(problem, variant, k, options);
}

}  // namespace qulrb::lrp
