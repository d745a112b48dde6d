#include "model/cqm_to_qubo.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"

namespace qulrb::model {

namespace {

/// Append binary slack bits whose weighted sum covers [0, range] with the
/// given resolution. Returns the slack terms to splice into the penalty
/// expression. Standard binary encoding with a clamped top coefficient so the
/// reachable maximum is exactly `range` (up to resolution).
std::vector<LinearTerm> make_slack_bits(QuboModel& qubo, double range,
                                        double resolution) {
  std::vector<LinearTerm> slack;
  if (range <= 0.0) return slack;
  const auto levels = static_cast<std::uint64_t>(std::floor(range / resolution));
  if (levels == 0) return slack;
  std::uint64_t remaining = levels;
  std::uint64_t bit = 1;
  while (remaining > 0) {
    const std::uint64_t value = std::min(bit, remaining);
    const auto var = static_cast<VarId>(qubo.num_variables());
    qubo.add_variable();
    slack.push_back({var, static_cast<double>(value) * resolution});
    remaining -= value;
    bit <<= 1;
  }
  return slack;
}

}  // namespace

State QuboConversion::project(std::span<const std::uint8_t> qubo_state) const {
  util::require(qubo_state.size() == qubo.num_variables(),
                "QuboConversion::project: state size mismatch");
  return State(qubo_state.begin(),
               qubo_state.begin() + static_cast<std::ptrdiff_t>(num_original_variables));
}

QuboConversion cqm_to_qubo(const CqmModel& cqm, const PenaltyOptions& options) {
  QuboConversion out;
  out.num_original_variables = cqm.num_variables();
  QuboModel& qubo = out.qubo;
  qubo = QuboModel(cqm.num_variables());

  // Objective: linear + expanded squared groups.
  qubo.add_offset(cqm.objective_offset());
  const auto linear = cqm.objective_linear();
  for (VarId v = 0; v < linear.size(); ++v) {
    if (linear[v] != 0.0) qubo.add_linear(v, linear[v]);
  }
  for (const auto& g : cqm.squared_groups()) {
    qubo.add_squared_expr(g.expr, g.weight);
  }

  const double lambda =
      options.lambda > 0.0 ? options.lambda
                           : options.penalty_factor * cqm.objective_scale();
  out.lambda_used = lambda;

  for (const auto& con : cqm.constraints()) {
    // Work with g(x) = rhs - lhs(x) for LE (feasible iff g >= 0),
    // g(x) = lhs(x) - rhs for GE; EQ penalizes (lhs - rhs)^2 directly.
    if (con.sense == Sense::EQ) {
      LinearExpr residual = con.lhs;
      residual.add_constant(-con.rhs);
      qubo.add_squared_expr(residual, lambda);
      continue;
    }

    // Orient as `expr(x) <= 0` with expr = lhs - rhs (LE) or rhs - lhs (GE).
    LinearExpr expr = con.lhs;
    expr.add_constant(-con.rhs);
    if (con.sense == Sense::GE) expr *= -1.0;

    if (options.inequality == InequalityMethod::kUnbalanced) {
      // g = -expr >= 0 when feasible; penalty = -l1 * g + l2 * g^2
      //                              = l1 * expr + l2 * expr^2.
      const double l2 = lambda;
      const double l1 = options.unbalanced_linear_ratio * lambda;
      for (const auto& t : expr.terms()) qubo.add_linear(t.var, l1 * t.coeff);
      qubo.add_offset(l1 * expr.constant());
      qubo.add_squared_expr(expr, l2);
      continue;
    }

    // Slack bits: expr(x) + s == 0 with s in [0, -min expr], penalize square.
    const double range = -expr.min_value();
    if (range < 0.0) {
      // Constraint can never be satisfied; keep the raw square so the solver
      // at least minimizes the violation.
      qubo.add_squared_expr(expr, lambda);
      continue;
    }
    LinearExpr residual = expr;
    const auto slack = make_slack_bits(qubo, range, options.slack_resolution);
    out.num_slack_variables += slack.size();
    for (const auto& s : slack) residual.add_term(s.var, s.coeff);
    residual.normalize();
    qubo.add_squared_expr(residual, lambda);
  }

  return out;
}

}  // namespace qulrb::model
