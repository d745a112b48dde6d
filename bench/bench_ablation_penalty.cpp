// Ablation on the QUBO path (the paper's Section IV pointer to Glover et al.
// and Montañez-Barrera et al.): convert a small LRP CQM to an unconstrained
// QUBO with (a) slack-bit penalties and (b) unbalanced penalization, then
// solve both with simulated annealing at the same budget and seed. Compares
// qubit counts, feasibility and solution quality — the trade the paper cites
// when it says inequality constraints need no extra ancillas under
// unbalanced penalization.

#include <iostream>

#include "anneal/sa.hpp"
#include "common.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/metrics.hpp"
#include "lrp/quantum_solver.hpp"
#include "model/cqm_to_qubo.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/mxm.hpp"

int main() {
  using namespace qulrb;

  // Small instance so the expanded QUBO stays dense-friendly: M = 4, n = 8.
  const std::vector<int> sizes = {128, 192, 320, 448};
  const lrp::LrpProblem problem = workloads::make_mxm_problem(sizes, 8);
  const lrp::KSelection k = lrp::select_k(problem);
  const lrp::LrpCqm lrp_cqm(problem, lrp::CqmVariant::kReduced, k.k2);

  std::cout << "LRP instance: M = 4, n = 8, baseline R_imb = "
            << problem.imbalance_ratio() << ", k = " << k.k2 << "\n"
            << "CQM: " << lrp_cqm.num_binary_variables() << " variables, "
            << lrp_cqm.cqm().num_constraints() << " constraints\n\n";

  util::Table table({"Penalty method", "QUBO vars", "slack vars",
                     "feasible", "R_imb", "# mig.", "time (ms)"});

  for (const auto method : {model::InequalityMethod::kSlackBits,
                            model::InequalityMethod::kUnbalanced}) {
    model::PenaltyOptions options;
    options.inequality = method;
    const model::QuboConversion conv = model::cqm_to_qubo(lrp_cqm.cqm(), options);
    const char* method_name =
        method == model::InequalityMethod::kSlackBits ? "slack bits" : "unbalanced";

    anneal::SaParams params;
    params.sweeps = 4000;
    params.num_reads = 8;
    params.seed = 7;
    util::WallTimer timer;
    const auto set = anneal::SimulatedAnnealer(params).sample(conv.qubo);
    const double ms = timer.elapsed_ms();
    const model::State projected = conv.project(set.best()->state);
    lrp::MigrationPlan plan = lrp_cqm.decode(projected);
    const bool feasible = lrp_cqm.cqm().is_feasible(projected, 1e-6);
    lrp::repair_plan(problem, plan);
    const auto metrics = lrp::evaluate_plan(problem, plan);
    // A plan that breaks a constraint (e.g. moves more than k tasks) is not
    // a balance result, so it gets no R_imb to rank by.
    table.add_row({method_name,
                   util::Table::integer(static_cast<long long>(conv.qubo.num_variables())),
                   util::Table::integer(static_cast<long long>(conv.num_slack_variables)),
                   feasible ? "yes" : "no",
                   feasible ? util::Table::num(metrics.imbalance_after, 5) : "infeasible",
                   util::Table::integer(metrics.total_migrated),
                   util::Table::num(ms, 1)});
  }

  std::cout << "=== Ablation: inequality-constraint penalty encodings ===\n";
  table.print(std::cout);
  std::cout << "\nUnbalanced penalization keeps the qubit count at the CQM's "
               "variable count\n(no slack ancillas), but its penalty only "
               "approximates each inequality, so a\nviolating sample can score "
               "best (a row reading \"infeasible\" has no R_imb to\nrank). "
               "Slack bits penalise every violation exactly, at the cost of a\n"
               "larger model.\n";
  return 0;
}
