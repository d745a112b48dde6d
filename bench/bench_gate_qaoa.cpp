// Gate-based extension study (paper Section VI): on LRP instances small
// enough for state-vector simulation, compare the QAOA gate path against the
// annealing-based samplers on the *same* ancilla-free penalty QUBO, plus the
// hybrid CQM solver as the reference. This is the experiment the paper
// defers to future work on the Munich Quantum Software Stack.

#include <iostream>

#include "anneal/sa.hpp"
#include "common.hpp"
#include "lrp/gate_solver.hpp"
#include "lrp/kselect.hpp"
#include "lrp/qubo_solver.hpp"
#include "lrp/quantum_solver.hpp"
#include "lrp/solver.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/mxm.hpp"

int main() {
  using namespace qulrb;

  // Instances sized for <= 20 qubits under Q_CQM1 + unbalanced penalties.
  const struct {
    std::vector<int> sizes;
    std::int64_t n;
  } cases[] = {
      {{256, 128}, 4},       // M=2, n=4: 6 qubits under Q_CQM1
      {{320, 192, 128}, 2},  // M=3, n=2: 12 qubits
  };

  util::Table table({"Instance", "Solver", "qubits", "R_imb", "# mig.",
                     "feasible", "time (ms)"});

  for (const auto& c : cases) {
    const lrp::LrpProblem problem = workloads::make_mxm_problem(c.sizes, c.n);
    const lrp::KSelection k = lrp::select_k(problem);
    const std::string name =
        "M=" + std::to_string(c.sizes.size()) + ",n=" + std::to_string(c.n);

    auto add_row = [&](const std::string& solver_name, lrp::RebalanceSolver& solver,
                       std::size_t qubits) {
      util::WallTimer timer;
      const lrp::SolverReport report = lrp::run_and_evaluate(solver, problem);
      table.add_row({name, solver_name,
                     util::Table::integer(static_cast<long long>(qubits)),
                     util::Table::num(report.metrics.imbalance_after, 5),
                     util::Table::integer(report.metrics.total_migrated),
                     report.output.feasible ? "yes" : "no",
                     util::Table::num(timer.elapsed_ms(), 1)});
    };

    // Gate path: QAOA on the state-vector simulator.
    {
      lrp::GateSolverOptions options;
      options.k = k.k2;
      options.qaoa.layers = 3;
      options.qaoa.seed = 11;
      options.qaoa.samples = 1024;
      options.qaoa.optimizer_evals = 900;
      lrp::GateQaoaSolver solver(options);
      const lrp::SolverReport report = lrp::run_and_evaluate(solver, problem);
      table.add_row(
          {name, "QAOA (p=3)",
           util::Table::integer(
               static_cast<long long>(solver.last_diagnostics()->num_qubits)),
           util::Table::num(report.metrics.imbalance_after, 5),
           util::Table::integer(report.metrics.total_migrated),
           solver.last_diagnostics()->sample_feasible ? "yes" : "no",
           util::Table::num(report.output.cpu_ms, 1)});
    }

    // Annealing paths on the same ancilla-free QUBO.
    {
      lrp::QuboSolverOptions options;
      options.k = k.k2;
      options.penalty.inequality = model::InequalityMethod::kUnbalanced;
      options.sa.sweeps = 3000;
      options.sa.num_reads = 8;
      options.sa.seed = 3;
      lrp::QuboAnnealSolver solver(options);
      const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced, k.k2);
      add_row("QUBO + SA", solver, cqm.num_binary_variables());
    }

    // The paper's hybrid CQM reference.
    {
      lrp::QcqmOptions options;
      options.variant = lrp::CqmVariant::kReduced;
      options.k = k.k2;
      options.hybrid.sweeps = 3000;
      options.hybrid.seed = 5;
      lrp::QcqmSolver solver(options);
      const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced, k.k2);
      add_row("Hybrid CQM", solver, cqm.num_binary_variables());
    }
  }

  std::cout << "=== Gate-based extension: QAOA vs annealing on tiny LRP ===\n";
  table.print(std::cout);
  std::cout << "\nAt today's simulable sizes all three paths balance the toy "
               "instances; the\ngate path's cost is the variational loop "
               "(hundreds of circuit evaluations).\n";
  return 0;
}
