#include "lrp/registry.hpp"

#include "lrp/gate_solver.hpp"
#include "lrp/kselect.hpp"
#include "lrp/quantum_solver.hpp"
#include "lrp/qubo_solver.hpp"
#include "util/error.hpp"

namespace qulrb::lrp {

std::vector<std::string> solver_names() {
  return {"greedy", "kk", "proactlb", "qcqm1", "qcqm2", "qubo", "qaoa"};
}

namespace {

std::int64_t resolve_k(const SolverSpec& spec, const LrpProblem& problem) {
  if (spec.k >= 0) return spec.k;
  const KSelection selection = select_k(problem);
  return spec.relaxed_k ? selection.k2 : selection.k1;
}

}  // namespace

std::unique_ptr<RebalanceSolver> make_solver(const SolverSpec& spec,
                                             const LrpProblem& problem) {
  if (spec.name == "greedy") return std::make_unique<GreedySolver>();
  if (spec.name == "kk") return std::make_unique<KkSolver>();
  if (spec.name == "proactlb") return std::make_unique<ProactLbSolver>();

  if (spec.name == "qcqm1" || spec.name == "qcqm2") {
    QcqmOptions options;
    options.variant = spec.name == "qcqm1" ? CqmVariant::kReduced : CqmVariant::kFull;
    options.k = resolve_k(spec, problem);
    options.hybrid.seed = spec.seed;
    options.hybrid.sweeps = spec.sweeps;
    options.hybrid.num_restarts = spec.restarts;
    options.hybrid.recorder = spec.recorder;
    options.hybrid.metrics = spec.metrics;
    return std::make_unique<QcqmSolver>(options);
  }
  if (spec.name == "qubo") {
    QuboSolverOptions options;
    options.k = resolve_k(spec, problem);
    options.sa.seed = spec.seed;
    options.sa.sweeps = spec.sweeps;
    options.sa.num_reads = spec.restarts * 2;
    options.sa.sinks.recorder = spec.recorder;
    if (spec.metrics != nullptr) {
      options.sa.sinks.sweep_counter = &spec.metrics->counter(
          "qulrb_solver_sweeps_total",
          "Sampler sweeps executed across all portfolio members");
    }
    return std::make_unique<QuboAnnealSolver>(options);
  }
  if (spec.name == "qaoa") {
    GateSolverOptions options;
    options.k = resolve_k(spec, problem);
    options.qaoa.seed = spec.seed;
    options.qaoa.layers = 3;
    return std::make_unique<GateQaoaSolver>(options);
  }
  throw util::InvalidArgument("make_solver: unknown solver name '" + spec.name +
                              "' (expected one of greedy, kk, proactlb, qcqm1, "
                              "qcqm2, qubo, qaoa)");
}

}  // namespace qulrb::lrp
