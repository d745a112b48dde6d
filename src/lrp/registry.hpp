#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lrp/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace qulrb::lrp {

/// Declarative solver selection, used by the CLI and by configuration-driven
/// experiments. `k < 0` requests automatic selection: k1 (ProactLB's count)
/// for frugal methods, k2 (Greedy's count) when `relaxed_k` is set.
struct SolverSpec {
  std::string name;        ///< greedy | kk | proactlb | qcqm1 | qcqm2 | qubo | qaoa
  std::int64_t k = -1;     ///< migration bound for the quantum methods
  bool relaxed_k = false;  ///< auto-k picks k2 instead of k1
  std::uint64_t seed = 2024;
  std::size_t sweeps = 2000;     ///< anneal budget (quantum methods)
  std::size_t restarts = 3;
  /// Optional observability sinks, threaded into the sampler-backed solvers
  /// (null for the classical heuristics, which have nothing to record).
  obs::Recorder* recorder = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// All names accepted by make_solver.
std::vector<std::string> solver_names();

/// Instantiate a solver by name. `problem` is needed when k is automatic.
/// Throws InvalidArgument for unknown names.
std::unique_ptr<RebalanceSolver> make_solver(const SolverSpec& spec,
                                             const LrpProblem& problem);

}  // namespace qulrb::lrp
