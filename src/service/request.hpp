#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anneal/hybrid.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/metrics.hpp"
#include "lrp/plan.hpp"

namespace qulrb::service {

/// One rebalancing request as submitted to the service. The instance is
/// carried as raw vectors (not an LrpProblem) so requests are cheap to stage
/// on queues and straight to parse off the wire; the service validates and
/// materialises the problem when the request is picked up.
struct RebalanceRequest {
  std::vector<double> task_loads;        ///< w_i per process
  std::vector<std::int64_t> task_counts; ///< n_i per process
  lrp::CqmVariant variant = lrp::CqmVariant::kReduced;
  std::int64_t k = 0;                    ///< migration bound
  lrp::CqmBuildOptions build;

  /// Higher runs first; ties break by (deadline, arrival order).
  int priority = 0;
  /// Wall-clock budget from submission, 0 = none. Enforced three times:
  /// at admission (reject when the queue wait alone would blow it), at
  /// dispatch (shed if already late), and inside the solve (the worker's
  /// CancelToken carries the remaining budget into every sweep loop).
  double deadline_ms = 0.0;

  /// Solver knobs. threads == 0 is rewritten to the service's per-solve
  /// thread count (the pool provides the concurrency; individual solves
  /// should not each claim the whole machine).
  anneal::HybridSolverParams hybrid;

  /// Target quality for the convergence telemetry: when > 0 the service
  /// reports time-to-target as the moment the solver's incumbent guaranteed
  /// R_imb <= target_r_imb (via lrp::objective_target_for_imbalance). Only
  /// meaningful when the request is traced.
  double target_r_imb = 0.0;

  /// Drive the BSP simulator on the solved plan and report the simulated
  /// execution alongside the solve — with tracing on, the per-rank tracks
  /// land in the same Perfetto document as the solver spans.
  bool simulate = false;
  std::size_t sim_iterations = 10;    ///< BSP outer time steps
  std::size_t sim_comp_threads = 1;   ///< task-executing threads per process

  /// Upstream-assigned trace identity (wire field "rid"). When a front-end
  /// router fans requests across backends, it mints one globally unique id
  /// per routed request and forwards it here, so the backend's Perfetto
  /// document carries the router's request id in its metadata instead of the
  /// backend-local sequence number — one routed request, one correlated
  /// trace. 0 = none; the service uses its own id.
  std::uint64_t trace_id = 0;
  /// Time the request spent in the upstream router before it was forwarded
  /// (wire field "router_ms"). Recorded as a "router-admission" span at the
  /// start of the trace so the routed hop is visible in the same document.
  double router_ms = 0.0;
};

enum class RequestOutcome : std::uint8_t {
  kOk,         ///< solved (possibly on a truncated budget — see budget_expired)
  kRejected,   ///< refused at admission: queue full or deadline unattainable
  kShed,       ///< dequeued after its deadline had already passed; not solved
  kCancelled,  ///< cancelled; a running solve still reports its incumbent plan
  kFailed,     ///< invalid instance or internal solver error
};

const char* to_string(RequestOutcome outcome);

struct RebalanceResponse {
  std::uint64_t id = 0;
  RequestOutcome outcome = RequestOutcome::kFailed;
  std::string error;  ///< set for kRejected / kShed / kFailed

  /// Present for kOk and for kCancelled when the solve was already running.
  std::optional<lrp::MigrationPlan> plan;
  lrp::RebalanceMetrics metrics;
  bool feasible = false;
  bool budget_expired = false;  ///< solve returned an incumbent at the deadline
  bool cache_hit = false;       ///< session cache reused a built model
  bool cache_retargeted = false;///< hit required re-pointing at new loads
  /// Chains per sampling restart (HybridSolveStats::replica_lanes);
  /// 0 = never reached the portfolio.
  std::size_t replica_lanes = 0;
  /// The portfolio member whose sample was returned
  /// (HybridSolveStats::winner_restart / winner_kind).
  std::size_t winner_restart = 0;
  anneal::RestartKind winner_kind = anneal::RestartKind::kNone;

  double queue_ms = 0.0;  ///< admission -> dispatch
  double solve_ms = 0.0;  ///< dispatch -> solver done
  double total_ms = 0.0;  ///< admission -> response

  /// Convergence telemetry (traced requests only; -1 = not observed).
  double time_to_first_feasible_ms = -1.0;
  double time_to_target_ms = -1.0;

  /// BSP simulation results (present when the request asked to simulate).
  bool simulated = false;
  double sim_first_iteration_ms = 0.0;
  double sim_steady_iteration_ms = 0.0;
  double sim_migration_overhead_ms = 0.0;
  double sim_compute_imbalance = 0.0;
  double sim_parallel_efficiency = 0.0;
};

}  // namespace qulrb::service
