#pragma once

#include <cstdint>
#include <vector>

#include "lrp/plan.hpp"
#include "lrp/problem.hpp"
#include "obs/event_log.hpp"
#include "obs/recorder.hpp"

namespace qulrb::mpirt {

struct LiveExecConfig {
  std::size_t iterations = 3;
  /// Real CPU work per task: busy-spin for task_ms * work_scale milliseconds.
  /// 0 disables spinning (tasks are accounted but cost no wall time) — the
  /// right setting for CI; > 0 turns the driver into a genuine stress run.
  double work_scale = 0.0;
  /// When set, each rank records real-time migrate/iteration spans onto its
  /// own track in the request's recorder (tracks claimed from the recorder;
  /// it is mutex-guarded, so the rank threads append concurrently without
  /// extra plumbing).
  obs::Recorder* recorder = nullptr;
  /// When set, one "bsp_driver" SolveEvent line is appended per run with the
  /// measured imbalance, migration count and wall time.
  obs::EventLog* events = nullptr;
};

struct LiveExecResult {
  /// Tasks each rank executed per iteration (local + received).
  std::vector<std::int64_t> tasks_executed;
  /// Virtual compute time per rank per iteration (sum of task costs, ms).
  std::vector<double> compute_ms;
  /// max(compute) — the per-iteration makespan implied by the plan.
  double virtual_makespan_ms = 0.0;
  /// R_imb of the per-rank compute times.
  double measured_imbalance = 0.0;
  std::int64_t tasks_migrated = 0;
  double wall_ms = 0.0;
};

/// Execute an LRP instance under a migration plan on the thread-based
/// message-passing runtime: every process is a rank; migrated task batches
/// travel as real messages before the first iteration (each task serialized
/// as its cost); each BSP iteration executes the rank's task list and ends in
/// a barrier; compute times are verified with an allreduce. This is the
/// closest in-repository analogue of running the plan under Chameleon on
/// MPI — it validates plans through actual concurrency, not just arithmetic.
LiveExecResult run_live(const lrp::LrpProblem& problem, const lrp::MigrationPlan& plan,
                        const LiveExecConfig& config = {});

}  // namespace qulrb::mpirt
