#pragma once

#include <cstdint>
#include <vector>

#include "lrp/plan.hpp"
#include "lrp/problem.hpp"
#include "obs/recorder.hpp"
#include "runtime/comm_model.hpp"

namespace qulrb::runtime {

struct BspConfig {
  std::size_t comp_threads = 1;    ///< task-executing threads per process
  std::size_t iterations = 10;     ///< BSP outer time steps
  bool overlap_migration = true;   ///< dedicated comm thread (Chameleon style)
  CommModel comm;
  /// When set, the simulated first iteration is replayed into the request's
  /// recorder as per-rank tracks (migrate-send / compute / barrier-wait
  /// spans), claimed from the recorder so rank rows sit next to the
  /// solver-restart rows of the same request. Simulated milliseconds map
  /// onto the recorder's timebase starting at the moment run() was called.
  obs::Recorder* recorder = nullptr;
};

/// Per-process execution accounting for one simulated run.
struct ProcessTrace {
  double compute_ms = 0.0;    ///< busy time executing tasks (first iteration)
  double send_ms = 0.0;       ///< time spent serializing outgoing migrations
  double recv_wait_ms = 0.0;  ///< waiting for the last inbound migration
  double finish_ms = 0.0;     ///< when this process reached the first barrier
  double idle_ms = 0.0;       ///< first-iteration barrier wait
  std::int64_t tasks_executed = 0;
  std::int64_t tasks_sent = 0;
  std::int64_t tasks_received = 0;
};

struct BspResult {
  std::vector<ProcessTrace> processes;
  double first_iteration_ms = 0.0;   ///< includes migration traffic
  double steady_iteration_ms = 0.0;  ///< post-rebalance iteration time
  double total_ms = 0.0;             ///< first + (iterations-1) * steady
  double migration_overhead_ms = 0.0;  ///< first - steady
  double compute_imbalance = 0.0;    ///< R_imb of steady compute times
  /// Average busy fraction across processes in steady state.
  double parallel_efficiency = 0.0;
};

/// Event-driven simulator of a bulk-synchronous task-parallel application
/// (Figure 1 of the paper): each process executes its tasks on
/// `comp_threads` workers, migrated tasks travel as batched messages whose
/// arrival gates their execution, and every iteration ends with a barrier.
/// Migration happens once, before the first iteration — the paper's
/// rebalancing scenario. With `overlap_migration`, a dedicated communication
/// thread sends while workers compute (Chameleon's design); otherwise the
/// send time blocks the workers.
class BspSimulator {
 public:
  explicit BspSimulator(BspConfig config = {}) : config_(config) {}

  /// Simulate `problem` executed under `plan`. The plan must be valid.
  BspResult run(const lrp::LrpProblem& problem, const lrp::MigrationPlan& plan) const;

  /// Baseline convenience: simulate with no migration.
  BspResult run_baseline(const lrp::LrpProblem& problem) const;

  const BspConfig& config() const noexcept { return config_; }

 private:
  BspConfig config_;
};

}  // namespace qulrb::runtime
