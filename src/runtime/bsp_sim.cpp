#include "runtime/bsp_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <string>
#include <vector>

#include "lrp/metrics.hpp"
#include "util/error.hpp"

namespace qulrb::runtime {

namespace {

/// One executable task instance at a host process.
struct SimTask {
  double load_ms;
  double available_ms;  ///< 0 for local tasks, message arrival for migrated
};

/// Schedule `tasks` onto `threads` workers (earliest-free-worker, tasks in
/// availability order, ties by longer task first). Returns the makespan and
/// total busy time.
struct ScheduleResult {
  double makespan = 0.0;
  double busy = 0.0;
};

ScheduleResult schedule_tasks(std::vector<SimTask> tasks, std::size_t threads,
                              double workers_start) {
  ScheduleResult result;
  if (tasks.empty()) {
    result.makespan = workers_start;
    return result;
  }
  std::stable_sort(tasks.begin(), tasks.end(), [](const SimTask& a, const SimTask& b) {
    if (a.available_ms != b.available_ms) return a.available_ms < b.available_ms;
    return a.load_ms > b.load_ms;
  });

  using Worker = double;  // next free time
  std::priority_queue<Worker, std::vector<Worker>, std::greater<>> workers;
  for (std::size_t t = 0; t < threads; ++t) workers.push(workers_start);

  double makespan = workers_start;
  for (const auto& task : tasks) {
    const double free_at = workers.top();
    workers.pop();
    const double start = std::max(free_at, task.available_ms);
    const double finish = start + task.load_ms;
    workers.push(finish);
    makespan = std::max(makespan, finish);
    result.busy += task.load_ms;
  }
  result.makespan = makespan;
  return result;
}

}  // namespace

BspResult BspSimulator::run(const lrp::LrpProblem& problem,
                            const lrp::MigrationPlan& plan) const {
  plan.validate(problem);
  util::require(config_.comp_threads >= 1, "BspSimulator: need >= 1 compute thread");
  util::require(config_.iterations >= 1, "BspSimulator: need >= 1 iteration");

  const std::size_t m = problem.num_processes();
  BspResult result;
  result.processes.resize(m);

  // --- migration phase ------------------------------------------------------
  // Each sender's comm thread serializes its outgoing edges sequentially
  // (destination order); the arrival time of an edge is its send completion
  // (one-sided put: receive costs no receiver CPU).
  std::vector<std::vector<double>> arrival(m, std::vector<double>(m, 0.0));
  std::vector<double> send_done(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {  // j = sender (origin)
    double clock = 0.0;
    for (std::size_t i = 0; i < m; ++i) {  // i = destination
      if (i == j) continue;
      const std::int64_t count = plan.count(i, j);
      if (count <= 0) continue;
      clock += config_.comm.transfer_ms(count);
      arrival[i][j] = clock;
      result.processes[j].tasks_sent += count;
      result.processes[i].tasks_received += count;
    }
    send_done[j] = clock;
    result.processes[j].send_ms = clock;
  }

  // --- first iteration (with migration in flight) ----------------------------
  double first_iter_barrier = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<SimTask> tasks;
    tasks.reserve(static_cast<std::size_t>(plan.tasks_hosted(i)));
    double last_arrival = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const std::int64_t count = plan.count(i, j);
      const double available = (i == j) ? 0.0 : arrival[i][j];
      last_arrival = std::max(last_arrival, available);
      for (std::int64_t t = 0; t < count; ++t) {
        tasks.push_back({problem.task_load(j), available});
      }
    }
    // Without a dedicated comm thread the workers cannot start until the
    // process finished serializing its own outgoing tasks.
    const double workers_start = config_.overlap_migration ? 0.0 : send_done[i];
    const ScheduleResult sched =
        schedule_tasks(std::move(tasks), config_.comp_threads, workers_start);

    auto& trace = result.processes[i];
    trace.compute_ms = sched.busy;
    trace.recv_wait_ms = last_arrival;
    trace.finish_ms = std::max(sched.makespan, send_done[i]);
    trace.tasks_executed = plan.tasks_hosted(i);
    first_iter_barrier = std::max(first_iter_barrier, trace.finish_ms);
  }
  for (auto& trace : result.processes) {
    trace.idle_ms = first_iter_barrier - trace.finish_ms;
  }
  result.first_iteration_ms = first_iter_barrier;

  // --- steady-state iterations (no traffic, everything local) ---------------
  std::vector<double> steady_compute(m, 0.0);
  double steady_barrier = 0.0;
  double steady_busy_total = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<SimTask> tasks;
    for (std::size_t j = 0; j < m; ++j) {
      for (std::int64_t t = 0; t < plan.count(i, j); ++t) {
        tasks.push_back({problem.task_load(j), 0.0});
      }
    }
    const ScheduleResult sched = schedule_tasks(std::move(tasks), config_.comp_threads, 0.0);
    steady_compute[i] = sched.makespan;
    steady_busy_total += sched.busy;
    steady_barrier = std::max(steady_barrier, sched.makespan);
  }
  result.steady_iteration_ms = steady_barrier;
  result.total_ms = result.first_iteration_ms +
                    static_cast<double>(config_.iterations - 1) * steady_barrier;
  result.migration_overhead_ms = result.first_iteration_ms - steady_barrier;
  result.compute_imbalance = lrp::imbalance_ratio(steady_compute);
  const double capacity = steady_barrier * static_cast<double>(m) *
                          static_cast<double>(config_.comp_threads);
  result.parallel_efficiency = capacity > 0.0 ? steady_busy_total / capacity : 1.0;

  // --- trace replay ----------------------------------------------------------
  // Render the simulated first iteration as per-rank tracks in the request's
  // recorder: simulated milliseconds map onto the recorder's epoch starting
  // now, so the rank rows appear right after the solver spans that produced
  // the plan being simulated.
  if (config_.recorder != nullptr) {
    obs::Recorder& rec = *config_.recorder;
    const std::uint32_t base = rec.claim_tracks(static_cast<std::uint32_t>(m));
    const double t0 = rec.now_us();
    const auto at = [&](double sim_ms) { return t0 + sim_ms * 1000.0; };
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint32_t track = base + static_cast<std::uint32_t>(i);
      rec.name_track(track, "rank " + std::to_string(i));
      const ProcessTrace& p = result.processes[i];
      if (p.send_ms > 0.0) {
        rec.span("migrate-send", "bsp", track, at(0.0), at(p.send_ms));
      }
      const double workers_start = config_.overlap_migration ? 0.0 : p.send_ms;
      rec.span("compute", "bsp", track, at(workers_start), at(p.finish_ms));
      if (p.idle_ms > 0.0) {
        rec.span("barrier-wait", "bsp", track, at(p.finish_ms),
                 at(first_iter_barrier));
      }
      rec.sample_at("steady_compute_ms", track, at(first_iter_barrier),
                    steady_compute[i]);
    }
    const auto fmt = [](double v) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.4f", v);
      return std::string(buf);
    };
    rec.annotate("bsp_first_iteration_ms", fmt(result.first_iteration_ms));
    rec.annotate("bsp_steady_iteration_ms", fmt(result.steady_iteration_ms));
    rec.annotate("bsp_compute_imbalance", fmt(result.compute_imbalance));
  }
  return result;
}

BspResult BspSimulator::run_baseline(const lrp::LrpProblem& problem) const {
  return run(problem, lrp::MigrationPlan::identity(problem));
}

}  // namespace qulrb::runtime
