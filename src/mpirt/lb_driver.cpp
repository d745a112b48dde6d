#include "mpirt/lb_driver.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "lrp/metrics.hpp"
#include "mpirt/communicator.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qulrb::mpirt {

namespace {

constexpr int kMigrateTag = 7;

void busy_spin_ms(double ms) {
  if (ms <= 0.0) return;
  const util::WallTimer timer;
  // Volatile sink keeps the loop from being optimized away.
  volatile double sink = 0.0;
  while (timer.elapsed_ms() < ms) {
    sink = sink + 1.0;
  }
}

}  // namespace

LiveExecResult run_live(const lrp::LrpProblem& problem, const lrp::MigrationPlan& plan,
                        const LiveExecConfig& config) {
  plan.validate(problem);
  util::require(config.iterations >= 1, "run_live: need at least one iteration");

  const std::size_t m = problem.num_processes();
  LiveExecResult result;
  result.tasks_executed.assign(m, 0);
  result.compute_ms.assign(m, 0.0);
  result.tasks_migrated = plan.total_migrated();

  std::vector<double> per_rank_compute(m, 0.0);
  std::vector<std::int64_t> per_rank_tasks(m, 0);
  std::atomic<double> makespan{0.0};

  // Per-rank trace tracks are claimed once, up front, so the rank threads
  // only append spans (the Recorder serializes internally).
  obs::Recorder* const rec = config.recorder;
  const std::uint32_t track_base =
      rec != nullptr ? rec->claim_tracks(static_cast<std::uint32_t>(m)) : 0;
  if (rec != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      rec->name_track(track_base + static_cast<std::uint32_t>(i),
                      "live rank " + std::to_string(i));
    }
  }

  util::WallTimer wall;
  Communicator comm(m);
  comm.run([&](RankContext& ctx) {
    const auto rank = static_cast<std::size_t>(ctx.rank());
    const std::uint32_t track = track_base + static_cast<std::uint32_t>(rank);

    // --- migration phase: ship batches as real messages ---------------------
    obs::Recorder::Span migrate_span(rec, "migrate", "mpirt", track);
    // Local tasks that stay: plan.count(rank, rank) copies of w_rank.
    std::vector<double> tasks(
        static_cast<std::size_t>(plan.count(rank, rank)), problem.task_load(rank));

    for (std::size_t dest = 0; dest < m; ++dest) {
      if (dest == rank) continue;
      const std::int64_t count = plan.count(dest, rank);
      if (count <= 0) continue;
      // Serialize the batch: each entry is one task's cost.
      std::vector<double> payload(static_cast<std::size_t>(count),
                                  problem.task_load(rank));
      ctx.send(static_cast<int>(dest), kMigrateTag, std::move(payload));
    }
    for (std::size_t src = 0; src < m; ++src) {
      if (src == rank) continue;
      if (plan.count(rank, src) <= 0) continue;
      Message message = ctx.recv(static_cast<int>(src), kMigrateTag);
      util::ensure(static_cast<std::int64_t>(message.payload.size()) ==
                       plan.count(rank, src),
                   "run_live: migration batch size mismatch");
      tasks.insert(tasks.end(), message.payload.begin(), message.payload.end());
    }
    ctx.barrier();  // everyone holds their final task set
    migrate_span.close();

    // --- BSP iterations -------------------------------------------------------
    double compute_total = 0.0;
    for (std::size_t iter = 0; iter < config.iterations; ++iter) {
      obs::Recorder::Span iter_span(rec, "iteration", "mpirt", track);
      double iteration_compute = 0.0;
      for (const double task_ms : tasks) {
        busy_spin_ms(task_ms * config.work_scale);
        iteration_compute += task_ms;
      }
      compute_total += iteration_compute;
      // Iteration barrier (the synchronization phase of Figure 1).
      const double iteration_makespan = ctx.allreduce_max(iteration_compute);
      if (ctx.rank() == 0 && iteration_makespan > makespan.load()) {
        makespan.store(iteration_makespan);
      }
    }

    per_rank_compute[rank] = compute_total / static_cast<double>(config.iterations);
    per_rank_tasks[rank] = static_cast<std::int64_t>(tasks.size());
  });

  result.wall_ms = wall.elapsed_ms();
  result.compute_ms = per_rank_compute;
  result.tasks_executed = per_rank_tasks;
  result.virtual_makespan_ms = makespan.load();
  result.measured_imbalance = lrp::imbalance_ratio(per_rank_compute);

  if (config.events != nullptr) {
    obs::SolveEvent event;
    event.source = "bsp_driver";
    event.request_id = rec != nullptr ? rec->request_id() : 0;
    event.outcome = "ok";
    event.feasible = true;
    event.r_imb_before = problem.imbalance_ratio();
    event.r_imb_after = result.measured_imbalance;
    event.migrated = result.tasks_migrated;
    event.runtime_ms = result.wall_ms;
    event.extra.emplace_back("ranks", std::to_string(m));
    config.events->log(event);
  }
  return result;
}

}  // namespace qulrb::mpirt
