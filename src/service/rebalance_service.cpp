#include "service/rebalance_service.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <utility>
#include <vector>

#include "lrp/quantum_solver.hpp"
#include "runtime/bsp_sim.hpp"
#include "util/error.hpp"

namespace qulrb::service {

using runtime::BspSimulator;

const char* to_string(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kRejected: return "rejected";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kCancelled: return "cancelled";
    case RequestOutcome::kFailed: return "failed";
  }
  return "?";
}

RebalanceService::RebalanceService(ServiceParams params)
    : params_(params),
      cache_(params.cache_capacity),
      pool_(params.num_workers) {
  // Structured labels: the registry serializes and escapes the values, so
  // the exposition stays conformant even if a label ever carries quotes.
  using Labels = obs::MetricsRegistry::Labels;
  const char* outcome_help = "Finished requests by outcome";
  h_.submitted = &registry_.counter("qulrb_service_submitted_total",
                                    "Requests offered to the service");
  h_.completed = &registry_.counter("qulrb_service_requests_total",
                                    outcome_help,
                                    Labels{{"outcome", "completed"}});
  h_.rejected_queue_full =
      &registry_.counter("qulrb_service_requests_total", outcome_help,
                         Labels{{"outcome", "rejected_queue_full"}});
  h_.rejected_deadline =
      &registry_.counter("qulrb_service_requests_total", outcome_help,
                         Labels{{"outcome", "rejected_deadline"}});
  h_.shed = &registry_.counter("qulrb_service_requests_total", outcome_help,
                               Labels{{"outcome", "shed_expired"}});
  h_.cancelled = &registry_.counter("qulrb_service_requests_total",
                                    outcome_help,
                                    Labels{{"outcome", "cancelled"}});
  h_.failed = &registry_.counter("qulrb_service_requests_total", outcome_help,
                                 Labels{{"outcome", "failed"}});
  h_.deadline_met =
      &registry_.counter("qulrb_service_deadline_total",
                         "Completed requests vs their deadline",
                         Labels{{"result", "met"}});
  h_.deadline_missed =
      &registry_.counter("qulrb_service_deadline_total",
                         "Completed requests vs their deadline",
                         Labels{{"result", "missed"}});
  h_.budget_expired =
      &registry_.counter("qulrb_service_budget_expired_total",
                         "Solves truncated by their time budget");
  h_.queue_depth = &registry_.gauge("qulrb_service_queue_depth",
                                    "Requests pending right now");
  h_.queue_depth_hwm =
      &registry_.gauge("qulrb_service_queue_depth_hwm",
                       "Most requests ever pending at once");
  h_.running = &registry_.gauge("qulrb_service_running",
                                "Requests being solved right now");
  h_.ewma_solve_ms =
      &registry_.gauge("qulrb_service_ewma_solve_ms",
                       "Admission controller's solve-time predictor (ms)");
  h_.queue_ms = &registry_.histogram("qulrb_service_queue_ms",
                                     "Time spent queued before a worker (ms)");
  h_.solve_ms = &registry_.histogram("qulrb_service_solve_ms",
                                     "Solver wall time per request (ms)");
  h_.total_ms = &registry_.histogram("qulrb_service_total_ms",
                                     "Admission-to-response wall time (ms)");
  cache_.attach_metrics(registry_);
  if (params_.flight != nullptr) {
    f_.request = params_.flight->intern("request");
    f_.deadline_miss = params_.flight->intern("deadline-miss");
    f_.queue_depth = params_.flight->intern("queue-depth");
  }
}

RebalanceService::~RebalanceService() {
  std::vector<Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (auto& [key, item] : pending_) orphaned.push_back(std::move(item));
    pending_.clear();
    pending_index_.clear();
    queue_depth_relaxed_.store(0, std::memory_order_relaxed);
    // Trip running solves so shutdown is prompt; they answer kCancelled with
    // their incumbent through the normal finish path.
    for (auto& [id, token] : running_) token.cancel();
  }
  for (auto& item : orphaned) {
    RebalanceResponse response;
    response.id = item.id;
    response.outcome = RequestOutcome::kCancelled;
    response.error = "service shutting down";
    h_.cancelled->inc();
    if (item.callback) item.callback(std::move(response));
  }
  // ~ThreadPool (first member destroyed) drains the remaining drain-one
  // tasks, which find the queue empty, and waits out the cancelled solves.
}

std::uint64_t RebalanceService::submit(RebalanceRequest request, Callback callback) {
  RebalanceResponse rejection;
  std::uint64_t id = 0;
  bool admitted = false;

  h_.submitted->inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;

    double deadline_ms = request.deadline_ms > 0.0 ? request.deadline_ms
                                                   : params_.default_deadline_ms;
    if (stopping_) {
      rejection.outcome = RequestOutcome::kRejected;
      rejection.error = "service shutting down";
      h_.rejected_queue_full->inc();
    } else if (pending_.size() >= params_.max_pending) {
      rejection.outcome = RequestOutcome::kRejected;
      rejection.error = "queue full";
      h_.rejected_queue_full->inc();
    } else if (params_.admission_deadline_check && deadline_ms > 0.0 &&
               stats_.ewma_solve_ms > 0.0 &&
               static_cast<double>(pending_.size()) * stats_.ewma_solve_ms /
                       static_cast<double>(pool_.size()) >
                   deadline_ms) {
      // The queue wait alone is predicted to consume the whole budget; the
      // honest answer is an immediate rejection, not a future shed.
      rejection.outcome = RequestOutcome::kRejected;
      rejection.error = "deadline unattainable at current backlog";
      h_.rejected_deadline->inc();
    } else {
      Pending item;
      item.id = id;
      item.request = std::move(request);
      item.callback = std::move(callback);
      item.deadline_ms = deadline_ms;
      item.token = util::CancelToken::cancellable();
      if (deadline_ms > 0.0) {
        // Anchored at admission: queue time spends the same budget.
        item.token = item.token.with_deadline_ms(deadline_ms);
      }
      if (params_.record_traces) {
        // The recorder's epoch is admission, so the queue wait is the span
        // from epoch_us() to dequeue. The recorder carries the request id
        // into every layer the solve touches. A router-forwarded request
        // supplies its own id ("rid"), so the exported document correlates
        // with the router's books rather than this backend's local sequence.
        const std::uint64_t rid =
            item.request.trace_id != 0 ? item.request.trace_id : id;
        item.recorder = std::make_unique<obs::Recorder>(
            "req-" + std::to_string(rid), rid);
        item.recorder->annotate("priority",
                                std::to_string(item.request.priority));
        if (item.request.router_ms > 0.0) {
          // The routed hop happened just before admission: it ends at the
          // epoch, so the document reads router -> queue -> solve left to
          // right.
          const double epoch = item.recorder->epoch_us();
          item.recorder->span("router-admission", "router", 0,
                              epoch - item.request.router_ms * 1000.0, epoch);
        }
      }
      const PendingKey key{item.request.priority,
                           deadline_ms > 0.0
                               ? deadline_ms
                               : std::numeric_limits<double>::infinity(),
                           id};
      pending_index_.emplace(id, key);
      pending_.emplace(key, std::move(item));
      admitted = true;
      queue_depth_relaxed_.store(pending_.size(), std::memory_order_relaxed);
      const auto depth = static_cast<double>(pending_.size());
      h_.queue_depth->set(depth);
      h_.queue_depth_hwm->update_max(depth);
    }
  }

  if (!admitted) {
    rejection.id = id;
    if (callback) callback(std::move(rejection));
    return id;
  }
  if (params_.flight != nullptr) {
    params_.flight->counter(f_.queue_depth, 0, id,
                            static_cast<double>(queue_depth()));
  }
  if (params_.slo != nullptr) {
    params_.slo->note_queue_depth(queue_depth(), id, now_ms());
  }
  pool_.submit([this] { run_one(); });
  return id;
}

std::future<RebalanceResponse> RebalanceService::submit(RebalanceRequest request) {
  auto promise = std::make_shared<std::promise<RebalanceResponse>>();
  auto future = promise->get_future();
  submit(std::move(request), [promise](RebalanceResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

bool RebalanceService::cancel(std::uint64_t id) {
  Pending item;
  bool was_pending = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto idx = pending_index_.find(id);
    if (idx != pending_index_.end()) {
      auto it = pending_.find(idx->second);
      item = std::move(it->second);
      pending_.erase(it);
      pending_index_.erase(idx);
      queue_depth_relaxed_.store(pending_.size(), std::memory_order_relaxed);
      h_.queue_depth->set(static_cast<double>(pending_.size()));
      // Count as running until finish() has delivered the callback, so
      // drain() cannot return under it.
      running_.emplace(item.id, item.token);
      running_relaxed_.store(running_.size(), std::memory_order_relaxed);
      was_pending = true;
    } else {
      auto run = running_.find(id);
      if (run == running_.end()) return false;
      run->second.cancel();
      return true;
    }
  }
  RebalanceResponse response;
  response.id = item.id;
  response.outcome = RequestOutcome::kCancelled;
  response.queue_ms = item.queued.elapsed_ms();
  response.total_ms = response.queue_ms;
  finish(std::move(item), std::move(response));
  return was_pending;
}

void RebalanceService::run_one() {
  Pending item;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) {
      idle_cv_.notify_all();
      return;  // drained by a cancel or shutdown
    }
    auto it = pending_.begin();
    item = std::move(it->second);
    pending_.erase(it);
    pending_index_.erase(item.id);
    running_.emplace(item.id, item.token);
    queue_depth_relaxed_.store(pending_.size(), std::memory_order_relaxed);
    running_relaxed_.store(running_.size(), std::memory_order_relaxed);
    h_.queue_depth->set(static_cast<double>(pending_.size()));
    h_.running->set(static_cast<double>(running_.size()));
  }

  RebalanceResponse response;
  response.id = item.id;
  response.queue_ms = item.queued.elapsed_ms();
  if (obs::Recorder* rec = item.recorder.get()) {
    rec->span("queue-wait", "service", 0, rec->epoch_us(), rec->now_us());
  }

  if (item.token.cancel_requested()) {
    response.outcome = RequestOutcome::kCancelled;
    response.total_ms = item.queued.elapsed_ms();
  } else if (item.deadline_ms > 0.0 && response.queue_ms > item.deadline_ms) {
    // A late answer to a rebalancing question is worthless: the load
    // snapshot has moved on, so the request is shed instead of solved.
    response.outcome = RequestOutcome::kShed;
    response.error = "deadline passed while queued";
    response.total_ms = item.queued.elapsed_ms();
  } else {
    response = solve_item(item);
  }
  finish(std::move(item), std::move(response));
}

RebalanceResponse RebalanceService::solve_item(Pending& item) {
  RebalanceResponse response;
  response.id = item.id;
  response.queue_ms = item.queued.elapsed_ms();
  // Tag this worker thread (and, via HybridSolverParams::flight_rid, the
  // solver pool threads) so CPU samples taken during the solve attribute to
  // this request. Unconditional and allocation-free: bitwise-identical
  // output with or without a profiler attached.
  obs::prof::RidScope rid_scope(item.request.trace_id != 0
                                    ? item.request.trace_id
                                    : item.id);
  obs::prof::PhaseScope solve_phase("solve");
  obs::Recorder* rec = item.recorder.get();
  try {
    const lrp::LrpProblem problem(item.request.task_loads,
                                  item.request.task_counts);
    if (item.request.target_r_imb > 0.0) {
      item.target_objective = lrp::objective_target_for_imbalance(
          problem, item.request.target_r_imb);
    }
    obs::Recorder::Span checkout_span(rec, "session-checkout", "service", 0);
    auto checkout = cache_.checkout(problem, item.request.variant,
                                    item.request.k, item.request.build, rec);
    checkout_span.close();
    response.cache_hit = checkout.hit != CacheHit::kMiss;
    response.cache_retargeted = checkout.hit == CacheHit::kRetarget;
    cache_lookups_relaxed_.fetch_add(1, std::memory_order_relaxed);
    if (response.cache_hit) {
      cache_hits_relaxed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (rec != nullptr) {
      rec->annotate("cache", checkout.hit == CacheHit::kExact ? "exact"
                             : checkout.hit == CacheHit::kRetarget
                                 ? "retarget"
                                 : "miss");
    }

    anneal::HybridSolverParams hybrid = item.request.hybrid;
    if (hybrid.threads == 0) hybrid.threads = params_.solver_threads;
    hybrid.cancel = item.token;
    hybrid.reuse_presolve = &checkout.session->presolve;
    hybrid.reuse_pairs = &checkout.session->pairs;
    hybrid.recorder = rec;
    hybrid.metrics = &registry_;
    hybrid.flight = params_.flight;
    hybrid.flight_rid =
        item.request.trace_id != 0 ? item.request.trace_id : item.id;
    if (hybrid.initial_hint.empty() && !checkout.session->warm_hint.empty()) {
      hybrid.initial_hint = checkout.session->warm_hint;
    }

    util::WallTimer solve_timer;
    lrp::QcqmDiagnostics diag;
    lrp::SolveOutput out =
        lrp::solve_lrp_cqm(problem, checkout.session->model, hybrid, &diag);
    response.solve_ms = solve_timer.elapsed_ms();

    checkout.session->warm_hint = std::move(diag.best_state);
    cache_.give_back(std::move(checkout));

    response.metrics = lrp::evaluate_plan(problem, out.plan);
    response.feasible = out.feasible;
    response.budget_expired = diag.hybrid_stats.budget_expired;
    response.replica_lanes = diag.hybrid_stats.replica_lanes;
    response.winner_restart = diag.hybrid_stats.winner_restart;
    response.winner_kind = diag.hybrid_stats.winner_kind;
    response.outcome = item.token.cancel_requested()
                           ? RequestOutcome::kCancelled
                           : RequestOutcome::kOk;

    if (item.request.simulate) {
      // Drive the BSP simulator on the plan we just produced; with tracing
      // on, its per-rank tracks land in this request's document right after
      // the solver spans.
      obs::Recorder::Span sim_span(rec, "bsp-sim", "service", 0);
      runtime::BspConfig sim;
      sim.iterations = std::max<std::size_t>(1, item.request.sim_iterations);
      sim.comp_threads =
          std::max<std::size_t>(1, item.request.sim_comp_threads);
      sim.recorder = rec;
      const runtime::BspResult bsp = BspSimulator(sim).run(problem, out.plan);
      response.simulated = true;
      response.sim_first_iteration_ms = bsp.first_iteration_ms;
      response.sim_steady_iteration_ms = bsp.steady_iteration_ms;
      response.sim_migration_overhead_ms = bsp.migration_overhead_ms;
      response.sim_compute_imbalance = bsp.compute_imbalance;
      response.sim_parallel_efficiency = bsp.parallel_efficiency;
    }
    response.plan = std::move(out.plan);
  } catch (const std::exception& e) {
    response.outcome = RequestOutcome::kFailed;
    response.error = e.what();
  }
  response.total_ms = item.queued.elapsed_ms();
  return response;
}

void RebalanceService::finish(Pending item, RebalanceResponse response) {
  switch (response.outcome) {
    case RequestOutcome::kOk:
      h_.completed->inc();
      if (item.deadline_ms > 0.0) {
        if (response.total_ms <= item.deadline_ms) {
          h_.deadline_met->inc();
        } else {
          h_.deadline_missed->inc();
        }
      }
      break;
    case RequestOutcome::kShed: h_.shed->inc(); break;
    case RequestOutcome::kCancelled: h_.cancelled->inc(); break;
    case RequestOutcome::kFailed: h_.failed->inc(); break;
    case RequestOutcome::kRejected: break;  // counted at admission
  }
  if (response.budget_expired) h_.budget_expired->inc();
  if (response.solve_ms > 0.0) h_.solve_ms->observe(response.solve_ms);
  h_.queue_ms->observe(response.queue_ms);
  h_.total_ms->observe(response.total_ms);

  const bool deadline_missed = response.outcome == RequestOutcome::kOk &&
                               item.deadline_ms > 0.0 &&
                               response.total_ms > item.deadline_ms;
  const std::uint64_t rid =
      item.request.trace_id != 0 ? item.request.trace_id : item.id;
  if (params_.flight != nullptr) {
    const double end_us = params_.flight->now_us();
    params_.flight->record(f_.request, obs::FlightKind::kSpan, 0, rid, end_us,
                           response.total_ms * 1000.0, response.total_ms);
    if (deadline_missed) {
      params_.flight->instant(f_.deadline_miss, 0, rid,
                              response.total_ms - item.deadline_ms);
    }
  }
  if (params_.slo != nullptr &&
      response.outcome != RequestOutcome::kCancelled) {
    // Cancelled requests are the client's choice, not a service failure;
    // everything else (ok, shed, failed) counts against the objective. A
    // non-ok outcome is never "good" regardless of how fast it failed.
    params_.slo->record(item.request.priority, response.total_ms,
                        response.outcome == RequestOutcome::kOk,
                        deadline_missed, rid, now_ms());
  }

  // Convergence analysis + trace serialization outside the lock — both are
  // pure computation over the request's private recorder.
  std::string trace;
  if (obs::Recorder* rec = item.recorder.get()) {
    obs::ConvergenceConfig conv;
    conv.target_objective = item.target_objective;
    const obs::ConvergenceReport report =
        obs::ConvergenceDiagnostics(conv).annotate(*rec);
    response.time_to_first_feasible_ms = report.time_to_first_feasible_ms;
    response.time_to_target_ms = report.time_to_target_ms;
    rec->annotate("outcome", to_string(response.outcome));
    trace = obs::to_perfetto_json(*rec);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (response.solve_ms > 0.0) {
      stats_.ewma_solve_ms = stats_.ewma_solve_ms == 0.0
                                 ? response.solve_ms
                                 : 0.8 * stats_.ewma_solve_ms +
                                       0.2 * response.solve_ms;
      h_.ewma_solve_ms->set(stats_.ewma_solve_ms);
      stats_.solve_ms.add(response.solve_ms);
    }
    stats_.queue_ms.add(response.queue_ms);
    stats_.total_ms.add(response.total_ms);
    if (!trace.empty()) {
      traces_.push_back(std::move(trace));
      while (traces_.size() > params_.trace_keep) traces_.pop_front();
    }
  }
  if (params_.event_log != nullptr) {
    obs::SolveEvent event;
    event.source = params_.event_source;
    event.request_id = item.id;
    event.solver = lrp::to_string(item.request.variant);
    event.outcome = to_string(response.outcome);
    event.feasible = response.feasible;
    if (response.plan.has_value()) {
      event.r_imb_before = response.metrics.imbalance_before;
      event.r_imb_after = response.metrics.imbalance_after;
      event.speedup = response.metrics.speedup;
      event.migrated = response.metrics.total_migrated;
    }
    if (response.replica_lanes > 0) {
      event.replicas = static_cast<std::int64_t>(response.replica_lanes);
    }
    event.runtime_ms = response.solve_ms;
    event.queue_ms = response.queue_ms;
    if (response.time_to_first_feasible_ms >= 0.0) {
      event.time_to_first_feasible_ms = response.time_to_first_feasible_ms;
    }
    if (response.time_to_target_ms >= 0.0) {
      event.time_to_target_ms = response.time_to_target_ms;
    }
    if (response.cache_hit) event.extra.emplace_back("cache", "hit");
    if (response.winner_kind != anneal::RestartKind::kNone) {
      event.extra.emplace_back("winner_restart",
                               std::to_string(response.winner_restart));
      event.extra.emplace_back("winner_kind",
                               anneal::to_string(response.winner_kind));
    }
    if (response.simulated) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f",
                    response.sim_steady_iteration_ms);
      event.extra.emplace_back("sim_steady_iteration_ms", buf);
    }
    params_.event_log->log(event);
  }

  if (item.callback) item.callback(std::move(response));
  // Only now is the request truly finished: drain() must not return while a
  // callback is still writing (e.g. to a connection about to be closed).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_.erase(item.id);
    running_relaxed_.store(running_.size(), std::memory_order_relaxed);
    h_.running->set(static_cast<double>(running_.size()));
    idle_cv_.notify_all();
  }
}

std::size_t RebalanceService::shed_pending() {
  std::vector<Pending> shed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, item] : pending_) {
      // Count as running until finish() has delivered the callback, so a
      // following drain() cannot return under the delivery.
      running_.emplace(item.id, item.token);
      shed.push_back(std::move(item));
    }
    pending_.clear();
    pending_index_.clear();
    queue_depth_relaxed_.store(0, std::memory_order_relaxed);
    running_relaxed_.store(running_.size(), std::memory_order_relaxed);
    h_.queue_depth->set(0.0);
    h_.running->set(static_cast<double>(running_.size()));
  }
  for (auto& item : shed) {
    RebalanceResponse response;
    response.id = item.id;
    response.outcome = RequestOutcome::kCancelled;
    response.error = "shed at shutdown";
    response.queue_ms = item.queued.elapsed_ms();
    response.total_ms = response.queue_ms;
    finish(std::move(item), std::move(response));
  }
  return shed.size();
}

void RebalanceService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_.empty() && running_.empty(); });
}

ServiceStats RebalanceService::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = stats_;
    snapshot.pending = pending_.size();
    snapshot.running = running_.size();
  }
  // The event counters live in the registry; the snapshot mirrors them so the
  // ServiceStats API is unchanged for callers.
  snapshot.submitted = h_.submitted->value();
  snapshot.completed = h_.completed->value();
  snapshot.rejected_queue_full = h_.rejected_queue_full->value();
  snapshot.rejected_deadline = h_.rejected_deadline->value();
  snapshot.shed = h_.shed->value();
  snapshot.cancelled = h_.cancelled->value();
  snapshot.failed = h_.failed->value();
  snapshot.deadline_met = h_.deadline_met->value();
  snapshot.deadline_missed = h_.deadline_missed->value();
  snapshot.budget_expired = h_.budget_expired->value();
  snapshot.queue_depth_hwm =
      static_cast<std::size_t>(h_.queue_depth_hwm->value());
  snapshot.cache = cache_.stats();
  const std::uint64_t hits =
      snapshot.cache.exact_hits + snapshot.cache.retarget_hits;
  const std::uint64_t lookups = hits + snapshot.cache.misses;
  snapshot.cache_hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  return snapshot;
}

std::string RebalanceService::metrics_text() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    h_.queue_depth->set(static_cast<double>(pending_.size()));
    h_.running->set(static_cast<double>(running_.size()));
    h_.ewma_solve_ms->set(stats_.ewma_solve_ms);
  }
  proc_metrics_.update();
  return registry_.to_prometheus();
}

std::vector<std::string> RebalanceService::last_traces(std::size_t n) const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = std::min(n, traces_.size());
  out.reserve(count);
  for (std::size_t i = traces_.size() - count; i < traces_.size(); ++i) {
    out.push_back(traces_[i]);
  }
  return out;
}

}  // namespace qulrb::service
