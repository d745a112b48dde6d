#include "anneal/hybrid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anneal/tempering.hpp"
#include "model/presolve.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qulrb::anneal {

using model::CqmModel;
using model::VarId;

namespace {

/// Initial penalty = kPenaltyScale * (objective gradient scale) / (smallest
/// step a flip takes on the constraint).
constexpr double kPenaltyScale = 2.0;
/// Factor on the weights of still-violated constraints per penalty round.
constexpr double kPenaltyGrowth = 8.0;
/// Ladder size of the tempered restart.
constexpr std::size_t kTemperingReplicas = 6;
/// Each tempering replica sweeps `sweeps / kTemperingSweepDivisor + 1` times,
/// so the tempered restart costs about two annealed restarts, not three.
constexpr std::size_t kTemperingSweepDivisor = 3;
/// Reported per solve() to mirror the constant QPU-access share that
/// D-Wave's CQM logs show (~32 ms in the paper's Table V). Purely an
/// accounting stand-in: no quantum hardware is involved.
constexpr double kSimulatedQpuAccessMs = 32.0;

/// Approximate largest single-flip objective change: used to scale penalties
/// so that violating a constraint is never profitable at convergence.
double objective_gradient_scale(const CqmModel& cqm) {
  double scale = 0.0;
  for (double a : cqm.objective_linear()) scale = std::max(scale, std::abs(a));
  for (const auto& g : cqm.squared_groups()) {
    const double span =
        std::max(std::abs(g.expr.min_value()), std::abs(g.expr.max_value()));
    double max_coeff = 0.0;
    for (const auto& t : g.expr.terms()) {
      max_coeff = std::max(max_coeff, std::abs(t.coeff));
    }
    // |d/dflip (w * v^2)| <= w * (2 * span * a + a^2) with a = max coefficient.
    scale = std::max(scale,
                     std::abs(g.weight) * (2.0 * span * max_coeff + max_coeff * max_coeff));
  }
  return scale > 0.0 ? scale : 1.0;
}

/// Per-constraint base penalty: the weight applies per unit of violation, so
/// normalize by the smallest step a single flip can take on that constraint.
std::vector<double> initial_penalties(const CqmModel& cqm) {
  const double grad = objective_gradient_scale(cqm);
  std::vector<double> penalties;
  penalties.reserve(cqm.num_constraints());
  for (const auto& con : cqm.constraints()) {
    double min_step = 0.0;
    for (const auto& t : con.lhs.terms()) {
      const double a = std::abs(t.coeff);
      if (a > 0.0) min_step = (min_step == 0.0) ? a : std::min(min_step, a);
    }
    if (min_step == 0.0) min_step = 1.0;
    penalties.push_back(kPenaltyScale * grad / min_step);
  }
  return penalties;
}

/// Per-constraint violation attribution for the final incumbent: one counter
/// point per still-violated constraint, named after the model's constraint
/// label (falling back to the index) so the trace answers *which* constraint
/// an infeasible solve died on. Runs once per solve off the hot path, capped
/// so a pathological model cannot bloat the document.
void record_violation_attribution(obs::Recorder& rec, const CqmModel& cqm,
                                  const model::State& state) {
  constexpr std::size_t kMaxAttributed = 16;
  struct Violated {
    std::size_t c;
    double v;
  };
  const CqmIncrementalState probe(
      cqm, state, std::vector<double>(cqm.num_constraints(), 0.0));
  std::vector<Violated> violated;
  for (std::size_t c = 0; c < probe.num_constraints(); ++c) {
    const double v = probe.constraint_violation(c);
    if (v > 1e-9) violated.push_back({c, v});
  }
  rec.annotate("violated_constraints", std::to_string(violated.size()));
  if (violated.empty()) return;
  const std::size_t keep = std::min(violated.size(), kMaxAttributed);
  std::partial_sort(violated.begin(),
                    violated.begin() + static_cast<std::ptrdiff_t>(keep),
                    violated.end(),
                    [](const Violated& a, const Violated& b) {
                      return a.v > b.v;
                    });
  const auto constraints = cqm.constraints();
  const double t = rec.now_us();
  for (std::size_t i = 0; i < keep; ++i) {
    std::string label = constraints[violated[i].c].label;
    if (label.empty()) label = "c" + std::to_string(violated[i].c);
    rec.sample_at("violation/" + label, 0, t, violated[i].v);
  }
}

model::State random_state(std::size_t n, util::Rng& rng) {
  model::State s(n);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next_below(2));
  return s;
}

void apply_fixings(model::State& s, const model::PresolveResult& pre) {
  for (std::size_t v = 0; v < s.size(); ++v) {
    if (pre.fixed[v].has_value()) s[v] = *pre.fixed[v];
  }
}

}  // namespace

const char* to_string(RestartKind kind) noexcept {
  switch (kind) {
    case RestartKind::kRefine:
      return "refine";
    case RestartKind::kAnneal:
      return "anneal";
    case RestartKind::kTempered:
      return "tempered";
    case RestartKind::kNone:
      break;
  }
  return "none";
}

void HybridCqmSolver::greedy_descent(CqmIncrementalState& walk, util::Rng& rng,
                                     std::size_t max_passes,
                                     const util::CancelToken* cancel) {
  const std::size_t n = walk.num_variables();
  if (n == 0) return;
  std::vector<VarId> order(n);
  std::iota(order.begin(), order.end(), VarId{0});
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    if (cancel != nullptr && cancel->expired()) return;
    // Fisher-Yates shuffle for a fresh scan order each pass.
    for (std::size_t i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.next_below(i + 1));
      std::swap(order[i], order[j]);
    }
    bool improved = false;
    for (const VarId v : order) {
      if (walk.flip_delta(v) < -1e-12) {
        walk.apply_flip(v);
        improved = true;
      }
    }
    if (!improved) return;
  }
}

HybridSolveResult HybridCqmSolver::solve(const CqmModel& cqm) const {
  util::WallTimer timer;
  HybridSolveResult result;
  result.stats.num_variables = cqm.num_variables();
  result.stats.num_constraints = cqm.num_constraints();
  result.stats.simulated_qpu_ms = kSimulatedQpuAccessMs;

  // Metrics handles are resolved once per solve (registration takes a
  // mutex); everything below the portfolio only touches lock-free counters.
  obs::Counter* m_restarts = nullptr;
  obs::Counter* m_penalty_rounds = nullptr;
  obs::Counter* m_budget_expired = nullptr;
  obs::Counter* m_sweeps = nullptr;
  obs::LogHistogram* m_solve_ms = nullptr;
  if (params_.metrics != nullptr) {
    auto& reg = *params_.metrics;
    reg.counter("qulrb_solver_solves_total", "Hybrid CQM solves started").inc();
    m_restarts = &reg.counter("qulrb_solver_restarts_total",
                              "Portfolio restarts completed");
    m_penalty_rounds = &reg.counter("qulrb_solver_penalty_rounds_total",
                                    "Adaptive penalty escalation rounds run");
    m_budget_expired =
        &reg.counter("qulrb_solver_budget_expired_total",
                     "Solves truncated by their budget or a cancellation");
    m_sweeps = &reg.counter("qulrb_solver_sweeps_total",
                            "Sampler sweeps executed across all portfolio members");
    m_solve_ms = &reg.histogram("qulrb_solver_solve_ms",
                                "Hybrid solve wall time in milliseconds");
  }
  obs::Recorder* const rec = params_.recorder;
  // Flight-ring name codes, interned once per solve (cold path).
  const std::uint16_t f_anneal =
      params_.flight != nullptr ? params_.flight->intern("anneal") : 0;
  const std::uint16_t f_temper =
      params_.flight != nullptr ? params_.flight->intern("tempering") : 0;
  if (rec != nullptr) {
    rec->annotate("num_variables", std::to_string(cqm.num_variables()));
    rec->annotate("num_constraints", std::to_string(cqm.num_constraints()));
  }
  const auto finalize = [&] {
    result.stats.cpu_ms = timer.elapsed_ms();
    if (m_restarts != nullptr && result.stats.restarts_used > 0) {
      m_restarts->inc(result.stats.restarts_used);
    }
    if (m_penalty_rounds != nullptr && result.stats.penalty_rounds_used > 0) {
      m_penalty_rounds->inc(result.stats.penalty_rounds_used);
    }
    if (m_budget_expired != nullptr && result.stats.budget_expired) {
      m_budget_expired->inc();
    }
    if (m_solve_ms != nullptr) m_solve_ms->observe(result.stats.cpu_ms);
  };

  // One effective budget: the caller's token (service deadline, client
  // cancel) tightened by the solver's own wall-clock limit. Every portfolio
  // member polls it per sweep, so running restarts stop near the budget
  // instead of only between restarts.
  util::CancelToken budget = params_.cancel;
  if (params_.time_limit_ms > 0.0) {
    budget = budget.with_deadline_ms(params_.time_limit_ms);
  }

  // --- classical presolve --------------------------------------------------
  const model::PresolveResult local_pre = [&] {
    if (params_.reuse_presolve != nullptr) return model::PresolveResult{};
    obs::Recorder::Span presolve_span(rec, "presolve", "hybrid", 0);
    return model::presolve(cqm);
  }();
  const model::PresolveResult& pre =
      params_.reuse_presolve != nullptr ? *params_.reuse_presolve : local_pre;
  result.stats.presolve_fixed = pre.num_fixed;
  if (pre.proven_infeasible) {
    result.stats.presolve_infeasible = true;
    model::State zero(cqm.num_variables(), 0);
    result.best = {zero, cqm.objective_value(zero), cqm.total_violation(zero), false};
    finalize();
    return result;
  }

  // --- exhaustive enumeration for tiny models ------------------------------
  // With few enough free variables, visiting every assignment via a Gray-code
  // walk (one incremental flip per state) costs less than a single annealing
  // schedule and returns the provable CQM optimum. Sampling tiny models is
  // all overhead and no guarantee. The walk is one run on its own claimed
  // track, and records the incumbent it returns once, when it ends.
  std::vector<VarId> free_vars;
  free_vars.reserve(cqm.num_variables());
  for (std::size_t v = 0; v < cqm.num_variables(); ++v) {
    if (!pre.fixed[v].has_value()) free_vars.push_back(static_cast<VarId>(v));
  }
  if (params_.exhaustive_max_vars > 0 && free_vars.size() < 64 &&
      free_vars.size() <= params_.exhaustive_max_vars) {
    SamplerSinks sinks;
    sinks.recorder = rec;
    if (rec != nullptr) sinks.trace_track = rec->claim_tracks(1);
    SamplerRun run(sinks, "exhaustive-enum", 1);
    model::State base(cqm.num_variables(), 0);
    apply_fixings(base, pre);
    CqmIncrementalState walk(cqm, base,
                             std::vector<double>(cqm.num_constraints(), 0.0));
    // Track the incumbent by its Gray code; the state is rebuilt once at the
    // end so the loop never copies.
    std::uint64_t best_code = 0;
    double best_obj = walk.objective();
    double best_viol = walk.total_violation();
    std::uint64_t code = 0;
    const std::uint64_t total = std::uint64_t{1} << free_vars.size();
    const bool poll_budget = budget.can_expire();
    for (std::uint64_t i = 1; i < total; ++i) {
      if (poll_budget && (i & 0xFFFu) == 0 && budget.expired()) {
        result.stats.budget_expired = true;
        break;
      }
      const auto bit = static_cast<std::size_t>(std::countr_zero(i));
      walk.apply_flip(free_vars[bit]);
      code ^= std::uint64_t{1} << bit;
      const double viol = walk.total_violation();
      if (viol < best_viol ||
          (viol == best_viol && walk.objective() < best_obj)) {
        best_code = code;
        best_obj = walk.objective();
        best_viol = viol;
      }
    }
    model::State best_state = std::move(base);
    for (std::size_t b = 0; b < free_vars.size(); ++b) {
      if (best_code & (std::uint64_t{1} << b)) best_state[free_vars[b]] ^= 1u;
    }
    // Recompute from scratch: the reported numbers carry no incremental
    // floating-point drift.
    Sample s{best_state, cqm.objective_value(best_state),
             cqm.total_violation(best_state), false};
    s.feasible = s.violation <= 1e-9;
    result.samples.add(s);
    result.best = std::move(s);
    result.stats.restarts_used = 1;
    run.sweep_done(0, result.best.energy, result.best.violation);
    run.close();
    if (rec != nullptr) {
      record_violation_attribution(*rec, cqm, result.best.state);
    }
    finalize();
    return result;
  }

  const std::vector<double> base_penalties = initial_penalties(cqm);
  const PairMoveIndex local_pairs = [&] {
    if (params_.reuse_pairs != nullptr) return PairMoveIndex{};
    obs::Recorder::Span pairs_span(rec, "pair-index-build", "hybrid", 0);
    return PairMoveIndex::build(cqm);
  }();
  const PairMoveIndex& pair_index =
      params_.reuse_pairs != nullptr ? *params_.reuse_pairs : local_pairs;

  // Is there a trivially feasible refinement seed? Then the first restart is
  // a cold refinement of it (`initial_hint`, else the all-zeros point). On
  // all-inequality models like Q_CQM1 this mirrors the classical-heuristic
  // member of a hybrid portfolio; on models with equality constraints
  // (Q_CQM2) the all-zeros point is infeasible and the member is skipped — a
  // structural asymmetry the paper's results also exhibit.
  const bool have_hint = params_.initial_hint.size() == cqm.num_variables();
  bool zeros_feasible = false;
  {
    model::State zeros(cqm.num_variables(), 0);
    apply_fixings(zeros, pre);
    zeros_feasible = cqm.is_feasible(zeros);
  }
  const bool refinement_available = have_hint || zeros_feasible;

  // Per-restart result slots: restarts run on any thread in any order, but
  // each writes only its own slot and the merge below walks slots in restart
  // order, so the solve is bitwise identical for every `threads` setting.
  std::vector<std::optional<Sample>> results(params_.num_restarts);
  std::vector<std::size_t> rounds_by_restart(params_.num_restarts, 0);

  util::Rng master(params_.seed);
  std::vector<util::Rng> streams;
  streams.reserve(params_.num_restarts);
  for (std::size_t r = 0; r < params_.num_restarts; ++r) streams.push_back(master.split());

  // Restart rows are claimed from the recorder, so they never collide with
  // rows other layers (BSP ranks) claim in the same document; a solve on a
  // fresh recorder renders them on tracks 1..R.
  const std::uint32_t restart_track_base =
      rec != nullptr
          ? rec->claim_tracks(static_cast<std::uint32_t>(params_.num_restarts))
          : 1;

  // Feasibility polish: steepest descent with current penalties, then
  // zero-temperature pair moves (constraint-preserving reroutes). Shared by
  // annealed and tempered restarts; always runs on the restart's own stream.
  auto polish = [&](Sample& s, const std::vector<double>& penalties,
                    util::Rng& rng, std::uint32_t track) {
    obs::Recorder::Span polish_span(rec, "polish", "hybrid", track);
    CqmIncrementalState walk(cqm, s.state, penalties);
    greedy_descent(walk, rng, 32, &budget);
    if (!pair_index.empty()) {
      const std::size_t attempts = 8 * std::max<std::size_t>(1, walk.num_variables());
      if (pair_index.pair_scan_cost() <= attempts) {
        // Enumerating every (set, clear) pair is cheaper than sampling
        // the same budget at random — and never misses an improving move.
        pair_index.descend(walk, 8, &budget);
      } else {
        for (std::size_t t = 0; t < attempts; ++t) {
          if ((t & 0xFFu) == 0 && budget.expired()) break;
          pair_index.attempt(walk, rng, 1e30);
        }
      }
      greedy_descent(walk, rng, 32, &budget);
    }
    Sample polished{walk.state(), walk.objective(), walk.total_violation(),
                    walk.feasible()};
    if (polished.better_than(s)) s = std::move(polished);
  };

  // Escalate penalties where the best state is still violating.
  auto escalate = [&](const Sample& s, std::vector<double>& penalties,
                      std::uint32_t track) {
    obs::Recorder::Span adapt_span(rec, "penalty-adapt", "hybrid", track);
    const CqmIncrementalState probe(cqm, s.state, penalties);
    for (std::size_t c = 0; c < probe.num_constraints(); ++c) {
      if (probe.constraint_violation(c) > 1e-9) {
        penalties[c] *= kPenaltyGrowth;
      }
    }
  };

  // The last restart runs replica exchange (it helps on tight-k models),
  // unless it is the only restart and the refinement member claims it; the
  // rest are single CqmAnnealer chains.
  const std::size_t total_restarts = params_.num_restarts;
  const bool tempered_last =
      total_restarts > 0 && !(total_restarts == 1 && refinement_available);
  const std::size_t annealed_restarts = total_restarts - (tempered_last ? 1 : 0);
  result.stats.replica_lanes = 1;

  // Set below when the portfolio fans out; the tempered restart hands its
  // replica intervals to the same pool as the annealed restarts.
  util::ThreadPool* pool = nullptr;

  auto kind_of = [&](std::size_t r) {
    if (tempered_last && r + 1 == total_restarts) return RestartKind::kTempered;
    if (r == 0 && refinement_available) return RestartKind::kRefine;
    return RestartKind::kAnneal;
  };
  auto restart_label = [&](std::size_t r) {
    std::string label = "restart " + std::to_string(r);
    if (kind_of(r) == RestartKind::kRefine) label += " (refine)";
    if (kind_of(r) == RestartKind::kTempered) label += " (tempering)";
    return label;
  };

  // One restart: anneal, polish, and escalate penalties until feasible.
  auto run_restart = [&](std::size_t r) {
    if (r > 0 && budget.expired()) {
      return;  // keep at least one restart so solve() always has an incumbent
    }
    // May run on a pool worker thread; the rid and phase scopes must live
    // here, not on the submitting thread, for samples of this restart to
    // attribute. Each restart renders on its own trace track so the
    // portfolio members line up side by side in the viewer.
    obs::prof::RidScope rid_scope(params_.flight_rid);
    const auto track = restart_track_base + static_cast<std::uint32_t>(r);
    if (rec != nullptr) rec->name_track(track, restart_label(r));
    obs::Recorder::Span restart_span(rec, "restart", "hybrid", track);
    const RestartKind kind = kind_of(r);
    const bool tempered = kind == RestartKind::kTempered;
    const bool refine = kind == RestartKind::kRefine;
    util::Rng rng = streams[r];
    std::vector<double> penalties = base_penalties;
    model::State init;
    if (refine) {
      init = have_hint ? params_.initial_hint : model::State(cqm.num_variables(), 0);
    } else {
      init = random_state(cqm.num_variables(), rng);
    }
    apply_fixings(init, pre);

    const SamplerSinks sinks{
        .cancel = budget,
        .recorder = rec,
        .trace_track = track,
        .sweep_counter = m_sweeps,
        .flight = {params_.flight, tempered ? f_temper : f_anneal,
                   params_.flight_rid}};

    Sample best_of_restart;
    bool have_sample = false;
    std::size_t rounds = 0;
    for (std::size_t round = 0;
         round < std::max<std::size_t>(1, params_.max_penalty_rounds); ++round) {
      ++rounds;
      Sample s;
      if (tempered) {
        const TemperingParams tp{.num_replicas = kTemperingReplicas,
                                 .sweeps = params_.sweeps / kTemperingSweepDivisor + 1,
                                 .seed = rng.next_u64(),
                                 .pool = pool,
                                 .sinks = sinks};
        s = ParallelTempering(tp).run(cqm, penalties, init, &pair_index);
      } else {
        const CqmAnnealParams ap{
            .sweeps = params_.sweeps, .refinement = refine, .sinks = sinks};
        s = CqmAnnealer(ap).anneal_once(cqm, penalties, rng, init, &pair_index);
      }
      polish(s, penalties, rng, track);
      if (!have_sample || s.better_than(best_of_restart)) {
        best_of_restart = s;
        have_sample = true;
      }
      if (s.feasible || budget.expired()) break;  // keep the incumbent
      escalate(s, penalties, track);
      init = std::move(s.state);  // warm start the next round
    }
    if (have_sample) results[r] = std::move(best_of_restart);
    rounds_by_restart[r] = rounds;
  };

  // One pool runs the whole portfolio: one task per restart, and one task
  // per tempering replica per swap interval. parallel_for runs tasks on the
  // calling thread too, so the pool gets one worker fewer than the
  // `threads` that may run at once. The tempered restart, the critical
  // path, is claimed first. Serial solves never build a pool.
  const std::size_t threads = params_.threads == 0
                                  ? std::max(1u, std::thread::hardware_concurrency())
                                  : params_.threads;
  const std::size_t parallel_tasks =
      annealed_restarts + (tempered_last ? kTemperingReplicas : 0);
  if (threads <= 1 || parallel_tasks <= 1) {
    for (std::size_t r = 0; r < total_restarts; ++r) run_restart(r);
  } else {
    // The model's lazily built incidence caches are written on first use;
    // build them here so no two restarts race to do it.
    cqm.build_incidence();
    // At least one worker: ThreadPool(0) would mean every hardware thread.
    util::ThreadPool workers(std::min(threads, parallel_tasks) - 1);
    pool = &workers;
    const std::size_t first = tempered_last ? total_restarts - 1 : 0;
    workers.parallel_for(total_restarts, [&](std::size_t i) {
      run_restart((first + i) % total_restarts);
    });
  }

  // Ordered merge: identical regardless of which thread finished first. The
  // winner is the earliest restart no later one beats.
  std::optional<std::size_t> winner;
  for (std::size_t r = 0; r < params_.num_restarts; ++r) {
    if (results[r].has_value()) {
      if (!winner || results[r]->better_than(*results[*winner])) winner = r;
      ++result.stats.restarts_used;
    }
    result.stats.penalty_rounds_used += rounds_by_restart[r];
  }
  util::ensure(winner.has_value(), "HybridCqmSolver: no restart produced a sample");
  result.best = *results[*winner];
  result.stats.winner_restart = *winner;
  result.stats.winner_kind = kind_of(*winner);
  for (auto& sample : results) {
    if (sample.has_value()) result.samples.add(std::move(*sample));
  }
  if (budget.expired()) result.stats.budget_expired = true;
  if (rec != nullptr) {
    // The winning restart's row is labelled, and the document says which.
    rec->name_track(restart_track_base + static_cast<std::uint32_t>(*winner),
                    restart_label(*winner) + " (winner)");
    rec->annotate("winner_restart", std::to_string(*winner));
    rec->annotate("winner_kind", to_string(result.stats.winner_kind));
    record_violation_attribution(*rec, cqm, result.best.state);
  }
  finalize();
  return result;
}

}  // namespace qulrb::anneal
