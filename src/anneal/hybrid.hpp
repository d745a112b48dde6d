#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/cqm_anneal.hpp"
#include "anneal/sampleset.hpp"
#include "model/cqm.hpp"
#include "model/presolve.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"

namespace qulrb::anneal {

struct HybridSolverParams {
  /// Independent solver runs; the best feasible result is kept (the paper ran
  /// each CQM at least 3 times and kept the best).
  std::size_t num_restarts = 4;
  std::size_t sweeps = 3000;
  /// Adaptive penalty escalation rounds per restart: if the anneal ends
  /// infeasible, weights on violated constraints are multiplied and the
  /// anneal resumes from the best state.
  std::size_t max_penalty_rounds = 4;
  /// Threads that may run at once, the calling thread included; 0 = all
  /// hardware threads. The whole portfolio shares one pool of this many
  /// threads less one, and the calling thread works beside them while it
  /// waits: one task per restart, and one task per tempering replica per swap
  /// interval. 1 runs everything inline on the calling thread and builds no
  /// pool. Every restart and replica draws from its own pre-split RNG stream
  /// and results merge in a fixed order, so the outcome is bitwise identical
  /// for any thread count.
  std::size_t threads = 0;
  /// Free-variable count (after presolve) at or below which the solver skips
  /// sampling entirely and enumerates every assignment with a Gray-code walk
  /// (one incremental flip per state). Tiny models get the provable CQM
  /// optimum instead of annealing luck. 0 disables.
  std::size_t exhaustive_max_vars = 18;
  std::uint64_t seed = 1;
  /// Optional warm-start assignment (e.g. an incumbent from a classical
  /// heuristic — the "classical" half of a hybrid service). When set, the
  /// first restart anneals from it instead of a random state.
  model::State initial_hint;
  /// Wall-clock budget enforced *inside* running restarts: the deadline is
  /// polled once per sweep in every portfolio member (annealer, tempering,
  /// polish passes), so a solve returns within roughly one sweep of the
  /// budget while still reporting its best incumbent. 0 = off.
  double time_limit_ms = 0.0;
  /// Cooperative cancellation (service deadlines, client disconnects).
  /// Combined with time_limit_ms into one effective budget. Inert by
  /// default; cancellation never forfeits the incumbent.
  util::CancelToken cancel;
  /// Session-cache reuse: when non-null these are used instead of being
  /// recomputed per solve. Both must describe exactly the model passed to
  /// solve() (same variables, constraints, and coefficients); the caller
  /// keeps them alive for the duration of the call.
  const model::PresolveResult* reuse_presolve = nullptr;
  const PairMoveIndex* reuse_pairs = nullptr;
  /// Optional trace sink: phase spans (presolve, pair-index build, each
  /// restart on its own track, polish, penalty adaptation) plus the
  /// samplers' incumbent timelines. The restart tracks are claimed from the
  /// recorder, so a solve inside a service request shares one Perfetto
  /// document with the queue spans and the BSP rank rows without row
  /// collisions. Same discipline as `cancel`: consumes no RNG and never
  /// changes control flow, so results are bitwise identical with tracing on
  /// or off.
  obs::Recorder* recorder = nullptr;
  /// Optional metrics sink: solve/restart/penalty-round/sweep counters and a
  /// solve-latency histogram, registered under qulrb_solver_*. Handles are
  /// resolved once per solve; sweep loops only touch lock-free counters.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional always-on flight ring: every anneal and tempering run of the
  /// portfolio leaves one compact span, stamped with
  /// `flight_rid` so an anomaly dump can slice out the triggering request's
  /// solver activity retroactively. Same null discipline as `recorder`.
  obs::FlightRecorder* flight = nullptr;
  std::uint64_t flight_rid = 0;
};

/// What a portfolio restart runs: the feasible-start refinement, a plain
/// annealing chain, or replica exchange. kNone marks a solve that never
/// reached the sampling portfolio (presolve-infeasible, exhaustive
/// enumeration).
enum class RestartKind : std::uint8_t { kNone, kRefine, kAnneal, kTempered };

const char* to_string(RestartKind kind) noexcept;

struct HybridSolveStats {
  double cpu_ms = 0.0;
  double simulated_qpu_ms = 0.0;
  std::size_t restarts_used = 0;
  std::size_t penalty_rounds_used = 0;
  std::size_t num_variables = 0;
  std::size_t num_constraints = 0;
  std::size_t presolve_fixed = 0;
  bool presolve_infeasible = false;
  /// Chains per sampling restart: always 1, since every restart is one
  /// annealing chain (0 when the solve never reached the sampling portfolio,
  /// e.g. presolve-infeasible or exhaustive enumeration). Kept because the
  /// `replicas` wire/event field reports it.
  std::size_t replica_lanes = 0;
  /// The portfolio member whose sample was returned: its restart index and
  /// kind (the earliest restart wins ties, as in the ordered merge).
  std::size_t winner_restart = 0;
  RestartKind winner_kind = RestartKind::kNone;
  /// True when the time budget or a cancellation cut the solve short (the
  /// reported best is the incumbent at that point).
  bool budget_expired = false;
};

struct HybridSolveResult {
  Sample best;       ///< best sample by (feasible, violation, objective)
  SampleSet samples;
  HybridSolveStats stats;
};

/// Classical stand-in for the D-Wave Leap hybrid CQM solver: presolve,
/// multi-start penalty annealing with adaptive weights, one replica-exchange
/// run, and a greedy feasibility-polish, returning the best feasible sample.
/// The model interface (CqmModel in, best feasible sample out) matches what
/// the paper's pipeline sends to / receives from the Leap service.
class HybridCqmSolver {
 public:
  explicit HybridCqmSolver(HybridSolverParams params = {}) : params_(params) {}

  HybridSolveResult solve(const model::CqmModel& cqm) const;

  const HybridSolverParams& params() const noexcept { return params_; }

  /// Steepest-descent polish on objective+penalty; pure local improvement
  /// (only accepts strictly negative deltas). Exposed for tests. The cancel
  /// token (when given) is polled once per pass.
  static void greedy_descent(CqmIncrementalState& walk, util::Rng& rng,
                             std::size_t max_passes = 32,
                             const util::CancelToken* cancel = nullptr);

 private:
  HybridSolverParams params_;
};

}  // namespace qulrb::anneal
