#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/clock.hpp"
#include "obs/convergence.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "service/request.hpp"
#include "service/session_cache.hpp"
#include "util/cancel.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qulrb::service {

struct ServiceParams {
  /// Worker threads draining the queue. 0 = hardware_concurrency().
  std::size_t num_workers = 0;
  /// Admission bound: submissions beyond this many pending requests are
  /// rejected immediately (backpressure, never unbounded growth).
  std::size_t max_pending = 256;
  /// Reject a request at admission when the EWMA-predicted queue wait alone
  /// already exceeds its deadline. Saves the queue slot for work that can
  /// still make it.
  bool admission_deadline_check = true;
  /// Deadline applied when a request carries none. 0 = none.
  double default_deadline_ms = 0.0;
  /// Sessions kept across requests (LRU). 0 disables caching.
  std::size_t cache_capacity = 16;
  /// Restart-parallelism granted to one solve when the request leaves
  /// hybrid.threads at 0. Kept at 1: the worker pool provides the
  /// concurrency, individual solves should not each fan out machine-wide.
  std::size_t solver_threads = 1;
  /// Record a Perfetto trace per request (queue wait, session checkout,
  /// solver phase spans, incumbent timelines), keeping the most recent
  /// `trace_keep` completed requests for the `trace` op. Off by default —
  /// the registry-backed metrics are always on.
  bool record_traces = false;
  std::size_t trace_keep = 8;
  /// Structured JSONL sink: one SolveEvent line per finished request. Not
  /// owned; must outlive the service. Null = off.
  obs::EventLog* event_log = nullptr;
  /// `source` field stamped on emitted events.
  std::string event_source = "qulrb_serve";
  /// Always-on flight ring: per-request admission/solve/finish records plus
  /// the solver engines' per-call spans, all stamped with the request's rid.
  /// Not owned; must outlive the service. Null = off (and the zero-cost-OFF
  /// contract holds — no branch beyond the null test, no RNG).
  obs::FlightRecorder* flight = nullptr;
  /// Rolling-window SLO engine fed one observation per finished request
  /// (latency vs objective, deadline outcome) and the admission queue depth.
  /// Its triggers are the flight recorder's dump signals. Not owned; must
  /// outlive the service. Null = off.
  obs::SloEngine* slo = nullptr;
  /// Continuous sampling CPU profiler the serve shell answers the `profile`
  /// op from. The service itself never reads it (samples land via the
  /// process-wide SIGPROF timer; solve threads only tag themselves with
  /// prof phase/rid scopes) — this pointer just rides along so protocol
  /// handlers reach the profiler the same way they reach the flight ring.
  /// Not owned; must outlive the service. Null = profiling off.
  obs::Profiler* profiler = nullptr;
};

/// Aggregated service telemetry; a consistent snapshot from stats().
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;            ///< kOk responses
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_met = 0;     ///< kOk within the deadline
  std::uint64_t deadline_missed = 0;  ///< kOk but past the deadline
  std::uint64_t budget_expired = 0;   ///< solves truncated by their budget

  SessionCache::Stats cache;
  /// (exact + retarget hits) / lookups, 0 when no lookup happened yet.
  double cache_hit_rate = 0.0;

  util::RunningStats queue_ms;
  util::RunningStats solve_ms;
  util::RunningStats total_ms;

  double ewma_solve_ms = 0.0;  ///< the admission controller's wait predictor
  std::size_t pending = 0;
  std::size_t running = 0;
  std::size_t queue_depth_hwm = 0;  ///< most requests ever pending at once
};

/// In-process asynchronous rebalancing service: bounded priority queue,
/// deadline-aware admission control, a worker pool layered on
/// util::ThreadPool, cooperative cancellation threaded into the solvers, and
/// a session cache that reuses built models across requests sharing a
/// problem topology.
///
/// Requests are solved in (priority desc, deadline asc, arrival asc) order.
/// Callbacks run on worker threads (or on the submitting thread for
/// synchronous rejections) and must not block for long — they are the
/// response path.
class RebalanceService {
 public:
  using Callback = std::function<void(RebalanceResponse)>;

  explicit RebalanceService(ServiceParams params = {});
  ~RebalanceService();

  RebalanceService(const RebalanceService&) = delete;
  RebalanceService& operator=(const RebalanceService&) = delete;

  /// Submit a request; the callback fires exactly once with the response.
  /// Returns the request id (usable with cancel()). Admission rejections
  /// invoke the callback synchronously before returning.
  std::uint64_t submit(RebalanceRequest request, Callback callback);

  /// Future-returning convenience wrapper over the callback form.
  std::future<RebalanceResponse> submit(RebalanceRequest request);

  /// Cancel a request. Pending: it is removed and answered kCancelled.
  /// Running: its CancelToken is tripped — the solve stops at the next sweep
  /// and the response (kCancelled) carries the incumbent plan. Returns false
  /// when the id is unknown or already answered.
  bool cancel(std::uint64_t id);

  /// Block until no request is pending or running.
  void drain();

  /// Cancel everything still queued (running solves keep going) — the
  /// graceful-shutdown path: shed the backlog, then drain() the in-flight
  /// work. Each shed request is answered kCancelled through the normal
  /// finish path. Returns how many requests were shed.
  std::size_t shed_pending();

  ServiceStats stats() const;

  /// Queue depth / in-flight solves / cache hit rate right now, from relaxed
  /// atomics — no lock, no histogram copies. This is the health-probe path
  /// (the `{"op":"health"}` protocol op): a router polling N backends every
  /// few milliseconds must not contend with the request path the way the
  /// full stats() snapshot does.
  std::size_t queue_depth() const noexcept {
    return queue_depth_relaxed_.load(std::memory_order_relaxed);
  }
  std::size_t inflight() const noexcept {
    return running_relaxed_.load(std::memory_order_relaxed);
  }
  double cache_hit_rate() const noexcept {
    const std::uint64_t lookups =
        cache_lookups_relaxed_.load(std::memory_order_relaxed);
    if (lookups == 0) return 0.0;
    return static_cast<double>(
               cache_hits_relaxed_.load(std::memory_order_relaxed)) /
           static_cast<double>(lookups);
  }

  const ServiceParams& params() const noexcept { return params_; }

  /// The registry every component of this service reports into (solver,
  /// session cache, queue). Scrape via metrics_text().
  obs::MetricsRegistry& metrics_registry() noexcept { return registry_; }

  /// Prometheus text exposition of the registry, with the point-in-time
  /// gauges (queue depth, running, EWMA) refreshed first.
  std::string metrics_text();

  /// Milliseconds on the process-wide obs timebase — the clock the SLO
  /// engine's observations are stamped with (callers feeding the same engine
  /// from outside, e.g. the serve shell, use the same obs::clock), and the
  /// same timebase profiler samples and flight records carry.
  double now_ms() const noexcept { return obs::clock::raw_ms(); }

  /// Perfetto JSON documents of the most recently finished requests (oldest
  /// first, at most `n`). Empty unless params.record_traces.
  std::vector<std::string> last_traces(std::size_t n) const;

 private:
  struct Pending {
    std::uint64_t id = 0;
    RebalanceRequest request;
    Callback callback;
    util::WallTimer queued;        ///< started at admission
    double deadline_ms = 0.0;      ///< effective (request or default), 0 = none
    util::CancelToken token;       ///< created at admission so cancel() works
    /// Per-request trace handle, minted at admission with the request id when
    /// tracing is on; null otherwise.
    std::unique_ptr<obs::Recorder> recorder;
    /// Objective threshold implied by the request's target_r_imb (NaN when
    /// none) — feeds the convergence analysis at finish.
    double target_objective = std::numeric_limits<double>::quiet_NaN();
  };

  /// Queue order: priority desc, deadline asc (none = last), arrival asc.
  struct PendingKey {
    int priority;
    double deadline_ms;  ///< +inf when none
    std::uint64_t seq;

    bool operator<(const PendingKey& other) const noexcept {
      if (priority != other.priority) return priority > other.priority;
      if (deadline_ms != other.deadline_ms) return deadline_ms < other.deadline_ms;
      return seq < other.seq;
    }
  };

  /// Registry handles resolved once at construction — the request path pays
  /// relaxed atomics, never a registry lookup.
  struct MetricHandles {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected_queue_full = nullptr;
    obs::Counter* rejected_deadline = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_met = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* budget_expired = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_depth_hwm = nullptr;
    obs::Gauge* running = nullptr;
    obs::Gauge* ewma_solve_ms = nullptr;
    obs::LogHistogram* queue_ms = nullptr;
    obs::LogHistogram* solve_ms = nullptr;
    obs::LogHistogram* total_ms = nullptr;
  };

  /// Flight-ring name codes, interned once at construction.
  struct FlightNames {
    std::uint16_t request = 0;
    std::uint16_t deadline_miss = 0;
    std::uint16_t queue_depth = 0;
  };

  void run_one();
  void finish(Pending item, RebalanceResponse response);
  RebalanceResponse solve_item(Pending& item);

  ServiceParams params_;
  // Declared before everything that records into it (destruction is reverse
  // order: the registry must outlive the cache and the worker pool).
  obs::MetricsRegistry registry_;
  MetricHandles h_;
  FlightNames f_;
  /// Standard process self-metrics (CPU, RSS, fds, start time), refreshed
  /// at exposition time.
  obs::ProcessMetrics proc_metrics_{registry_};
  SessionCache cache_;
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::map<PendingKey, Pending> pending_;
  std::unordered_map<std::uint64_t, PendingKey> pending_index_;
  std::unordered_map<std::uint64_t, util::CancelToken> running_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  /// Mirrors of pending_.size() / running_.size(), maintained under mutex_
  /// but readable without it (queue_depth() / inflight()).
  std::atomic<std::size_t> queue_depth_relaxed_{0};
  std::atomic<std::size_t> running_relaxed_{0};
  /// Relaxed mirror of the session-cache hit counters (cache_hit_rate()) —
  /// the authoritative counts stay in SessionCache behind its own mutex.
  std::atomic<std::uint64_t> cache_lookups_relaxed_{0};
  std::atomic<std::uint64_t> cache_hits_relaxed_{0};

  // Telemetry (guarded by mutex_). The event counters live in registry_
  // (h_.*); this holds only the moment statistics, histograms, and EWMA that
  // need a consistent mutex-guarded update.
  ServiceStats stats_;
  std::deque<std::string> traces_;  ///< last params_.trace_keep Perfetto docs

  // Last: workers must die before the state they touch.
  util::ThreadPool pool_;
};

}  // namespace qulrb::service
