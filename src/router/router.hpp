#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "router/backend_pool.hpp"
#include "router/coalesce.hpp"
#include "router/federation.hpp"
#include "router/policy.hpp"
#include "service/protocol.hpp"

namespace qulrb::router {

/// The sharded-serving front door: client sessions speak the same JSON-lines
/// protocol as qulrb_serve, and the router fans their solves across N
/// backends through a BackendPool, picking targets with a RoutingPolicy and
/// sharing identical in-flight solves through the Coalescer.
///
/// One routed request keeps one identity end to end: the coalesce group id
/// is the wire id toward the backend AND the trace id ("rid") the backend
/// mints its Perfetto document with, so `{"op":"trace"}` through the router
/// returns documents whose request ids match what the router logged — one
/// routed request, one correlated trace, including the router-admission span
/// ("router_ms" forwarded on the wire).
///
/// Failover: when a backend goes down, its in-flight solves are re-routed to
/// the surviving backends (bounded by Params::max_retries per request);
/// requests that exhaust the fleet are answered with an {"error":...} line.
///
/// Control ops that need every backend's answer (stats, trace, profile and
/// the incident bundle) share one fan-out, fan_out_control: it sends, waits
/// once, and hands back the replies, so each handler is only its merge and
/// render step. Health is answered from the probed view and federation is
/// fire-and-forget; neither waits.
class Router {
 public:
  struct Params {
    BackendPool::Params pool;
    PolicyKind policy = PolicyKind::kShortestQueue;
    PolicyConfig policy_config;
    bool coalesce = true;
    /// Staleness window d for shortest-queue-stale: the policy sees a view
    /// snapshot refreshed at most every d ms (health stays live — stale
    /// routing must not resurrect dead backends). 0 = always-fresh snapshot,
    /// which makes the stale policy behave like shortest-queue minus the
    /// router-local inflight term.
    double stale_ms = 0.0;
    std::size_t max_retries = 2;   ///< failover resubmits per request
    /// Federation pull cadence: every `federate_ms` the router sends
    /// {"op":"obs"} to each healthy backend and folds the answers into the
    /// fleet snapshot (metrics_text() appends the qulrb_fleet_* families).
    /// 0 disables federation.
    double federate_ms = 1000.0;
    /// Always-on flight ring over routed requests. Off = zero-cost (no ring
    /// is allocated, every hook is one null test).
    bool flight = true;
    std::size_t flight_capacity = 8192;
    /// Seconds of ring history snapshotted into an incident bundle.
    double flight_window_s = 30.0;
    /// Directory incident bundles are written to
    /// (incident-<rid>-<kind>.json). Empty = keep only the in-memory last
    /// bundle (served by the client-facing flight_dump op).
    std::string incident_dir;
    /// Router-side sampling CPU profiler rate (Hz); 0 disables the router's
    /// own sampler. The {"op":"profile"} fan-out aggregates the backends
    /// either way, and incident bundles then carry a null router profile.
    int profile_hz = 99;
    std::size_t profile_capacity = 4096;
    /// Fleet-level SLO objectives, evaluated on the router's own end-to-end
    /// request latency; its triggers fire the cross-process incident dump.
    obs::SloEngine::Params slo;
  };

  /// Writes one response line to a client session. Called from backend
  /// reader threads and from the session's own thread; the Router serialises
  /// calls per session.
  using WriteLine = std::function<void(const std::string&)>;

  explicit Router(Params params);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connect the pool and start health probing. Call once before any
  /// client session is served.
  void start();
  void stop();

  /// Register a client session; the returned handle scopes every
  /// handle_client_line/unregister call for that connection.
  std::uint64_t register_session(WriteLine write);

  /// Session closed: waiters of this session are detached from their groups
  /// (sole-waiter groups are cancelled on the backend) and late responses
  /// are dropped instead of written to a dead socket.
  void unregister_session(std::uint64_t session);

  /// Handle one client request line. Returns false when the client asked
  /// for shutdown (the caller should stop accepting and exit).
  bool handle_client_line(std::uint64_t session, const std::string& line);

  obs::MetricsRegistry& registry() noexcept { return registry_; }
  /// Router registry exposition plus the federated qulrb_fleet_* families.
  std::string metrics_text() const;
  const Coalescer& coalescer() const noexcept { return coalescer_; }
  BackendPool& pool() noexcept { return pool_; }
  Federation& federation() noexcept { return federation_; }
  obs::SloEngine& slo() noexcept { return slo_; }
  /// Null when Params::flight is off.
  obs::FlightRecorder* flight() noexcept { return flight_.get(); }
  /// Null when Params::profile_hz is 0 or the process-wide sampler slot was
  /// already taken (at most one Profiler per process).
  obs::Profiler* profiler() noexcept { return profiler_.get(); }

  /// Assemble one cross-process incident bundle right now: the router's own
  /// flight ring plus a {"op":"flight_dump"} fan-out to every backend, all
  /// correlated by `rid`. Blocks up to the 2 s control timeout; must not be
  /// called from a backend reader thread (the response would be delivered by
  /// the blocked thread itself).
  std::string assemble_incident(const obs::SloTrigger& trigger);

  /// Incident bundles written so far (files + in-memory).
  std::uint64_t incidents_total() const noexcept {
    return incidents_total_.load(std::memory_order_relaxed);
  }
  /// The most recent incident bundle ("" when none fired yet).
  std::string last_incident() const;

  /// Topology key of a request — mirrors SessionCache::Key (task_counts,
  /// variant, k, paper_coefficients), so cache-affinity routing sends every
  /// request that would share a cached model build to the same backend.
  static std::uint64_t topology_hash(const service::RebalanceRequest& request);

 private:
  struct Session {
    WriteLine write;
    std::mutex write_mutex;
    bool closed = false;
    /// client correlation id -> (group, detach token) for cancel/teardown.
    std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        pending;
    std::mutex pending_mutex;
  };

  /// One leader-forwarded solve in flight toward a backend.
  struct Route {
    service::RebalanceRequest request;  ///< trace_id already = group id
    bool include_plan = false;
    std::uint64_t topo_hash = 0;
    std::size_t backend = 0;
    double arrival_ms = 0.0;
    std::size_t retries = 0;
  };

  /// One control line to send to every backend, and the top-level field of
  /// its reply to keep.
  struct ControlOp {
    std::string line;
    std::string field;
  };

  double now_ms() const;
  std::vector<BackendView> policy_views();
  /// Send every op to every backend, in order on each connection so
  /// BackendPool's FIFO reply matching holds, then wait once, up to 2 s, for
  /// all replies. Returns replies[op][backend], the raw JSON of the op's
  /// field; empty when that backend was down or did not answer in time.
  /// Blocks, so never call it from a backend reader thread.
  std::vector<std::vector<std::string>> fan_out_control(
      const std::vector<ControlOp>& ops);
  void handle_solve(const std::shared_ptr<Session>& session,
                    service::ProtocolRequest parsed);
  void handle_cancel(const std::shared_ptr<Session>& session,
                     std::uint64_t client_id);
  void handle_stats(const std::shared_ptr<Session>& session);
  /// Answered from the pool's probed view alone — no backend round trip, so
  /// a supervisor can health-check the router itself at probe frequency.
  void handle_health(const std::shared_ptr<Session>& session);
  void handle_trace(const std::shared_ptr<Session>& session, std::size_t n);
  /// Fleet obs view: the router's own registry/SLO plus every backend's
  /// latest federated snapshot.
  void handle_obs(const std::shared_ptr<Session>& session,
                  std::uint64_t client_id);
  void handle_flight_dump(const std::shared_ptr<Session>& session,
                          service::ProtocolRequest parsed);
  /// Fleet profile: the router's own sampler snapshot plus a
  /// {"op":"profile"} fan-out to every backend, merged into one folded-stack
  /// document where each line is rooted at instance:<label>.
  void handle_profile(const std::shared_ptr<Session>& session,
                      service::ProtocolRequest parsed);
  /// The router's own profile document (obs::profile_to_json), plus the
  /// folded text by out-param for the fleet merge. "null" when the sampler
  /// is off.
  std::string own_profile_json(double window_s, std::string* folded_out);
  /// Forward (or re-forward) a group's request; on exhaustion answers every
  /// waiter with an error line and drops the route.
  void forward(std::uint64_t group, Route route);
  void fail_group(std::uint64_t group, const std::string& message);
  void on_backend_line(std::size_t backend, const std::string& line,
                       const io::JsonValue& doc);
  void on_backend_down(std::size_t backend);
  void deliver_to(const std::shared_ptr<Session>& session,
                  const std::string& line);
  /// SLO trigger handler: enqueue for the incident thread. Runs on whatever
  /// thread observed the breach (often a backend reader thread), so it must
  /// never block on a backend round trip itself.
  void on_trigger(const obs::SloTrigger& trigger);
  /// Dedicated incident thread: drains the trigger queue, assembles the
  /// cross-process bundle (blocking fan-out is safe here) and persists it.
  void incident_loop();
  /// Federation poll thread: {"op":"obs"} toward every backend each cycle.
  void federate_loop();
  void federate_once();
  /// Shared bundle assembly behind assemble_incident / client flight_dump.
  std::string assemble_bundle(const obs::SloTrigger& trigger,
                              const std::string& kind, double window_s);

  Params params_;
  obs::MetricsRegistry registry_;
  /// Process self-metrics, refreshed at exposition time (metrics_text is
  /// logically const — the refresh only re-reads /proc into gauges).
  mutable obs::ProcessMetrics proc_metrics_{registry_};
  BackendPool pool_;
  Coalescer coalescer_;
  std::unique_ptr<RoutingPolicy> policy_;
  std::mutex policy_mutex_;  ///< policies are stateful (rings, RR counters)

  std::mutex routes_mutex_;
  std::unordered_map<std::uint64_t, Route> routes_;

  std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> next_session_{1};
  std::atomic<std::uint64_t> next_token_{1};

  // Stale-policy view snapshot (see Params::stale_ms).
  std::mutex snapshot_mutex_;
  std::vector<BackendView> snapshot_;
  double snapshot_ms_ = -1.0;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> stopped_{false};

  // Observability v3: flight ring over routed requests, fleet SLO engine
  // (its triggers feed the incident thread), and the federation snapshot.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::uint16_t f_route_ = 0;      ///< interned "route" span name
  std::uint16_t f_markdown_ = 0;   ///< interned "backend-down" instant name
  std::unique_ptr<obs::Profiler> profiler_;  ///< router's own CPU sampler
  obs::SloEngine slo_;
  Federation federation_;

  mutable std::mutex incident_mutex_;
  std::condition_variable incident_cv_;
  std::deque<obs::SloTrigger> incident_queue_;
  std::string last_incident_;      ///< guarded by incident_mutex_
  std::atomic<std::uint64_t> incidents_total_{0};
  std::thread incident_thread_;
  std::thread federate_thread_;
  std::mutex stop_mutex_;          ///< pairs with stop_cv_ for timed sleeps
  std::condition_variable stop_cv_;

  obs::Counter* c_requests_ = nullptr;
  obs::Counter* c_responses_ = nullptr;
  obs::Counter* c_errors_ = nullptr;
  obs::Counter* c_coalesced_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_no_backend_ = nullptr;
  obs::LogHistogram* h_request_ms_ = nullptr;
  obs::Counter* c_incidents_ = nullptr;
  obs::Counter* c_federate_pulls_ = nullptr;
  std::vector<obs::Counter*> c_routed_;  ///< per backend
};

/// Depth-aware extraction of a top-level field's raw JSON value from a
/// response line (e.g. the `[...]` after `"traces":` or the `{...}` after
/// `"stats":`). Empty string when the key is absent. Exposed for tests.
std::string extract_raw_field(const std::string& line, const std::string& key);

}  // namespace qulrb::router
