#include "router/router.hpp"

#include <condition_variable>
#include <fstream>
#include <limits>
#include <utility>

#include "io/json.hpp"
#include "obs/histogram_wire.hpp"
#include "obs/profile_export.hpp"

namespace qulrb::router {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::string cancel_line(std::uint64_t group) {
  return "{\"op\":\"cancel\",\"id\":" + std::to_string(group) + "}";
}

}  // namespace

std::string extract_raw_field(const std::string& line, const std::string& key) {
  const ValueSpan span = find_top_level_value(line, key);
  return span.pos == std::string_view::npos ? "" : line.substr(span.pos, span.len);
}

std::uint64_t Router::topology_hash(const service::RebalanceRequest& request) {
  std::uint64_t h = mix64(0x71b7u ^ static_cast<std::uint64_t>(request.variant));
  h = hash_combine(h, static_cast<std::uint64_t>(request.k));
  h = hash_combine(h, request.build.use_paper_coefficient_set ? 1u : 2u);
  h = hash_combine(h, request.task_counts.size());
  for (const std::int64_t c : request.task_counts) {
    h = hash_combine(h, static_cast<std::uint64_t>(c));
  }
  return h;
}

Router::Router(Params params)
    : params_(std::move(params)),
      pool_(params_.pool, registry_),
      coalescer_(params_.coalesce),
      policy_(make_policy(params_.policy, params_.policy_config)),
      epoch_(std::chrono::steady_clock::now()),
      flight_(params_.flight ? std::make_unique<obs::FlightRecorder>(
                                   params_.flight_capacity)
                             : nullptr),
      slo_(params_.slo,
           [this](const obs::SloTrigger& trigger) { on_trigger(trigger); }),
      federation_(pool_.size()) {
  if (flight_ != nullptr) {
    f_route_ = flight_->intern("route");
    f_markdown_ = flight_->intern("backend-down");
  }
  if (params_.profile_hz > 0) {
    obs::Profiler::Params prof_params;
    prof_params.hz = params_.profile_hz;
    prof_params.ring_capacity = params_.profile_capacity;
    profiler_ = std::make_unique<obs::Profiler>(prof_params);
  }
  using Labels = obs::MetricsRegistry::Labels;
  const Labels policy_label{{"policy", to_string(params_.policy)}};
  c_requests_ = &registry_.counter("qulrb_router_requests_total",
                                   "Client requests admitted", policy_label);
  c_responses_ = &registry_.counter("qulrb_router_responses_total",
                                    "Responses delivered to clients");
  c_errors_ = &registry_.counter("qulrb_router_errors_total",
                                 "Error responses delivered to clients");
  c_coalesced_ = &registry_.counter(
      "qulrb_router_coalesced_total",
      "Requests that shared an already-in-flight identical solve");
  c_retries_ = &registry_.counter("qulrb_router_retries_total",
                                  "Failover resubmits after a backend died");
  c_no_backend_ = &registry_.counter(
      "qulrb_router_no_backend_total",
      "Requests failed because no healthy backend was available");
  h_request_ms_ = &registry_.histogram(
      "qulrb_router_request_ms",
      "Routed request latency, router admission to response fan-out (ms)");
  c_incidents_ = &registry_.counter(
      "qulrb_router_incidents_total",
      "Cross-process incident bundles assembled from SLO triggers");
  c_federate_pulls_ = &registry_.counter(
      "qulrb_router_federate_pulls_total",
      "Per-backend obs snapshots successfully federated");
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    c_routed_.push_back(&registry_.counter(
        "qulrb_router_routed_total", "Requests forwarded to this backend",
        Labels{{"backend", pool_.address(b).label()}}));
  }
}

Router::~Router() { stop(); }

double Router::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string Router::metrics_text() const {
  proc_metrics_.update();
  std::string out = registry_.to_prometheus();
  out += federation_.fleet_prometheus();
  return out;
}

void Router::start() {
  // The sampler slot is process-wide; if another profiler already owns it
  // (e.g. an in-process backend in tests), run without a router-side sampler
  // rather than failing startup.
  if (profiler_ != nullptr && !profiler_->start()) profiler_.reset();
  pool_.start(
      [this](std::size_t b, const std::string& line, const io::JsonValue& doc) {
        on_backend_line(b, line, doc);
      },
      [this](std::size_t b) { on_backend_down(b); });
  if (params_.federate_ms > 0.0 && pool_.size() > 0) {
    federate_thread_ = std::thread([this] { federate_loop(); });
  }
  incident_thread_ = std::thread([this] { incident_loop(); });
}

void Router::stop() {
  if (stopped_.exchange(true)) return;
  // Wake the periodic threads first: the incident thread may still be
  // mid-assembly (its fan-out times out against the live pool), so join it
  // before tearing the pool down.
  { std::lock_guard<std::mutex> lock(stop_mutex_); }
  { std::lock_guard<std::mutex> lock(incident_mutex_); }
  stop_cv_.notify_all();
  incident_cv_.notify_all();
  if (federate_thread_.joinable()) federate_thread_.join();
  if (incident_thread_.joinable()) incident_thread_.join();
  if (profiler_ != nullptr) profiler_->stop();
  pool_.stop();
  {
    std::lock_guard<std::mutex> lock(routes_mutex_);
    routes_.clear();
  }
  const std::string farewell = service::encode_error("router shutting down", 0);
  for (Coalescer::Waiter& w : coalescer_.take_all()) {
    if (w.deliver) w.deliver(farewell);
  }
}

std::uint64_t Router::register_session(WriteLine write) {
  auto session = std::make_shared<Session>();
  session->write = std::move(write);
  const std::uint64_t id = next_session_.fetch_add(1);
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_.emplace(id, std::move(session));
  return id;
}

void Router::unregister_session(std::uint64_t session_id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(session->write_mutex);
    session->closed = true;  // late deliveries become no-ops
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending;  // group, token
  {
    std::lock_guard<std::mutex> lock(session->pending_mutex);
    pending.reserve(session->pending.size());
    for (const auto& [client_id, entry] : session->pending) {
      pending.push_back(entry);
    }
    session->pending.clear();
  }
  for (const auto& [group, token] : pending) {
    const std::size_t left = coalescer_.detach(group, token);
    if (left != 0) continue;  // others still waiting, or group unknown
    // Sole waiter gone: free the backend's capacity and drop the route; the
    // backend's (cancelled) response finds no route and is discarded.
    std::size_t backend = kNone;
    {
      std::lock_guard<std::mutex> lock(routes_mutex_);
      auto it = routes_.find(group);
      if (it != routes_.end()) {
        backend = it->second.backend;
        routes_.erase(it);
      }
    }
    if (backend != kNone) {
      pool_.inflight_add(backend, -1);
      pool_.send(backend, cancel_line(group));
    }
  }
}

std::vector<BackendView> Router::policy_views() {
  std::vector<BackendView> views = pool_.views();
  if (params_.policy != PolicyKind::kShortestQueueStale ||
      params_.stale_ms <= 0.0) {
    return views;
  }
  // Stale-information model: the policy decides on a snapshot up to d ms
  // old. Health is kept live — staleness degrades placement quality, it must
  // not resurrect a dead backend.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const double now = now_ms();
  if (snapshot_ms_ < 0.0 || now - snapshot_ms_ >= params_.stale_ms) {
    snapshot_ = views;
    snapshot_ms_ = now;
    return views;
  }
  std::vector<BackendView> stale = snapshot_;
  for (std::size_t i = 0; i < stale.size() && i < views.size(); ++i) {
    stale[i].healthy = views[i].healthy;
  }
  return stale;
}

bool Router::handle_client_line(std::uint64_t session_id,
                                const std::string& line) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) session = it->second;
  }
  if (!session) return true;

  service::ProtocolRequest parsed;
  try {
    parsed = service::parse_request_line(line);
  } catch (const std::exception& e) {
    deliver_to(session, service::encode_parse_error(e));
    return true;
  }
  switch (parsed.op) {
    case service::OpKind::kShutdown:
      return false;
    case service::OpKind::kMetrics:
      deliver_to(session, service::encode_metrics(metrics_text()));
      return true;
    case service::OpKind::kStats:
      handle_stats(session);
      return true;
    case service::OpKind::kHealth:
      handle_health(session);
      return true;
    case service::OpKind::kTrace:
      handle_trace(session, parsed.trace_count);
      return true;
    case service::OpKind::kObs:
      handle_obs(session, parsed.client_id);
      return true;
    case service::OpKind::kFlightDump:
      handle_flight_dump(session, std::move(parsed));
      return true;
    case service::OpKind::kProfile:
      handle_profile(session, std::move(parsed));
      return true;
    case service::OpKind::kCancel:
      handle_cancel(session, parsed.client_id);
      return true;
    case service::OpKind::kSolve:
      handle_solve(session, std::move(parsed));
      return true;
  }
  return true;
}

void Router::handle_solve(const std::shared_ptr<Session>& session,
                          service::ProtocolRequest parsed) {
  const double arrival = now_ms();
  const std::uint64_t client_id = parsed.client_id;
  service::RebalanceRequest request = std::move(parsed.request);
  // Canonicalize: the router owns trace identity; whatever rid the client
  // set must not leak into the coalesce key or downstream.
  request.trace_id = 0;
  request.router_ms = 0.0;
  const std::string key =
      service::encode_solve_request(request, 0, parsed.include_plan);
  const std::uint64_t topo = topology_hash(request);
  const std::uint64_t token = next_token_.fetch_add(1);
  c_requests_->inc();

  auto deliver = [this, session, client_id, token](const std::string& response) {
    {
      std::lock_guard<std::mutex> lock(session->pending_mutex);
      auto it = session->pending.find(client_id);
      // Erase only this solve's own entry (matched by token): by the time a
      // late line drains, the client may have reused the id for a new solve.
      if (it != session->pending.end() && it->second.second == token) {
        session->pending.erase(it);
      }
    }
    deliver_to(session, rewrite_response_id(response, client_id));
  };
  bool duplicate = false;
  Coalescer::Join join;
  {
    // Reserve the id and join the group under one pending_mutex hold, so a
    // response delivered on a backend reader thread cannot erase the entry
    // between the join and the map insert (which would leave a stale entry
    // shadowing the id forever).
    std::lock_guard<std::mutex> lock(session->pending_mutex);
    auto [it, inserted] = session->pending.emplace(
        client_id, std::make_pair(std::uint64_t{0}, token));
    if (inserted) {
      join = coalescer_.join(key, token, std::move(deliver));
      it->second.first = join.group;
    } else {
      // Overwriting would orphan the first solve's (group, token): cancel
      // and session teardown could no longer detach that waiter, leaking it
      // in the coalescer until its response arrives.
      duplicate = true;
    }
  }
  if (duplicate) {
    deliver_to(session,
               service::encode_error("id already in flight", client_id));
    return;
  }
  if (!join.leader) {
    c_coalesced_->inc();
    return;
  }
  Route route;
  route.request = std::move(request);
  route.request.trace_id = join.group;
  route.include_plan = parsed.include_plan;
  route.topo_hash = topo;
  route.arrival_ms = arrival;
  forward(join.group, std::move(route));
}

void Router::forward(std::uint64_t group, Route route) {
  while (true) {
    std::size_t pick;
    {
      std::lock_guard<std::mutex> lock(policy_mutex_);
      const std::vector<BackendView> views = policy_views();
      pick = policy_->pick(route.topo_hash, views);
      if (pick >= views.size()) {
        c_no_backend_->inc();
        fail_group(group, "no healthy backend");
        return;
      }
    }
    route.backend = pick;
    route.request.router_ms = now_ms() - route.arrival_ms;
    const std::string wire =
        service::encode_solve_request(route.request, group, route.include_plan);
    // Inflight goes up before the route is published: once the route is in
    // routes_, on_backend_down may consume it and decrement, and a decrement
    // preceding our increment would underflow the count to SIZE_MAX.
    pool_.inflight_add(pick, +1);
    {
      std::lock_guard<std::mutex> lock(routes_mutex_);
      routes_[group] = route;
    }
    if (pool_.send(pick, wire)) {
      pool_.note_routed(pick);
      c_routed_[pick]->inc();
      return;
    }
    // The send marked the backend down; on_backend_down may have collected
    // our just-inserted route already (it owns the inflight decrement and
    // the resubmit in that case). Retry here only if we still own it.
    bool mine = false;
    {
      std::lock_guard<std::mutex> lock(routes_mutex_);
      auto it = routes_.find(group);
      if (it != routes_.end() && it->second.backend == pick) {
        routes_.erase(it);
        mine = true;
      }
    }
    if (!mine) return;
    pool_.inflight_add(pick, -1);
    if (++route.retries > params_.max_retries) {
      fail_group(group, "backend unavailable after retries");
      return;
    }
    c_retries_->inc();
  }
}

void Router::fail_group(std::uint64_t group, const std::string& message) {
  std::vector<Coalescer::Waiter> waiters = coalescer_.complete(group);
  if (waiters.empty()) return;
  const std::string line = service::encode_error(message, group);
  c_errors_->inc(waiters.size());
  c_responses_->inc(waiters.size());
  for (Coalescer::Waiter& w : waiters) {
    if (w.deliver) w.deliver(line);
  }
}

void Router::on_backend_line(std::size_t backend, const std::string& line,
                             const io::JsonValue& doc) {
  const std::int64_t id = doc.int_or("id", -1);
  if (id < 0) return;
  const std::uint64_t group = static_cast<std::uint64_t>(id);
  Route route;
  {
    std::lock_guard<std::mutex> lock(routes_mutex_);
    auto it = routes_.find(group);
    if (it == routes_.end()) return;  // cancelled / already failed over
    route = std::move(it->second);
    routes_.erase(it);
  }
  pool_.inflight_add(route.backend, -1);
  const double total_ms = now_ms() - route.arrival_ms;
  h_request_ms_->observe(total_ms);
  const bool ok = doc.find("error") == nullptr;
  const bool deadline_missed = ok && route.request.deadline_ms > 0.0 &&
                               total_ms > route.request.deadline_ms;
  if (flight_ != nullptr) {
    const double end_us = flight_->now_us();
    flight_->record(f_route_, obs::FlightKind::kSpan, 0, group, end_us,
                    total_ms * 1000.0, total_ms);
  }
  // The fleet SLO sees end-to-end latency; its triggers enqueue for the
  // incident thread (this runs on a backend reader thread — never block).
  slo_.record(route.request.priority, total_ms, ok, deadline_missed, group,
              now_ms());
  (void)backend;
  std::vector<Coalescer::Waiter> waiters = coalescer_.complete(group);
  c_responses_->inc(waiters.size());
  if (doc.find("error") != nullptr) c_errors_->inc(waiters.size());
  for (Coalescer::Waiter& w : waiters) {
    if (w.deliver) w.deliver(line);
  }
}

void Router::on_backend_down(std::size_t backend) {
  federation_.invalidate(backend);
  if (flight_ != nullptr) {
    flight_->instant(f_markdown_, 0, 0, static_cast<double>(backend));
  }
  slo_.note_backend_down(pool_.address(backend).label(), now_ms());
  std::vector<std::pair<std::uint64_t, Route>> orphans;
  {
    std::lock_guard<std::mutex> lock(routes_mutex_);
    for (auto it = routes_.begin(); it != routes_.end();) {
      if (it->second.backend == backend) {
        orphans.emplace_back(it->first, std::move(it->second));
        it = routes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [group, route] : orphans) {
    pool_.inflight_add(backend, -1);
    if (++route.retries > params_.max_retries) {
      fail_group(group, "backend failed");
      continue;
    }
    c_retries_->inc();
    forward(group, std::move(route));
  }
}

void Router::handle_cancel(const std::shared_ptr<Session>& session,
                           std::uint64_t client_id) {
  std::uint64_t group = 0;
  std::uint64_t token = 0;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(session->pending_mutex);
    auto it = session->pending.find(client_id);
    if (it != session->pending.end()) {
      group = it->second.first;
      token = it->second.second;
      known = true;
    }
  }
  if (!known) {
    deliver_to(session, service::encode_error("unknown or finished id", client_id));
    return;
  }
  if (coalescer_.waiter_count(group) <= 1) {
    // Sole waiter: forward the cancel; the backend answers with the
    // cancelled solve response on the group id, which fans out normally.
    std::size_t backend = kNone;
    {
      std::lock_guard<std::mutex> lock(routes_mutex_);
      auto it = routes_.find(group);
      if (it != routes_.end()) backend = it->second.backend;
    }
    if (backend == kNone || !pool_.send(backend, cancel_line(group))) {
      deliver_to(session,
                 service::encode_error("unknown or finished id", client_id));
    }
    return;
  }
  // Shared solve: detach just this waiter, the others still want the result.
  coalescer_.detach(group, token);
  {
    std::lock_guard<std::mutex> lock(session->pending_mutex);
    session->pending.erase(client_id);
  }
  deliver_to(session, service::encode_error("cancelled (shared solve continues)",
                                            client_id));
}

std::vector<std::vector<std::string>> Router::fan_out_control(
    const std::vector<ControlOp>& ops) {
  // Replies may land after the wait gave up; the callbacks' shared_ptr keeps
  // the gather alive for them.
  struct Gather {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t outstanding = 0;
    std::vector<std::vector<std::string>> replies;  ///< [op][backend]
  };
  constexpr std::chrono::milliseconds kControlTimeout{2000};
  auto gather = std::make_shared<Gather>();
  gather->replies.assign(ops.size(), std::vector<std::string>(pool_.size()));
  gather->outstanding = ops.size() * pool_.size();
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    for (std::size_t o = 0; o < ops.size(); ++o) {
      // A failed send may have been answered with nullptr by the mark-down
      // drain already; the guard counts each (op, backend) slot once.
      auto fired = std::make_shared<std::atomic<bool>>(false);
      BackendPool::ControlCallback finish =
          [gather, fired, o, b, field = ops[o].field](
              const std::string* line, const io::JsonValue*) {
            if (fired->exchange(true)) return;
            std::lock_guard<std::mutex> lock(gather->mutex);
            if (line != nullptr) {
              gather->replies[o][b] = extract_raw_field(*line, field);
            }
            --gather->outstanding;
            gather->cv.notify_all();
          };
      if (!pool_.send_control(b, ops[o].line, finish)) finish(nullptr, nullptr);
    }
  }
  std::unique_lock<std::mutex> lock(gather->mutex);
  gather->cv.wait_for(lock, kControlTimeout,
                      [&] { return gather->outstanding == 0; });
  return gather->replies;
}

namespace {

/// A gathered reply as a JSON value: the verbatim splice, or null when the
/// backend did not answer.
const std::string& or_null(const std::string& raw) {
  static const std::string kNull = "null";
  return raw.empty() ? kNull : raw;
}

/// The folded-stack text inside a backend's raw profile document ("" when
/// the backend did not answer or reported no profile).
std::string folded_text(const std::string& raw_profile) {
  if (raw_profile.empty()) return "";
  const io::JsonValue profile = io::JsonValue::parse(raw_profile);
  return profile.is_object() ? profile.string_or("folded", "") : "";
}

/// Fleet load aggregate over the probed view, shared by stats and health.
struct FleetLoad {
  std::size_t healthy = 0;
  std::size_t queue_depth = 0;
  std::size_t inflight = 0;
  double cache_hit_rate = 0.0;  ///< mean over healthy backends
};

FleetLoad fleet_load(const std::vector<BackendView>& views) {
  FleetLoad load;
  double hit_sum = 0.0;
  for (const BackendView& v : views) {
    if (v.healthy) {
      ++load.healthy;
      hit_sum += v.cache_hit_rate;
    }
    load.queue_depth += v.queue_depth;
    load.inflight += v.inflight;
  }
  if (load.healthy > 0) {
    load.cache_hit_rate = hit_sum / static_cast<double>(load.healthy);
  }
  return load;
}

}  // namespace

void Router::handle_stats(const std::shared_ptr<Session>& session) {
  const std::vector<std::string> raw =
      fan_out_control({{"{\"op\":\"stats\"}", "stats"}})[0];
  const std::vector<BackendView> views = pool_.views();
  const FleetLoad load = fleet_load(views);
  std::uint64_t routed = 0;
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    routed += pool_.routed_total(b);
  }

  std::string out = "{\"stats\":{\"role\":\"router\",\"policy\":\"";
  out += to_string(params_.policy);
  out += "\",\"backends\":" + std::to_string(pool_.size());
  out += ",\"healthy\":" + std::to_string(load.healthy);
  out += ",\"queue_depth\":" + std::to_string(load.queue_depth);
  out += ",\"inflight\":" + std::to_string(load.inflight);
  out += ",\"routed_total\":" + std::to_string(routed);
  out += ",\"cache_hit_rate\":" + std::to_string(load.cache_hit_rate);
  out += ",\"coalesced_total\":" + std::to_string(coalescer_.coalesced_total());
  out += ",\"inflight_groups\":" + std::to_string(coalescer_.inflight_groups());
  out += ",\"backend_stats\":[";
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    if (b > 0) out += ",";
    out += "{\"backend\":\"" + pool_.address(b).label() + "\"";
    out += ",\"healthy\":";
    out += views[b].healthy ? "true" : "false";
    out += ",\"stats\":" + or_null(raw[b]) + "}";
  }
  out += "]}}";
  deliver_to(session, out);
}

void Router::handle_health(const std::shared_ptr<Session>& session) {
  const std::vector<BackendView> views = pool_.views();
  const FleetLoad load = fleet_load(views);
  std::string out = "{\"stats\":{\"role\":\"router\"";
  out += ",\"backends\":" + std::to_string(views.size());
  out += ",\"healthy\":" + std::to_string(load.healthy);
  out += ",\"queue_depth\":" + std::to_string(load.queue_depth);
  out += ",\"inflight\":" + std::to_string(load.inflight);
  out += ",\"cache_hit_rate\":" + std::to_string(load.cache_hit_rate);
  out += "}}";
  deliver_to(session, out);
}

void Router::handle_trace(const std::shared_ptr<Session>& session,
                          std::size_t n) {
  const std::vector<std::string> raw = fan_out_control(
      {{"{\"op\":\"trace\",\"n\":" + std::to_string(n) + "}", "traces"}})[0];
  // Each element is a "[doc,doc,...]" array; splice the inner lists.
  std::string joined;
  for (const std::string& arr : raw) {
    if (arr.size() < 2) continue;  // absent or "[]"-too-short
    const std::string inner = arr.substr(1, arr.size() - 2);
    if (inner.empty()) continue;
    if (!joined.empty()) joined += ",";
    joined += inner;
  }
  deliver_to(session, "{\"traces\":[" + joined + "]}");
}

void Router::handle_obs(const std::shared_ptr<Session>& session,
                        std::uint64_t client_id) {
  io::JsonWriter w;
  w.begin_object();
  w.field("role", "router");
  w.key("registry");
  obs::write_registry_obs_json(registry_, w);
  w.key("slo");
  slo_.write_json(w, now_ms());
  w.key("fleet");
  federation_.write_fleet_json(w, now_ms());
  w.end_object();
  deliver_to(session, service::encode_obs_response(client_id, w.str()));
}

void Router::handle_flight_dump(const std::shared_ptr<Session>& session,
                                service::ProtocolRequest parsed) {
  // Client sessions run on their own threads (never a backend reader), so
  // the blocking fan-out inside assemble_incident is safe here.
  obs::SloTrigger trigger;
  trigger.kind = obs::TriggerKind::kSloBurn;  // shape only; kind unused below
  trigger.rid = parsed.flight_rid;
  trigger.now_ms = now_ms();
  trigger.detail = "client-requested flight dump";
  const std::string bundle =
      assemble_bundle(trigger, "manual",
                      parsed.window_s > 0.0 ? parsed.window_s
                                            : params_.flight_window_s);
  deliver_to(session,
             service::encode_flight_response(parsed.client_id, bundle));
}

std::string Router::own_profile_json(double window_s, std::string* folded_out) {
  if (folded_out != nullptr) folded_out->clear();
  if (profiler_ == nullptr) return "null";
  const std::vector<obs::ProfileSample> samples =
      profiler_->snapshot(window_s);
  obs::prof::Symbolizer symbolizer;
  obs::ProfileExportOptions opts;
  opts.source = "qulrb_router";
  opts.hz = profiler_->hz();
  opts.window_s = window_s;
  if (folded_out != nullptr) {
    *folded_out = obs::profile_to_folded(samples, symbolizer, opts);
  }
  return obs::profile_to_json(samples, symbolizer, opts);
}

void Router::handle_profile(const std::shared_ptr<Session>& session,
                            service::ProtocolRequest parsed) {
  // Client sessions run on their own threads (never a backend reader), so
  // the blocking fan-out is safe here — same situation as flight_dump.
  const double window_s = parsed.profile_seconds;
  const std::vector<std::string> raw = fan_out_control(
      {{service::encode_profile_request(0, window_s), "profile"}})[0];

  std::string router_folded;
  const std::string router_profile = own_profile_json(window_s, &router_folded);

  // Folded merge: each process's folded text re-rooted at instance:<label>
  // and concatenated — folded consumers sum duplicate stacks, so plain
  // concatenation is a correct fleet merge.
  std::string merged = obs::folded_with_instance(router_folded, "router");
  std::size_t reporting = 0;
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    if (!raw[b].empty()) ++reporting;
    merged += obs::folded_with_instance(folded_text(raw[b]),
                                        pool_.address(b).label());
  }

  io::JsonWriter w;
  w.begin_object();
  w.field("source", "qulrb_router");
  w.field("window_s", window_s);
  w.field("backends", static_cast<std::int64_t>(pool_.size()));
  w.field("backends_reporting", static_cast<std::int64_t>(reporting));
  w.key("router").raw_value(router_profile);
  w.key("backend_profiles").begin_array();
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    w.begin_object();
    w.field("backend", pool_.address(b).label());
    w.key("profile").raw_value(or_null(raw[b]));
    w.end_object();
  }
  w.end_array();
  w.field("folded", merged);
  w.end_object();
  deliver_to(session,
             service::encode_profile_response(parsed.client_id, w.str()));
}

std::string Router::assemble_incident(const obs::SloTrigger& trigger) {
  return assemble_bundle(trigger, obs::to_string(trigger.kind),
                         params_.flight_window_s);
}

std::string Router::assemble_bundle(const obs::SloTrigger& trigger,
                                    const std::string& kind,
                                    double window_s) {
  const std::vector<std::vector<std::string>> replies = fan_out_control(
      {{service::encode_flight_dump_request(0, window_s, trigger.rid), "flight"},
       {service::encode_profile_request(0, window_s), "profile"}});
  const std::string router_profile = own_profile_json(window_s, nullptr);
  io::JsonWriter w;
  w.begin_object();
  w.key("incident").begin_object();
  w.field("rid", static_cast<std::int64_t>(trigger.rid));
  w.field("kind", kind);
  w.field("priority", trigger.priority);
  w.field("ts_ms", trigger.now_ms);
  w.field("fast_burn", trigger.fast_burn);
  w.field("slow_burn", trigger.slow_burn);
  w.field("detail", trigger.detail);
  w.field("window_s", window_s);
  w.key("router").begin_object();
  if (flight_ != nullptr) {
    w.key("flight").raw_value(obs::flight_to_perfetto_json(
        *flight_, window_s, trigger.rid, kind, "qulrb_router"));
  } else {
    w.key("flight").null();
  }
  w.key("profile").raw_value(router_profile);
  w.end_object();
  w.key("backends").begin_array();
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    w.begin_object();
    w.field("backend", pool_.address(b).label());
    w.key("flight").raw_value(or_null(replies[0][b]));
    w.key("profile").raw_value(or_null(replies[1][b]));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.str();
}

void Router::on_trigger(const obs::SloTrigger& trigger) {
  if (stopped_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(incident_mutex_);
    // Bound the backlog: triggers are already cooldown-limited per
    // (kind, class), a deeper queue means the incident thread is stuck.
    if (incident_queue_.size() >= 16) return;
    incident_queue_.push_back(trigger);
  }
  incident_cv_.notify_one();
}

void Router::incident_loop() {
  while (true) {
    obs::SloTrigger trigger;
    {
      std::unique_lock<std::mutex> lock(incident_mutex_);
      incident_cv_.wait(lock, [&] {
        return stopped_.load(std::memory_order_relaxed) ||
               !incident_queue_.empty();
      });
      if (incident_queue_.empty()) return;  // stopping and drained
      trigger = std::move(incident_queue_.front());
      incident_queue_.pop_front();
    }
    const std::string bundle = assemble_incident(trigger);
    c_incidents_->inc();
    incidents_total_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(incident_mutex_);
      last_incident_ = bundle;
    }
    if (!params_.incident_dir.empty()) {
      const std::string path = params_.incident_dir + "/incident-" +
                               std::to_string(trigger.rid) + "-" +
                               obs::to_string(trigger.kind) + ".json";
      std::ofstream out(path, std::ios::trunc);
      if (out) out << bundle << "\n";
    }
  }
}

std::string Router::last_incident() const {
  std::lock_guard<std::mutex> lock(incident_mutex_);
  return last_incident_;
}

void Router::federate_loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stopped_.load(std::memory_order_relaxed)) {
    lock.unlock();
    federate_once();
    lock.lock();
    stop_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(params_.federate_ms),
        [&] { return stopped_.load(std::memory_order_relaxed); });
  }
}

void Router::federate_once() {
  const std::string op = service::encode_obs_request(0);
  for (std::size_t b = 0; b < pool_.size(); ++b) {
    if (!pool_.healthy(b)) {
      federation_.invalidate(b);
      continue;
    }
    // Fire-and-forget: the callback folds the snapshot in on the backend's
    // reader thread; a missed cycle just leaves the previous snapshot live.
    BackendPool::ControlCallback finish =
        [this, b](const std::string* line, const io::JsonValue* doc) {
          if (line == nullptr || doc == nullptr) return;
          const io::JsonValue* obs_doc = doc->find("obs");
          if (obs_doc == nullptr) return;
          const std::string raw = extract_raw_field(*line, "obs");
          if (raw.empty()) return;
          if (federation_.update(b, pool_.address(b).label(), raw, *obs_doc,
                                 now_ms())) {
            c_federate_pulls_->inc();
          }
        };
    if (!pool_.send_control(b, op, finish)) federation_.invalidate(b);
  }
}

void Router::deliver_to(const std::shared_ptr<Session>& session,
                        const std::string& line) {
  std::lock_guard<std::mutex> lock(session->write_mutex);
  if (!session->closed && session->write) session->write(line);
}

}  // namespace qulrb::router
