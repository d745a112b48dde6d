#include "service/protocol.hpp"

#include <algorithm>
#include <utility>

#include "io/json.hpp"
#include "io/json_value.hpp"
#include "lrp/encoding.hpp"
#include "util/error.hpp"

namespace qulrb::service {

using io::JsonValue;
using io::JsonWriter;

namespace {

// A validation error of a request object, carrying its "id" for the reply.
class RequestError : public util::InvalidArgument {
 public:
  RequestError(const std::string& message, std::uint64_t id)
      : util::InvalidArgument(message), client_id(id) {}
  std::uint64_t client_id;
};

// Variables of the request's LRP model: each source j with n_j >= 1 has
// bits_per_count(n_j) coefficients (the paper set and the plain binary set
// are the same size), one per destination but itself for Q_CQM1.
std::int64_t model_variables(const RebalanceRequest& request) {
  const auto m = static_cast<std::int64_t>(request.task_counts.size());
  const std::int64_t destinations =
      request.variant == lrp::CqmVariant::kReduced ? m - 1 : m;
  std::int64_t bits = 0;
  for (const std::int64_t n : request.task_counts) {
    if (n >= 1) bits += static_cast<std::int64_t>(lrp::bits_per_count(n));
  }
  return bits * destinations;
}

// Fills every field of `out` but client_id from the request object `doc`.
void parse_request_fields(const JsonValue& doc, ProtocolRequest& out) {
  const std::string op = doc.string_or("op", "solve");
  if (op == "cancel") {
    out.op = OpKind::kCancel;
  } else if (op == "stats") {
    out.op = OpKind::kStats;
  } else if (op == "health") {
    out.op = OpKind::kHealth;
  } else if (op == "metrics") {
    out.op = OpKind::kMetrics;
  } else if (op == "trace") {
    out.op = OpKind::kTrace;
    const std::int64_t n = doc.int_or("n", 8);
    util::require(n > 0, "trace 'n' must be positive");
    out.trace_count = static_cast<std::size_t>(n);
  } else if (op == "obs") {
    out.op = OpKind::kObs;
  } else if (op == "flight_dump") {
    out.op = OpKind::kFlightDump;
    out.window_s = doc.number_or("window_s", 0.0);
    out.flight_rid = static_cast<std::uint64_t>(doc.int_or("rid", 0));
  } else if (op == "profile") {
    out.op = OpKind::kProfile;
    out.profile_seconds = doc.number_or("seconds", 0.0);
    util::require(out.profile_seconds >= 0.0,
                  "profile 'seconds' must be non-negative");
  } else if (op == "shutdown") {
    out.op = OpKind::kShutdown;
  } else if (op == "solve") {
    out.op = OpKind::kSolve;
  } else {
    throw util::InvalidArgument("unknown op '" + op + "'");
  }
  if (out.op != OpKind::kSolve) return;

  const JsonValue* loads = doc.find("loads");
  const JsonValue* counts = doc.find("counts");
  util::require(loads != nullptr && counts != nullptr,
                "solve needs 'loads' and 'counts' arrays");
  util::require(loads->as_array().size() <= kMaxProcesses &&
                    counts->as_array().size() <= kMaxProcesses,
                "'loads' and 'counts' may list at most " +
                    std::to_string(kMaxProcesses) + " processes");
  for (const JsonValue& v : loads->as_array()) {
    out.request.task_loads.push_back(v.as_number());
  }
  for (const JsonValue& v : counts->as_array()) {
    out.request.task_counts.push_back(v.as_int());
  }

  const std::string variant = doc.string_or("variant", "qcqm1");
  if (variant == "qcqm1") {
    out.request.variant = lrp::CqmVariant::kReduced;
  } else if (variant == "qcqm2") {
    out.request.variant = lrp::CqmVariant::kFull;
  } else {
    throw util::InvalidArgument("unknown variant '" + variant +
                                "' (want qcqm1 or qcqm2)");
  }
  out.request.k = doc.int_or("k", 0);
  out.request.build.use_paper_coefficient_set =
      doc.bool_or("paper_coefficients", true);
  out.request.priority = static_cast<int>(doc.int_or("priority", 0));
  out.request.deadline_ms = doc.number_or("deadline_ms", 0.0);

  auto& hybrid = out.request.hybrid;
  const std::int64_t sweeps =
      doc.int_or("sweeps", static_cast<std::int64_t>(hybrid.sweeps));
  util::require(sweeps >= 1, "'sweeps' must be positive");
  hybrid.sweeps = static_cast<std::size_t>(sweeps);
  const std::int64_t restarts =
      doc.int_or("restarts", static_cast<std::int64_t>(hybrid.num_restarts));
  util::require(restarts >= 1 && restarts <= kMaxRestarts,
                "'restarts' must be in [1, " + std::to_string(kMaxRestarts) + "]");
  hybrid.num_restarts = static_cast<std::size_t>(restarts);
  // restarts x max(1, V) <= 1024 x 128^2 x 63, so only the last factor,
  // sweeps, is compared by division.
  const std::int64_t steps_per_sweep =
      restarts * std::max<std::int64_t>(1, model_variables(out.request));
  util::require(sweeps <= kMaxSolveSteps / steps_per_sweep,
                "'restarts' x 'sweeps' x variables must be at most " +
                    std::to_string(kMaxSolveSteps) + " (kMaxSolveSteps)");
  hybrid.seed = static_cast<std::uint64_t>(
      doc.int_or("seed", static_cast<std::int64_t>(hybrid.seed)));
  hybrid.time_limit_ms = doc.number_or("time_limit_ms", hybrid.time_limit_ms);

  out.request.target_r_imb = doc.number_or("target_rimb", 0.0);
  out.request.simulate = doc.bool_or("simulate", false);
  const std::int64_t sim_iters = doc.int_or(
      "sim_iterations", static_cast<std::int64_t>(out.request.sim_iterations));
  util::require(sim_iters > 0, "'sim_iterations' must be positive");
  out.request.sim_iterations = static_cast<std::size_t>(sim_iters);
  const std::int64_t sim_threads = doc.int_or(
      "sim_threads", static_cast<std::int64_t>(out.request.sim_comp_threads));
  util::require(sim_threads > 0, "'sim_threads' must be positive");
  out.request.sim_comp_threads = static_cast<std::size_t>(sim_threads);

  out.request.trace_id = static_cast<std::uint64_t>(doc.int_or("rid", 0));
  out.request.router_ms = doc.number_or("router_ms", 0.0);

  out.include_plan = doc.bool_or("plan", false);
}

}  // namespace

ProtocolRequest parse_request_line(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  util::require(doc.is_object(), "request must be a JSON object");

  ProtocolRequest out;
  // Read before the op dispatch, so that every error after it can echo the id.
  out.client_id = static_cast<std::uint64_t>(doc.int_or("id", 0));
  try {
    parse_request_fields(doc, out);
  } catch (const util::InvalidArgument& e) {
    throw RequestError(e.what(), out.client_id);
  }
  return out;
}

std::string encode_solve_request(const RebalanceRequest& request,
                                 std::uint64_t client_id, bool include_plan) {
  static const RebalanceRequest defaults;
  JsonWriter w;
  w.begin_object();
  w.field("op", "solve");
  w.field("id", static_cast<std::int64_t>(client_id));
  w.key("loads");
  w.begin_array();
  for (const double v : request.task_loads) w.value(v);
  w.end_array();
  w.key("counts");
  w.begin_array();
  for (const std::int64_t v : request.task_counts) w.value(v);
  w.end_array();
  w.field("variant",
          request.variant == lrp::CqmVariant::kReduced ? "qcqm1" : "qcqm2");
  w.field("k", request.k);
  if (!request.build.use_paper_coefficient_set) {
    w.field("paper_coefficients", false);
  }
  if (request.priority != 0) w.field("priority", request.priority);
  if (request.deadline_ms > 0.0) w.field("deadline_ms", request.deadline_ms);
  w.field("sweeps", request.hybrid.sweeps);
  w.field("restarts", request.hybrid.num_restarts);
  w.field("seed", static_cast<std::int64_t>(request.hybrid.seed));
  if (request.hybrid.time_limit_ms != defaults.hybrid.time_limit_ms) {
    w.field("time_limit_ms", request.hybrid.time_limit_ms);
  }
  if (request.target_r_imb > 0.0) w.field("target_rimb", request.target_r_imb);
  if (request.simulate) {
    w.field("simulate", true);
    w.field("sim_iterations", request.sim_iterations);
    w.field("sim_threads", request.sim_comp_threads);
  }
  if (request.trace_id != 0) {
    w.field("rid", static_cast<std::int64_t>(request.trace_id));
  }
  if (request.router_ms > 0.0) w.field("router_ms", request.router_ms);
  if (include_plan) w.field("plan", true);
  w.end_object();
  return w.str();
}

std::string encode_response(std::uint64_t client_id,
                            const RebalanceResponse& response,
                            bool include_plan) {
  JsonWriter w;
  w.begin_object();
  w.field("id", static_cast<std::int64_t>(client_id));
  w.field("outcome", to_string(response.outcome));
  if (!response.error.empty()) w.field("error", response.error);
  if (response.plan.has_value()) {
    w.field("feasible", response.feasible);
    w.field("budget_expired", response.budget_expired);
    w.field("cache_hit", response.cache_hit);
    w.field("retargeted", response.cache_retargeted);
    if (response.replica_lanes > 0) {
      w.field("replicas", response.replica_lanes);
    }
    w.field("imbalance_before", response.metrics.imbalance_before);
    w.field("imbalance_after", response.metrics.imbalance_after);
    w.field("speedup", response.metrics.speedup);
    w.field("migrated", response.metrics.total_migrated);
    if (include_plan) {
      const lrp::MigrationPlan& plan = *response.plan;
      w.key("plan");
      w.begin_array();
      for (std::size_t i = 0; i < plan.num_processes(); ++i) {
        w.begin_array();
        for (std::size_t j = 0; j < plan.num_processes(); ++j) {
          w.value(plan.count(i, j));
        }
        w.end_array();
      }
      w.end_array();
    }
  }
  if (response.time_to_first_feasible_ms >= 0.0) {
    w.field("time_to_first_feasible_ms", response.time_to_first_feasible_ms);
  }
  if (response.time_to_target_ms >= 0.0) {
    w.field("time_to_target_ms", response.time_to_target_ms);
  }
  if (response.simulated) {
    w.key("sim");
    w.begin_object();
    w.field("first_iteration_ms", response.sim_first_iteration_ms);
    w.field("steady_iteration_ms", response.sim_steady_iteration_ms);
    w.field("migration_overhead_ms", response.sim_migration_overhead_ms);
    w.field("compute_imbalance", response.sim_compute_imbalance);
    w.field("parallel_efficiency", response.sim_parallel_efficiency);
    w.end_object();
  }
  w.field("queue_ms", response.queue_ms);
  w.field("solve_ms", response.solve_ms);
  w.field("total_ms", response.total_ms);
  w.end_object();
  return w.str();
}

std::string encode_stats(const ServiceStats& stats) {
  JsonWriter w;
  w.begin_object();
  w.key("stats");
  w.begin_object();
  w.field("submitted", stats.submitted);
  w.field("completed", stats.completed);
  w.field("rejected_queue_full", stats.rejected_queue_full);
  w.field("rejected_deadline", stats.rejected_deadline);
  w.field("shed", stats.shed);
  w.field("cancelled", stats.cancelled);
  w.field("failed", stats.failed);
  w.field("deadline_met", stats.deadline_met);
  w.field("deadline_missed", stats.deadline_missed);
  w.field("budget_expired", stats.budget_expired);
  w.field("pending", stats.pending);
  w.field("running", stats.running);
  // Router-facing health fields: a front-end probing N backends keys its
  // shortest-queue decisions on these.
  w.field("queue_depth", stats.pending);
  w.field("inflight", stats.running);
  w.field("cache_hit_rate", stats.cache_hit_rate);
  w.field("queue_depth_hwm", stats.queue_depth_hwm);
  w.field("ewma_solve_ms", stats.ewma_solve_ms);
  w.key("cache");
  w.begin_object();
  w.field("exact_hits", stats.cache.exact_hits);
  w.field("retarget_hits", stats.cache.retarget_hits);
  w.field("misses", stats.cache.misses);
  w.field("evictions", stats.cache.evictions);
  w.end_object();
  w.key("solve_ms");
  w.begin_object();
  w.field("count", stats.solve_ms.count());
  w.field("mean", stats.solve_ms.mean());
  w.field("min", stats.solve_ms.min());
  w.field("max", stats.solve_ms.max());
  w.end_object();
  w.key("total_ms");
  w.begin_object();
  w.field("count", stats.total_ms.count());
  w.field("mean", stats.total_ms.mean());
  w.field("min", stats.total_ms.min());
  w.field("max", stats.total_ms.max());
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

std::string encode_health(std::size_t queue_depth, std::size_t inflight,
                          double cache_hit_rate) {
  JsonWriter w;
  w.begin_object();
  w.key("stats");
  w.begin_object();
  w.field("queue_depth", queue_depth);
  w.field("inflight", inflight);
  w.field("cache_hit_rate", cache_hit_rate);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string encode_metrics(const std::string& prometheus_text) {
  JsonWriter w;
  w.begin_object();
  w.field("metrics", prometheus_text);
  w.end_object();
  return w.str();
}

std::string encode_traces(const std::vector<std::string>& traces) {
  JsonWriter w;
  w.begin_object();
  w.key("traces");
  w.begin_array();
  for (const std::string& t : traces) w.raw_value(t);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string encode_obs_request(std::uint64_t client_id) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "obs");
  w.field("id", static_cast<std::int64_t>(client_id));
  w.end_object();
  return w.str();
}

std::string encode_obs_response(std::uint64_t client_id,
                                const std::string& obs_json) {
  JsonWriter w;
  w.begin_object();
  w.field("id", static_cast<std::int64_t>(client_id));
  w.key("obs");
  w.raw_value(obs_json);
  w.end_object();
  return w.str();
}

std::string encode_flight_dump_request(std::uint64_t client_id,
                                       double window_s, std::uint64_t rid) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "flight_dump");
  w.field("id", static_cast<std::int64_t>(client_id));
  if (window_s > 0.0) w.field("window_s", window_s);
  if (rid != 0) w.field("rid", static_cast<std::int64_t>(rid));
  w.end_object();
  return w.str();
}

std::string encode_flight_response(std::uint64_t client_id,
                                   const std::string& flight_json) {
  JsonWriter w;
  w.begin_object();
  w.field("id", static_cast<std::int64_t>(client_id));
  w.key("flight");
  w.raw_value(flight_json);
  w.end_object();
  return w.str();
}

std::string encode_profile_request(std::uint64_t client_id, double seconds) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "profile");
  w.field("id", static_cast<std::int64_t>(client_id));
  if (seconds > 0.0) w.field("seconds", seconds);
  w.end_object();
  return w.str();
}

std::string encode_profile_response(std::uint64_t client_id,
                                    const std::string& profile_json) {
  JsonWriter w;
  w.begin_object();
  w.field("id", static_cast<std::int64_t>(client_id));
  w.key("profile");
  w.raw_value(profile_json);
  w.end_object();
  return w.str();
}

std::string encode_error(const std::string& message, std::uint64_t client_id) {
  JsonWriter w;
  w.begin_object();
  w.field("error", message);
  w.field("id", static_cast<std::int64_t>(client_id));
  w.end_object();
  return w.str();
}

std::string encode_parse_error(const std::exception& e) {
  const auto* request_error = dynamic_cast<const RequestError*>(&e);
  return encode_error(e.what(),
                      request_error != nullptr ? request_error->client_id : 0);
}

}  // namespace qulrb::service
