#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "service/rebalance_service.hpp"
#include "service/request.hpp"

namespace qulrb::service {

/// JSON-lines wire protocol of qulrb_serve: one JSON object per line in, one
/// per line out. Requests:
///
///   {"op":"solve","id":7,"loads":[10,2,2,2],"counts":[8,8,8,8],
///    "variant":"qcqm1","k":4,"priority":0,"deadline_ms":50,
///    "sweeps":400,"restarts":2,"seed":1,"time_limit_ms":0,"plan":false}
///     (+ optional "rid": upstream trace id a router forwards so the
///        backend's trace correlates with the routed request, and
///        "router_ms": time spent in the router before forwarding)
///   {"op":"cancel","id":7}
///   {"op":"stats"}
///   {"op":"health"}
///   {"op":"metrics"}
///   {"op":"trace","n":4}
///   {"op":"obs"}
///   {"op":"flight_dump","window_s":30,"rid":42}
///   {"op":"profile","seconds":2}
///   {"op":"shutdown"}
///
/// `id` is the client's correlation id (echoed verbatim); responses may
/// arrive out of submission order. Responses:
///
///   {"id":7,"outcome":"ok","feasible":true,...}
///   {"stats":{...}}
///   {"metrics":"<prometheus text>"}
///   {"traces":[{...perfetto doc...},...]}
///   {"obs":{"role":...,"counters":[...],"gauges":[...],
///           "histograms":[...],"slo":{...}}}
///   {"flight":{...perfetto doc of the recent flight ring...}}
///   {"profile":{"source":...,"hz":...,"samples":N,"phases":[...],
///               "folded":"<collapsed stacks>"}}
///   {"error":"...","id":7}
///
/// `obs` is the federation pull: the process's whole metric registry in the
/// stripe-agnostic wire form of obs/histogram_wire.hpp (so the router can
/// merge histograms bucket-wise, exactly), plus its SLO view. `flight_dump`
/// snapshots the last `window_s` seconds of the flight-recorder ring as a
/// Perfetto document tagged with the triggering request's `rid`; both
/// fields are optional (0 = everything in the ring / no rid). `profile`
/// exports the last `seconds` of the continuous sampling profiler's ring
/// (obs::Profiler) as folded stacks plus a {rid, phase} sample breakdown —
/// `{"profile":null}` when the process runs with profiling disabled.
///
/// `health` is the high-frequency probe variant of `stats`: a three-field
/// {"stats":{"queue_depth","inflight","cache_hit_rate"}} answered from
/// relaxed atomics, so a router polling N backends every few milliseconds
/// never contends with the request-path lock the full stats snapshot takes.
enum class OpKind : std::uint8_t {
  kSolve, kCancel, kStats, kHealth, kMetrics, kTrace, kObs, kFlightDump,
  kProfile, kShutdown
};

struct ProtocolRequest {
  OpKind op = OpKind::kSolve;
  std::uint64_t client_id = 0;
  RebalanceRequest request;   ///< populated for kSolve
  bool include_plan = false;  ///< echo the migration matrix in the response
  std::size_t trace_count = 8;  ///< "n" of a trace op
  double window_s = 0.0;        ///< "window_s" of a flight_dump op (0 = all)
  std::uint64_t flight_rid = 0; ///< "rid" tag of a flight_dump op
  double profile_seconds = 0.0; ///< "seconds" of a profile op (0 = whole ring)
};

/// Largest "restarts" a solve request may ask for. Each restart is a full
/// annealer chain, so an unbounded count lets one line exhaust server memory.
inline constexpr std::int64_t kMaxRestarts = 1024;

/// Largest process count M ("loads"/"counts" length) a solve request may
/// carry. The CQM has O(M^2 log n) variables, so an unbounded M lets one
/// short line exhaust server memory: at M = 128 and the largest count a line
/// can carry (~2^63), model build, presolve and pair index peak near 280 MB;
/// at M = 256 near 1.1 GB. Twice the largest M of any paper figure (Fig. 4's
/// 64).
inline constexpr std::size_t kMaxProcesses = 128;

/// Largest work, restarts x sweeps x max(1, V) single-variable steps, that
/// one solve request may buy; V is the variable count of the request's LRP
/// model. Sweeps alone are otherwise unbounded, so one line could hold a
/// worker for days. 1e11 is 4.5x the longest solve any test sends (1e8
/// sweeps over 224 variables); Table V at registry defaults is 4.9e7.
inline constexpr std::int64_t kMaxSolveSteps = 100'000'000'000;

/// Parse one request line; throws util::InvalidArgument with a message fit
/// for an {"error":...} reply on malformed input, including a solve whose
/// "sweeps" is below 1, whose "restarts" is outside [1, kMaxRestarts], whose
/// "loads" or "counts" has more than kMaxProcesses entries, or whose work
/// exceeds kMaxSolveSteps.
ProtocolRequest parse_request_line(const std::string& line);

/// Canonical wire form of a solve request (no trailing newline): exactly the
/// fields parse_request_line understands, defaults omitted, deterministic
/// field order. Both halves of the sharded tier depend on this canonicality:
/// qulrb_loadgen emits requests through it, and qulrb_router re-encodes
/// parsed requests so that two byte-identical canonical bodies (id/rid
/// stripped) are the same solve — the coalescer's equality check is a string
/// compare, not a field-by-field diff. Round-trips through
/// parse_request_line for every wire-representable field.
std::string encode_solve_request(const RebalanceRequest& request,
                                 std::uint64_t client_id, bool include_plan);

/// One response line (no trailing newline).
std::string encode_response(std::uint64_t client_id,
                            const RebalanceResponse& response,
                            bool include_plan);

std::string encode_stats(const ServiceStats& stats);

/// The `health` probe response: the shortest-queue routing fields only, in
/// the same {"stats":{...}} envelope (a prober parses both shapes alike).
std::string encode_health(std::size_t queue_depth, std::size_t inflight,
                          double cache_hit_rate);

/// {"metrics":"..."} — the Prometheus exposition text as one JSON string.
std::string encode_metrics(const std::string& prometheus_text);

/// {"traces":[...]} — each element is a Perfetto JSON document, spliced in
/// verbatim (they are already serialized JSON objects).
std::string encode_traces(const std::vector<std::string>& traces);

/// {"op":"obs","id":N} — federation pull of a process's metric registry.
std::string encode_obs_request(std::uint64_t client_id);

/// {"id":N,"obs":...} — `obs_json` is the pre-serialized obs object (built
/// with obs::write_registry_obs_json plus role/build/slo fields), spliced in
/// verbatim.
std::string encode_obs_response(std::uint64_t client_id,
                                const std::string& obs_json);

/// {"op":"flight_dump","id":N,...} — snapshot request toward a backend.
std::string encode_flight_dump_request(std::uint64_t client_id,
                                       double window_s, std::uint64_t rid);

/// {"id":N,"flight":...} — `flight_json` is a Perfetto document
/// (obs::flight_to_perfetto_json), spliced in verbatim.
std::string encode_flight_response(std::uint64_t client_id,
                                   const std::string& flight_json);

/// {"op":"profile","id":N,"seconds":S} — profile capture toward a backend.
std::string encode_profile_request(std::uint64_t client_id, double seconds);

/// {"id":N,"profile":...} — `profile_json` is a profile document
/// (obs::profile_to_json) or the literal "null" when profiling is off,
/// spliced in verbatim.
std::string encode_profile_response(std::uint64_t client_id,
                                    const std::string& profile_json);

std::string encode_error(const std::string& message, std::uint64_t client_id);

/// The {"error":...} reply for an exception parse_request_line threw. Once
/// the line parsed as an object with an integer "id", the reply echoes that
/// id, so a client that pipelines requests can tell which one failed; else
/// the reply's id is 0.
std::string encode_parse_error(const std::exception& e);

}  // namespace qulrb::service
