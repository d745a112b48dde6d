#include <gtest/gtest.h>

#include "io/json_value.hpp"
#include "lrp/plan.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"

namespace qulrb::service {
namespace {

using io::JsonValue;

// -------------------------------------------------------------- parse -----

TEST(Protocol, ParsesFullSolveRequest) {
  const ProtocolRequest r = parse_request_line(
      R"({"op":"solve","id":7,"loads":[10,2,2,2],"counts":[8,8,8,8],)"
      R"("variant":"qcqm2","k":4,"priority":2,"deadline_ms":50,)"
      R"("sweeps":400,"restarts":2,"seed":9,"time_limit_ms":25,"plan":true})");
  EXPECT_EQ(r.op, OpKind::kSolve);
  EXPECT_EQ(r.client_id, 7u);
  EXPECT_EQ(r.request.task_loads, (std::vector<double>{10, 2, 2, 2}));
  EXPECT_EQ(r.request.task_counts, (std::vector<std::int64_t>{8, 8, 8, 8}));
  EXPECT_EQ(r.request.variant, lrp::CqmVariant::kFull);
  EXPECT_EQ(r.request.k, 4);
  EXPECT_EQ(r.request.priority, 2);
  EXPECT_DOUBLE_EQ(r.request.deadline_ms, 50.0);
  EXPECT_EQ(r.request.hybrid.sweeps, 400u);
  EXPECT_EQ(r.request.hybrid.num_restarts, 2u);
  EXPECT_EQ(r.request.hybrid.seed, 9u);
  EXPECT_DOUBLE_EQ(r.request.hybrid.time_limit_ms, 25.0);
  EXPECT_TRUE(r.include_plan);
}

TEST(Protocol, SolveIsTheDefaultOpWithDefaults) {
  const ProtocolRequest r =
      parse_request_line(R"({"loads":[3,1],"counts":[4,4]})");
  EXPECT_EQ(r.op, OpKind::kSolve);
  EXPECT_EQ(r.client_id, 0u);
  EXPECT_EQ(r.request.variant, lrp::CqmVariant::kReduced);
  EXPECT_EQ(r.request.priority, 0);
  EXPECT_DOUBLE_EQ(r.request.deadline_ms, 0.0);
  EXPECT_FALSE(r.include_plan);
}

TEST(Protocol, ParsesControlOps) {
  EXPECT_EQ(parse_request_line(R"({"op":"cancel","id":3})").op, OpKind::kCancel);
  EXPECT_EQ(parse_request_line(R"({"op":"cancel","id":3})").client_id, 3u);
  EXPECT_EQ(parse_request_line(R"({"op":"stats"})").op, OpKind::kStats);
  EXPECT_EQ(parse_request_line(R"({"op":"health"})").op, OpKind::kHealth);
  EXPECT_EQ(parse_request_line(R"({"op":"shutdown"})").op, OpKind::kShutdown);
}

TEST(Protocol, ParsesObsAndFlightDumpOps) {
  EXPECT_EQ(parse_request_line(R"({"op":"obs"})").op, OpKind::kObs);

  const ProtocolRequest dump = parse_request_line(
      R"({"op":"flight_dump","id":5,"window_s":30,"rid":42})");
  EXPECT_EQ(dump.op, OpKind::kFlightDump);
  EXPECT_EQ(dump.client_id, 5u);
  EXPECT_DOUBLE_EQ(dump.window_s, 30.0);
  EXPECT_EQ(dump.flight_rid, 42u);

  // Defaults: whole ring, untagged.
  const ProtocolRequest bare = parse_request_line(R"({"op":"flight_dump"})");
  EXPECT_DOUBLE_EQ(bare.window_s, 0.0);
  EXPECT_EQ(bare.flight_rid, 0u);
}

TEST(Protocol, ObsAndFlightEncodersRoundTrip) {
  const ProtocolRequest obs_req =
      parse_request_line(encode_obs_request(9));
  EXPECT_EQ(obs_req.op, OpKind::kObs);
  EXPECT_EQ(obs_req.client_id, 9u);

  const ProtocolRequest dump_req =
      parse_request_line(encode_flight_dump_request(7, 12.5, 99));
  EXPECT_EQ(dump_req.op, OpKind::kFlightDump);
  EXPECT_EQ(dump_req.client_id, 7u);
  EXPECT_DOUBLE_EQ(dump_req.window_s, 12.5);
  EXPECT_EQ(dump_req.flight_rid, 99u);

  // Responses splice the payload document verbatim under a stable key.
  const JsonValue obs_resp = JsonValue::parse(
      encode_obs_response(9, R"({"role":"serve","registry":{}})"));
  EXPECT_EQ(obs_resp.int_or("id", -1), 9);
  ASSERT_NE(obs_resp.find("obs"), nullptr);
  EXPECT_EQ(obs_resp.find("obs")->string_or("role", ""), "serve");

  const JsonValue flight_resp = JsonValue::parse(
      encode_flight_response(7, R"({"traceEvents":[],"metadata":{}})"));
  EXPECT_EQ(flight_resp.int_or("id", -1), 7);
  ASSERT_NE(flight_resp.find("flight"), nullptr);
  ASSERT_NE(flight_resp.find("flight")->find("traceEvents"), nullptr);
}

TEST(Protocol, ParsesProfileOp) {
  const ProtocolRequest req = parse_request_line(
      R"({"op":"profile","id":3,"seconds":2.5})");
  EXPECT_EQ(req.op, OpKind::kProfile);
  EXPECT_EQ(req.client_id, 3u);
  EXPECT_DOUBLE_EQ(req.profile_seconds, 2.5);

  // Default: snapshot the whole ring.
  const ProtocolRequest bare = parse_request_line(R"({"op":"profile"})");
  EXPECT_EQ(bare.op, OpKind::kProfile);
  EXPECT_DOUBLE_EQ(bare.profile_seconds, 0.0);

  EXPECT_THROW(parse_request_line(R"({"op":"profile","seconds":-1})"),
               std::exception);
}

TEST(Protocol, ProfileEncodersRoundTrip) {
  const ProtocolRequest req =
      parse_request_line(encode_profile_request(11, 4.0));
  EXPECT_EQ(req.op, OpKind::kProfile);
  EXPECT_EQ(req.client_id, 11u);
  EXPECT_DOUBLE_EQ(req.profile_seconds, 4.0);

  const JsonValue resp = JsonValue::parse(
      encode_profile_response(11, R"({"source":"qulrb_serve","samples":7})"));
  EXPECT_EQ(resp.int_or("id", -1), 11);
  ASSERT_NE(resp.find("profile"), nullptr);
  EXPECT_EQ(resp.find("profile")->int_or("samples", 0), 7);

  // Profiling off: the response still answers the op (FIFO control-response
  // alignment through the router depends on it) with a null profile.
  const JsonValue off = JsonValue::parse(encode_profile_response(12, "null"));
  EXPECT_EQ(off.int_or("id", -1), 12);
  ASSERT_NE(off.find("profile"), nullptr);
  EXPECT_TRUE(off.find("profile")->is_null());
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request_line("not json"), util::InvalidArgument);
  EXPECT_THROW(parse_request_line("[1,2]"), util::InvalidArgument);
  EXPECT_THROW(parse_request_line(R"({"op":"fly"})"), util::InvalidArgument);
  // solve without loads/counts
  EXPECT_THROW(parse_request_line(R"({"op":"solve","id":1})"),
               util::InvalidArgument);
  EXPECT_THROW(
      parse_request_line(R"({"loads":[1,2],"counts":[4,4],"variant":"qubo"})"),
      util::InvalidArgument);
  // non-integer count
  EXPECT_THROW(parse_request_line(R"({"loads":[1,2],"counts":[4.5,4]})"),
               util::InvalidArgument);

  // The id of the error reply: the line's own once the line is an object
  // with an integer "id", else 0.
  const auto rejected_id = [](const std::string& line) -> std::int64_t {
    try {
      parse_request_line(line);
    } catch (const std::exception& e) {
      return JsonValue::parse(encode_parse_error(e)).int_or("id", -1);
    }
    ADD_FAILURE() << "accepted: " << line;
    return -1;
  };
  EXPECT_EQ(rejected_id("not json"), 0);
  EXPECT_EQ(rejected_id("[1,2]"), 0);
  EXPECT_EQ(rejected_id(R"({"op":"fly"})"), 0);
  EXPECT_EQ(rejected_id(R"({"op":"fly","id":3})"), 3);
  EXPECT_EQ(rejected_id(R"({"op":"solve","id":1})"), 1);
  EXPECT_EQ(rejected_id(R"({"id":4,"loads":[1,2],"counts":[4,4],"variant":"qubo"})"), 4);
  EXPECT_EQ(rejected_id(R"({"id":5,"loads":[1,2],"counts":[4.5,4]})"), 5);
  EXPECT_EQ(rejected_id(R"({"id":6,"loads":[1,2],"counts":[4,4],"restarts":0})"), 6);
  EXPECT_EQ(rejected_id(R"({"op":"fly","id":"x"})"), 0);
}

// Unchecked, a negative count wraps through size_t (2^64 sweeps, or a vector
// larger than max_size()), zero restarts fails deep inside the solver, and a
// huge restart count grows the server without bound.
TEST(Protocol, RejectsOutOfRangeRestartsAndSweeps) {
  const auto solve = [](const std::string& knobs) {
    return parse_request_line(R"({"loads":[3,1],"counts":[4,4],)" + knobs + "}");
  };
  const std::vector<std::string> rejected = {
      R"("restarts":0)", R"("restarts":-1)", R"("restarts":100000000)",
      R"("restarts":)" + std::to_string(kMaxRestarts + 1), R"("sweeps":0)",
      R"("sweeps":-1)"};
  for (const std::string& knobs : rejected) {
    EXPECT_THROW(solve(knobs), util::InvalidArgument) << knobs;
  }
  EXPECT_EQ(solve(R"("restarts":1,"sweeps":1)").request.hybrid.num_restarts, 1u);
  EXPECT_EQ(solve(R"("restarts":)" + std::to_string(kMaxRestarts))
                .request.hybrid.num_restarts,
            static_cast<std::size_t>(kMaxRestarts));

  // Process count M: "loads"/"counts" longer than kMaxProcesses are refused
  // before any vector is filled; exactly kMaxProcesses parses.
  const auto processes = [](std::size_t m) {
    std::string loads;
    std::string counts;
    for (std::size_t j = 0; j < m; ++j) {
      loads += (j == 0 ? "" : ",") + std::string("2");
      counts += (j == 0 ? "" : ",") + std::string("4");
    }
    return parse_request_line(R"({"loads":[)" + loads + R"(],"counts":[)" +
                              counts + "]}");
  };
  EXPECT_THROW(processes(kMaxProcesses + 1), util::InvalidArgument);
  EXPECT_EQ(processes(kMaxProcesses).request.task_loads.size(), kMaxProcesses);
}

// Sweeps alone are unbounded, so a line asking for 10^12 sweeps held a
// worker until SIGKILL. The cap is on restarts x sweeps x V, with V the
// variable count of the request's LRP model.
TEST(Protocol, RejectsSolveWorkAboveCap) {
  const auto solve = [](const std::string& fields) {
    return parse_request_line(R"({"id":1,)" + fields + "}");
  };
  // M = 8, n_j = 8: V = 8 sources x 4 bits x 7 destinations = 224.
  const std::string m8 =
      R"("loads":[20,2,2,2,2,2,2,2],"counts":[8,8,8,8,8,8,8,8],"k":8,)";
  EXPECT_THROW(solve(m8 + R"("sweeps":1000000000000,"restarts":1)"),
               util::InvalidArgument);
  EXPECT_EQ(solve(m8 + R"("sweeps":100000000,"restarts":1)").request.hybrid.sweeps,
            100000000u);

  // M = 2, n_j = 4: 3 bits per source, so V = 6 for qcqm1 and 12 for qcqm2.
  const std::int64_t at_cap = kMaxSolveSteps / 6;
  const auto m2 = [](const std::string& variant, std::int64_t sweeps) {
    return R"("loads":[3,1],"counts":[4,4],"restarts":1,"variant":")" + variant +
           R"(","sweeps":)" + std::to_string(sweeps);
  };
  EXPECT_EQ(solve(m2("qcqm1", at_cap)).request.hybrid.sweeps,
            static_cast<std::size_t>(at_cap));
  EXPECT_THROW(solve(m2("qcqm1", at_cap + 1)), util::InvalidArgument);
  EXPECT_THROW(solve(m2("qcqm2", at_cap)), util::InvalidArgument);
  EXPECT_NO_THROW(solve(m2("qcqm2", kMaxSolveSteps / 12)));

  // A task-less source adds no variables; a model with none still costs one
  // step per sweep and restart.
  EXPECT_NO_THROW(solve(R"("loads":[3,1],"counts":[4,0],"restarts":1,"sweeps":)" +
                        std::to_string(kMaxSolveSteps / 3)));
  const std::string empty = R"("loads":[3,1],"counts":[0,0],"restarts":1,)";
  EXPECT_NO_THROW(solve(empty + R"("sweeps":)" + std::to_string(kMaxSolveSteps)));
  EXPECT_THROW(solve(empty + R"("sweeps":)" + std::to_string(kMaxSolveSteps + 1)),
               util::InvalidArgument);

  // The product is never formed: 2^62 sweeps at the most restarts is
  // refused, not wrapped.
  EXPECT_THROW(solve(m8 + R"("sweeps":4611686018427387904,"restarts":)" +
                     std::to_string(kMaxRestarts)),
               util::InvalidArgument);
}

// ------------------------------------------------------------- encode -----

TEST(Protocol, ResponseRoundTripsThroughJson) {
  RebalanceResponse response;
  response.outcome = RequestOutcome::kOk;
  response.feasible = true;
  response.cache_hit = true;
  response.cache_retargeted = true;
  response.metrics.imbalance_before = 1.5;
  response.metrics.imbalance_after = 0.125;
  response.metrics.total_migrated = 6;
  lrp::MigrationPlan plan(2);
  plan.set_count(0, 1, 3);
  response.plan = plan;
  response.queue_ms = 0.5;
  response.solve_ms = 2.25;
  response.total_ms = 2.75;

  const JsonValue doc = JsonValue::parse(encode_response(42, response, true));
  EXPECT_EQ(doc.int_or("id", -1), 42);
  EXPECT_EQ(doc.string_or("outcome", ""), "ok");
  EXPECT_TRUE(doc.bool_or("feasible", false));
  EXPECT_TRUE(doc.bool_or("cache_hit", false));
  EXPECT_TRUE(doc.bool_or("retargeted", false));
  EXPECT_DOUBLE_EQ(doc.number_or("imbalance_after", -1.0), 0.125);
  EXPECT_EQ(doc.int_or("migrated", -1), 6);
  EXPECT_DOUBLE_EQ(doc.number_or("solve_ms", -1.0), 2.25);
  const JsonValue* matrix = doc.find("plan");
  ASSERT_NE(matrix, nullptr);
  ASSERT_EQ(matrix->as_array().size(), 2u);
  EXPECT_EQ(matrix->as_array()[0].as_array()[1].as_int(), 3);
}

TEST(Protocol, PlanOmittedUnlessRequested) {
  RebalanceResponse response;
  response.outcome = RequestOutcome::kOk;
  response.plan = lrp::MigrationPlan(2);
  const JsonValue doc = JsonValue::parse(encode_response(1, response, false));
  EXPECT_EQ(doc.find("plan"), nullptr);
  EXPECT_NE(doc.find("feasible"), nullptr);  // summary fields still present
}

TEST(Protocol, RejectionCarriesErrorNotPlan) {
  RebalanceResponse response;
  response.outcome = RequestOutcome::kRejected;
  response.error = "queue full";
  const JsonValue doc = JsonValue::parse(encode_response(9, response, true));
  EXPECT_EQ(doc.string_or("outcome", ""), "rejected");
  EXPECT_EQ(doc.string_or("error", ""), "queue full");
  EXPECT_EQ(doc.find("plan"), nullptr);
  EXPECT_EQ(doc.find("feasible"), nullptr);
}

TEST(Protocol, StatsEncodeParses) {
  ServiceStats stats;
  stats.submitted = 10;
  stats.completed = 8;
  stats.cache.exact_hits = 5;
  stats.solve_ms.add(1.0);
  stats.solve_ms.add(3.0);
  const JsonValue doc = JsonValue::parse(encode_stats(stats));
  const JsonValue* inner = doc.find("stats");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->int_or("submitted", -1), 10);
  EXPECT_EQ(inner->int_or("completed", -1), 8);
  EXPECT_EQ(inner->find("cache")->int_or("exact_hits", -1), 5);
  EXPECT_EQ(inner->find("solve_ms")->int_or("count", -1), 2);
  EXPECT_DOUBLE_EQ(inner->find("solve_ms")->number_or("mean", -1.0), 2.0);
}

TEST(Protocol, ErrorEncodeParses) {
  const JsonValue doc = JsonValue::parse(encode_error("bad \"line\"", 3));
  EXPECT_EQ(doc.string_or("error", ""), "bad \"line\"");
  EXPECT_EQ(doc.int_or("id", -1), 3);
}

// ------------------------------------------- router extensions (wire) -----

TEST(Protocol, ParsesRouterTraceFields) {
  const ProtocolRequest r = parse_request_line(
      R"({"op":"solve","id":3,"loads":[5,1],"counts":[4,4],"k":2,)"
      R"("rid":9001,"router_ms":1.5})");
  EXPECT_EQ(r.request.trace_id, 9001u);
  EXPECT_DOUBLE_EQ(r.request.router_ms, 1.5);
}

TEST(Protocol, TraceFieldsDefaultToUnset) {
  const ProtocolRequest r =
      parse_request_line(R"({"loads":[3,1],"counts":[4,4]})");
  EXPECT_EQ(r.request.trace_id, 0u);
  EXPECT_DOUBLE_EQ(r.request.router_ms, 0.0);
}

TEST(Protocol, SolveRequestRoundTripsThroughCanonicalEncoder) {
  const std::string wire =
      R"({"op":"solve","id":7,"loads":[10,2,2,2],"counts":[8,8,8,8],)"
      R"("variant":"qcqm2","k":4,"priority":2,"deadline_ms":50,)"
      R"("sweeps":400,"restarts":2,"seed":9,"time_limit_ms":25,)"
      R"("target_rimb":1.25,"simulate":true,"sim_iterations":5,)"
      R"("rid":77,"router_ms":0.25,"plan":true})";
  const ProtocolRequest first = parse_request_line(wire);
  const std::string canonical =
      encode_solve_request(first.request, first.client_id, first.include_plan);
  const ProtocolRequest second = parse_request_line(canonical);

  EXPECT_EQ(second.client_id, first.client_id);
  EXPECT_EQ(second.include_plan, first.include_plan);
  EXPECT_EQ(second.request.task_loads, first.request.task_loads);
  EXPECT_EQ(second.request.task_counts, first.request.task_counts);
  EXPECT_EQ(second.request.variant, first.request.variant);
  EXPECT_EQ(second.request.k, first.request.k);
  EXPECT_EQ(second.request.priority, first.request.priority);
  EXPECT_DOUBLE_EQ(second.request.deadline_ms, first.request.deadline_ms);
  EXPECT_EQ(second.request.hybrid.sweeps, first.request.hybrid.sweeps);
  EXPECT_EQ(second.request.hybrid.num_restarts,
            first.request.hybrid.num_restarts);
  EXPECT_EQ(second.request.hybrid.seed, first.request.hybrid.seed);
  EXPECT_DOUBLE_EQ(second.request.hybrid.time_limit_ms,
                   first.request.hybrid.time_limit_ms);
  EXPECT_DOUBLE_EQ(second.request.target_r_imb, first.request.target_r_imb);
  EXPECT_EQ(second.request.simulate, first.request.simulate);
  EXPECT_EQ(second.request.sim_iterations, first.request.sim_iterations);
  EXPECT_EQ(second.request.trace_id, first.request.trace_id);
  EXPECT_DOUBLE_EQ(second.request.router_ms, first.request.router_ms);

  // Canonicality: the encoder is a fixed point — re-encoding the re-parsed
  // request reproduces the same bytes. This is the coalescer's equality.
  EXPECT_EQ(encode_solve_request(second.request, second.client_id,
                                 second.include_plan),
            canonical);
}

TEST(Protocol, CanonicalEncoderIsInsensitiveToClientFieldOrder) {
  const ProtocolRequest a = parse_request_line(
      R"({"op":"solve","id":1,"loads":[5,1],"counts":[4,4],"k":2,"seed":3})");
  const ProtocolRequest b = parse_request_line(
      R"({"seed":3,"k":2,"counts":[4,4],"loads":[5,1],"id":2,"op":"solve"})");
  // Same solve, different client id and key order: canonical bodies with the
  // id pinned must be byte-identical.
  EXPECT_EQ(encode_solve_request(a.request, 0, false),
            encode_solve_request(b.request, 0, false));
}

TEST(Protocol, HealthEncodeUsesTheStatsEnvelope) {
  // The probe fields ride in the same {"stats":{...}} envelope as the full
  // snapshot, so a prober parses both response shapes alike.
  const JsonValue doc = JsonValue::parse(encode_health(4, 2, 0.5));
  const JsonValue* inner = doc.find("stats");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->int_or("queue_depth", -1), 4);
  EXPECT_EQ(inner->int_or("inflight", -1), 2);
  EXPECT_DOUBLE_EQ(inner->number_or("cache_hit_rate", -1.0), 0.5);
}

TEST(Protocol, StatsExposeHealthProbeFields) {
  ServiceStats stats;
  stats.pending = 3;
  stats.running = 2;
  stats.cache_hit_rate = 0.75;
  const JsonValue doc = JsonValue::parse(encode_stats(stats));
  const JsonValue* inner = doc.find("stats");
  ASSERT_NE(inner, nullptr);
  // Top-level (not nested) so a router health probe reads them in one hop.
  EXPECT_EQ(inner->int_or("queue_depth", -1), 3);
  EXPECT_EQ(inner->int_or("inflight", -1), 2);
  EXPECT_DOUBLE_EQ(inner->number_or("cache_hit_rate", -1.0), 0.75);
}

}  // namespace
}  // namespace qulrb::service
