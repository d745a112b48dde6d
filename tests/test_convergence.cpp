#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "anneal/hybrid.hpp"
#include "io/json_value.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/metrics.hpp"
#include "lrp/problem.hpp"
#include "lrp/registry.hpp"
#include "obs/convergence.hpp"
#include "obs/event_log.hpp"
#include "obs/recorder.hpp"
#include "workloads/samoa.hpp"

namespace qulrb::obs {
namespace {

// ----------------------------------------------------- analysis mechanics ---

TEST(Convergence, EmptyRecorderYieldsEmptyReport) {
  Recorder rec;
  const ConvergenceReport report = ConvergenceDiagnostics().analyze(rec);
  EXPECT_FALSE(report.reached_feasible());
  EXPECT_FALSE(report.reached_target());
  EXPECT_EQ(report.samples_seen, 0u);
  EXPECT_EQ(report.tracks_seen, 0u);
}

TEST(Convergence, TracksFeasibilityAndTarget) {
  Recorder rec;
  // The samplers record energy (= objective + violation) and violation back
  // to back per sampled incumbent. Plant: infeasible, feasible-but-poor,
  // feasible-at-target.
  rec.sample("incumbent_energy", 1, 10.0 + 5.0);
  rec.sample("incumbent_violation", 1, 5.0);
  rec.sample("incumbent_energy", 1, 8.0);
  rec.sample("incumbent_violation", 1, 0.0);
  rec.sample("incumbent_energy", 1, 2.0);
  rec.sample("incumbent_violation", 1, 0.0);

  ConvergenceConfig config;
  config.target_objective = 4.0;
  const ConvergenceReport report = ConvergenceDiagnostics(config).analyze(rec);
  EXPECT_EQ(report.samples_seen, 3u);
  EXPECT_EQ(report.tracks_seen, 1u);
  ASSERT_TRUE(report.reached_feasible());
  ASSERT_TRUE(report.reached_target());
  // Feasibility arrived with the second incumbent, the target with the
  // third; timestamps are strictly monotonic, so the order is fixed.
  EXPECT_LT(report.time_to_first_feasible_ms, report.time_to_target_ms);
  EXPECT_DOUBLE_EQ(report.final_objective, 2.0);
  EXPECT_DOUBLE_EQ(report.final_violation, 0.0);
  EXPECT_GE(report.longest_stagnation_ms, 0.0);
}

TEST(Convergence, NeverFeasibleNeverTargets) {
  Recorder rec;
  rec.sample("incumbent_energy", 1, 9.0);
  rec.sample("incumbent_violation", 1, 3.0);

  ConvergenceConfig config;
  config.target_objective = 100.0;  // even a generous target needs feasibility
  const ConvergenceReport report = ConvergenceDiagnostics(config).analyze(rec);
  EXPECT_FALSE(report.reached_feasible());
  EXPECT_FALSE(report.reached_target());
}

TEST(Convergence, MergesAcrossRestartTracks) {
  Recorder rec;
  rec.sample("incumbent_energy", 1, 12.0);
  rec.sample("incumbent_violation", 1, 0.0);
  rec.sample("incumbent_energy", 2, 5.0);
  rec.sample("incumbent_violation", 2, 0.0);

  const ConvergenceReport report = ConvergenceDiagnostics().analyze(rec);
  EXPECT_EQ(report.tracks_seen, 2u);
  EXPECT_EQ(report.samples_seen, 2u);
  EXPECT_DOUBLE_EQ(report.final_objective, 5.0);  // best across both tracks
}

TEST(Convergence, AnnotateWritesEnvelopeAndVerdicts) {
  Recorder rec;
  rec.sample("incumbent_energy", 1, 6.0);
  rec.sample("incumbent_violation", 1, 0.0);
  rec.sample("incumbent_energy", 1, 3.0);
  rec.sample("incumbent_violation", 1, 0.0);

  ConvergenceConfig config;
  config.target_objective = 5.0;
  const ConvergenceReport report =
      ConvergenceDiagnostics(config).annotate(rec);
  ASSERT_TRUE(report.reached_target());

  bool saw_best_objective = false;
  for (const auto& s : rec.samples()) {
    if (s.series == "best_objective") saw_best_objective = true;
  }
  EXPECT_TRUE(saw_best_objective);

  bool saw_ttff = false, saw_stagnation = false;
  for (const auto& [key, value] : rec.annotations()) {
    if (key == "time_to_first_feasible_ms") saw_ttff = true;
    if (key == "longest_stagnation_ms") saw_stagnation = true;
  }
  EXPECT_TRUE(saw_ttff);
  EXPECT_TRUE(saw_stagnation);
}

// ------------------------------------------------------ request handle ----

TEST(Recorder, WithoutRequestIdAnnotatesNone) {
  Recorder rec("solve");
  EXPECT_EQ(rec.request_id(), 0u);
  for (const auto& [key, value] : rec.annotations()) {
    EXPECT_NE(key, "request_id");
  }
  EXPECT_EQ(rec.claim_tracks(4), 1u);  // a fresh recorder hands out 1 first
  EXPECT_EQ(rec.claim_tracks(2), 5u);
}

TEST(Recorder, RequestIdIsAnnotated) {
  Recorder rec("req-42", 42);
  EXPECT_EQ(rec.request_id(), 42u);
  bool saw = false;
  for (const auto& [key, value] : rec.annotations()) {
    if (key == "request_id" && value == "42") saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(Recorder, ClaimedTrackBlocksNeverCollide) {
  Recorder rec("req", 1);
  constexpr std::size_t kThreads = 8;
  constexpr std::uint32_t kPerClaim = 3;
  std::vector<std::uint32_t> bases(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&rec, &bases, t] { bases[t] = rec.claim_tracks(kPerClaim); });
  }
  for (auto& t : threads) t.join();
  std::set<std::uint32_t> tracks;
  for (const std::uint32_t base : bases) {
    EXPECT_GE(base, 1u);  // track 0 stays the main row
    for (std::uint32_t i = 0; i < kPerClaim; ++i) tracks.insert(base + i);
  }
  EXPECT_EQ(tracks.size(), kThreads * kPerClaim);
}

// ----------------------------------------------------- zero-cost contract ---

lrp::LrpProblem skewed_problem() {
  // 6 processes, skewed loads; large enough that presolve leaves more than
  // exhaustive_max_vars would tolerate anyway (we force annealing below).
  return lrp::LrpProblem({30, 9, 8, 4, 3, 2}, {12, 12, 12, 12, 12, 12});
}

anneal::HybridSolverParams contract_params() {
  anneal::HybridSolverParams p;
  p.num_restarts = 2;
  p.sweeps = 250;
  p.seed = 123;
  p.threads = 1;
  // Force the annealing path: the exhaustive Gray-code path records a single
  // incumbent point, so it would make this test nearly vacuous.
  p.exhaustive_max_vars = 0;
  return p;
}

void expect_bitwise_equal(const anneal::HybridSolveResult& a,
                          const anneal::HybridSolveResult& b) {
  EXPECT_EQ(a.best.state, b.best.state);
  EXPECT_EQ(a.best.energy, b.best.energy);  // bitwise: EXPECT_EQ on doubles
  EXPECT_EQ(a.best.violation, b.best.violation);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples.at(i).state, b.samples.at(i).state);
    EXPECT_EQ(a.samples.at(i).energy, b.samples.at(i).energy);
    EXPECT_EQ(a.samples.at(i).violation, b.samples.at(i).violation);
  }
}

TEST(Convergence, TracedSolveIsBitwiseIdentical_QCQM1) {
  const lrp::LrpProblem problem = skewed_problem();
  const lrp::LrpCqm model =
      lrp::build_lrp_cqm(problem, lrp::CqmVariant::kReduced, 8, {});

  const anneal::HybridSolveResult plain =
      anneal::HybridCqmSolver(contract_params()).solve(model.cqm());

  anneal::HybridSolverParams traced_params = contract_params();
  Recorder rec("contract-qcqm1", 7);
  traced_params.recorder = &rec;
  const anneal::HybridSolveResult traced =
      anneal::HybridCqmSolver(traced_params).solve(model.cqm());

  expect_bitwise_equal(plain, traced);
  // And the traced run actually recorded incumbent timelines + restart spans.
  EXPECT_FALSE(rec.samples().empty());
  EXPECT_FALSE(rec.spans().empty());

  // The recorded timelines support the convergence metrics end to end.
  ConvergenceConfig config;
  config.target_objective =
      lrp::objective_target_for_imbalance(problem, 10.0);  // generous target
  const ConvergenceReport report =
      ConvergenceDiagnostics(config).analyze(rec);
  EXPECT_GT(report.samples_seen, 0u);
  EXPECT_TRUE(report.reached_feasible());
  EXPECT_TRUE(report.reached_target());
  EXPECT_LE(report.time_to_first_feasible_ms, report.time_to_target_ms);
}

TEST(Convergence, TracedSolveIsBitwiseIdentical_QCQM2) {
  const lrp::LrpProblem problem = skewed_problem();
  const lrp::LrpCqm model =
      lrp::build_lrp_cqm(problem, lrp::CqmVariant::kFull, 8, {});

  const anneal::HybridSolveResult plain =
      anneal::HybridCqmSolver(contract_params()).solve(model.cqm());

  anneal::HybridSolverParams traced_params = contract_params();
  Recorder rec("contract-qcqm2", 8);
  traced_params.recorder = &rec;
  const anneal::HybridSolveResult traced =
      anneal::HybridCqmSolver(traced_params).solve(model.cqm());

  expect_bitwise_equal(plain, traced);
  EXPECT_FALSE(rec.samples().empty());
}

// One attach point: a registry solve handed only `recorder` records the LRP
// layer's spans and claims its restart rows from that recorder.
TEST(Recorder, RegistrySolveRecordsEveryLayer) {
  const lrp::LrpProblem problem = skewed_problem();
  constexpr std::size_t kRestarts = 3;
  Recorder rec("registry-qcqm1", 5);
  const auto solver = lrp::make_solver({.name = "qcqm1",
                                        .k = 8,
                                        .sweeps = 200,
                                        .restarts = kRestarts,
                                        .recorder = &rec},
                                       problem);
  EXPECT_TRUE(solver->solve(problem).feasible);

  const io::JsonValue doc = io::JsonValue::parse(to_perfetto_json(rec));
  const io::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t builds = 0, repairs = 0;
  std::multiset<double> restart_tids;
  for (const io::JsonValue& event : events->as_array()) {
    if (event.string_or("ph", "") != "X") continue;
    const std::string name = event.string_or("name", "");
    if (name == "cqm-build") ++builds;
    if (name == "decode-and-repair") ++repairs;
    if (name == "restart") restart_tids.insert(event.number_or("tid", -1.0));
  }
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(repairs, 1u);
  const std::multiset<double> expected = {1.0, 2.0, 3.0};
  EXPECT_EQ(restart_tids, expected);
}

// Every portfolio member, the tempered restart included, records the paired
// energy/violation timeline, so the analysis sees points from every track.
TEST(Convergence, TemperedRestartTrackContributesPoints) {
  const workloads::SamoaWorkload workload = workloads::make_samoa_workload();
  const lrp::KSelection ks = lrp::select_k(workload.problem);
  struct Case {
    lrp::CqmVariant variant;
    std::int64_t k;
  };
  for (const Case c : {Case{lrp::CqmVariant::kReduced, ks.k1},
                       Case{lrp::CqmVariant::kFull, ks.k2}}) {
    SCOPED_TRACE(c.variant == lrp::CqmVariant::kReduced ? "Q_CQM1_k1"
                                                         : "Q_CQM2_k2");
    const lrp::LrpCqm model =
        lrp::build_lrp_cqm(workload.problem, c.variant, c.k, {});
    Recorder rec("table5");
    anneal::HybridSolverParams params;
    params.seed = 1;
    params.sweeps = 40;
    params.num_restarts = 3;
    params.threads = 1;
    params.recorder = &rec;
    anneal::HybridCqmSolver(params).solve(model.cqm());

    bool tempered = false;
    for (const auto& [track, label] : rec.track_names()) {
      if (label.find("(tempering)") != std::string::npos) tempered = true;
    }
    ASSERT_TRUE(tempered);

    std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> points;
    for (const TraceSample& s : rec.samples()) {
      if (s.series == "incumbent_energy") ++points[s.track].first;
      if (s.series == "incumbent_violation") ++points[s.track].second;
    }
    ASSERT_EQ(points.size(), params.num_restarts);
    std::size_t total = 0;
    for (const auto& [track, counts] : points) {
      SCOPED_TRACE("track " + std::to_string(track));
      EXPECT_GT(counts.first, 0u);
      EXPECT_EQ(counts.second, counts.first);
      total += counts.first;
    }
    const ConvergenceReport report = ConvergenceDiagnostics().analyze(rec);
    EXPECT_EQ(report.tracks_seen, params.num_restarts);
    EXPECT_EQ(report.samples_seen, total);
  }
}

// A solve that presolve leaves small runs the exhaustive Gray-code walk
// instead of the sampling portfolio; it still records the incumbent it
// returns, so the analysis reports when the solve first held a feasible plan.
TEST(Convergence, ExhaustiveSolveReportsFirstFeasible) {
  const lrp::LrpProblem problem({9, 2, 1}, {6, 6, 6});
  Recorder rec("exhaustive-qcqm1");
  const auto solver = lrp::make_solver(
      {.name = "qcqm1", .k = 4, .sweeps = 200, .restarts = 3, .recorder = &rec},
      problem);
  EXPECT_TRUE(solver->solve(problem).feasible);

  bool enumerated = false;
  for (const TraceSpan& span : rec.spans()) {
    if (span.name == "exhaustive-enum") enumerated = true;
  }
  ASSERT_TRUE(enumerated);

  const ConvergenceReport report = ConvergenceDiagnostics().analyze(rec);
  EXPECT_GE(report.samples_seen, 1u);
  EXPECT_TRUE(report.reached_feasible());
  EXPECT_GE(report.time_to_first_feasible_ms, 0.0);
}

TEST(Convergence, ObjectiveTargetMapsImbalanceConservatively) {
  const lrp::LrpProblem problem = skewed_problem();
  const double target = lrp::objective_target_for_imbalance(problem, 0.1);
  const double avg = problem.average_load();
  EXPECT_DOUBLE_EQ(target, (0.1 * avg) * (0.1 * avg));
  // Negative thresholds clamp to 0 rather than going negative-squared.
  EXPECT_DOUBLE_EQ(lrp::objective_target_for_imbalance(problem, -1.0), 0.0);
}

// -------------------------------------------------------------- event log ---

TEST(EventLog, JsonLineOmitsUnsetFields) {
  SolveEvent event;
  event.source = "qulrb_solve";
  event.request_id = 3;
  event.solver = "Q_CQM1";
  event.outcome = "ok";
  event.feasible = true;
  event.r_imb_before = 2.5;
  // r_imb_after, speedup, runtime_ms... left NaN; migrated left -1.

  const std::string line = to_json_line(event);
  const io::JsonValue doc = io::JsonValue::parse(line);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("source", ""), "qulrb_solve");
  EXPECT_EQ(doc.int_or("request_id", -1), 3);
  EXPECT_DOUBLE_EQ(doc.number_or("r_imb_before", -1.0), 2.5);
  EXPECT_EQ(doc.find("r_imb_after"), nullptr);
  EXPECT_EQ(doc.find("speedup"), nullptr);
  EXPECT_EQ(doc.find("migrated"), nullptr);
  EXPECT_EQ(doc.find("time_to_target_ms"), nullptr);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(EventLog, AppendsParsableLines) {
  const std::string path = testing::TempDir() + "qulrb_test_events.jsonl";
  std::remove(path.c_str());
  {
    EventLog log(path, /*append=*/false);
    SolveEvent event;
    event.source = "test";
    event.solver = "greedy";
    event.outcome = "ok";
    event.extra.emplace_back("note", "a \"quoted\" value");
    log.log(event);
    event.request_id = 2;
    log.log(event);
    EXPECT_EQ(log.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const io::JsonValue doc = io::JsonValue::parse(line);  // throws if broken
    EXPECT_EQ(doc.string_or("source", ""), "test");
    EXPECT_EQ(doc.string_or("note", ""), "a \"quoted\" value");
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qulrb::obs
