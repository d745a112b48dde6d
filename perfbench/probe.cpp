// In-process half of the end-to-end benchmark (perfbench/run.py drives it).
//
//   perfbench_probe samoa seed=N trace=0|1 [out=DIR]
//   perfbench_probe cold  seed=N seconds=S trace=0|1 [out=DIR]
//   perfbench_probe fleet-step port=P rate=R seconds=S seed=N seq0=Q
//                    [window=W] [trace=0|1] [out=DIR]
//
// Each mode prints one JSON object on stdout: {"metrics":{...},"checks":[...],
// "info":{...}}. Metrics carry the names run.py reports; "checks" lists every
// output check that failed (empty when all passed). The probe times calls
// into the library's public functions from outside and adds nothing to it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anneal/hybrid.hpp"
#include "io/json.hpp"
#include "io/json_value.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/metrics.hpp"
#include "lrp/quantum_solver.hpp"
#include "lrp/registry.hpp"
#include "model/presolve.hpp"
#include "obs/convergence.hpp"
#include "obs/recorder.hpp"
#include "service/protocol.hpp"
#include "service/rebalance_service.hpp"
#include "util/rng.hpp"
#include "workloads/samoa.hpp"

namespace {

using namespace qulrb;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time used so far by all of this process's threads.
double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// key=value command-line arguments.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("bad argument " + arg);
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stod(it->second);
  }
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stoull(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Continued fraction of the regularized incomplete beta function (modified
/// Lentz), valid for x < (a + 1) / (a + b + 2).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    if (std::abs(d * c - 1.0) < 1e-13) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double beta_inc(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

/// Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
/// order statistics around rank q*n. Unlike a single order statistic it moves
/// smoothly when a tail is two-humped (a few slow requests more or fewer
/// no longer flip p99 between the humps). 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upto = beta_inc(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * v[i];
    below = upto;
  }
  return estimate;
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The benchmark's own spans: one per call into a layer, with the span that
/// caused it. Kept in memory, written as a Chrome trace when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  double now_ms() const { return ms_between(t0_, Clock::now()); }

  int add(std::string name, int parent, double start_ms, double end_ms) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), parent, start_ms, end_ms});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(std::string name, int parent = -1) {
    return add(std::move(name), parent, now_ms(), -1.0);
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now_ms();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ms = t;
  }

  /// Sum over root spans of (duration - time covered by direct children):
  /// the part of the end-to-end time no named stage accounts for.
  double unattributed_ms() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
    double rest = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) rest += (spans_[i].end_ms - spans_[i].start_ms) - child_ms[i];
    }
    return rest;
  }

  void write_chrome_trace(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    io::JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int depth = 0;
      for (int p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) ++depth;
      w.begin_object();
      w.field("name", s.name).field("ph", "X").field("pid", 1).field("tid", depth);
      w.field("ts", s.start_ms * 1e3).field("dur", (s.end_ms - s.start_ms) * 1e3);
      w.key("args").begin_object().field("id", i).field("parent", s.parent).end_object();
      w.end_object();
    }
    w.end_array().end_object();
    std::ofstream(path) << w.str() << "\n";
  }

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Collects metrics, informational values and failed output checks, and
/// prints them as the mode's one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  void info(const std::string& name, const std::string& value) { info_[name] = value; }
  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (checks_.size() < 20) checks_.push_back(why);
    ++failed_checks_;
  }
  std::size_t failed_checks() const { return failed_checks_; }

  void print() const {
    io::JsonWriter w;
    w.begin_object().key("metrics").begin_object();
    for (const auto& [k, v] : metrics_) w.field(k, v);
    w.end_object().key("checks").begin_array();
    for (const std::string& c : checks_) w.value(c);
    w.end_array().key("info").begin_object();
    for (const auto& [k, v] : info_) w.field(k, v);
    w.end_object().end_object();
    std::cout << w.str() << std::endl;
  }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;
  std::mutex mutex_;
  std::vector<std::string> checks_;
  std::size_t failed_checks_ = 0;
};

/// A plan as the M x M row-major count matrix x[to * M + from].
struct PlanView {
  std::size_t m = 0;
  std::vector<std::int64_t> x;
};

PlanView view_of(const lrp::MigrationPlan& plan) {
  PlanView v{plan.num_processes(), {}};
  v.x.reserve(v.m * v.m);
  for (std::size_t i = 0; i < v.m; ++i) {
    for (std::size_t j = 0; j < v.m; ++j) v.x.push_back(plan.count(i, j));
  }
  return v;
}

/// L_max / L_avg of the loads the plan produces, recomputed here from the
/// plan and the task loads (not from the library's evaluation).
double lmax_over_lavg(const PlanView& plan, const std::vector<double>& w) {
  double total = 0.0;
  double lmax = 0.0;
  for (std::size_t i = 0; i < plan.m; ++i) {
    double load = 0.0;
    for (std::size_t j = 0; j < plan.m; ++j) {
      load += w[j] * static_cast<double>(plan.x[i * plan.m + j]);
    }
    total += load;
    lmax = std::max(lmax, load);
  }
  return lmax / (total / static_cast<double>(plan.m));
}

/// The benchmark's output checks on one plan. Returns "" when all pass.
std::string check_plan(const PlanView& plan, const std::vector<double>& w,
                       const std::vector<std::int64_t>& n, std::int64_t k,
                       double reported_r_imb) {
  if (plan.m != n.size() || plan.x.size() != plan.m * plan.m) return "plan shape";
  std::int64_t migrated = 0;
  for (std::size_t j = 0; j < plan.m; ++j) {
    std::int64_t column = 0;
    for (std::size_t i = 0; i < plan.m; ++i) {
      const std::int64_t c = plan.x[i * plan.m + j];
      if (c < 0) return "negative count";
      column += c;
      if (i != j) migrated += c;
    }
    if (column != n[j]) return "column " + std::to_string(j) + " does not sum to n_j";
  }
  if (migrated > k) {
    return "migrations " + std::to_string(migrated) + " exceed k=" + std::to_string(k);
  }
  const double r_imb = lmax_over_lavg(plan, w) - 1.0;
  if (std::abs(r_imb - reported_r_imb) > 1e-9 * std::max(1.0, std::abs(r_imb))) {
    return "reported R_imb differs from the plan's";
  }
  return "";
}

std::string digest(const PlanView& plan) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const std::int64_t c : plan.x) {
    auto u = static_cast<std::uint64_t>(c);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::int64_t migrations(const PlanView& plan) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < plan.m; ++i) {
    for (std::size_t j = 0; j < plan.m; ++j) {
      if (i != j) total += plan.x[i * plan.m + j];
    }
  }
  return total;
}

/// Set-ups per run of paper-samoa and serve-cold; setup_s is their median.
/// (serve-fleet's set-up is run.py's SETUP_REPEATS fleet starts.)
constexpr std::size_t kSetups = 9;

/// One Q_* solve split at its layer boundaries, in the order a quantum
/// solver from lrp::make_solver runs them: build_lrp_cqm, presolve,
/// HybridCqmSolver::solve given the presolve result, decode + repair_plan.
struct SplitSolve {
  lrp::MigrationPlan plan;
  bool repaired = false;
  anneal::HybridSolveStats stats;
  double build_ms = 0.0, presolve_ms = 0.0, hybrid_ms = 0.0, decode_repair_ms = 0.0;
  double flips_per_s = 0.0;  ///< sweeps x variables x restarts_used / hybrid time
};

/// Runs the split solve, with one child span of `root` per stage.
SplitSolve split_solve(const lrp::LrpProblem& problem, lrp::CqmVariant variant,
                       std::int64_t k, anneal::HybridSolverParams params, SpanLog& spans,
                       int root) {
  auto open = [&](const char* name) { return spans.open(name, root); };
  auto close = [&](int id) { spans.close(id); };
  const auto a = Clock::now();
  int sp = open("lrp.build");
  const lrp::LrpCqm lrp_cqm = lrp::build_lrp_cqm(problem, variant, k);
  close(sp);
  const auto b = Clock::now();
  sp = open("model.presolve");
  const model::PresolveResult pre = model::presolve(lrp_cqm.cqm());
  close(sp);
  const auto c = Clock::now();
  params.reuse_presolve = &pre;
  sp = open("anneal.hybrid");
  const anneal::HybridSolveResult result = anneal::HybridCqmSolver(params).solve(lrp_cqm.cqm());
  close(sp);
  const auto d = Clock::now();
  sp = open("lrp.decode_repair");
  lrp::MigrationPlan plan = lrp_cqm.decode(result.best.state);
  const bool repaired = lrp::repair_plan(problem, plan);
  close(sp);
  const auto e = Clock::now();
  const double hybrid_ms = ms_between(c, d);
  const double flips = static_cast<double>(params.sweeps * result.stats.num_variables *
                                           result.stats.restarts_used);
  return {std::move(plan), repaired,         result.stats,
          ms_between(a, b), ms_between(b, c), hybrid_ms,
          ms_between(d, e), flips / (hybrid_ms / 1e3)};
}

/// The per-layer metrics of a set of split solves: medians per solve, and
/// the number of plans repair_plan had to fix.
void report_split(Report& report, const std::vector<SplitSolve>& splits) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const SplitSolve& s : splits) v.push_back(static_cast<double>(field(s)));
    return median(v);
  };
  report.metric("lrp.build_ms", med([](const SplitSolve& s) { return s.build_ms; }));
  report.metric("model.presolve_ms", med([](const SplitSolve& s) { return s.presolve_ms; }));
  report.metric("model.presolve_fixed",
                med([](const SplitSolve& s) { return s.stats.presolve_fixed; }));
  report.metric("anneal.hybrid_ms", med([](const SplitSolve& s) { return s.hybrid_ms; }));
  report.metric("lrp.decode_repair_ms",
                med([](const SplitSolve& s) { return s.decode_repair_ms; }));
  report.metric("anneal.flips_per_s", med([](const SplitSolve& s) { return s.flips_per_s; }));
  report.metric("anneal.restarts_used",
                med([](const SplitSolve& s) { return s.stats.restarts_used; }));
  report.metric("anneal.penalty_rounds_used",
                med([](const SplitSolve& s) { return s.stats.penalty_rounds_used; }));
  report.metric("anneal.replica_lanes",
                med([](const SplitSolve& s) { return s.stats.replica_lanes; }));
  double repaired = 0.0;
  for (const SplitSolve& s : splits) repaired += s.repaired ? 1.0 : 0.0;
  report.metric("lrp.plan_repaired", repaired);
}

// ---------------------------------------------------------------------------
// paper-samoa: the Table V instance, classical baselines, then Q_CQM1_k1 and
// Q_CQM2_k2 through lrp::make_solver at the registry defaults.

struct Baseline {
  std::string label;  ///< classical method name
  double lmax = 0.0;
  std::int64_t migrations = 0;
};

/// Tracing overhead: Q_CQM1_k1 on the Table V instance, traced and untraced
/// in pairs, at a sweep budget that fits the pairs into the traced run.
constexpr std::size_t kOverheadPairs = 6;
constexpr std::size_t kOverheadSweeps = 200;

struct QCase {
  const char* label;
  const char* solver;
  lrp::CqmVariant variant;
  std::int64_t k;
  Baseline baseline;  ///< the classical plan the k came from
};

int run_samoa(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const bool trace = args.u64("trace", 0) != 0;
  const std::string out_dir = args.str("out", "");

  Report report;
  SpanLog spans(trace);

  // --- set-up, repeated: instance, select_k, classical solves --------------
  std::vector<double> setup_ms, instance_ms, kselect_ms;
  std::map<std::string, std::vector<double>> classical_ms;
  std::unique_ptr<workloads::SamoaWorkload> wl;
  lrp::KSelection ks;
  std::map<std::string, Baseline> baselines;
  for (std::size_t s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    const int root = spans.open("setup");
    int sp = spans.open("workloads.instance", root);
    wl = std::make_unique<workloads::SamoaWorkload>(workloads::make_samoa_workload());
    spans.close(sp);
    const auto t1 = Clock::now();
    sp = spans.open("lrp.select_k", root);
    ks = lrp::select_k(wl->problem);
    spans.close(sp);
    const auto t2 = Clock::now();
    for (const char* name : {"proactlb", "greedy", "kk"}) {
      lrp::SolverSpec spec;
      spec.name = name;
      auto solver = lrp::make_solver(spec, wl->problem);
      sp = spans.open(std::string("classical.") + name, root);
      const auto a = Clock::now();
      const lrp::SolveOutput out = solver->solve(wl->problem);
      classical_ms[name].push_back(ms_between(a, Clock::now()));
      spans.close(sp);
      const PlanView plan = view_of(out.plan);
      const lrp::RebalanceMetrics m = lrp::evaluate_plan(wl->problem, out.plan);
      const std::string bad = check_plan(plan, wl->problem.task_loads(),
                                         wl->problem.task_counts(),
                                         std::numeric_limits<std::int64_t>::max(),
                                         m.imbalance_after);
      if (!bad.empty()) report.fail(std::string(name) + ": " + bad);
      baselines[name] = {name, lmax_over_lavg(plan, wl->problem.task_loads()),
                         migrations(plan)};
    }
    spans.close(root);
    instance_ms.push_back(ms_between(t0, t1));
    kselect_ms.push_back(ms_between(t1, t2));
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  const lrp::LrpProblem& problem = wl->problem;
  if (ks.k1 != baselines["proactlb"].migrations || ks.k2 != baselines["greedy"].migrations) {
    report.fail("select_k disagrees with the classical plans' migration counts");
  }

  report.metric("setup_s", median(setup_ms) / 1e3);
  report.metric("workloads.instance_ms", median(instance_ms));
  report.metric("lrp.select_k_ms", median(kselect_ms));
  for (const char* name : {"proactlb", "greedy", "kk"}) {
    report.metric(std::string("classical.") + name + "_ms", median(classical_ms[name]));
  }
  for (const char* name : {"proactlb", "greedy"}) {
    report.metric(std::string("classical.") + name + ".lmax_over_lavg", baselines[name].lmax);
    report.metric(std::string("classical.") + name + ".migrations",
                  static_cast<double>(baselines[name].migrations));
  }

  const std::vector<QCase> cases = {
      {"q_cqm1_k1", "qcqm1", lrp::CqmVariant::kReduced, ks.k1, baselines["proactlb"]},
      {"q_cqm2_k2", "qcqm2", lrp::CqmVariant::kFull, ks.k2, baselines["greedy"]},
  };

  std::size_t attempted = 0;
  std::size_t bad_solves = 0;
  // Checks one returned plan and records its quality; returns L_max/L_avg.
  auto judge = [&](const QCase& c, const lrp::MigrationPlan& plan_out) {
    const PlanView plan = view_of(plan_out);
    const lrp::RebalanceMetrics m = lrp::evaluate_plan(problem, plan_out);
    const std::string bad = check_plan(plan, problem.task_loads(), problem.task_counts(),
                                       c.k, m.imbalance_after);
    if (!bad.empty()) {
      report.fail(std::string(c.label) + ": " + bad);
      ++bad_solves;
    }
    const double lmax = lmax_over_lavg(plan, problem.task_loads());
    const std::string prefix = std::string(c.label) + ".";
    report.metric(prefix + "lmax_over_lavg", lmax);
    report.metric("lrp.migrations." + std::string(c.label),
                  static_cast<double>(migrations(plan)));
    report.metric("lrp.beats_baseline." + std::string(c.label),
                  lmax <= c.baseline.lmax ? 1.0 : 0.0);
    report.info(prefix + "digest", digest(plan));
    report.info(prefix + "baseline", c.baseline.label);
    return lmax;
  };

  std::vector<double> solve_ms_all, lmax_all;
  if (!trace) {
    // One timed solve per case, through the registry, as a user calls it.
    for (const QCase& c : cases) {
      lrp::SolverSpec spec;
      spec.name = c.solver;
      spec.k = c.k;
      spec.seed = seed;
      auto solver = lrp::make_solver(spec, problem);
      const auto a = Clock::now();
      const lrp::SolveOutput out = solver->solve(problem);
      const double ms = ms_between(a, Clock::now());
      ++attempted;
      if (!out.feasible) report.info(std::string(c.label) + ".sample", "infeasible, repaired");
      solve_ms_all.push_back(ms);
      report.metric(std::string(c.label) + ".solve_s", ms / 1e3);
      lmax_all.push_back(judge(c, out.plan));
    }
  } else {
    // Traced pass: the same solve, split at its layer boundaries, with the
    // solver's own recorder attached for the convergence analysis.
    std::vector<SplitSolve> splits;
    std::vector<double> eval_ms;
    for (const QCase& c : cases) {
      const int root = spans.open(std::string("solve.") + c.label);
      obs::Recorder recorder(c.label);
      anneal::HybridSolverParams params;  // as lrp::make_solver sets them
      params.seed = seed;
      params.sweeps = lrp::SolverSpec{}.sweeps;
      params.num_restarts = lrp::SolverSpec{}.restarts;
      params.recorder = &recorder;
      const auto a = Clock::now();
      splits.push_back(split_solve(problem, c.variant, c.k, params, spans, root));
      const auto b = Clock::now();
      const int sp = spans.open("lrp.evaluate", root);
      ++attempted;
      lmax_all.push_back(judge(c, splits.back().plan));
      spans.close(sp);
      const auto e = Clock::now();
      spans.close(root);
      eval_ms.push_back(ms_between(b, e));
      solve_ms_all.push_back(ms_between(a, e));
      report.metric(std::string(c.label) + ".solve_s", ms_between(a, e) / 1e3);

      // Time to first feasible and to the baseline's quality.
      obs::ConvergenceConfig cfg;
      cfg.target_objective =
          lrp::objective_target_for_imbalance(problem, c.baseline.lmax - 1.0);
      const obs::ConvergenceReport conv = obs::ConvergenceDiagnostics(cfg).analyze(recorder);
      report.metric(std::string("anneal.ttff_ms.") + c.label, conv.time_to_first_feasible_ms);
      report.metric(std::string("anneal.ttt_ms.") + c.label, conv.time_to_target_ms);
      report.info(std::string("anneal.ttt.") + c.label,
                  conv.reached_target() ? "reached" : "not reached");
    }
    report_split(report, splits);
    report.metric("lrp.evaluate_ms", median(eval_ms));

    // Tracing overhead on the production path: Q_CQM1_k1 solves through
    // make_solver with and without the solver's recorder, in pairs ordered
    // on/off, off/on, ... so drift cancels; the median of the pairs' ratios
    // of process CPU time (all the solver's threads).
    std::vector<double> ratios;
    for (std::size_t p = 0; p < kOverheadPairs; ++p) {
      double cpu_ms[2] = {0.0, 0.0};  // [untraced, traced]
      for (int i = 0; i < 2; ++i) {
        const bool traced = (i == 0) == (p % 2 == 0);
        obs::Recorder recorder("overhead");
        lrp::SolverSpec spec;
        spec.name = "qcqm1";
        spec.k = ks.k1;
        spec.seed = seed;
        spec.sweeps = kOverheadSweeps;
        spec.recorder = traced ? &recorder : nullptr;
        auto solver = lrp::make_solver(spec, problem);
        const double a = process_cpu_ms();
        solver->solve(problem);
        cpu_ms[traced ? 1 : 0] = process_cpu_ms() - a;
      }
      ratios.push_back(cpu_ms[1] / cpu_ms[0]);
    }
    report.metric("obs.trace_overhead_pct", (median(ratios) - 1.0) * 100.0);
    report.metric("unattributed_ms", spans.unattributed_ms());
  }

  report.metric("p50_ms", median(solve_ms_all));
  report.metric("p90_ms", quantile(solve_ms_all, 0.90));
  report.metric("p99_ms", quantile(solve_ms_all, 0.99));
  double total_s = 0.0;
  for (double ms : solve_ms_all) total_s += ms / 1e3;
  report.metric("capacity_rps", static_cast<double>(solve_ms_all.size()) / total_s);
  report.metric("answer_lmax_over_lavg", median(lmax_all));
  report.metric("attempted", static_cast<double>(attempted));
  report.metric("ok", static_cast<double>(attempted - bad_solves));
  report.metric("checks_failed", static_cast<double>(report.failed_checks()));
  report.info("k1", std::to_string(ks.k1));
  report.info("k2", std::to_string(ks.k2));
  spans.write_chrome_trace(out_dir.empty() ? "" : out_dir + "/spans.json");
  report.print();
  return 0;
}

// ---------------------------------------------------------------------------
// Request streams shared by the serving workloads. Inputs depend only on
// (seed, seq): Zipf(s) topology over a 16-member universe (a member bumps one
// process's task count, so each member is its own session-cache key), a
// load vector drawn fresh per request (so no two requests are exact hits) and
// a solver seed per request (so the anneals are independent and a median over
// the answers averages their noise out).

constexpr std::size_t kTopologies = 16;

std::size_t zipf_topology(double s, util::Rng& rng) {
  double total = 0.0;
  std::vector<double> cdf(kTopologies);
  for (std::size_t r = 0; r < kTopologies; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  const double u = rng.next_double() * total;
  for (std::size_t r = 0; r < kTopologies; ++r) {
    if (u <= cdf[r]) return r;
  }
  return kTopologies - 1;
}

/// Loads on a 1/1000 grid, so the wire's decimal form is exact.
double grid(double x) { return std::round(x * 1000.0) / 1000.0; }

service::RebalanceRequest make_request(std::uint64_t seed, std::uint64_t seq, std::size_t m,
                                       std::int64_t n, std::int64_t k, std::size_t sweeps,
                                       std::size_t restarts, double zipf_s) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + seq * 0xD1B54A32D192ED03ULL + 1);
  service::RebalanceRequest r;
  const std::size_t topo = zipf_topology(zipf_s, rng);
  r.task_counts.assign(m, n);
  r.task_counts[topo % m] += 1 + static_cast<std::int64_t>(topo / m);
  r.task_loads.resize(m);
  for (double& w : r.task_loads) w = grid(1.0 + rng.next_double());
  r.task_loads[rng.next_below(m)] = grid(4.0 + 4.0 * rng.next_double());  // hot process
  r.variant = lrp::CqmVariant::kReduced;
  r.k = k;
  r.hybrid.sweeps = sweeps;
  r.hybrid.num_restarts = restarts;
  r.hybrid.seed = rng.next_u64();
  return r;
}

struct Served {
  double latency_ms = 0.0;  ///< client view: from due (or submit) to answer
  double lag_ms = 0.0;      ///< open loop: send time - due time
  double rtt_ms = 0.0;      ///< open loop: send -> receive
  double queue_ms = 0.0, solve_ms = 0.0, total_ms = 0.0;
  double lmax = 0.0;
  int cache = 0;  ///< 0 miss, 1 retarget, 2 exact
  bool ok = false;
};

struct ServedSummary {
  std::vector<double> latency, lag, queue, solve, front, overhead, lmax;
  std::map<int, std::vector<double>> solve_by_cache;
  std::size_t ok = 0;
};

ServedSummary summarize(const std::vector<Served>& all) {
  ServedSummary s;
  for (const Served& r : all) {
    if (!r.ok) continue;
    ++s.ok;
    s.latency.push_back(r.latency_ms);
    s.lag.push_back(r.lag_ms);
    s.queue.push_back(r.queue_ms);
    s.solve.push_back(r.solve_ms);
    s.front.push_back(r.rtt_ms - r.total_ms);
    s.overhead.push_back(r.total_ms - r.queue_ms - r.solve_ms);
    s.lmax.push_back(r.lmax);
    s.solve_by_cache[r.cache].push_back(r.solve_ms);
  }
  return s;
}

void report_service_split(Report& report, const ServedSummary& s) {
  report.metric("service.queue_ms.p50", quantile(s.queue, 0.5));
  report.metric("service.queue_ms.p99", quantile(s.queue, 0.99));
  report.metric("service.solve_ms.p99", quantile(s.solve, 0.99));
  report.metric("service.solve_ms.miss.p50", median(s.solve_by_cache.count(0) ? s.solve_by_cache.at(0) : std::vector<double>{}));
  report.metric("service.solve_ms.retarget.p50", median(s.solve_by_cache.count(1) ? s.solve_by_cache.at(1) : std::vector<double>{}));
  report.metric("service.solve_ms.exact.p50", median(s.solve_by_cache.count(2) ? s.solve_by_cache.at(2) : std::vector<double>{}));
  report.metric("service.backend_overhead_ms.p50", quantile(s.overhead, 0.5));
  report.metric("service.backend_overhead_ms.p99", quantile(s.overhead, 0.99));
}

// ---------------------------------------------------------------------------
// serve-cold: an in-process RebalanceService, 2 workers, driven closed-loop by
// 2 callers that each wait for their plan (load-balancing loops). M=32, n=100 models
// under a cache smaller than the topology universe: cold builds and retargets.

constexpr std::size_t kColdM = 32;
constexpr std::int64_t kColdN = 100;
constexpr std::int64_t kColdK = 400;
constexpr std::size_t kColdSweeps = 20;
constexpr std::size_t kColdRestarts = 1;
constexpr double kColdZipf = 1.1;
constexpr std::size_t kColdStream = 4096;  ///< requests generated at set-up

service::RebalanceRequest cold_request(std::uint64_t seed, std::uint64_t seq) {
  return make_request(seed, seq, kColdM, kColdN, kColdK, kColdSweeps, kColdRestarts, kColdZipf);
}

int run_cold(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const double seconds = args.num("seconds", 10.0);
  const bool trace = args.u64("trace", 0) != 0;
  const std::string out_dir = args.str("out", "");
  constexpr std::size_t kCallers = 2;

  Report report;
  SpanLog spans(trace);
  service::ServiceParams params;
  params.num_workers = 2;
  params.cache_capacity = 4;
  params.solver_threads = 1;

  // Set-up, repeated: the callers' request stream and a fresh service.
  std::vector<double> setup_ms;
  std::unique_ptr<service::RebalanceService> svc;
  std::vector<service::RebalanceRequest> stream;
  for (std::size_t s = 0; s < kSetups; ++s) {
    svc.reset();
    const auto t0 = Clock::now();
    const int sp = spans.open("setup");
    stream.clear();
    for (std::uint64_t seq = 0; seq < kColdStream; ++seq) stream.push_back(cold_request(seed, seq));
    svc = std::make_unique<service::RebalanceService>(params);
    spans.close(sp);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  report.metric("setup_s", median(setup_ms) / 1e3);

  std::vector<std::vector<Served>> per_caller(kCallers);
  const auto start = Clock::now();
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::uint64_t seq = c;
           seq < stream.size() && ms_between(start, Clock::now()) < seconds * 1e3;
           seq += kCallers) {
        service::RebalanceRequest req = stream[seq];
        const std::vector<double> w = req.task_loads;
        const std::vector<std::int64_t> n = req.task_counts;
        const int root = spans.open("request");
        const auto a = Clock::now();
        const service::RebalanceResponse resp = svc->submit(std::move(req)).get();
        const double lat = ms_between(a, Clock::now());
        spans.close(root);
        Served r;
        r.latency_ms = lat;
        r.rtt_ms = lat;
        r.queue_ms = resp.queue_ms;
        r.solve_ms = resp.solve_ms;
        r.total_ms = resp.total_ms;
        r.cache = !resp.cache_hit ? 0 : resp.cache_retargeted ? 1 : 2;
        if (resp.outcome == service::RequestOutcome::kOk && resp.plan.has_value()) {
          const PlanView plan = view_of(*resp.plan);
          const std::string bad = check_plan(plan, w, n, kColdK, resp.metrics.imbalance_after);
          if (bad.empty()) {
            r.ok = true;
            r.lmax = lmax_over_lavg(plan, w);
          } else {
            report.fail("serve-cold seq " + std::to_string(seq) + ": " + bad);
          }
          // The response's own queue/solve children of the request span.
          const double root_start = spans.now_ms() - lat;
          spans.add("service.queue", root, root_start, root_start + resp.queue_ms);
          spans.add("service.solve", root, root_start + resp.queue_ms,
                    root_start + resp.queue_ms + resp.solve_ms);
          spans.add("service.overhead", root, root_start + resp.queue_ms + resp.solve_ms,
                    root_start + resp.total_ms);
        }
        per_caller[c].push_back(r);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
  svc->drain();
  const service::ServiceStats stats = svc->stats();

  std::vector<Served> all;
  for (const auto& v : per_caller) all.insert(all.end(), v.begin(), v.end());
  const ServedSummary s = summarize(all);
  report.metric("p50_ms", quantile(s.latency, 0.5));
  report.metric("p90_ms", quantile(s.latency, 0.90));
  report.metric("p99_ms", quantile(s.latency, 0.99));
  report.metric("capacity_rps", static_cast<double>(s.ok) / elapsed_s);
  report.metric("answer_lmax_over_lavg", median(s.lmax));
  report.metric("attempted", static_cast<double>(all.size()));
  report.metric("ok", static_cast<double>(s.ok));
  if (stats.submitted != all.size() || stats.completed != s.ok + report.failed_checks()) {
    report.fail("service stats disagree with the callers' counts");
  }

  if (trace) {
    report_service_split(report, s);
    report.metric("service.cache.hit_rate", stats.cache_hit_rate);
    report.metric("service.cache.misses", static_cast<double>(stats.cache.misses));
    report.metric("service.cache.evictions", static_cast<double>(stats.cache.evictions));
    report.metric("service.rejected",
                  static_cast<double>(stats.rejected_queue_full + stats.rejected_deadline));
    report.metric("service.shed", static_cast<double>(stats.shed));
    report.metric("service.budget_expired", static_cast<double>(stats.budget_expired));
    report.metric("unattributed_ms", spans.unattributed_ms() / static_cast<double>(all.size()));

    // The layers under service.solve, timed by calling them directly on this
    // workload's own instances (what a cold build does inside checkout).
    std::vector<SplitSolve> splits;
    SpanLog untraced(false);  // outside the requests whose time the spans split
    for (std::uint64_t seq = 0; seq < 5; ++seq) {
      const service::RebalanceRequest req = cold_request(seed, 1000000 + seq);
      anneal::HybridSolverParams hp = req.hybrid;
      hp.threads = params.solver_threads;
      splits.push_back(split_solve(lrp::LrpProblem(req.task_loads, req.task_counts),
                                   req.variant, req.k, hp, untraced, -1));
    }
    report_split(report, splits);
  }
  report.metric("checks_failed", static_cast<double>(report.failed_checks()));
  spans.write_chrome_trace(out_dir.empty() ? "" : out_dir + "/spans.json");
  report.print();
  return 0;
}

// ---------------------------------------------------------------------------
// fleet-step: one step of the client against qulrb_router. C connections,
// each owned by one thread that sends and reads answers in between (poll).
// Open loop (window=0): each thread sends its share of a Poisson schedule at
// `rate` when due, so a stalled answer never delays a later send, and latency
// is timed from the due time. Closed loop (window=W): each connection keeps W
// requests in flight for `seconds`, which measures the fleet's capacity.

constexpr std::size_t kFleetM = 8;
constexpr std::int64_t kFleetN = 8;
constexpr std::int64_t kFleetK = 8;
constexpr std::size_t kFleetSweeps = 50;
constexpr std::size_t kFleetRestarts = 1;
constexpr double kFleetZipf = 1.1;
constexpr std::size_t kConnections = 4;  ///< one client thread each
constexpr double kDrainS = 5.0;  ///< how long a step waits for answers after its last send

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) + " failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_line(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Per connection. Every answer line lands in exactly one of ok, failed,
/// rejected, shed or invalid; lost counts the sent ids that never got one.
/// A duplicate or foreign answer is invalid, so it breaks the identity
/// sent = ok + failed + rejected + shed + lost + invalid.
struct StepCounts {
  std::size_t sent = 0, ok = 0, failed = 0, rejected = 0, shed = 0, lost = 0, invalid = 0;
  std::size_t backlog_end = 0;  ///< unanswered requests when the last send went out
};

int run_fleet_step(const Args& args) {
  const int port = static_cast<int>(args.u64("port", 0));
  const double rate = args.num("rate", 100.0);
  const double seconds = args.num("seconds", 2.0);
  const std::uint64_t seed = args.u64("seed", 1);
  const std::uint64_t seq0 = args.u64("seq0", 0);
  const std::size_t conns = kConnections;
  const bool trace = args.u64("trace", 0) != 0;
  const std::string out_dir = args.str("out", "");
  const std::size_t window = args.u64("window", 0);
  // Closed loop: `rate` only sizes the request pool (an upper bound).
  const auto total = static_cast<std::size_t>(std::llround(rate * seconds));

  Report report;
  std::vector<Served> served(total);
  std::vector<std::string> req_lines(total);
  std::vector<service::RebalanceRequest> reqs(total);
  for (std::size_t g = 0; g < total; ++g) {
    reqs[g] = make_request(seed, seq0 + g, kFleetM, kFleetN, kFleetK, kFleetSweeps,
                           kFleetRestarts, kFleetZipf);
    req_lines[g] = service::encode_solve_request(reqs[g], seq0 + g + 1, true) + "\n";
  }
  std::vector<std::string> resp_sample;  // for the io timings (trace only)
  std::mutex sample_mutex;

  std::vector<StepCounts> counts(conns);
  std::vector<int> fds;
  for (std::size_t c = 0; c < conns; ++c) fds.push_back(connect_local(port));
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  // Open loop: Poisson arrivals at `rate`, as from independent users. A
  // fixed spacing would lock the schedule's phase to the servers' timers.
  std::vector<Clock::time_point> due(total);
  util::Rng arrivals(seed * 0x9E3779B97F4A7C15ULL + seq0);
  double at_s = 0.0;
  for (std::size_t g = 0; g < total && window == 0; ++g) {
    due[g] = t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(at_s));
    at_s -= std::log(1.0 - arrivals.next_double()) / rate;
  }
  std::vector<Clock::time_point> last_answer(conns, t0);
  std::vector<char> answered(total, 0);  // written only by the id's own connection

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      StepCounts& k = counts[c];
      const int fd = fds[c];
      std::vector<Clock::time_point> sent_at(total);
      std::size_t next = c;  // next global index this connection sends
      std::size_t outstanding = 0;
      bool sending = true;
      std::string buf;
      Clock::time_point give_up = Clock::time_point::max();
      auto handle = [&](const std::string& line, Clock::time_point now) {
        io::JsonValue doc;
        try {
          doc = io::JsonValue::parse(line);
        } catch (const std::exception&) {
          ++k.invalid;
          report.fail("unparseable response line");
          return;
        }
        const std::int64_t id = doc.int_or("id", 0);
        if (id <= static_cast<std::int64_t>(seq0) ||
            id > static_cast<std::int64_t>(seq0 + total)) {
          ++k.invalid;
          report.fail("response with an unknown id");
          return;
        }
        const std::size_t g = static_cast<std::size_t>(id) - seq0 - 1;
        if (g % conns != c || g >= next) {
          ++k.invalid;
          report.fail("answer to id " + std::to_string(id) + ", not sent on this connection");
          return;
        }
        if (answered[g] != 0) {
          ++k.invalid;
          report.fail("second answer to id " + std::to_string(id));
          return;
        }
        answered[g] = 1;
        --outstanding;
        Served& r = served[g];
        last_answer[c] = now;
        r.latency_ms = ms_between(due[g], now);
        r.lag_ms = ms_between(due[g], sent_at[g]);
        r.rtt_ms = ms_between(sent_at[g], now);
        const std::string outcome = doc.string_or("outcome", "error");
        if (outcome == "rejected") { ++k.rejected; return; }
        if (outcome == "shed") { ++k.shed; return; }
        if (outcome != "ok") { ++k.failed; return; }
        r.queue_ms = doc.number_or("queue_ms", 0.0);
        r.solve_ms = doc.number_or("solve_ms", 0.0);
        r.total_ms = doc.number_or("total_ms", 0.0);
        const bool hit = doc.bool_or("cache_hit", false);
        r.cache = !hit ? 0 : doc.bool_or("retargeted", false) ? 1 : 2;
        PlanView plan{kFleetM, {}};
        if (const io::JsonValue* rows = doc.find("plan"); rows != nullptr && rows->is_array()) {
          for (const io::JsonValue& row : rows->as_array()) {
            for (const io::JsonValue& v : row.as_array()) plan.x.push_back(v.as_int());
          }
        }
        const std::string bad = check_plan(plan, reqs[g].task_loads, reqs[g].task_counts,
                                           kFleetK, doc.number_or("imbalance_after", -1.0));
        if (!bad.empty()) {
          ++k.invalid;
          report.fail("serve-fleet id " + std::to_string(id) + ": " + bad);
          return;
        }
        r.ok = true;
        r.lmax = lmax_over_lavg(plan, reqs[g].task_loads);
        ++k.ok;
        if (trace && g % 8 == 0) {
          std::lock_guard<std::mutex> lock(sample_mutex);
          resp_sample.push_back(line);
        }
      };
      auto stop_sending = [&] {
        sending = false;
        k.backlog_end = outstanding;
        give_up = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(kDrainS));
      };
      while (true) {
        const auto now = Clock::now();
        if (sending && window > 0 && now >= end) stop_sending();
        while (sending && (window == 0 ? due[next] <= now : outstanding < window)) {
          if (window > 0) due[next] = Clock::now();
          sent_at[next] = Clock::now();
          if (!send_line(fd, req_lines[next])) {
            report.fail("send failed");
            stop_sending();
            break;
          }
          ++k.sent;
          ++outstanding;
          next += conns;
          if (next >= total) stop_sending();
        }
        if (!sending && outstanding == 0) break;
        if (Clock::now() >= give_up) break;
        const auto wake = !sending ? give_up : window == 0 ? due[next] : end;
        const double wait_ms = std::max(0.0, ms_between(Clock::now(), wake));
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(std::ceil(wait_ms)));
        if (ready <= 0) continue;
        char chunk[65536];
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0) {
          report.fail("connection closed by the router");
          break;
        }
        const auto at = Clock::now();
        buf.append(chunk, static_cast<std::size_t>(got));
        for (std::size_t nl; (nl = buf.find('\n')) != std::string::npos;) {
          handle(buf.substr(0, nl), at);
          buf.erase(0, nl + 1);
        }
      }
      for (std::size_t g = c; g < next; g += conns) {
        if (answered[g] == 0) ++k.lost;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int fd : fds) ::close(fd);

  StepCounts sum;
  for (const StepCounts& k : counts) {
    sum.sent += k.sent;
    sum.ok += k.ok;
    sum.failed += k.failed;
    sum.rejected += k.rejected;
    sum.shed += k.shed;
    sum.lost += k.lost;
    sum.invalid += k.invalid;
    sum.backlog_end += k.backlog_end;
  }
  if (sum.sent != sum.ok + sum.failed + sum.rejected + sum.shed + sum.lost + sum.invalid) {
    report.fail("sent != ok + failed + rejected + shed + lost + invalid");
  }
  const ServedSummary s = summarize(served);
  // Generator lag over the first and second half of the schedule: a late
  // generator in the second half means the client, not the fleet, saturated.
  std::vector<double> lag_a, lag_b;
  for (std::size_t g = 0; g < total; ++g) {
    if (served[g].ok) (g < total / 2 ? lag_a : lag_b).push_back(served[g].lag_ms);
  }
  report.metric("rate", rate);
  report.metric("connections", static_cast<double>(conns));
  report.metric("sent", static_cast<double>(sum.sent));
  report.metric("ok", static_cast<double>(sum.ok));
  report.metric("failed", static_cast<double>(sum.failed));
  report.metric("rejected", static_cast<double>(sum.rejected));
  report.metric("shed", static_cast<double>(sum.shed));
  report.metric("lost", static_cast<double>(sum.lost));
  report.metric("invalid", static_cast<double>(sum.invalid));
  report.metric("backlog_end", static_cast<double>(sum.backlog_end));
  const auto last = *std::max_element(last_answer.begin(), last_answer.end());
  report.metric("completed_rps", static_cast<double>(sum.ok) / (ms_between(t0, last) / 1e3));
  report.metric("p50_ms", quantile(s.latency, 0.5));
  report.metric("p90_ms", quantile(s.latency, 0.90));
  report.metric("p99_ms", quantile(s.latency, 0.99));
  report.metric("lag_ms.p99", quantile(s.lag, 0.99));
  report.metric("lag_ms.p99_first_half", quantile(lag_a, 0.99));
  report.metric("lag_ms.p99_second_half", quantile(lag_b, 0.99));
  report.metric("answer_lmax_over_lavg", median(s.lmax));
  report.metric("router.front_ms.p50", quantile(s.front, 0.5));
  report.metric("router.front_ms.p99", quantile(s.front, 0.99));
  report.metric("checks_failed", static_cast<double>(report.failed_checks()));
  report_service_split(report, s);
  if (trace) {
    // The benchmark's spans per answered request: due -> answer, split into
    // the client's lag and the round trip, whose children are the response's
    // queue, solve and backend remainder plus the router's front. The wire
    // gives durations, not offsets, so the front is drawn half before and
    // half after the backend's interval.
    SpanLog spans(true);
    for (std::size_t g = 0; g < total; ++g) {
      const Served& r = served[g];
      if (!r.ok) continue;
      const double due_ms = ms_between(t0, due[g]);
      const double send_ms = due_ms + r.lag_ms;
      const double recv_ms = send_ms + r.rtt_ms;
      const int root = spans.add("request", -1, due_ms, recv_ms);
      spans.add("client.lag", root, due_ms, send_ms);
      const int trip = spans.add("round_trip", root, send_ms, recv_ms);
      const double b0 = send_ms + (r.rtt_ms - r.total_ms) / 2.0;
      spans.add("router.front", trip, send_ms, b0);
      spans.add("service.queue", trip, b0, b0 + r.queue_ms);
      spans.add("service.solve", trip, b0 + r.queue_ms, b0 + r.queue_ms + r.solve_ms);
      spans.add("service.overhead", trip, b0 + r.queue_ms + r.solve_ms, b0 + r.total_ms);
      spans.add("router.front", trip, b0 + r.total_ms, recv_ms);
    }
    report.metric("unattributed_ms",
                  s.ok ? spans.unattributed_ms() / static_cast<double>(s.ok) : 0.0);
    spans.write_chrome_trace(out_dir.empty() ? ""
                                             : out_dir + "/spans-" + std::to_string(seq0) + ".json");

    // The wire codec on this step's own lines.
    std::vector<double> parse_us, encode_us;
    for (std::size_t g = 0; g < total; g += 8) {
      const auto a = Clock::now();
      const service::ProtocolRequest parsed = service::parse_request_line(
          req_lines[g].substr(0, req_lines[g].size() - 1));
      parse_us.push_back(ms_between(a, Clock::now()) * 1e3);
      if (parsed.request.task_loads != reqs[g].task_loads) report.fail("request codec round trip");
    }
    for (const std::string& line : resp_sample) {
      const io::JsonValue doc = io::JsonValue::parse(line);
      service::RebalanceResponse resp;
      resp.outcome = service::RequestOutcome::kOk;
      lrp::MigrationPlan plan(kFleetM);
      std::size_t i = 0;
      for (const io::JsonValue& row : doc.find("plan")->as_array()) {
        std::size_t j = 0;
        for (const io::JsonValue& v : row.as_array()) plan.set_count(i, j++, v.as_int());
        ++i;
      }
      resp.plan = std::move(plan);
      resp.feasible = doc.bool_or("feasible", false);
      resp.cache_hit = doc.bool_or("cache_hit", false);
      resp.cache_retargeted = doc.bool_or("retargeted", false);
      resp.replica_lanes = static_cast<std::size_t>(doc.int_or("replicas", 0));
      resp.metrics.imbalance_before = doc.number_or("imbalance_before", 0.0);
      resp.metrics.imbalance_after = doc.number_or("imbalance_after", 0.0);
      resp.metrics.speedup = doc.number_or("speedup", 1.0);
      resp.metrics.total_migrated = doc.int_or("migrated", 0);
      resp.queue_ms = doc.number_or("queue_ms", 0.0);
      resp.solve_ms = doc.number_or("solve_ms", 0.0);
      resp.total_ms = doc.number_or("total_ms", 0.0);
      const auto a = Clock::now();
      const std::string out = service::encode_response(
          static_cast<std::uint64_t>(doc.int_or("id", 0)), resp, true);
      encode_us.push_back(ms_between(a, Clock::now()) * 1e3);
      if (out.empty()) report.fail("encode_response returned nothing");
    }
    report.metric("io.parse_request_us", median(parse_us));
    report.metric("io.encode_response_us", median(encode_us));
  }
  report.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe samoa|cold|fleet-step key=value...\n";
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const Args args(argc, argv);
    if (mode == "samoa") return run_samoa(args);
    if (mode == "cold") return run_cold(args);
    if (mode == "fleet-step") return run_fleet_step(args);
    std::cerr << "unknown mode " << mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
}
