// qulrb — command-line rebalancer, the C++ counterpart of the paper
// repository's run_*.sh scripts:
//
//   qulrb solve   --input input_lrp.csv --solver qcqm1 [--k N | --k2]
//                 [--output out.csv] [--seed S] [--sweeps N] [--restarts N]
//                 [--trace-out trace.json] [--metrics-out metrics.prom]
//                 [--events-out events.jsonl] [--target-rimb R]
//                 [--profile-out solve.folded] [--profile-hz N]
//   qulrb compare --input input_lrp.csv [--seed S]
//   qulrb gen     --scenario samoa|imb0..imb4|nodes<M>|tasks<N> --output in.csv
//   qulrb solvers
//
// Input/output files use the paper's Appendix-B CSV formats (Tables VI/VII).
//
// Exit codes (scripts branch on these):
//   0  success
//   2  usage error (unknown command / missing operands)
//   3  invalid input (malformed file, bad option value, unknown solver)
//   4  solve failed or produced an infeasible result

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "io/lrp_io.hpp"
#include "obs/convergence.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profile_export.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "io/report.hpp"
#include "lrp/kselect.hpp"
#include "lrp/metrics.hpp"
#include "lrp/registry.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "workloads/samoa.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace qulrb;

constexpr int kExitUsage = 2;
constexpr int kExitInvalidInput = 3;
constexpr int kExitSolveFailed = 4;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = {}) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw util::InvalidArgument("unexpected argument '" + key + "'");
    }
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "1";  // boolean flag
    }
  }
  return args;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  qulrb solve   --input in.csv --solver NAME [--k N | --k2] "
      "[--output out.csv]\n"
      "                [--seed S] [--sweeps N] [--restarts N]\n"
      "                [--trace-out trace.json] [--metrics-out metrics.prom]\n"
      "                [--events-out events.jsonl] [--target-rimb R]\n"
      "                [--profile-out solve.folded] [--profile-hz N]\n"
      "  qulrb compare --input in.csv [--seed S] [--json out.json]\n"
      "  qulrb gen     --scenario samoa|imb0..imb4|nodesM|tasksN --output in.csv\n"
      "  qulrb solvers\n";
  return kExitUsage;
}

lrp::SolverSpec spec_from_args(const Args& args) {
  lrp::SolverSpec spec;
  spec.name = args.get("solver");
  if (args.has("k")) spec.k = std::stoll(args.get("k"));
  spec.relaxed_k = args.has("k2");
  if (args.has("seed")) spec.seed = std::stoull(args.get("seed"));
  if (args.has("sweeps")) spec.sweeps = std::stoull(args.get("sweeps"));
  if (args.has("restarts")) spec.restarts = std::stoull(args.get("restarts"));
  return spec;
}

void print_report(const lrp::LrpProblem& problem, const lrp::SolverReport& report) {
  util::Table table({"Metric", "Value"});
  table.add_row({"algorithm", report.name});
  table.add_row({"R_imb before", util::Table::num(report.metrics.imbalance_before, 5)});
  table.add_row({"R_imb after", util::Table::num(report.metrics.imbalance_after, 5)});
  table.add_row({"speedup", util::Table::num(report.metrics.speedup, 4)});
  table.add_row({"migrated tasks", util::Table::integer(report.metrics.total_migrated)});
  table.add_row({"of total tasks", util::Table::integer(problem.total_tasks())});
  table.add_row({"cpu (ms)", util::Table::num(report.output.cpu_ms, 3)});
  if (report.output.qpu_ms > 0.0) {
    table.add_row({"sim. qpu (ms)", util::Table::num(report.output.qpu_ms, 1)});
  }
  table.print(std::cout);
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  util::require(out.good(), "cannot open " + path + " for writing");
  out << text;
  util::require(out.good(), "write to " + path + " failed");
}

int cmd_solve(const Args& args) {
  util::require(args.has("input") && args.has("solver"),
                "solve: --input and --solver are required");
  const lrp::LrpProblem problem = io::read_input_file(args.get("input"));
  lrp::SolverSpec spec = spec_from_args(args);

  // Observability sinks are opt-in and consume no RNG: the solve is
  // bitwise-identical with or without them. The convergence telemetry
  // (--events-out, --target-rimb) reads the recorder's incumbent timelines,
  // so either flag implies recording even without --trace-out.
  const bool want_recorder = args.has("trace-out") || args.has("events-out") ||
                             args.has("target-rimb");
  std::optional<obs::Recorder> recorder;
  std::optional<obs::MetricsRegistry> metrics;
  if (want_recorder) {
    // Request id 1: one CLI invocation is one request.
    recorder.emplace("qulrb solve " + spec.name, 1);
    recorder->annotate("input", args.get("input"));
    spec.recorder = &*recorder;
  }
  if (args.has("metrics-out")) {
    metrics.emplace();
    spec.metrics = &*metrics;
  }
  // One-shot CPU profile of this solve: sample for the whole run, write
  // folded stacks on the way out (profiling consumes no RNG either — the
  // plan is bitwise-identical with or without it).
  std::optional<obs::Profiler> profiler;
  if (args.has("profile-out")) {
    obs::Profiler::Params prof_params;
    if (args.has("profile-hz")) {
      prof_params.hz = std::stoi(args.get("profile-hz"));
    }
    profiler.emplace(prof_params);
    if (!profiler->start()) {
      std::cerr << "warning: could not start the CPU profiler; "
                   "--profile-out will hold no samples\n";
    }
  }

  const auto solver = lrp::make_solver(spec, problem);
  const lrp::SolverReport report = lrp::run_and_evaluate(*solver, problem);
  if (profiler.has_value()) profiler->stop();
  print_report(problem, report);

  obs::ConvergenceReport convergence;
  if (recorder.has_value()) {
    obs::ConvergenceConfig conv;
    if (args.has("target-rimb")) {
      conv.target_objective = lrp::objective_target_for_imbalance(
          problem, std::stod(args.get("target-rimb")));
    }
    convergence = obs::ConvergenceDiagnostics(conv).annotate(*recorder);
    if (convergence.reached_feasible()) {
      std::cout << "time to first feasible: "
                << convergence.time_to_first_feasible_ms << " ms\n";
    }
    if (convergence.reached_target()) {
      std::cout << "time to target R_imb:   " << convergence.time_to_target_ms
                << " ms\n";
    }
  }

  if (args.has("output")) {
    io::write_output_file(args.get("output"), problem, report.output.plan);
    std::cout << "wrote " << args.get("output") << "\n";
  }
  if (args.has("trace-out")) {
    write_text_file(args.get("trace-out"), obs::to_perfetto_json(*recorder));
    std::cout << "wrote " << args.get("trace-out") << "\n";
  }
  if (metrics.has_value()) {
    obs::ProcessMetrics(*metrics).update();
    write_text_file(args.get("metrics-out"), metrics->to_prometheus());
    std::cout << "wrote " << args.get("metrics-out") << "\n";
  }
  if (profiler.has_value()) {
    const std::vector<obs::ProfileSample> samples = profiler->snapshot(0.0);
    obs::prof::Symbolizer symbolizer;
    obs::ProfileExportOptions opts;
    opts.source = "qulrb";
    opts.hz = profiler->hz();
    write_text_file(args.get("profile-out"),
                    obs::profile_to_folded(samples, symbolizer, opts));
    std::cout << "wrote " << args.get("profile-out") << " (" << samples.size()
              << " samples)\n";
  }
  if (args.has("events-out")) {
    obs::EventLog events(args.get("events-out"), /*append=*/true);
    obs::SolveEvent event;
    event.source = "qulrb_solve";
    event.request_id = 1;
    event.solver = report.name;
    event.outcome = report.output.feasible ? "ok" : "infeasible";
    event.feasible = report.output.feasible;
    event.r_imb_before = report.metrics.imbalance_before;
    event.r_imb_after = report.metrics.imbalance_after;
    event.speedup = report.metrics.speedup;
    event.migrated = report.metrics.total_migrated;
    event.runtime_ms = report.output.cpu_ms;
    if (convergence.reached_feasible()) {
      event.time_to_first_feasible_ms = convergence.time_to_first_feasible_ms;
    }
    if (convergence.reached_target()) {
      event.time_to_target_ms = convergence.time_to_target_ms;
    }
    event.extra.emplace_back("input", args.get("input"));
    events.log(event);
    std::cout << "wrote " << args.get("events-out") << "\n";
  }
  if (!report.output.feasible) {
    std::cerr << "error: solver '" << report.name
              << "' did not reach a feasible solution";
    if (!report.output.notes.empty()) std::cerr << " (" << report.output.notes << ")";
    std::cerr << "\n";
    return kExitSolveFailed;
  }
  return 0;
}

int cmd_compare(const Args& args) {
  util::require(args.has("input"), "compare: --input is required");
  const lrp::LrpProblem problem = io::read_input_file(args.get("input"));
  std::vector<lrp::SolverReport> reports;
  const lrp::KSelection k = lrp::select_k(problem);
  std::cout << "baseline R_imb = " << problem.imbalance_ratio() << ", k1 = " << k.k1
            << ", k2 = " << k.k2 << "\n\n";

  util::Table table({"Algorithm", "R_imb", "Speedup", "# mig.", "CPU (ms)"});
  const struct {
    const char* name;
    bool relaxed;
  } runs[] = {{"greedy", false}, {"kk", false},    {"proactlb", false},
              {"qcqm1", false},  {"qcqm1", true},  {"qcqm2", false},
              {"qcqm2", true}};
  for (const auto& run : runs) {
    lrp::SolverSpec spec;
    spec.name = run.name;
    spec.relaxed_k = run.relaxed;
    if (args.has("seed")) spec.seed = std::stoull(args.get("seed"));
    const auto solver = lrp::make_solver(spec, problem);
    lrp::SolverReport report = lrp::run_and_evaluate(*solver, problem);
    if (std::string(run.name).rfind("qcqm", 0) == 0) {
      report.name += run.relaxed ? "_k2" : "_k1";
    }
    table.add_row({report.name, util::Table::num(report.metrics.imbalance_after, 5),
                   util::Table::num(report.metrics.speedup, 4),
                   util::Table::integer(report.metrics.total_migrated),
                   util::Table::num(report.output.cpu_ms, 2)});
    reports.push_back(std::move(report));
  }
  table.print(std::cout);
  if (args.has("json")) {
    const auto record = io::make_record(args.get("input"), problem, std::move(reports));
    io::write_json_file(args.get("json"), io::to_json(record));
    std::cout << "wrote " << args.get("json") << "\n";
  }
  return 0;
}

int cmd_gen(const Args& args) {
  util::require(args.has("scenario") && args.has("output"),
                "gen: --scenario and --output are required");
  const std::string name = args.get("scenario");
  std::optional<lrp::LrpProblem> problem;
  if (name == "samoa") {
    problem = workloads::scenarios::samoa_oscillating_lake().problem;
  } else if (name.rfind("imb", 0) == 0) {
    const auto level = static_cast<std::size_t>(std::stoul(name.substr(3)));
    const auto levels = workloads::scenarios::imbalance_levels();
    util::require(level < levels.size(), "gen: imbalance level out of range");
    problem = levels[level].problem;
  } else if (name.rfind("nodes", 0) == 0) {
    problem = workloads::scenarios::node_scaling(std::stoul(name.substr(5))).problem;
  } else if (name.rfind("tasks", 0) == 0) {
    problem = workloads::scenarios::task_scaling(std::stoll(name.substr(5))).problem;
  } else {
    throw util::InvalidArgument("gen: unknown scenario '" + name + "'");
  }
  io::write_input_file(args.get("output"), *problem);
  std::cout << "wrote " << args.get("output") << " (M = " << problem->num_processes()
            << ", n = " << problem->tasks_on(0)
            << ", R_imb = " << problem->imbalance_ratio() << ")\n";
  return 0;
}

int cmd_solvers() {
  for (const auto& name : lrp::solver_names()) std::cout << name << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "solve") return cmd_solve(args);
    if (args.command == "compare") return cmd_compare(args);
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "solvers") return cmd_solvers();
    return usage();
  } catch (const util::InvalidArgument& error) {
    // Bad file contents, malformed option values, unknown solver names.
    std::cerr << "error: " << error.what() << "\n";
    return kExitInvalidInput;
  } catch (const std::invalid_argument& error) {
    // std::stoll and friends on non-numeric option values.
    std::cerr << "error: invalid option value: " << error.what() << "\n";
    return kExitInvalidInput;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return kExitSolveFailed;
  }
}
