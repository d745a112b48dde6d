// qulrb_router — sharded-serving front door for a fleet of qulrb_serve
// backends.
//
//   qulrb_router --port P --backends 7471,7472[,host:7473...]
//                [--policy random|round-robin|shortest-queue|
//                          shortest-queue-stale|cache-affinity]
//                [--stale-ms D] [--probe-ms X] [--reconnect-ms X]
//                [--vnodes N] [--load-factor F] [--max-retries N]
//                [--no-coalesce] [--seed S] [--metrics-out FILE] [--quiet]
//
// Clients speak the same JSON-lines protocol as qulrb_serve; solves fan out
// across the backends (picked per --policy), identical concurrent solves
// coalesce onto one backend solve, and {"op":"stats"} / {"op":"trace"}
// aggregate the fleet. {"op":"health"} answers from the router's probed
// view without touching the backends; {"op":"metrics"} answers the router's
// own qulrb_router_* Prometheus exposition. {"op":"shutdown"} stops the
// router (the backends keep running — they are managed separately).
//
// Each routed request is forwarded with "rid" (the router's request id) and
// "router_ms" (time spent in the router), so the owning backend's Perfetto
// trace carries the router's identity and admission hop — one routed
// request, one correlated trace.
//
// Observability v3: every --federate-ms the router pulls each backend's
// {"op":"obs"} registry snapshot and folds it bucket-wise into fleet-level
// qulrb_fleet_* families (appended to {"op":"metrics"}); {"op":"obs"} on the
// router returns its own registry, the fleet SLO view, and every backend's
// latest snapshot. The router keeps a flight ring over routed requests and
// runs a fleet SLO engine on end-to-end latency; when a trigger fires (SLO
// burn, deadline-miss burst, backend mark-down) a dedicated incident thread
// assembles one cross-process bundle — router spans plus every backend's
// recent ring via {"op":"flight_dump"} and profile capture via
// {"op":"profile"}, correlated by rid — and writes it to
// --incident-dir/incident-<rid>-<kind>.json.
//
// Continuous profiling: the router runs its own --profile-hz sampler (99 Hz
// default, 0 disables), and {"op":"profile","seconds":S} fans out to every
// backend and answers one fleet profile whose "folded" text roots every
// stack at instance:<backend-label> (instance:router for the router's own
// samples) — feed it straight to flamegraph.pl or speedscope.

#include <fstream>
#include <iostream>
#include <string>

#include "net/line.hpp"
#include "obs/build_info.hpp"
#include "router/router.hpp"
#include "util/error.hpp"

namespace {

using namespace qulrb;

struct RouterOptions {
  int port = 0;
  router::Router::Params router;
  std::string metrics_out;
  bool quiet = false;
};

int run(const RouterOptions& options) {
  router::Router router(options.router);
  obs::register_build_info(router.registry(), obs::build_info(), "router");
  router.start();

  const int listen_fd = net::listen_tcp(options.port);
  if (!options.quiet) {
    std::cerr << "qulrb_router: listening on 127.0.0.1:" << options.port
              << ", " << options.router.pool.backends.size() << " backend(s), "
              << "policy " << router::to_string(options.router.policy) << "\n";
  }

  net::serve_tcp(listen_fd, [&router](net::LineConn& conn, net::LineReader& reader) {
    // The router's session lock serialises backend reader threads and this
    // session's own control responses, and drops deliveries after
    // unregister_session, so conn is never written once this returns, on
    // any path out.
    const std::uint64_t session =
        router.register_session([&conn](const std::string& line) { conn.send(line); });
    struct Unregister {
      router::Router& owner;
      std::uint64_t id;
      ~Unregister() { owner.unregister_session(id); }
    } unregister{router, session};
    std::string line;
    bool open = true;
    while (open && reader.next(line)) open = router.handle_client_line(session, line);
    if (const char* why = reader.rejected()) conn.send(service::encode_error(why, 0));
    return open;
  });

  if (!options.metrics_out.empty()) {
    std::ofstream out(options.metrics_out, std::ios::trunc);
    if (out) {
      out << router.metrics_text();
    } else if (!options.quiet) {
      std::cerr << "qulrb_router: cannot write " << options.metrics_out << "\n";
    }
  }
  router.stop();
  return 0;
}

int usage() {
  std::cerr
      << "usage: qulrb_router --port P --backends PORT[,HOST:PORT...]\n"
         "                    [--policy NAME] [--stale-ms D] [--probe-ms X]\n"
         "                    [--reconnect-ms X] [--vnodes N]\n"
         "                    [--load-factor F] [--max-retries N]\n"
         "                    [--no-coalesce] [--seed S]\n"
         "                    [--metrics-out FILE] [--federate-ms X]\n"
         "                    [--no-flight] [--flight-window-s X]\n"
         "                    [--incident-dir DIR] [--slo-latency-ms X]\n"
         "                    [--slo-target X] [--slo-fast-s X]\n"
         "                    [--slo-slow-s X] [--slo-burn-threshold X]\n"
         "                    [--deadline-burst N] [--profile-hz N]\n"
         "                    [--profile-capacity N] [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RouterOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        util::require(i + 1 < argc, "router: missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--port") options.port = std::stoi(next());
      else if (arg == "--backends")
        options.router.pool.backends = router::parse_backend_list(next());
      else if (arg == "--policy")
        options.router.policy = router::parse_policy(next());
      else if (arg == "--stale-ms") options.router.stale_ms = std::stod(next());
      else if (arg == "--probe-ms")
        options.router.pool.probe_interval_ms = std::stod(next());
      else if (arg == "--reconnect-ms")
        options.router.pool.reconnect_ms = std::stod(next());
      else if (arg == "--vnodes")
        options.router.policy_config.vnodes = std::stoul(next());
      else if (arg == "--load-factor")
        options.router.policy_config.load_factor = std::stod(next());
      else if (arg == "--max-retries")
        options.router.max_retries = std::stoul(next());
      else if (arg == "--no-coalesce") options.router.coalesce = false;
      else if (arg == "--seed")
        options.router.policy_config.seed = std::stoull(next());
      else if (arg == "--metrics-out") options.metrics_out = next();
      else if (arg == "--federate-ms")
        options.router.federate_ms = std::stod(next());
      else if (arg == "--no-flight") options.router.flight = false;
      else if (arg == "--flight-window-s")
        options.router.flight_window_s = std::stod(next());
      else if (arg == "--incident-dir")
        options.router.incident_dir = next();
      else if (arg == "--slo-latency-ms")
        options.router.slo.latency_slo_ms = std::stod(next());
      else if (arg == "--slo-target")
        options.router.slo.target = std::stod(next());
      else if (arg == "--slo-fast-s")
        options.router.slo.fast_window_s = std::stod(next());
      else if (arg == "--slo-slow-s")
        options.router.slo.slow_window_s = std::stod(next());
      else if (arg == "--slo-burn-threshold")
        options.router.slo.burn_threshold = std::stod(next());
      else if (arg == "--deadline-burst")
        options.router.slo.deadline_burst = std::stoull(next());
      else if (arg == "--profile-hz")
        options.router.profile_hz = std::stoi(next());
      else if (arg == "--profile-capacity")
        options.router.profile_capacity = std::stoul(next());
      else if (arg == "--quiet") options.quiet = true;
      else if (arg == "--help") return usage();
      else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        return 2;
      }
    }
    util::require(options.port > 0, "router: --port is required");
    util::require(!options.router.pool.backends.empty(),
                  "router: --backends is required");
    net::install_stop_signals();
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 3;
  }
}
