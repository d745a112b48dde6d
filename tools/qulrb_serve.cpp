// qulrb_serve — JSON-lines rebalancing service front-end.
//
//   qulrb_serve [--port P] [--workers N] [--max-pending N] [--cache N]
//               [--default-deadline-ms X] [--solver-threads N]
//               [--trace N] [--metrics-out FILE] [--trace-out FILE]
//               [--events-out FILE] [--profile-hz N] [--quiet]
//
// --trace N records a Perfetto trace per request and keeps the last N for
// the {"op":"trace"} op; {"op":"metrics"} answers a Prometheus text scrape
// either way. --events-out appends one structured JSON line per finished
// request (see obs::SolveEvent).
//
// Without --port, speaks the protocol on stdin/stdout (one JSON object per
// line; responses may arrive out of submission order). With --port, accepts
// TCP connections on 127.0.0.1:P, one protocol session per connection.
// {"op":"shutdown"} drains all admitted work (queued and running) and stops
// the whole server.
//
// SIGINT/SIGTERM take a faster graceful path: the queue is shed (each
// pending request answered kCancelled), running solves finish, and the final
// metrics exposition / retained traces are flushed to --metrics-out /
// --trace-out before the process exits 0. A supervisor restarting the
// service therefore always finds the last scrape and the last traces on
// disk, even when no scraper was attached.
//
// See src/service/protocol.hpp for the line format.

#include <unistd.h>

#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/json.hpp"
#include "net/line.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram_wire.hpp"
#include "obs/profile_export.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "service/protocol.hpp"
#include "service/rebalance_service.hpp"
#include "util/error.hpp"

namespace {

using namespace qulrb;

struct ServeOptions {
  int port = 0;  ///< 0 = stdin/stdout mode
  service::ServiceParams service;
  std::string metrics_out;  ///< final Prometheus exposition on shutdown
  std::string trace_out;    ///< retained Perfetto docs (JSON array) on shutdown
  std::string events_out;   ///< JSONL SolveEvent sink (live, appended)
  double events_max_mb = 0.0;  ///< size cap per events file (0 = unbounded)
  bool quiet = false;

  // Flight recorder: always on unless --no-flight (the ring is lock-light
  // and costs <2% on the recorded sweep path — see bench_obs).
  bool flight = true;
  std::size_t flight_capacity = 4096;
  double flight_window_s = 30.0;  ///< seconds snapshotted per anomaly dump
  std::string flight_dir;         ///< anomaly dump directory ("" = no dumps)

  // Continuous sampling profiler: on by default at the classic 99 Hz
  // (<1% sweep overhead — see BENCH_obs.json); 0 disables. The {"op":
  // "profile","seconds":S} op snapshots the last S seconds of the ring.
  int profile_hz = 99;
  std::size_t profile_capacity = 4096;

  // SLO engine objectives (triggers are the flight recorder's dump signal).
  double slo_latency_ms = 50.0;
  double slo_target = 0.99;
  double slo_fast_s = 300.0;
  double slo_slow_s = 3600.0;
  double slo_burn_threshold = 2.0;
  std::uint64_t deadline_burst = 8;
  std::size_t queue_hwm = 0;
};

/// One protocol session: parses request lines, forwards them to the service,
/// and writes response lines to the connection. Thread safe against the
/// service's worker callbacks.
class ProtocolSession {
 public:
  ProtocolSession(service::RebalanceService& svc, net::LineConn& conn)
      : svc_(svc), conn_(conn) {}

  /// Waits until every solve this session submitted has been answered and
  /// its response write has returned, since those callbacks write to conn_.
  /// Other sessions' work is theirs to wait for.
  ~ProtocolSession() {
    std::unique_lock<std::mutex> lock(map_mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
  }

  ProtocolSession(const ProtocolSession&) = delete;
  ProtocolSession& operator=(const ProtocolSession&) = delete;

  /// Handle one request line. Returns false when the session should end
  /// (shutdown requested).
  bool handle_line(const std::string& line) {
    service::ProtocolRequest request;
    try {
      request = service::parse_request_line(line);
    } catch (const std::exception& e) {
      conn_.send(service::encode_parse_error(e));
      return true;
    }
    switch (request.op) {
      case service::OpKind::kShutdown:
        return false;
      case service::OpKind::kStats:
        conn_.send(service::encode_stats(svc_.stats()));
        return true;
      case service::OpKind::kHealth:
        // The router's 50ms probe: relaxed-atomic reads only, never the
        // mutex-taking stats() snapshot.
        conn_.send(service::encode_health(svc_.queue_depth(), svc_.inflight(),
                                          svc_.cache_hit_rate()));
        return true;
      case service::OpKind::kMetrics:
        conn_.send(service::encode_metrics(svc_.metrics_text()));
        return true;
      case service::OpKind::kTrace:
        conn_.send(service::encode_traces(svc_.last_traces(request.trace_count)));
        return true;
      case service::OpKind::kObs: {
        // Federation pull: the whole registry in wire form, this binary's
        // identity, and the live SLO view. Refresh the point-in-time gauges
        // first so the snapshot matches what a metrics scrape would see.
        (void)svc_.metrics_text();
        io::JsonWriter w;
        w.begin_object();
        w.field("role", "serve");
        const obs::BuildInfo info = obs::build_info();
        w.key("build").begin_object();
        w.field("version", info.version);
        w.field("revision", info.revision);
        w.field("build", info.build_type);
        w.end_object();
        w.key("registry");
        obs::write_registry_obs_json(svc_.metrics_registry(), w);
        if (svc_.params().slo != nullptr) {
          w.key("slo");
          svc_.params().slo->write_json(w, svc_.now_ms());
        }
        w.end_object();
        conn_.send(service::encode_obs_response(request.client_id, w.str()));
        return true;
      }
      case service::OpKind::kProfile: {
        obs::Profiler* profiler = svc_.params().profiler;
        if (profiler == nullptr) {
          // Same FIFO-alignment rule as flight_dump below: always answer
          // with a "profile" key, null when the sampler is off.
          conn_.send(service::encode_profile_response(request.client_id, "null"));
          return true;
        }
        obs::ProfileExportOptions opts;
        opts.source = "qulrb_serve";
        opts.hz = profiler->hz();
        opts.window_s = request.profile_seconds;
        obs::prof::Symbolizer symbolizer;
        conn_.send(service::encode_profile_response(
            request.client_id,
            obs::profile_to_json(profiler->snapshot(request.profile_seconds),
                                 symbolizer, opts)));
        return true;
      }
      case service::OpKind::kFlightDump: {
        obs::FlightRecorder* flight = svc_.params().flight;
        if (flight == nullptr) {
          // A "flight" key even when disabled: the router classifies
          // control responses by their top-level key, so an error-shaped
          // reply here would desync its per-connection FIFO.
          conn_.send(service::encode_flight_response(request.client_id, "null"));
          return true;
        }
        conn_.send(service::encode_flight_response(
            request.client_id,
            obs::flight_to_perfetto_json(*flight, request.window_s,
                                         request.flight_rid, "manual",
                                         "qulrb_serve")));
        return true;
      }
      case service::OpKind::kCancel: {
        std::uint64_t service_id = 0;
        {
          std::lock_guard<std::mutex> lock(map_mutex_);
          auto it = inflight_.find(request.client_id);
          if (it != inflight_.end()) service_id = it->second;
        }
        if (service_id == 0 || !svc_.cancel(service_id)) {
          conn_.send(service::encode_error("unknown or finished id", request.client_id));
        }
        return true;
      }
      case service::OpKind::kSolve: break;
    }

    const std::uint64_t client_id = request.client_id;
    const bool include_plan = request.include_plan;
    // `answered` guards the id map against the synchronous-rejection path:
    // the callback may run before submit() returns the service id.
    auto answered = std::make_shared<bool>(false);
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      ++pending_;
    }
    const std::uint64_t service_id = svc_.submit(
        std::move(request.request),
        [this, client_id, include_plan, answered](service::RebalanceResponse r) {
          {
            std::lock_guard<std::mutex> lock(map_mutex_);
            *answered = true;
            inflight_.erase(client_id);
          }
          conn_.send(service::encode_response(client_id, r, include_plan));
          // Last touch of this session: it may be destroyed as soon as the
          // count drops.
          std::lock_guard<std::mutex> lock(map_mutex_);
          if (--pending_ == 0) idle_.notify_all();
        });
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (!*answered) inflight_[client_id] = service_id;
    }
    return true;
  }

 private:
  service::RebalanceService& svc_;
  net::LineConn& conn_;
  std::mutex map_mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> inflight_;  ///< client -> service id
  std::size_t pending_ = 0;  ///< submitted solves whose callback has not finished
  std::condition_variable idle_;
};

/// Graceful teardown shared by every exit path: optionally shed the backlog
/// (signal-driven exits — a client that asked for `shutdown` still gets its
/// queued answers), wait out in-flight solves, then flush the terminal
/// observability artifacts.
void shutdown_service(service::RebalanceService& svc,
                      const ServeOptions& options, bool shed_backlog) {
  const std::size_t shed = shed_backlog ? svc.shed_pending() : 0;
  svc.drain();
  if (!options.quiet && shed > 0) {
    std::cerr << "qulrb_serve: shed " << shed << " queued request(s)\n";
  }
  if (!options.metrics_out.empty()) {
    std::ofstream out(options.metrics_out, std::ios::trunc);
    if (out) {
      out << svc.metrics_text();
    } else if (!options.quiet) {
      std::cerr << "qulrb_serve: cannot write " << options.metrics_out << "\n";
    }
  }
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out, std::ios::trunc);
    if (out) {
      const std::vector<std::string> traces =
          svc.last_traces(svc.params().trace_keep);
      out << "[";
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (i > 0) out << ",";
        out << "\n" << traces[i];
      }
      out << "\n]\n";
    } else if (!options.quiet) {
      std::cerr << "qulrb_serve: cannot write " << options.trace_out << "\n";
    }
  }
}

/// Stdio mode: the reader polls so SIGINT/SIGTERM and the shutdown op are
/// noticed promptly, not at the next newline.
int run_stdio(service::RebalanceService& svc, const ServeOptions& options) {
  net::LineConn out(STDOUT_FILENO);
  net::LineReader in(STDIN_FILENO, net::kMaxRequestLine, net::stop_requested);
  ProtocolSession session(svc, out);
  std::string line;
  while (in.next(line) && session.handle_line(line)) {
  }
  if (const char* why = in.rejected()) out.send(service::encode_error(why, 0));
  shutdown_service(svc, options, net::stop_requested());
  return 0;
}

int run_tcp(service::RebalanceService& svc, const ServeOptions& options) {
  const int listen_fd = net::listen_tcp(options.port);
  if (!options.quiet) {
    std::cerr << "qulrb_serve: listening on 127.0.0.1:" << options.port << "\n";
  }
  net::serve_tcp(listen_fd, [&svc](net::LineConn& conn, net::LineReader& reader) {
    ProtocolSession session(svc, conn);
    std::string line;
    bool open = true;
    while (open && reader.next(line)) open = session.handle_line(line);
    if (const char* why = reader.rejected()) conn.send(service::encode_error(why, 0));
    return open;
  });
  shutdown_service(svc, options, net::stop_requested());
  return 0;
}

int usage() {
  std::cerr << "usage: qulrb_serve [--port P] [--workers N] [--max-pending N]\n"
               "                   [--cache N] [--default-deadline-ms X]\n"
               "                   [--solver-threads N] [--trace N]\n"
               "                   [--metrics-out FILE] [--trace-out FILE]\n"
               "                   [--events-out FILE] [--events-max-mb X]\n"
               "                   [--no-flight] [--flight-capacity N]\n"
               "                   [--flight-window-s X] [--flight-dir DIR]\n"
               "                   [--slo-latency-ms X] [--slo-target X]\n"
               "                   [--slo-fast-s X] [--slo-slow-s X]\n"
               "                   [--slo-burn-threshold X]\n"
               "                   [--deadline-burst N] [--queue-hwm N]\n"
               "                   [--profile-hz N] [--profile-capacity N]\n"
               "                   [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        util::require(i + 1 < argc, "serve: missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--port") options.port = std::stoi(next());
      else if (arg == "--workers") options.service.num_workers = std::stoul(next());
      else if (arg == "--max-pending") options.service.max_pending = std::stoul(next());
      else if (arg == "--cache") options.service.cache_capacity = std::stoul(next());
      else if (arg == "--default-deadline-ms")
        options.service.default_deadline_ms = std::stod(next());
      else if (arg == "--solver-threads")
        options.service.solver_threads = std::stoul(next());
      else if (arg == "--trace") {
        options.service.record_traces = true;
        options.service.trace_keep = std::stoul(next());
      }
      else if (arg == "--metrics-out") options.metrics_out = next();
      else if (arg == "--trace-out") {
        options.trace_out = next();
        // A trace flush file implies tracing even without --trace.
        options.service.record_traces = true;
      }
      else if (arg == "--events-out") options.events_out = next();
      else if (arg == "--events-max-mb") options.events_max_mb = std::stod(next());
      else if (arg == "--no-flight") options.flight = false;
      else if (arg == "--flight-capacity")
        options.flight_capacity = std::stoul(next());
      else if (arg == "--flight-window-s")
        options.flight_window_s = std::stod(next());
      else if (arg == "--flight-dir") options.flight_dir = next();
      else if (arg == "--slo-latency-ms") options.slo_latency_ms = std::stod(next());
      else if (arg == "--slo-target") options.slo_target = std::stod(next());
      else if (arg == "--slo-fast-s") options.slo_fast_s = std::stod(next());
      else if (arg == "--slo-slow-s") options.slo_slow_s = std::stod(next());
      else if (arg == "--slo-burn-threshold")
        options.slo_burn_threshold = std::stod(next());
      else if (arg == "--deadline-burst")
        options.deadline_burst = std::stoull(next());
      else if (arg == "--queue-hwm") options.queue_hwm = std::stoul(next());
      else if (arg == "--profile-hz") options.profile_hz = std::stoi(next());
      else if (arg == "--profile-capacity")
        options.profile_capacity = std::stoul(next());
      else if (arg == "--quiet") options.quiet = true;
      else if (arg == "--help") return usage();
      else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        return 2;
      }
    }

    net::install_stop_signals();

    std::optional<obs::EventLog> events;
    if (!options.events_out.empty()) {
      events.emplace(options.events_out, /*append=*/true,
                     static_cast<std::uint64_t>(options.events_max_mb *
                                                1024.0 * 1024.0));
      options.service.event_log = &*events;
      options.service.event_source = "qulrb_serve";
    }

    // Flight recorder, profiler and SLO engine outlive the service
    // (declared first; workers record into them until the service
    // destructs).
    std::optional<obs::FlightRecorder> flight;
    if (options.flight) {
      flight.emplace(options.flight_capacity);
      options.service.flight = &*flight;
    }
    std::optional<obs::Profiler> profiler;
    if (options.profile_hz > 0) {
      obs::Profiler::Params prof_params;
      prof_params.hz = options.profile_hz;
      prof_params.ring_capacity = options.profile_capacity;
      profiler.emplace(prof_params);
      if (profiler->start()) {
        options.service.profiler = &*profiler;
      } else if (!options.quiet) {
        std::cerr << "qulrb_serve: profiler failed to start; profiling off\n";
      }
    }
    obs::SloEngine::Params slo_params;
    slo_params.latency_slo_ms = options.slo_latency_ms;
    slo_params.target = options.slo_target;
    slo_params.fast_window_s = options.slo_fast_s;
    slo_params.slow_window_s = options.slo_slow_s;
    slo_params.burn_threshold = options.slo_burn_threshold;
    slo_params.deadline_burst = options.deadline_burst;
    slo_params.queue_hwm = options.queue_hwm;
    obs::SloEngine slo(
        slo_params, [&options, &flight, &profiler](const obs::SloTrigger& t) {
          // Anomaly trigger: snapshot the recent flight ring — and, when
          // the sampler is on, the matching CPU profile window — tagged
          // with the triggering request's rid, into --flight-dir.
          if (!options.quiet) {
            std::cerr << "qulrb_serve: trigger " << obs::to_string(t.kind)
                      << " (rid " << t.rid << "): " << t.detail << "\n";
          }
          if (options.flight_dir.empty()) return;
          const std::string suffix = std::to_string(t.rid) + "-" +
                                     obs::to_string(t.kind) + ".json";
          if (flight) {
            std::ofstream out(options.flight_dir + "/flight-" + suffix,
                              std::ios::trunc);
            if (out) {
              out << obs::flight_to_perfetto_json(
                         *flight, options.flight_window_s, t.rid,
                         obs::to_string(t.kind), "qulrb_serve")
                  << "\n";
            }
          }
          if (profiler && profiler->running()) {
            std::ofstream out(options.flight_dir + "/profile-" + suffix,
                              std::ios::trunc);
            if (out) {
              obs::ProfileExportOptions opts;
              opts.source = "qulrb_serve";
              opts.hz = profiler->hz();
              opts.window_s = options.flight_window_s;
              obs::prof::Symbolizer symbolizer;
              out << obs::profile_to_json(
                         profiler->snapshot(options.flight_window_s),
                         symbolizer, opts)
                  << "\n";
            }
          }
        });
    options.service.slo = &slo;

    service::RebalanceService svc(options.service);
    obs::register_build_info(svc.metrics_registry(), obs::build_info(),
                             "serve");
    if (options.port > 0) return run_tcp(svc, options);
    return run_stdio(svc, options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 3;
  }
}
