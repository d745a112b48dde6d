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

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/json.hpp"
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

/// Written by the signal handler, polled by every accept/read loop. A plain
/// volatile sig_atomic_t is the only thing a handler may portably touch.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_signal(int signum) { g_signal = signum; }

void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: blocking reads must EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // A client that closes (or half-closes) its socket while a response is in
  // flight must surface as EPIPE from send(), not kill the server. send()
  // also passes MSG_NOSIGNAL, but the signal disposition covers any write
  // path that doesn't.
  ::signal(SIGPIPE, SIG_IGN);
}

bool signalled() { return g_signal != 0; }

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
/// and serialises response lines through a caller-provided writer. Thread
/// safe against the service's worker callbacks.
class ProtocolSession {
 public:
  ProtocolSession(service::RebalanceService& svc,
                  std::function<void(const std::string&)> write_line,
                  std::atomic<bool>& shutdown_flag)
      : svc_(svc), write_line_(std::move(write_line)), shutdown_(shutdown_flag) {}

  /// Handle one request line. Returns false when the session should end
  /// (shutdown requested).
  bool handle_line(const std::string& line) {
    service::ProtocolRequest request;
    try {
      request = service::parse_request_line(line);
    } catch (const std::exception& e) {
      write(service::encode_error(e.what(), 0));
      return true;
    }
    switch (request.op) {
      case service::OpKind::kShutdown:
        shutdown_.store(true, std::memory_order_relaxed);
        return false;
      case service::OpKind::kStats:
        write(service::encode_stats(svc_.stats()));
        return true;
      case service::OpKind::kHealth:
        // The router's 50ms probe: relaxed-atomic reads only, never the
        // mutex-taking stats() snapshot.
        write(service::encode_health(svc_.queue_depth(), svc_.inflight(),
                                     svc_.cache_hit_rate()));
        return true;
      case service::OpKind::kMetrics:
        write(service::encode_metrics(svc_.metrics_text()));
        return true;
      case service::OpKind::kTrace:
        write(service::encode_traces(svc_.last_traces(request.trace_count)));
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
        write(service::encode_obs_response(request.client_id, w.str()));
        return true;
      }
      case service::OpKind::kProfile: {
        obs::Profiler* profiler = svc_.params().profiler;
        if (profiler == nullptr) {
          // Same FIFO-alignment rule as flight_dump below: always answer
          // with a "profile" key, null when the sampler is off.
          write(service::encode_profile_response(request.client_id, "null"));
          return true;
        }
        obs::ProfileExportOptions opts;
        opts.source = "qulrb_serve";
        opts.hz = profiler->hz();
        opts.window_s = request.profile_seconds;
        obs::prof::Symbolizer symbolizer;
        write(service::encode_profile_response(
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
          write(service::encode_flight_response(request.client_id, "null"));
          return true;
        }
        write(service::encode_flight_response(
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
          write(service::encode_error("unknown or finished id", request.client_id));
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
    const std::uint64_t service_id = svc_.submit(
        std::move(request.request),
        [this, client_id, include_plan, answered](service::RebalanceResponse r) {
          {
            std::lock_guard<std::mutex> lock(map_mutex_);
            *answered = true;
            inflight_.erase(client_id);
          }
          write(service::encode_response(client_id, r, include_plan));
        });
    {
      std::lock_guard<std::mutex> lock(map_mutex_);
      if (!*answered) inflight_[client_id] = service_id;
    }
    return true;
  }

 private:
  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    write_line_(line);
  }

  service::RebalanceService& svc_;
  std::function<void(const std::string&)> write_line_;
  std::atomic<bool>& shutdown_;
  std::mutex write_mutex_;
  std::mutex map_mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> inflight_;  ///< client -> service id
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

/// Read stdin line by line through poll() so SIGINT/SIGTERM and the
/// protocol's shutdown op are both noticed promptly — a blocked getline would
/// hold the drain hostage until the next newline arrived.
int run_stdio(service::RebalanceService& svc, const ServeOptions& options) {
  std::atomic<bool> shutdown{false};
  ProtocolSession session(
      svc, [](const std::string& line) { std::cout << line << "\n" << std::flush; },
      shutdown);
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !shutdown.load(std::memory_order_relaxed) && !signalled()) {
    struct pollfd pfd;
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop condition decides
      break;
    }
    if (ready == 0) continue;  // timeout: re-check the flags
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF or error: treat as end of session
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty() && !session.handle_line(line)) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
  }
  shutdown_service(svc, options, signalled() != 0);
  return 0;
}

void send_all(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;  // a signal must not tear a response line
      return;  // EPIPE / timeout: peer gone or wedged; responses are best-effort
    }
    if (n == 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

void serve_connection(service::RebalanceService& svc, int fd,
                      std::atomic<bool>& shutdown) {
  // Bounded recv so the loop re-checks the shutdown flag and pending signals
  // even on an idle connection.
  struct timeval tv;
  tv.tv_sec = 0;
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  // Bound sends too: a client that stops draining its socket (or a dying one
  // whose window never reopens) must not park a worker callback in send()
  // forever — after the timeout the response is dropped and the worker moves
  // on to requests whose clients are still alive.
  struct timeval snd_tv;
  snd_tv.tv_sec = 2;
  snd_tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd_tv, sizeof(snd_tv));

  ProtocolSession session(
      svc, [fd](const std::string& line) { send_all(fd, line); }, shutdown);
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !shutdown.load(std::memory_order_relaxed) && !signalled()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty() && !session.handle_line(line)) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
  }
  // Answer in-flight requests of this connection before closing the socket:
  // their callbacks write through fd.
  svc.drain();
  ::close(fd);
}

int run_tcp(service::RebalanceService& svc, const ServeOptions& options) {
  const int port = options.port;
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  util::require(listen_fd >= 0, "serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  util::require(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "serve: bind() failed (port in use?)");
  util::require(::listen(listen_fd, 128) == 0, "serve: listen() failed");
  if (!options.quiet) {
    std::cerr << "qulrb_serve: listening on 127.0.0.1:" << port << "\n";
  }

  std::atomic<bool> shutdown{false};
  std::vector<std::thread> connections;
  // The shutdown op or a signal trips the flag; closing the listen socket
  // from the watcher unblocks accept() so the loop can exit.
  std::thread watcher([&] {
    while (!shutdown.load(std::memory_order_relaxed) && !signalled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  });

  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !signalled()) continue;
      break;  // listen socket closed by the watcher, or a shutdown signal
    }
    connections.emplace_back(
        [&svc, fd, &shutdown] { serve_connection(svc, fd, shutdown); });
  }
  shutdown.store(true, std::memory_order_relaxed);
  watcher.join();
  for (auto& t : connections) t.join();
  shutdown_service(svc, options, signalled() != 0);
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

    install_signal_handlers();

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
