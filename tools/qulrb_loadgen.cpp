// qulrb_loadgen — load generator and latency reporter for the rebalancing
// service.
//
//   qulrb_loadgen [--requests N] [--concurrency C] [--m M] [--n N] [--k K]
//                 [--variant qcqm1|qcqm2] [--sweeps S] [--restarts R]
//                 [--deadline-ms X] [--drift] [--topo-zipf S] [--seed S]
//                 [--workers W] [--cache C] [--rate R]
//                 [--connect PORT] [--targets HOST:PORT,...]
//                 [--priority-classes N] [--label NAME] [--json FILE]
//
// Default is closed-loop against an in-process RebalanceService: C client
// threads each keep exactly one request outstanding. --rate R switches to
// open-loop (fixed R requests/sec regardless of completions — the honest way
// to measure queueing behaviour). --connect PORT runs the closed loop over
// TCP against a running `qulrb_serve --port PORT` or `qulrb_router`, one
// connection per client thread; --targets spreads the client threads
// round-robin over several servers (the "no router" baseline for the sharded
// tier). --drift varies the load vector per request (exercising the session
// cache's retarget path instead of exact hits). --topo-zipf S draws each
// request's topology from a 16-member universe with Zipf(S) popularity —
// skewed topology traffic is what separates cache-affinity routing from
// random placement. --label tags the --json summary so per-policy runs can
// be told apart downstream.
//
// Reports throughput and client-observed p50/p95/p99 latency. --json FILE
// additionally writes a machine-readable summary including the full
// log-bucketed latency histogram (the same obs::LogHistogram layout the
// service's Prometheus metrics use). --priority-classes N cycles request
// priority over N classes (request #seq gets priority seq % N) and the
// summary reports one quantiles+histogram entry per class under "classes"
// — per-class latency is what the server-side SLO engine pages on, so the
// client view must be sliced the same way.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "io/json_value.hpp"
#include "net/line.hpp"
#include "obs/metrics.hpp"
#include "router/backend_pool.hpp"
#include "router/policy.hpp"
#include "service/protocol.hpp"
#include "service/rebalance_service.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace qulrb;

struct LoadgenOptions {
  std::size_t requests = 2000;
  std::size_t concurrency = 8;
  std::size_t m = 8;            ///< processes
  std::int64_t n = 8;           ///< tasks per process
  std::int64_t k = 8;
  lrp::CqmVariant variant = lrp::CqmVariant::kReduced;
  std::size_t sweeps = 50;
  std::size_t restarts = 1;
  double deadline_ms = 0.0;
  bool drift = false;
  double topo_zipf = 0.0;  ///< Zipf exponent for topology popularity; 0 = off
  std::uint64_t seed = 1;
  // In-process service shape.
  std::size_t workers = 0;
  std::size_t cache = 16;
  double rate = 0.0;  ///< open-loop requests/sec (in-process only); 0 = closed
  /// TCP servers; client threads spread round-robin. Empty = in-process.
  std::vector<router::BackendAddress> targets;
  /// Priority classes cycled over the request stream (request #seq gets
  /// priority seq % N). 1 = everything priority 0, the old behaviour.
  std::size_t priority_classes = 1;
  std::string label;     ///< tag echoed into the --json summary
  std::string json_out;  ///< machine-readable summary file ("" = none)
};

/// Topology universe for --topo-zipf: each member gets a distinct task-count
/// vector (so distinct SessionCache keys) with Zipf(S) popularity.
constexpr std::size_t kTopoUniverse = 16;

/// Zipf(S)-distributed topology id for request #seq — deterministic in
/// (seed, seq) so runs are reproducible and every policy sees the same
/// request stream.
std::size_t zipf_topology(const LoadgenOptions& options, std::uint64_t seq) {
  static thread_local std::vector<double> cdf;
  if (cdf.empty()) {
    cdf.resize(kTopoUniverse);
    double total = 0.0;
    for (std::size_t r = 0; r < kTopoUniverse; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), options.topo_zipf);
      cdf[r] = total;
    }
    for (double& c : cdf) c /= total;
  }
  const double u = static_cast<double>(
                       router::mix64(options.seed * 0x9e37u + seq) >> 11) *
                   0x1.0p-53;
  for (std::size_t r = 0; r < kTopoUniverse; ++r) {
    if (u <= cdf[r]) return r;
  }
  return kTopoUniverse - 1;
}

/// Request #seq of the workload: one hot process, the rest uniform. With
/// drift the hot slot rotates and its weight wobbles, so consecutive
/// requests share a topology but not a load vector.
service::RebalanceRequest make_request(const LoadgenOptions& options,
                                       std::uint64_t seq) {
  service::RebalanceRequest request;
  request.task_counts.assign(options.m, options.n);
  request.task_loads.assign(options.m, 1.0);
  std::size_t hot = options.drift ? seq % options.m : 0;
  if (options.topo_zipf > 0.0) {
    // Distinct topology per universe member: bump one slot's task count so
    // the SessionCache (and cache-affinity routing) key differs per member.
    const std::size_t topo = zipf_topology(options, seq);
    request.task_counts[topo % options.m] +=
        1 + static_cast<std::int64_t>(topo / options.m);
    hot = (hot + topo) % options.m;
  }
  const double wobble =
      options.drift ? 0.05 * static_cast<double>(seq % 17) : 0.0;
  request.task_loads[hot] = 8.0 + wobble;
  request.variant = options.variant;
  request.k = options.k;
  request.deadline_ms = options.deadline_ms;
  if (options.priority_classes > 1) {
    request.priority = static_cast<int>(seq % options.priority_classes);
  }
  request.hybrid.sweeps = options.sweeps;
  request.hybrid.num_restarts = options.restarts;
  request.hybrid.seed = options.seed + seq;
  return request;
}

struct Tally {
  /// Per-priority-class slice of the run — the --json summary reports one
  /// histogram per class, not just the global blend (a tight p99 SLO on the
  /// high class is invisible in a blended histogram).
  struct PerClass {
    std::vector<double> latencies_ms;
    obs::LogHistogram hist;
  };

  explicit Tally(std::size_t classes) {
    per_class.reserve(classes == 0 ? 1 : classes);
    for (std::size_t c = 0; c < (classes == 0 ? 1 : classes); ++c) {
      per_class.push_back(std::make_unique<PerClass>());
    }
  }

  std::mutex mutex;
  std::vector<double> latencies_ms;
  obs::LogHistogram hist;  ///< same log-bucketed layout as the service metrics
  std::vector<std::unique_ptr<PerClass>> per_class;
  std::uint64_t ok = 0, rejected = 0, shed = 0, cancelled = 0, failed = 0;

  void record(int priority, const std::string& outcome, double ms) {
    hist.observe(ms);
    PerClass& pc =
        *per_class[static_cast<std::size_t>(priority < 0 ? 0 : priority) %
                   per_class.size()];
    pc.hist.observe(ms);
    std::lock_guard<std::mutex> lock(mutex);
    latencies_ms.push_back(ms);
    pc.latencies_ms.push_back(ms);
    if (outcome == "ok") ++ok;
    else if (outcome == "rejected") ++rejected;
    else if (outcome == "shed") ++shed;
    else if (outcome == "cancelled") ++cancelled;
    else ++failed;
  }
};

void report(const Tally& tally, double wall_seconds, const std::string& cache_line) {
  std::vector<double> xs = tally.latencies_ms;
  const double total = static_cast<double>(xs.size());
  std::cout << "requests:    " << xs.size() << " in " << wall_seconds << " s  ("
            << (wall_seconds > 0.0 ? total / wall_seconds : 0.0) << " req/s)\n";
  if (!xs.empty()) {
    std::cout << "latency ms:  p50 " << util::quantile(xs, 0.50) << "  p95 "
              << util::quantile(xs, 0.95) << "  p99 " << util::quantile(xs, 0.99)
              << "  mean " << util::mean(xs) << "  max "
              << *std::max_element(xs.begin(), xs.end()) << "\n";
  }
  std::cout << "outcomes:    ok " << tally.ok << "  rejected " << tally.rejected
            << "  shed " << tally.shed << "  cancelled " << tally.cancelled
            << "  failed " << tally.failed << "\n";
  if (!cache_line.empty()) std::cout << cache_line << "\n";
}

/// Server-side SessionCache totals pulled after a run — summed across every
/// target (and, through a router, across its whole backend fleet).
struct ServerCache {
  bool present = false;
  std::int64_t exact = 0;
  std::int64_t retarget = 0;
  std::int64_t miss = 0;

  void add(const io::JsonValue& cache) {
    present = true;
    exact += cache.int_or("exact_hits", 0);
    retarget += cache.int_or("retarget_hits", 0);
    miss += cache.int_or("misses", 0);
  }

  void add_counts(std::uint64_t e, std::uint64_t r, std::uint64_t m) {
    present = true;
    exact += static_cast<std::int64_t>(e);
    retarget += static_cast<std::int64_t>(r);
    miss += static_cast<std::int64_t>(m);
  }

  double hit_rate() const {
    const std::int64_t total = exact + retarget + miss;
    return total > 0
               ? static_cast<double>(exact + retarget) / static_cast<double>(total)
               : 0.0;
  }
};

/// Emit one log-bucketed histogram object (cumulative `le` edges,
/// Prometheus-style) — shared by the global and per-class summaries.
void write_histogram_json(io::JsonWriter& w, const obs::LogHistogram& hist) {
  w.begin_object();
  w.field("count", hist.count());
  w.field("sum_ms", hist.sum());
  w.key("buckets");
  w.begin_array();
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < hist.num_buckets(); ++b) {
    cumulative += hist.bucket_count(b);
    w.begin_object();
    w.field("le_ms", hist.upper_edge(b));
    w.field("count", cumulative);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_quantiles_json(io::JsonWriter& w, const std::vector<double>& xs) {
  w.begin_object();
  w.field("mean", util::mean(xs));
  w.field("p50", util::quantile(xs, 0.50));
  w.field("p95", util::quantile(xs, 0.95));
  w.field("p99", util::quantile(xs, 0.99));
  w.field("max", *std::max_element(xs.begin(), xs.end()));
  w.end_object();
}

/// Wall-clock (unix epoch) seconds — the post-hoc alignment key between a
/// loadgen run and profile/flight captures taken during it.
double unix_now_s() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The run's wall-clock window, stamped once at the run boundaries.
struct RunWindow {
  double start_ts = 0.0;  ///< unix seconds at first request submission
  double end_ts = 0.0;    ///< unix seconds after the last response
};

/// Machine-readable run summary: outcomes, exact quantiles from the raw
/// sample vector, the full log-bucketed global histogram, and one
/// quantiles+histogram entry per priority class under "classes". Every
/// block carries the run's start_ts/end_ts window so external captures
/// (fleet profiles, flight dumps) can be aligned with it post-hoc.
void write_json_summary(const std::string& path, const Tally& tally,
                        double wall_seconds, const std::string& label,
                        const ServerCache& cache, const RunWindow& window) {
  std::vector<double> xs = tally.latencies_ms;
  io::JsonWriter w;
  w.begin_object();
  if (!label.empty()) w.field("label", label);
  w.field("requests", xs.size());
  w.field("wall_seconds", wall_seconds);
  w.field("start_ts", window.start_ts);
  w.field("end_ts", window.end_ts);
  w.field("throughput_rps",
          wall_seconds > 0.0 ? static_cast<double>(xs.size()) / wall_seconds : 0.0);
  w.key("outcomes");
  w.begin_object();
  w.field("ok", tally.ok);
  w.field("rejected", tally.rejected);
  w.field("shed", tally.shed);
  w.field("cancelled", tally.cancelled);
  w.field("failed", tally.failed);
  w.end_object();
  if (cache.present) {
    w.key("server_cache");
    w.begin_object();
    w.field("exact_hits", cache.exact);
    w.field("retarget_hits", cache.retarget);
    w.field("misses", cache.miss);
    w.field("hit_rate", cache.hit_rate());
    w.end_object();
  }
  if (!xs.empty()) {
    w.key("latency_ms");
    write_quantiles_json(w, xs);
  }
  w.key("histogram");
  write_histogram_json(w, tally.hist);
  w.key("classes");
  w.begin_array();
  for (std::size_t c = 0; c < tally.per_class.size(); ++c) {
    const Tally::PerClass& pc = *tally.per_class[c];
    w.begin_object();
    w.field("priority", c);
    w.field("requests", pc.latencies_ms.size());
    w.field("start_ts", window.start_ts);
    w.field("end_ts", window.end_ts);
    if (!pc.latencies_ms.empty()) {
      w.key("latency_ms");
      write_quantiles_json(w, pc.latencies_ms);
    }
    w.key("histogram");
    write_histogram_json(w, pc.hist);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  util::require(out.good(), "loadgen: cannot open " + path);
  out << w.str() << "\n";
}

std::string cache_line_from(const service::ServiceStats& stats) {
  return "cache:       exact " + std::to_string(stats.cache.exact_hits) +
         "  retarget " + std::to_string(stats.cache.retarget_hits) + "  miss " +
         std::to_string(stats.cache.misses) + "  ewma_solve_ms " +
         std::to_string(stats.ewma_solve_ms);
}

int run_inproc_closed(const LoadgenOptions& options) {
  service::ServiceParams params;
  params.num_workers = options.workers;
  params.cache_capacity = options.cache;
  service::RebalanceService svc(params);

  Tally tally(options.priority_classes);
  std::atomic<std::uint64_t> next_seq{0};
  RunWindow window;
  window.start_ts = unix_now_s();
  util::WallTimer wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < options.concurrency; ++c) {
    clients.emplace_back([&] {
      while (true) {
        const std::uint64_t seq = next_seq.fetch_add(1);
        if (seq >= options.requests) return;
        service::RebalanceRequest request = make_request(options, seq);
        const int priority = request.priority;
        util::WallTimer timer;
        auto future = svc.submit(std::move(request));
        const service::RebalanceResponse response = future.get();
        tally.record(priority, service::to_string(response.outcome),
                     timer.elapsed_ms());
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds = wall.elapsed_seconds();
  window.end_ts = unix_now_s();
  const service::ServiceStats stats = svc.stats();
  report(tally, seconds, cache_line_from(stats));
  if (!options.json_out.empty()) {
    ServerCache cache;
    cache.add_counts(stats.cache.exact_hits, stats.cache.retarget_hits,
                     stats.cache.misses);
    write_json_summary(options.json_out, tally, seconds, options.label, cache,
                       window);
  }
  return 0;
}

int run_inproc_open(const LoadgenOptions& options) {
  service::ServiceParams params;
  params.num_workers = options.workers;
  params.cache_capacity = options.cache;
  service::RebalanceService svc(params);

  Tally tally(options.priority_classes);
  RunWindow window;
  window.start_ts = unix_now_s();
  util::WallTimer wall;
  const auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / options.rate));
  auto next_tick = std::chrono::steady_clock::now();
  for (std::uint64_t seq = 0; seq < options.requests; ++seq) {
    std::this_thread::sleep_until(next_tick);
    next_tick += interval;
    const auto submitted = std::chrono::steady_clock::now();
    service::RebalanceRequest request = make_request(options, seq);
    const int priority = request.priority;
    svc.submit(std::move(request),
               [&tally, submitted, priority](service::RebalanceResponse response) {
                 const double ms =
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - submitted)
                         .count();
                 tally.record(priority, service::to_string(response.outcome), ms);
               });
  }
  svc.drain();
  const double seconds = wall.elapsed_seconds();
  window.end_ts = unix_now_s();
  const service::ServiceStats stats = svc.stats();
  report(tally, seconds, cache_line_from(stats));
  if (!options.json_out.empty()) {
    ServerCache cache;
    cache.add_counts(stats.cache.exact_hits, stats.cache.retarget_hits,
                     stats.cache.misses);
    write_json_summary(options.json_out, tally, seconds, options.label, cache,
                       window);
  }
  return 0;
}

int connect_to(const router::BackendAddress& target) {
  const int fd = net::connect_tcp(target.host, target.port);
  util::require(fd >= 0, "loadgen: connect to " + target.label() +
                             " failed (is the server running?)");
  return fd;
}

int run_tcp_closed(const LoadgenOptions& options) {
  Tally tally(options.priority_classes);
  std::atomic<std::uint64_t> next_seq{0};
  RunWindow window;
  window.start_ts = unix_now_s();
  util::WallTimer wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < options.concurrency; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(options.targets[c % options.targets.size()]);
      net::LineConn conn(fd);
      net::LineReader reader(fd, 0);  // trusted server output: no cap
      std::string line;
      while (true) {
        const std::uint64_t seq = next_seq.fetch_add(1);
        if (seq >= options.requests) break;
        // The canonical encoder the router coalesces on, so loadgen traffic
        // is coalescible by construction.
        const std::string request = service::encode_solve_request(
            make_request(options, seq), seq + 1, /*include_plan=*/false);
        util::WallTimer timer;
        util::require(conn.send(request), "loadgen: send() failed");
        util::require(reader.next(line), "loadgen: server closed the connection");
        const io::JsonValue response = io::JsonValue::parse(line);
        // Same (seed-free) class mapping make_request used when encoding #seq.
        const int priority =
            options.priority_classes > 1
                ? static_cast<int>(seq % options.priority_classes)
                : 0;
        tally.record(priority, response.string_or("outcome", "failed"),
                     timer.elapsed_ms());
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  const double seconds = wall.elapsed_seconds();
  window.end_ts = unix_now_s();

  // One extra connection per target to pull the server-side cache stats —
  // handles both shapes: qulrb_serve answers {"stats":{"cache":{...}}},
  // qulrb_router answers {"stats":{"backend_stats":[{"stats":{...}},...]}}.
  ServerCache cache;
  for (const router::BackendAddress& target : options.targets) {
    try {
      const int fd = connect_to(target);
      net::LineConn conn(fd);
      net::LineReader reader(fd, 0);
      std::string line;
      if (conn.send("{\"op\":\"stats\"}") && reader.next(line)) {
        const io::JsonValue doc = io::JsonValue::parse(line);
        if (const io::JsonValue* stats = doc.find("stats")) {
          if (const io::JsonValue* c = stats->find("cache")) cache.add(*c);
          if (const io::JsonValue* backends = stats->find("backend_stats")) {
            for (const io::JsonValue& entry : backends->as_array()) {
              if (const io::JsonValue* s = entry.find("stats")) {
                if (const io::JsonValue* c = s->find("cache")) cache.add(*c);
              }
            }
          }
        }
      }
      ::close(fd);
    } catch (const std::exception&) {
      // stats are best-effort
    }
  }
  std::string cache_line;
  if (cache.present) {
    cache_line = "cache:       exact " + std::to_string(cache.exact) +
                 "  retarget " + std::to_string(cache.retarget) + "  miss " +
                 std::to_string(cache.miss) + "  hit_rate " +
                 std::to_string(cache.hit_rate());
  }
  report(tally, seconds, cache_line);
  if (!options.json_out.empty()) {
    write_json_summary(options.json_out, tally, seconds, options.label, cache,
                       window);
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage: qulrb_loadgen [--requests N] [--concurrency C] [--m M] [--n N]\n"
         "                     [--k K] [--variant qcqm1|qcqm2] [--sweeps S]\n"
         "                     [--restarts R] [--deadline-ms X] [--drift]\n"
         "                     [--topo-zipf S] [--seed S] [--workers W]\n"
         "                     [--cache C] [--rate R] [--connect PORT]\n"
         "                     [--targets HOST:PORT,...]\n"
         "                     [--priority-classes N] [--label NAME]\n"
         "                     [--json FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        util::require(i + 1 < argc, "loadgen: missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--requests") options.requests = std::stoul(next());
      else if (arg == "--concurrency") options.concurrency = std::stoul(next());
      else if (arg == "--m") options.m = std::stoul(next());
      else if (arg == "--n") options.n = std::stoll(next());
      else if (arg == "--k") options.k = std::stoll(next());
      else if (arg == "--variant") {
        const std::string v = next();
        util::require(v == "qcqm1" || v == "qcqm2", "loadgen: bad variant");
        options.variant = v == "qcqm1" ? lrp::CqmVariant::kReduced
                                       : lrp::CqmVariant::kFull;
      } else if (arg == "--sweeps") options.sweeps = std::stoul(next());
      else if (arg == "--restarts") options.restarts = std::stoul(next());
      else if (arg == "--deadline-ms") options.deadline_ms = std::stod(next());
      else if (arg == "--drift") options.drift = true;
      else if (arg == "--topo-zipf") options.topo_zipf = std::stod(next());
      else if (arg == "--seed") options.seed = std::stoull(next());
      else if (arg == "--workers") options.workers = std::stoul(next());
      else if (arg == "--cache") options.cache = std::stoul(next());
      else if (arg == "--rate") options.rate = std::stod(next());
      else if (arg == "--connect") {
        options.targets.push_back(
            router::BackendAddress{"127.0.0.1", std::stoi(next())});
      }
      else if (arg == "--targets")
        options.targets = router::parse_backend_list(next());
      else if (arg == "--priority-classes")
        options.priority_classes = std::stoul(next());
      else if (arg == "--label") options.label = next();
      else if (arg == "--json") options.json_out = next();
      else if (arg == "--help") return usage();
      else {
        std::cerr << "error: unknown option '" << arg << "'\n";
        return 2;
      }
    }
    util::require(options.m >= 1 && options.n >= 1, "loadgen: need m, n >= 1");
    util::require(options.priority_classes >= 1,
                  "loadgen: need --priority-classes >= 1");

    if (!options.targets.empty()) {
      util::require(options.rate == 0.0,
                    "loadgen: --rate is in-process only (use --concurrency)");
      return run_tcp_closed(options);
    }
    if (options.rate > 0.0) return run_inproc_open(options);
    return run_inproc_closed(options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 3;
  }
}
