#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/json_value.hpp"
#include "net/line.hpp"
#include "obs/metrics.hpp"
#include "router/policy.hpp"

namespace qulrb::router {

struct BackendAddress {
  std::string host = "127.0.0.1";
  int port = 0;

  std::string label() const { return host + ":" + std::to_string(port); }
};

/// Parse "7471,7472" or "host:7471,host:7472" (forms may mix).
std::vector<BackendAddress> parse_backend_list(const std::string& csv);

/// Persistent connections to N qulrb_serve backends: one socket per backend,
/// a reader thread per live connection, a maintenance thread that probes
/// health ({"op":"health"} → queue depth, inflight, cache hit rate — the
/// backend answers it from relaxed atomics, off its request-path lock) and
/// reconnects marked-down backends.
///
/// Mark-down is immediate on any send/read failure: the socket is shut down
/// (not closed — the fd stays reserved so a racing writer cannot hit a
/// recycled descriptor), pending control callbacks fire with nullptr, and
/// the router's on_down hook runs so in-flight solves can fail over. The fd
/// is closed and reopened only by the maintenance thread, which is the sole
/// (re)connector; a successful reconnect marks the backend back up.
class BackendPool {
 public:
  struct Params {
    std::vector<BackendAddress> backends;
    double probe_interval_ms = 50.0;   ///< health/stats probe cadence
    double reconnect_ms = 200.0;       ///< retry cadence for down backends
  };

  /// A solve/cancel/error response line from a backend (already parsed once;
  /// `doc` is the parsed form of `line`). Runs on that backend's reader
  /// thread.
  using LineHandler = std::function<void(std::size_t backend,
                                         const std::string& line,
                                         const io::JsonValue& doc)>;
  /// Backend just went down. May run on any thread that noticed (reader,
  /// sender, maintenance); must tolerate being called while other backends
  /// are being written to.
  using DownHandler = std::function<void(std::size_t backend)>;
  /// Control-op (stats/metrics/trace) response: the raw line (for verbatim
  /// JSON splicing into aggregated router responses) and its parsed form.
  /// Both nullptr when the backend died before answering.
  using ControlCallback =
      std::function<void(const std::string* line, const io::JsonValue* doc)>;

  BackendPool(Params params, obs::MetricsRegistry& registry);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Connect to every backend (best effort — failures stay down and the
  /// maintenance thread keeps retrying) and start the probe/reconnect loop.
  void start(LineHandler on_line, DownHandler on_down);
  void stop();

  std::size_t size() const noexcept { return backends_.size(); }
  const BackendAddress& address(std::size_t b) const {
    return backends_[b]->addr;
  }

  /// Send one protocol line (newline appended). False = backend down (it was
  /// marked down if the failure was fresh).
  bool send(std::size_t backend, const std::string& line);

  /// Send a control op whose response is answered in order on the backend
  /// connection (the serve session handles control ops inline, so FIFO per
  /// connection holds). Registration and send are one atomic step, so waiter
  /// order always equals wire order even with concurrent callers. The
  /// callback runs on the backend's reader thread. On a false return the
  /// callback is NOT retained: either it was never registered (backend
  /// already down) or it has already been answered with nullptr by the
  /// mark-down drain.
  bool send_control(std::size_t backend, const std::string& line,
                    ControlCallback callback);

  /// Fleet snapshot for the routing policies: health, probed queue depth and
  /// cache hit rate (with their age), fresh router-side inflight counts.
  std::vector<BackendView> views() const;

  bool healthy(std::size_t backend) const;
  std::size_t healthy_count() const;

  void inflight_add(std::size_t backend, std::int64_t delta);
  std::size_t inflight(std::size_t backend) const;
  std::uint64_t routed_total(std::size_t backend) const;
  void note_routed(std::size_t backend);

 private:
  /// A registered control-op response slot. The token lets the failing
  /// sender withdraw exactly its own waiter — popping an end of the deque
  /// could withdraw a concurrent caller's slot and hang that caller.
  struct ControlWaiter {
    std::uint64_t token = 0;
    ControlCallback callback;
  };

  struct Backend {
    BackendAddress addr;
    std::atomic<int> fd{-1};
    std::atomic<bool> healthy{false};
    /// Bumped by every successful (re)connect. Failure observers carry the
    /// generation they were talking to into mark_down, which ignores stale
    /// generations — a sender that noticed a failure, lost the CPU, and woke
    /// after the maintenance thread already reconnected must not tear down
    /// the fresh connection.
    std::atomic<std::uint64_t> conn_gen{0};
    /// Orders sends on the connection (and control-waiter registration
    /// with them); guards `conn`, which lives as long as `fd` is open.
    std::mutex write_mutex;
    std::unique_ptr<net::LineConn> conn;
    std::thread reader;

    // Probe data (written by the probe callback on the reader thread).
    std::atomic<std::size_t> queue_depth{0};
    std::atomic<double> cache_hit_rate{0.0};
    std::atomic<double> last_probe_ms{-1.0};  ///< pool-epoch ms, -1 = never

    // Router-side bookkeeping.
    std::atomic<std::size_t> inflight{0};
    std::atomic<std::uint64_t> routed{0};

    std::mutex control_mutex;
    std::deque<ControlWaiter> control_waiters;
    std::uint64_t next_control_token = 1;  ///< guarded by control_mutex

    std::chrono::steady_clock::time_point last_attempt{};

    obs::Gauge* g_healthy = nullptr;
    obs::Gauge* g_queue_depth = nullptr;
    obs::Gauge* g_inflight = nullptr;
  };

  double now_ms() const;
  bool connect_backend(std::size_t b);
  /// Join the reader of a shut-down connection and close its fd.
  void close_connection(Backend& backend);
  void mark_down(std::size_t b, std::uint64_t gen);
  void reader_loop(std::size_t b, int fd, std::uint64_t gen);
  void maintenance_loop();
  void probe(std::size_t b);

  Params params_;
  std::vector<std::unique_ptr<Backend>> backends_;
  LineHandler on_line_;
  DownHandler on_down_;
  std::atomic<bool> stopping_{false};
  std::thread maintenance_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace qulrb::router
