#include "router/backend_pool.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "util/error.hpp"

namespace qulrb::router {

std::vector<BackendAddress> parse_backend_list(const std::string& csv) {
  std::vector<BackendAddress> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    BackendAddress addr;
    const std::size_t colon = item.rfind(':');
    try {
      if (colon == std::string::npos) {
        addr.port = std::stoi(item);
      } else {
        addr.host = item.substr(0, colon);
        addr.port = std::stoi(item.substr(colon + 1));
      }
    } catch (const std::exception&) {
      throw util::InvalidArgument("bad backend '" + item +
                                  "' (want PORT or HOST:PORT)");
    }
    util::require(addr.port > 0 && addr.port < 65536,
                  "bad backend port in '" + item + "'");
    out.push_back(std::move(addr));
  }
  util::require(!out.empty(), "backend list is empty");
  return out;
}

BackendPool::BackendPool(Params params, obs::MetricsRegistry& registry)
    : params_(std::move(params)), epoch_(std::chrono::steady_clock::now()) {
  util::require(!params_.backends.empty(), "BackendPool: no backends");
  using Labels = obs::MetricsRegistry::Labels;
  backends_.reserve(params_.backends.size());
  for (const BackendAddress& addr : params_.backends) {
    auto b = std::make_unique<Backend>();
    b->addr = addr;
    const Labels labels{{"backend", addr.label()}};
    b->g_healthy = &registry.gauge("qulrb_router_backend_healthy",
                                   "1 when the backend connection is up",
                                   labels);
    b->g_queue_depth =
        &registry.gauge("qulrb_router_backend_queue_depth",
                        "Backend-reported queue depth (last probe)", labels);
    b->g_inflight =
        &registry.gauge("qulrb_router_backend_inflight",
                        "Router-side in-flight requests on this backend",
                        labels);
    backends_.push_back(std::move(b));
  }
}

BackendPool::~BackendPool() { stop(); }

double BackendPool::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void BackendPool::start(LineHandler on_line, DownHandler on_down) {
  on_line_ = std::move(on_line);
  on_down_ = std::move(on_down);
  for (std::size_t b = 0; b < backends_.size(); ++b) connect_backend(b);
  maintenance_ = std::thread([this] { maintenance_loop(); });
}

void BackendPool::stop() {
  if (stopping_.exchange(true)) return;
  if (maintenance_.joinable()) maintenance_.join();
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    Backend& backend = *backends_[b];
    const int fd = backend.fd.load(std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    close_connection(backend);
  }
}

void BackendPool::close_connection(Backend& backend) {
  if (backend.reader.joinable()) backend.reader.join();
  std::lock_guard<std::mutex> lock(backend.write_mutex);
  backend.conn.reset();
  const int fd = backend.fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

bool BackendPool::connect_backend(std::size_t b) {
  Backend& backend = *backends_[b];
  backend.last_attempt = std::chrono::steady_clock::now();

  const int fd = net::connect_tcp(backend.addr.host, backend.addr.port);
  if (fd < 0) return false;

  // Bump the generation before publishing healthy: anyone who observes the
  // new healthy=true also observes the new generation.
  const std::uint64_t gen =
      backend.conn_gen.load(std::memory_order_relaxed) + 1;
  backend.conn_gen.store(gen, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(backend.write_mutex);
    backend.conn = std::make_unique<net::LineConn>(fd);
  }
  backend.fd.store(fd, std::memory_order_release);
  backend.healthy.store(true, std::memory_order_release);
  backend.g_healthy->set(1.0);
  backend.reader = std::thread([this, b, fd, gen] { reader_loop(b, fd, gen); });
  probe(b);  // refresh stats immediately so the policies see the new member
  return true;
}

void BackendPool::mark_down(std::size_t b, std::uint64_t gen) {
  Backend& backend = *backends_[b];
  // A failure observer that stalled long enough for the maintenance thread to
  // reconnect carries a stale generation — it must not tear down the fresh
  // connection it never talked to.
  if (backend.conn_gen.load(std::memory_order_relaxed) != gen) return;
  if (!backend.healthy.exchange(false)) return;  // someone else already did
  backend.g_healthy->set(0.0);
  const int fd = backend.fd.load(std::memory_order_acquire);
  // Shut down, do NOT close: concurrent writers may still hold the fd, and a
  // recycled descriptor number is the worst failure mode a router can have.
  // The maintenance thread closes it once the reader has exited.
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);

  std::deque<ControlWaiter> orphaned;
  {
    std::lock_guard<std::mutex> lock(backend.control_mutex);
    orphaned.swap(backend.control_waiters);
  }
  for (const auto& w : orphaned) {
    if (w.callback) w.callback(nullptr, nullptr);
  }
  if (on_down_) on_down_(b);
}

bool BackendPool::send(std::size_t backend_idx, const std::string& line) {
  return send_control(backend_idx, line, nullptr);
}

bool BackendPool::send_control(std::size_t backend_idx, const std::string& line,
                               ControlCallback callback) {
  Backend& backend = *backends_[backend_idx];
  bool sent = false;
  std::uint64_t token = 0;  // 0: no waiter (a plain send)
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(backend.write_mutex);
    if (!backend.healthy.load(std::memory_order_acquire) || !backend.conn) {
      return false;
    }
    gen = backend.conn_gen.load(std::memory_order_relaxed);
    // Register and send under one hold of write_mutex: the reader matches
    // responses to waiters FIFO, so registration order must equal wire
    // order. As two separate critical sections, concurrent callers could
    // register in one order and send in the other, cross-wiring responses.
    if (callback) {
      std::lock_guard<std::mutex> control_lock(backend.control_mutex);
      token = backend.next_control_token++;
      backend.control_waiters.push_back({token, std::move(callback)});
    }
    sent = backend.conn->send(line);
  }
  if (sent) return true;
  // Nothing will answer; withdraw exactly our waiter by token (mark_down may
  // have drained it already, answering it with nullptr). The down-path runs
  // with no write_mutex held: on_down_ re-forwards this backend's orphaned
  // routes through send() to OTHER backends, so two backends failing
  // concurrently on different threads would deadlock on each other's
  // write_mutex if mark_down ran under the lock.
  if (token != 0) {
    std::lock_guard<std::mutex> control_lock(backend.control_mutex);
    for (auto it = backend.control_waiters.begin();
         it != backend.control_waiters.end(); ++it) {
      if (it->token == token) {
        backend.control_waiters.erase(it);
        break;
      }
    }
  }
  mark_down(backend_idx, gen);
  return false;
}

void BackendPool::reader_loop(std::size_t b, int fd, std::uint64_t gen) {
  Backend& backend = *backends_[b];
  // No stop poll and no line cap: the peer is a trusted backend whose flight
  // and profile answers run large, and mark_down/stop shut the fd down,
  // which ends the read.
  net::LineReader reader(fd, 0);
  std::string line;
  while (reader.next(line)) {
    io::JsonValue doc;
    try {
      doc = io::JsonValue::parse(line);
    } catch (const std::exception&) {
      continue;  // a torn line means the stream is sick, but keep reading
    }
    if (doc.find("stats") != nullptr || doc.find("metrics") != nullptr ||
        doc.find("traces") != nullptr || doc.find("obs") != nullptr ||
        doc.find("flight") != nullptr || doc.find("profile") != nullptr) {
      // Control responses come back in send order on this connection.
      ControlCallback cb;
      {
        std::lock_guard<std::mutex> lock(backend.control_mutex);
        if (!backend.control_waiters.empty()) {
          cb = std::move(backend.control_waiters.front().callback);
          backend.control_waiters.pop_front();
        }
      }
      if (cb) cb(&line, &doc);
    } else if (on_line_) {
      on_line_(b, line, doc);
    }
  }
  if (!stopping_.load(std::memory_order_relaxed)) mark_down(b, gen);
}

void BackendPool::probe(std::size_t b) {
  Backend& backend = *backends_[b];
  send_control(b, "{\"op\":\"health\"}", [this, &backend](const std::string*,
                                                        const io::JsonValue* doc) {
    if (doc == nullptr) return;
    const io::JsonValue* stats = doc->find("stats");
    if (stats == nullptr) return;
    backend.queue_depth.store(
        static_cast<std::size_t>(stats->int_or("queue_depth", 0)),
        std::memory_order_relaxed);
    backend.cache_hit_rate.store(stats->number_or("cache_hit_rate", 0.0),
                                 std::memory_order_relaxed);
    backend.last_probe_ms.store(now_ms(), std::memory_order_relaxed);
    backend.g_queue_depth->set(
        static_cast<double>(backend.queue_depth.load(std::memory_order_relaxed)));
  });
}

void BackendPool::maintenance_loop() {
  double last_probe = -1e9;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const double now = now_ms();
    if (now - last_probe >= params_.probe_interval_ms) {
      last_probe = now;
      for (std::size_t b = 0; b < backends_.size(); ++b) {
        if (backends_[b]->healthy.load(std::memory_order_acquire)) probe(b);
      }
    }
    for (std::size_t b = 0; b < backends_.size(); ++b) {
      Backend& backend = *backends_[b];
      if (backend.healthy.load(std::memory_order_acquire)) continue;
      const auto since = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -
                             backend.last_attempt)
                             .count();
      if (backend.last_attempt.time_since_epoch().count() != 0 &&
          since < params_.reconnect_ms) {
        continue;
      }
      // Sole closer: the old reader has exited (or never started); reap it
      // and retire the dead fd before dialing again.
      close_connection(backend);
      connect_backend(b);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::vector<BackendView> BackendPool::views() const {
  std::vector<BackendView> out(backends_.size());
  const double now = now_ms();
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const Backend& backend = *backends_[b];
    BackendView& v = out[b];
    v.healthy = backend.healthy.load(std::memory_order_acquire);
    v.queue_depth = backend.queue_depth.load(std::memory_order_relaxed);
    v.inflight = backend.inflight.load(std::memory_order_relaxed);
    v.cache_hit_rate = backend.cache_hit_rate.load(std::memory_order_relaxed);
    const double probed = backend.last_probe_ms.load(std::memory_order_relaxed);
    v.stats_age_ms = probed >= 0.0 ? now - probed : -1.0;
  }
  return out;
}

bool BackendPool::healthy(std::size_t backend) const {
  return backends_[backend]->healthy.load(std::memory_order_acquire);
}

std::size_t BackendPool::healthy_count() const {
  std::size_t n = 0;
  for (const auto& b : backends_) {
    if (b->healthy.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void BackendPool::inflight_add(std::size_t backend, std::int64_t delta) {
  Backend& b = *backends_[backend];
  b.inflight.fetch_add(static_cast<std::size_t>(delta),
                       std::memory_order_relaxed);
  b.g_inflight->set(
      static_cast<double>(b.inflight.load(std::memory_order_relaxed)));
}

std::size_t BackendPool::inflight(std::size_t backend) const {
  return backends_[backend]->inflight.load(std::memory_order_relaxed);
}

std::uint64_t BackendPool::routed_total(std::size_t backend) const {
  return backends_[backend]->routed.load(std::memory_order_relaxed);
}

void BackendPool::note_routed(std::size_t backend) {
  backends_[backend]->routed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace qulrb::router
