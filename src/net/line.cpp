#include "net/line.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <list>
#include <system_error>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace qulrb::net {

namespace {

/// Tick at which idle readers and the accept loop re-check the stop flags.
constexpr int kPollMs = 200;

/// Shaped like service::encode_error("too many connections", 0).
constexpr std::string_view kTooManyConnections =
    R"({"error":"too many connections","id":0})";

/// Written by the signal handler; a volatile sig_atomic_t is all a handler
/// may portably touch.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void on_stop_signal(int signum) { g_stop_signal = signum; }

bool is_socket(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
}

}  // namespace

LineConn::LineConn(int fd) : fd_(fd), socket_(is_socket(fd)) {
  if (socket_) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(kSendTimeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>(kSendTimeout.count() % 1000 * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    // A line server never wants Nagle: it would hold a short line back until
    // the peer's delayed ACK (~40 ms) for the one before. Fails harmlessly
    // on AF_UNIX sockets.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
}

bool LineConn::send(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line).push_back('\n');
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t sent = 0;
  while (!broken_ && sent < framed.size()) {
    const char* data = framed.data() + sent;
    const std::size_t left = framed.size() - sent;
    const ssize_t n =
        socket_ ? ::send(fd_, data, left, MSG_NOSIGNAL) : ::write(fd_, data, left);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;  // a signal must not tear a line
    } else {
      // EPIPE, reset, or the send timeout (EAGAIN): the peer is gone or
      // wedged. Part of the line may be out; nothing may follow it.
      break_locked();
    }
  }
  return !broken_;
}

void LineConn::shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  break_locked();
}

void LineConn::break_locked() {
  if (!broken_ && socket_) ::shutdown(fd_, SHUT_RDWR);
  broken_ = true;
}

LineReader::LineReader(int fd, std::size_t max_line, std::function<bool()> stop,
                       std::chrono::milliseconds line_deadline)
    : fd_(fd),
      max_line_(max_line),
      stop_(std::move(stop)),
      line_deadline_(line_deadline) {}

bool LineReader::next(std::string& line) {
  while (true) {
    const std::size_t nl = buffer_.find('\n', scan_);
    const std::size_t end = nl == std::string::npos ? buffer_.size() : nl;
    if (max_line_ > 0 && end - start_ > max_line_) {
      rejected_ = "request line too long";
      return false;
    }
    if (nl == std::string::npos) {
      scan_ = buffer_.size();
      if (line_deadline_.count() > 0 && end > start_ &&
          line_due_ == std::chrono::steady_clock::time_point{}) {
        line_due_ = std::chrono::steady_clock::now() + line_deadline_;
      }
      if (!fill()) return false;
      continue;
    }
    line_due_ = {};
    const std::size_t begin = start_;
    start_ = scan_ = nl + 1;
    std::size_t stripped = nl;
    if (stripped > begin && buffer_[stripped - 1] == '\r') --stripped;
    if (stripped == begin) continue;
    line.assign(buffer_, begin, stripped - begin);
    return true;
  }
}

bool LineReader::fill() {
  buffer_.erase(0, start_);
  scan_ -= start_;
  start_ = 0;
  char chunk[4096];
  while (true) {
    if (stop_) {
      if (stop_()) return false;
      if (line_due_ != std::chrono::steady_clock::time_point{} &&
          std::chrono::steady_clock::now() >= line_due_) {
        rejected_ = "request line too slow";
        return false;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollMs);
      if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
      if (ready < 0) return false;
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0 || errno != EINTR) return false;  // EOF or error
  }
}

int connect_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void install_stop_signals() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

bool stop_requested() { return g_stop_signal != 0; }

int listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  util::require(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    throw util::InvalidArgument("cannot listen on 127.0.0.1:" + std::to_string(port) +
                                " (port in use?)");
  }
  return fd;
}

void serve_tcp(int listen_fd, const ConnectionHandler& on_connection) {
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::atomic<bool> stopping{false};
  const std::function<bool()> stop = [&stopping] {
    return stopping.load(std::memory_order_relaxed) || stop_requested();
  };
  std::list<Connection> connections;  // stable addresses for the threads

  const auto run = [&](int fd, Connection& self) {
    LineConn conn(fd);
    try {
      LineReader reader(fd, kMaxRequestLine, stop, kLineDeadline);
      if (!on_connection(conn, reader)) stopping.store(true, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      std::cerr << "connection dropped: " << e.what() << "\n";
    }
    // FIN before close: a peer still sending when the server hangs up (an
    // overlong line) reads every byte it was sent, then EOF, not a reset.
    conn.shutdown();
    ::close(fd);
    self.done.store(true, std::memory_order_release);
  };

  while (!stop()) {
    connections.remove_if([](Connection& c) {
      if (!c.done.load(std::memory_order_acquire)) return false;
      c.thread.join();
      return true;
    });
    pollfd pfd{listen_fd, POLLIN, 0};
    if (::poll(&pfd, 1, kPollMs) <= 0) continue;  // tick or EINTR
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Out of fds or similar: back off rather than spin on a listen socket
      // that stays readable.
      if (errno != EINTR && errno != ECONNABORTED) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      }
      continue;
    }
    const auto live = std::count_if(connections.begin(), connections.end(),
                                    [](const Connection& c) {
                                      return !c.done.load(std::memory_order_acquire);
                                    });
    if (static_cast<std::size_t>(live) >= kMaxConnections) {
      LineConn refused(fd);
      refused.send(kTooManyConnections);
      refused.shutdown();
      ::close(fd);
      continue;
    }
    Connection& c = connections.emplace_back();
    try {
      c.thread = std::thread(run, fd, std::ref(c));
    } catch (const std::system_error&) {
      ::close(fd);  // no thread to spare: refuse this connection
      connections.pop_back();
    }
  }
  ::close(listen_fd);
  for (Connection& c : connections) c.thread.join();
}

}  // namespace qulrb::net
