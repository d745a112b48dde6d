#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace qulrb::net {

/// Longest request line a server accepts, in bytes before the '\n'. Request
/// lines in the tests and benchmarks are a few hundred bytes; 1 MiB still
/// admits a solve over tens of thousands of processes.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// How long one send may block on a peer that stopped reading.
inline constexpr std::chrono::milliseconds kSendTimeout{2000};

/// How long a request line may take to arrive once its first byte is in, so
/// a peer trickling bytes (slowloris) cannot hold a connection thread. Idle
/// time between lines is not limited; kMaxConnections bounds idle peers.
inline constexpr std::chrono::milliseconds kLineDeadline{10000};

/// Most live connections serve_tcp runs at once. One more reads a single
/// {"error":"too many connections","id":0} line, then EOF.
inline constexpr std::size_t kMaxConnections = 256;

/// The write side of a JSON-lines connection. Thread safe; does not own the
/// fd; works on sockets (where it sets SO_SNDTIMEO to kSendTimeout and
/// TCP_NODELAY) and on pipes or files (stdout). The first failed or timed-out
/// write shuts the fd down and every later send is a no-op, so no line is
/// ever appended to the torn prefix of one that timed out.
class LineConn {
 public:
  explicit LineConn(int fd);

  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Write `line` and a '\n' whole. False when the connection is broken.
  bool send(std::string_view line);

  /// Break the connection: the peer reads what was sent, then EOF.
  void shutdown();

 private:
  void break_locked();

  const int fd_;
  const bool socket_;  ///< send(MSG_NOSIGNAL) on sockets, write() otherwise
  std::mutex mutex_;
  bool broken_ = false;  ///< guarded by mutex_
};

/// The read side: splits a byte stream into lines, strips a trailing '\r'
/// and skips empty lines. Works on sockets and on stdin.
class LineReader {
 public:
  /// `max_line` caps a line's bytes before the '\n' (0 = no cap, for trusted
  /// peers). `stop` is polled every 200 ms while no data arrives; without it
  /// the reader blocks until data, EOF or an error. `line_deadline` (0 = none)
  /// bounds how long a line may take once its first byte is in; it is checked
  /// on the `stop` poll tick, so it needs `stop`.
  LineReader(int fd, std::size_t max_line, std::function<bool()> stop = {},
             std::chrono::milliseconds line_deadline = {});

  /// Next non-empty line. False on EOF (a partial last line is dropped), a
  /// read error, `stop`, or a line over the cap or past its deadline.
  bool next(std::string& line);

  /// Why next() gave up on a line the peer was sending ("request line too
  /// long" or "request line too slow"); null after EOF, an error or `stop`.
  const char* rejected() const noexcept { return rejected_; }

 private:
  bool fill();

  const int fd_;
  const std::size_t max_line_;
  const std::function<bool()> stop_;
  const std::chrono::milliseconds line_deadline_;
  std::string buffer_;
  std::size_t start_ = 0;  ///< first unconsumed byte of buffer_
  std::size_t scan_ = 0;   ///< no '\n' in buffer_ before this
  /// When the partial line in buffer_ is due; unset between lines.
  std::chrono::steady_clock::time_point line_due_{};
  const char* rejected_ = nullptr;
};

/// Connect to host:port (IPv4 dotted quad); -1 on failure.
int connect_tcp(const std::string& host, int port);

/// SIGINT/SIGTERM set the stop flag (no SA_RESTART, so blocked calls return
/// EINTR); SIGPIPE is ignored, so a vanished peer is an EPIPE, not a death.
void install_stop_signals();

/// True once SIGINT or SIGTERM arrived after install_stop_signals().
bool stop_requested();

/// Runs one connection on its own thread; `reader` is capped at
/// kMaxRequestLine, gives each line kLineDeadline and stops with the server.
/// The socket is shut down and closed when the handler returns, so it must
/// not return while callbacks may still write to `conn`. Return false to stop
/// the server.
using ConnectionHandler = std::function<bool(LineConn& conn, LineReader& reader)>;

/// Bind and listen on 127.0.0.1:port (0 = any free port). Throws
/// util::InvalidArgument when the port cannot be bound.
int listen_tcp(int port);

/// Accept on `listen_fd` (closed on return), one thread per connection up
/// to kMaxConnections, joined within a poll tick of its connection ending.
/// Returns after the first handler returns false or SIGINT/SIGTERM, once
/// every connection thread has been joined.
void serve_tcp(int listen_fd, const ConnectionHandler& on_connection);

}  // namespace qulrb::net
