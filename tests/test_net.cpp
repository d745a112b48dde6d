#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/line.hpp"

namespace qulrb::net {
namespace {

using namespace std::chrono_literals;

/// Both ends of a connected AF_UNIX stream socket, closed on destruction.
struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    for (const int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
  void close_end(int i) {
    ::close(fd[i]);
    fd[i] = -1;
  }
  int fd[2] = {-1, -1};
};

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Everything the peer can read until EOF.
std::string read_to_eof(int fd) {
  std::string out;
  char chunk[65536];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(n, 0) << "expected EOF, not an error";
  return out;
}

std::vector<std::string> read_lines(LineReader& reader) {
  std::vector<std::string> lines;
  std::string line;
  while (reader.next(line)) lines.push_back(line);
  return lines;
}

TEST(Net, TimedOutSendNeverTearsALine) {
  SocketPair pair;
  LineConn conn(pair.fd[0]);
  // A short send timeout in place of the 2 s default keeps the test fast.
  timeval tv{0, 100 * 1000};
  ASSERT_EQ(::setsockopt(pair.fd[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)), 0);
  // Far larger than the socket buffer, and the peer is not reading: the
  // send times out part way through the line.
  const std::string big(8u << 20, 'a');
  EXPECT_FALSE(conn.send(big));
  EXPECT_FALSE(conn.send("later"));

  const std::string got = read_to_eof(pair.fd[1]);
  EXPECT_GT(got.size(), 0u);
  EXPECT_LT(got.size(), big.size());
  EXPECT_EQ(got.find_first_not_of('a'), std::string::npos)
      << "a byte after the torn prefix reached the peer";
}

TEST(Net, SendFramesWholeLinesOnPipes) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  {
    LineConn conn(fds[1]);
    EXPECT_TRUE(conn.send("hello"));
    EXPECT_TRUE(conn.send(""));
  }
  ::close(fds[1]);
  EXPECT_EQ(read_to_eof(fds[0]), "hello\n\n");
  ::close(fds[0]);
}

TEST(Net, ConcurrentSendsStayLineAtomic) {
  SocketPair pair;
  LineConn conn(pair.fd[0]);
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::string received;
  std::thread drain([&] { received = read_to_eof(pair.fd[1]); });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&conn, t] {
      const std::string line(10000, static_cast<char>('a' + t));
      for (int i = 0; i < kLines; ++i) EXPECT_TRUE(conn.send(line));
    });
  }
  for (std::thread& w : writers) w.join();
  conn.shutdown();
  drain.join();

  std::size_t lines = 0;
  for (std::size_t start = 0; start < received.size(); ++lines) {
    const std::size_t nl = received.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = received.substr(start, nl - start);
    ASSERT_EQ(line.size(), 10000u);
    EXPECT_EQ(line.find_first_not_of(line[0]), std::string::npos) << "interleaved";
    start = nl + 1;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads * kLines));
}

TEST(Net, ReaderStripsCarriageReturnsAndSkipsEmptyLines) {
  SocketPair pair;
  write_all(pair.fd[1], "a\r\n\n\r\nb\n\nc\r\n");
  pair.close_end(1);
  LineReader reader(pair.fd[0], 0);
  EXPECT_EQ(read_lines(reader), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(reader.rejected(), nullptr);
}

TEST(Net, ReaderJoinsALineSplitAcrossReads) {
  SocketPair pair;
  std::thread writer([&pair] {
    for (const char* piece : {"hel", "lo\nwor", "ld\n"}) {
      write_all(pair.fd[1], piece);
      std::this_thread::sleep_for(20ms);
    }
    ::shutdown(pair.fd[1], SHUT_WR);
  });
  LineReader reader(pair.fd[0], 0);
  EXPECT_EQ(read_lines(reader), (std::vector<std::string>{"hello", "world"}));
  writer.join();
}

TEST(Net, ReaderDropsAPartialLineAtEof) {
  SocketPair pair;
  write_all(pair.fd[1], "abc\ndef");
  pair.close_end(1);
  LineReader reader(pair.fd[0], 0);
  EXPECT_EQ(read_lines(reader), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(reader.rejected(), nullptr);
}

TEST(Net, ReaderRejectsLinesOverTheCap) {
  {
    SocketPair pair;
    write_all(pair.fd[1], "12345678\n123456789\nnever\n");
    LineReader reader(pair.fd[0], 8);
    EXPECT_EQ(read_lines(reader), (std::vector<std::string>{"12345678"}));
    EXPECT_STREQ(reader.rejected(), "request line too long");
  }
  {
    // No newline ever comes and the writer stays open: the reader must give
    // up once the cap is passed, not buffer until EOF.
    SocketPair pair;
    write_all(pair.fd[1], std::string(100, 'x'));
    LineReader reader(pair.fd[0], 8);
    std::string line;
    EXPECT_FALSE(reader.next(line));
    EXPECT_STREQ(reader.rejected(), "request line too long");
  }
}

TEST(Net, ReaderReturnsWhenStopIsRequested) {
  SocketPair pair;  // nothing is ever written
  std::atomic<bool> stop{false};
  LineReader reader(pair.fd[0], 0, [&stop] { return stop.load(); });
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(50ms);
    stop.store(true);
  });
  std::string line;
  EXPECT_FALSE(reader.next(line));
  EXPECT_EQ(reader.rejected(), nullptr);
  stopper.join();
}

TEST(Net, ReaderGivesUpOnALineSlowerThanItsDeadline) {
  SocketPair pair;
  LineReader reader(pair.fd[0], 0, [] { return false; }, 300ms);
  std::atomic<bool> reading{true};
  std::thread writer([&] {
    std::this_thread::sleep_for(500ms);  // idle between lines: no deadline
    write_all(pair.fd[1], "ok\n");
    // One byte every 50 ms: the line never ends, but bytes keep arriving.
    for (int i = 0; i < 60 && reading.load(); ++i) {
      write_all(pair.fd[1], "x");
      std::this_thread::sleep_for(50ms);
    }
  });
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ok");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(reader.next(line));
  reading.store(false);
  EXPECT_STREQ(reader.rejected(), "request line too slow");
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
  writer.join();
}

int bound_port(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ntohs(addr.sin_port);
}

TEST(Net, ServeTcpEchoesCapsAndStops) {
  const int listen_fd = listen_tcp(0);
  const int port = bound_port(listen_fd);
  std::thread server([listen_fd] {
    serve_tcp(listen_fd, [](LineConn& conn, LineReader& reader) {
      std::string line;
      while (reader.next(line)) {
        if (line == "stop") return false;
        conn.send(line);
      }
      if (reader.rejected()) conn.send("overflow");
      return true;
    });
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([port, c] {
      const int fd = connect_tcp("127.0.0.1", port);
      ASSERT_GE(fd, 0);
      LineConn conn(fd);
      LineReader reader(fd, 0);
      std::string line;
      for (int i = 0; i < 20; ++i) {
        const std::string sent = std::to_string(c) + ":" + std::to_string(i);
        ASSERT_TRUE(conn.send(sent));
        ASSERT_TRUE(reader.next(line));
        EXPECT_EQ(line, sent);
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();

  // One line over the cap: one answer, then EOF.
  const int fd = connect_tcp("127.0.0.1", port);
  ASSERT_GE(fd, 0);
  write_all(fd, std::string(kMaxRequestLine + 1, 'x') + "\n");
  EXPECT_EQ(read_to_eof(fd), "overflow\n");
  ::close(fd);

  const int stopper = connect_tcp("127.0.0.1", port);
  ASSERT_GE(stopper, 0);
  write_all(stopper, "stop\n");
  server.join();  // returns only once every connection thread is joined
  ::close(stopper);
}

TEST(Net, ServeTcpRefusesConnectionsPastTheCap) {
  const int listen_fd = listen_tcp(0);
  const int port = bound_port(listen_fd);
  std::thread server([listen_fd] {
    serve_tcp(listen_fd, [](LineConn& conn, LineReader& reader) {
      std::string line;
      while (reader.next(line)) {
        if (line == "stop") return false;
        conn.send(line);
      }
      return true;
    });
  });
  // Echo one line: true once the server runs this connection.
  const auto served = [](int fd) {
    LineConn conn(fd);
    LineReader reader(fd, 0);
    std::string line;
    return conn.send("hi") && reader.next(line) && line == "hi";
  };

  std::vector<int> held;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    held.push_back(connect_tcp("127.0.0.1", port));
    ASSERT_GE(held.back(), 0);
    ASSERT_TRUE(served(held.back())) << "connection " << i;
  }
  const int refused = connect_tcp("127.0.0.1", port);
  ASSERT_GE(refused, 0);
  EXPECT_EQ(read_to_eof(refused), "{\"error\":\"too many connections\",\"id\":0}\n");
  ::close(refused);

  // A closed connection frees its slot once its thread is done.
  ::close(held.back());
  held.pop_back();
  bool again = false;
  for (int attempt = 0; attempt < 50 && !again; ++attempt) {
    const int fd = connect_tcp("127.0.0.1", port);
    ASSERT_GE(fd, 0);
    again = served(fd);
    ::close(fd);
    if (!again) std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(again);

  for (const int fd : held) ::close(fd);  // at most cap - 1 stay live now
  const int stopper = connect_tcp("127.0.0.1", port);
  ASSERT_GE(stopper, 0);
  write_all(stopper, "stop\n");
  server.join();
  ::close(stopper);
}

TEST(Net, AcceptedSocketAnswersBackToBackLinesWithoutDelayedAck) {
  // Two small writes in a row on an accepted socket: with Nagle on, the
  // second one waits for the client's delayed ACK (~40 ms on Linux).
  const int listen_fd = listen_tcp(0);
  const int port = bound_port(listen_fd);
  std::thread server([listen_fd] {
    serve_tcp(listen_fd, [](LineConn& conn, LineReader& reader) {
      std::string line;
      while (reader.next(line)) {
        if (line == "stop") return false;
        conn.send("first");
        conn.send("second");
      }
      return true;
    });
  });

  const int fd = connect_tcp("127.0.0.1", port);
  ASSERT_GE(fd, 0);
  {
    LineConn conn(fd);
    LineReader reader(fd, 0);
    std::vector<double> rounds_ms;
    std::string line;
    for (int i = 0; i < 50; ++i) {
      const auto start = std::chrono::steady_clock::now();
      ASSERT_TRUE(conn.send("ping"));
      ASSERT_TRUE(reader.next(line));
      ASSERT_EQ(line, "first");
      ASSERT_TRUE(reader.next(line));
      ASSERT_EQ(line, "second");
      rounds_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    }
    std::nth_element(rounds_ms.begin(), rounds_ms.begin() + 25, rounds_ms.end());
    EXPECT_LT(rounds_ms[25], 10.0) << "median round in ms";
    conn.send("stop");
  }
  server.join();
  ::close(fd);
}

}  // namespace
}  // namespace qulrb::net
