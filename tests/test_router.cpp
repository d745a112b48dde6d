#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/json_value.hpp"
#include "router/coalesce.hpp"
#include "router/policy.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"

namespace qulrb::router {
namespace {

// ------------------------------------------------------------- parsing ----

TEST(Policy, ParseRoundTripsEveryKind) {
  for (const PolicyKind kind :
       {PolicyKind::kRandom, PolicyKind::kRoundRobin, PolicyKind::kShortestQueue,
        PolicyKind::kShortestQueueStale, PolicyKind::kCacheAffinity}) {
    EXPECT_EQ(parse_policy(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_policy("fastest"), util::InvalidArgument);
}

TEST(BackendList, ParsesPortsAndHostPortsMixed) {
  const auto list = parse_backend_list("7471,localhost:7472,10.0.0.5:80");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].host, "127.0.0.1");
  EXPECT_EQ(list[0].port, 7471);
  EXPECT_EQ(list[1].host, "localhost");
  EXPECT_EQ(list[1].port, 7472);
  EXPECT_EQ(list[2].label(), "10.0.0.5:80");
}

TEST(BackendList, RejectsGarbage) {
  EXPECT_THROW(parse_backend_list(""), util::InvalidArgument);
  EXPECT_THROW(parse_backend_list("host:"), util::InvalidArgument);
  EXPECT_THROW(parse_backend_list("banana"), util::InvalidArgument);
  EXPECT_THROW(parse_backend_list("70000"), util::InvalidArgument);
}

// ----------------------------------------------------------- hash ring ----

std::map<std::uint64_t, std::size_t> ring_assignment(
    const HashRing& ring, std::size_t keys) {
  std::map<std::uint64_t, std::size_t> owner;
  for (std::size_t i = 0; i < keys; ++i) {
    const std::uint64_t h = mix64(i + 1);
    owner[h] = ring.owner(h);
  }
  return owner;
}

TEST(HashRing, RemovalMovesOnlyTheDeadBackendsKeys) {
  constexpr std::size_t kKeys = 4000;
  HashRing ring(64);
  ring.rebuild({0, 1, 2, 3});
  const auto before = ring_assignment(ring, kKeys);

  ring.rebuild({0, 1, 3});  // backend 2 died
  const auto after = ring_assignment(ring, kKeys);

  std::size_t moved = 0;
  for (const auto& [key, owner] : before) {
    if (owner == 2) {
      // Its keys must relocate to a surviving backend.
      EXPECT_NE(after.at(key), 2u);
    } else if (after.at(key) != owner) {
      ++moved;  // a survivor's key moved — consistent hashing forbids this
    }
  }
  EXPECT_EQ(moved, 0u);
}

TEST(HashRing, ReAddingRestoresTheOriginalAssignment) {
  constexpr std::size_t kKeys = 2000;
  HashRing ring(64);
  ring.rebuild({0, 1, 2, 3});
  const auto original = ring_assignment(ring, kKeys);
  ring.rebuild({0, 1, 3});
  ring.rebuild({0, 1, 2, 3});  // backend 2 came back
  EXPECT_EQ(ring_assignment(ring, kKeys), original);
}

TEST(HashRing, AdditionMovesRoughlyOneNthOfTheKeyspace) {
  constexpr std::size_t kKeys = 8000;
  HashRing ring(64);
  ring.rebuild({0, 1, 2, 3});
  const auto before = ring_assignment(ring, kKeys);
  ring.rebuild({0, 1, 2, 3, 4});
  const auto after = ring_assignment(ring, kKeys);
  std::size_t moved = 0;
  for (const auto& [key, owner] : before) {
    if (after.at(key) != owner) {
      ++moved;
      EXPECT_EQ(after.at(key), 4u);  // moves only flow to the new member
    }
  }
  const double frac = static_cast<double>(moved) / kKeys;
  EXPECT_GT(frac, 0.08);  // ~1/5 expected; generous bounds for vnode variance
  EXPECT_LT(frac, 0.35);
}

TEST(HashRing, OwnersWalksDistinctBackends) {
  HashRing ring(16);
  ring.rebuild({0, 1, 2});
  const auto order = ring.owners(mix64(99), 3);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 3u);
}

// ------------------------------------------------------------ policies ----

std::vector<BackendView> uniform_views(std::size_t n) {
  return std::vector<BackendView>(n);
}

TEST(Policy, RoundRobinCyclesOverHealthyOnly) {
  auto policy = make_policy(PolicyKind::kRoundRobin);
  auto views = uniform_views(4);
  views[2].healthy = false;
  std::vector<std::size_t> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy->pick(0, views));
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1, 3, 0, 1, 3}));
}

TEST(Policy, RandomIsSeedDeterministicAndRoughlyUniform) {
  PolicyConfig config;
  config.seed = 42;
  auto a = make_policy(PolicyKind::kRandom, config);
  auto b = make_policy(PolicyKind::kRandom, config);
  const auto views = uniform_views(4);
  std::vector<std::size_t> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t pick = a->pick(0, views);
    EXPECT_EQ(b->pick(0, views), pick);  // same seed, same stream
    ++counts[pick];
  }
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 800u);  // 1000 expected per backend
    EXPECT_LT(c, 1200u);
  }
}

TEST(Policy, AllDownMeansNoPick) {
  for (const PolicyKind kind :
       {PolicyKind::kRandom, PolicyKind::kRoundRobin, PolicyKind::kShortestQueue,
        PolicyKind::kShortestQueueStale, PolicyKind::kCacheAffinity}) {
    auto policy = make_policy(kind);
    auto views = uniform_views(3);
    for (auto& v : views) v.healthy = false;
    EXPECT_EQ(policy->pick(1, views), views.size()) << to_string(kind);
  }
}

TEST(Policy, ShortestQueueCountsFreshInflightStaleDoesNot) {
  auto fresh = make_policy(PolicyKind::kShortestQueue);
  auto stale = make_policy(PolicyKind::kShortestQueueStale);
  auto views = uniform_views(2);
  views[0].queue_depth = 2;  // probe says 0 is longer...
  views[1].queue_depth = 1;
  views[1].inflight = 5;  // ...but the router just sent 1 five requests
  EXPECT_EQ(fresh->pick(0, views), 0u);  // 2+0 < 1+5
  EXPECT_EQ(stale->pick(0, views), 1u);  // probe data only: 1 < 2
}

TEST(Policy, CacheAffinityIsStickyPerTopology) {
  auto policy = make_policy(PolicyKind::kCacheAffinity);
  const auto views = uniform_views(4);
  for (std::uint64_t topo = 0; topo < 32; ++topo) {
    const std::size_t first = policy->pick(mix64(topo), views);
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(policy->pick(mix64(topo), views), first);
    }
  }
}

TEST(Policy, CacheAffinitySpillsOffOverloadedOwnerOnly) {
  auto policy = make_policy(PolicyKind::kCacheAffinity);
  auto views = uniform_views(4);
  const std::uint64_t topo = mix64(7);
  const std::size_t owner = policy->pick(topo, views);

  // Slam the owner far past the bounded-load threshold: this key spills to
  // its next ring neighbour...
  views[owner].inflight = 100;
  const std::size_t spilled = policy->pick(topo, views);
  EXPECT_NE(spilled, owner);

  // ...but keys owned by other backends stay exactly where they were.
  for (std::uint64_t t = 0; t < 64; ++t) {
    const std::uint64_t h = mix64(1000 + t);
    auto calm = uniform_views(4);
    const std::size_t home = policy->pick(h, calm);
    if (home == owner) continue;
    EXPECT_EQ(policy->pick(h, views), home);
  }
}

TEST(Policy, CacheAffinityFallsBackToOwnerWhenEveryoneIsSlammed) {
  auto policy = make_policy(PolicyKind::kCacheAffinity);
  auto calm = uniform_views(3);
  const std::uint64_t topo = mix64(11);
  const std::size_t owner = policy->pick(topo, calm);
  auto slammed = uniform_views(3);
  for (auto& v : slammed) v.inflight = 500;
  // Uniform overload: spilling buys nothing, affinity should win.
  EXPECT_EQ(policy->pick(topo, slammed), owner);
}

// Stale-information degradation (the ImrulKayes model): a deterministic
// fleet simulation where the policy's view snapshot refreshes only every d
// arrivals. With d = 1 shortest-queue keeps the fleet level; as d grows,
// every arrival in a window herds onto whichever backend looked shortest at
// the last refresh, so the peak backlog grows with d.
std::size_t peak_backlog_with_staleness(std::size_t d) {
  constexpr std::size_t kBackends = 4;
  constexpr std::size_t kArrivals = 256;
  auto policy = make_policy(PolicyKind::kShortestQueueStale);
  std::vector<std::size_t> depth(kBackends, 0);
  std::vector<BackendView> snapshot(kBackends);
  std::size_t peak = 0;
  for (std::size_t a = 0; a < kArrivals; ++a) {
    if (a % d == 0) {
      for (std::size_t b = 0; b < kBackends; ++b) {
        snapshot[b].queue_depth = depth[b];
      }
    }
    const std::size_t pick = policy->pick(mix64(a), snapshot);
    EXPECT_LT(pick, kBackends) << "no pick";
    if (pick >= kBackends) return 0;
    ++depth[pick];
    peak = std::max(peak, depth[pick]);
    // Total service rate equals the arrival rate (one departure per tick,
    // rotating over the fleet): well-placed arrivals keep every queue near
    // empty, herded arrivals outrun their backend's 1-in-4 drain share.
    auto& q = depth[a % kBackends];
    if (q > 0) --q;
  }
  return peak;
}

TEST(Policy, StaleInformationDegradesPlacementAsWindowGrows) {
  const std::size_t fresh = peak_backlog_with_staleness(1);
  const std::size_t mid = peak_backlog_with_staleness(16);
  const std::size_t stale = peak_backlog_with_staleness(64);
  EXPECT_LE(fresh, mid);
  EXPECT_LT(fresh, stale);
  EXPECT_GE(stale, 16u);  // a 64-arrival herd piles deep on one backend
}

// ----------------------------------------------------------- coalescer ----

TEST(Coalescer, FirstJoinLeadsLaterJoinsFollow) {
  Coalescer c;
  std::vector<std::string> got_a, got_b;
  const auto a = c.join("key", 1, [&](const std::string& l) { got_a.push_back(l); });
  const auto b = c.join("key", 2, [&](const std::string& l) { got_b.push_back(l); });
  EXPECT_TRUE(a.leader);
  EXPECT_FALSE(b.leader);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(c.coalesced_total(), 1u);
  EXPECT_EQ(c.inflight_groups(), 1u);

  auto waiters = c.complete(a.group);
  ASSERT_EQ(waiters.size(), 2u);
  for (auto& w : waiters) w.deliver("resp");
  EXPECT_EQ(got_a, (std::vector<std::string>{"resp"}));
  EXPECT_EQ(got_b, (std::vector<std::string>{"resp"}));
  EXPECT_EQ(c.inflight_groups(), 0u);
  EXPECT_TRUE(c.complete(a.group).empty());  // idempotent
}

TEST(Coalescer, DifferentKeysNeverShare) {
  Coalescer c;
  const auto a = c.join("k1", 1, [](const std::string&) {});
  const auto b = c.join("k2", 2, [](const std::string&) {});
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);
  EXPECT_NE(a.group, b.group);
}

TEST(Coalescer, CompletedKeyOpensAFreshGroup) {
  Coalescer c;
  const auto a = c.join("key", 1, [](const std::string&) {});
  c.complete(a.group);
  const auto b = c.join("key", 2, [](const std::string&) {});
  EXPECT_TRUE(b.leader);  // previous solve finished; this is a new one
  EXPECT_NE(a.group, b.group);
}

TEST(Coalescer, DetachKeepsTheGroupAliveForOthers) {
  Coalescer c;
  const auto a = c.join("key", 1, [](const std::string&) {});
  c.join("key", 2, [](const std::string&) {});
  EXPECT_EQ(c.waiter_count(a.group), 2u);
  EXPECT_EQ(c.detach(a.group, 2), 1u);
  EXPECT_EQ(c.detach(a.group, 1), 0u);  // last one out closes the group
  EXPECT_EQ(c.inflight_groups(), 0u);
  EXPECT_EQ(c.detach(a.group, 1), std::numeric_limits<std::size_t>::max());
}

TEST(Coalescer, DisabledStillTracksButNeverShares) {
  Coalescer c(/*enabled=*/false);
  const auto a = c.join("key", 1, [](const std::string&) {});
  const auto b = c.join("key", 2, [](const std::string&) {});
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);  // identical key, but sharing is off
  EXPECT_NE(a.group, b.group);
  EXPECT_EQ(c.coalesced_total(), 0u);
}

TEST(Coalescer, ConcurrentJoinsYieldExactlyOneLeaderAndOneDeliveryEach) {
  constexpr std::size_t kThreads = 16;
  Coalescer c;
  std::atomic<std::size_t> leaders{0};
  std::atomic<std::size_t> delivered{0};
  std::atomic<std::uint64_t> group{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto join =
          c.join("hot-key", t, [&](const std::string&) { ++delivered; });
      if (join.leader) {
        ++leaders;
        group.store(join.group);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(leaders.load(), 1u);  // single-solve semantics under concurrency
  EXPECT_EQ(c.coalesced_total(), kThreads - 1);
  auto waiters = c.complete(group.load());
  EXPECT_EQ(waiters.size(), kThreads);
  for (auto& w : waiters) w.deliver("done");
  EXPECT_EQ(delivered.load(), kThreads);
}

// ----------------------------------------------------- response rewrite ----

TEST(RewriteResponseId, ReplacesOnlyTheTopLevelId) {
  EXPECT_EQ(rewrite_response_id(R"({"id":42,"outcome":"ok"})", 7),
            R"({"id":7,"outcome":"ok"})");
  // Nested ids and ids inside strings stay untouched.
  EXPECT_EQ(
      rewrite_response_id(R"({"error":"bad \"id\":9 here","id":3})", 1),
      R"({"error":"bad \"id\":9 here","id":1})");
  EXPECT_EQ(rewrite_response_id(R"({"meta":{"id":5},"id":2})", 8),
            R"({"meta":{"id":5},"id":8})");
  // No top-level id: line passes through unchanged.
  EXPECT_EQ(rewrite_response_id(R"({"stats":{"id":1}})", 9),
            R"({"stats":{"id":1}})");
}

TEST(RewriteResponseId, HandlesWiderAndNarrowerIds) {
  EXPECT_EQ(rewrite_response_id(R"({"id":1,"x":0})", 123456),
            R"({"id":123456,"x":0})");
  EXPECT_EQ(rewrite_response_id(R"({"id":999999,"x":0})", 1),
            R"({"id":1,"x":0})");
}

// --------------------------------------------------- raw field splicing ----

TEST(ExtractRawField, PullsObjectsArraysStringsAndScalars) {
  const std::string line =
      R"({"stats":{"a":1,"nested":{"b":[1,2]}},"traces":[{"x":"}"}],)"
      R"("name":"ro\"uter","count":42,"flag":true})";
  EXPECT_EQ(extract_raw_field(line, "stats"), R"({"a":1,"nested":{"b":[1,2]}})");
  EXPECT_EQ(extract_raw_field(line, "traces"), R"([{"x":"}"}])");
  EXPECT_EQ(extract_raw_field(line, "name"), R"("ro\"uter")");
  EXPECT_EQ(extract_raw_field(line, "count"), "42");
  EXPECT_EQ(extract_raw_field(line, "flag"), "true");
  EXPECT_EQ(extract_raw_field(line, "absent"), "");
  // Only top-level keys match: "a" lives inside stats.
  EXPECT_EQ(extract_raw_field(line, "a"), "");
}

// --------------------------------------------------------- topology key ----

TEST(Router, TopologyHashKeysOnCacheIdentityNotLoads) {
  const auto parse = [](const std::string& line) {
    return service::parse_request_line(line).request;
  };
  const auto base = parse(
      R"({"op":"solve","id":1,"loads":[9,1,1,1],"counts":[8,8,8,8],"k":4})");
  // Different loads, same topology: same backend, the cache can retarget.
  const auto new_loads = parse(
      R"({"op":"solve","id":2,"loads":[1,9,1,1],"counts":[8,8,8,8],"k":4})");
  EXPECT_EQ(Router::topology_hash(base), Router::topology_hash(new_loads));
  // Different counts / k / variant: different model build, different key.
  const auto new_counts = parse(
      R"({"op":"solve","id":3,"loads":[9,1,1,1],"counts":[8,8,8,9],"k":4})");
  const auto new_k = parse(
      R"({"op":"solve","id":4,"loads":[9,1,1,1],"counts":[8,8,8,8],"k":5})");
  const auto new_variant = parse(
      R"({"op":"solve","id":5,"loads":[9,1,1,1],"counts":[8,8,8,8],"k":4,)"
      R"("variant":"qcqm2"})");
  EXPECT_NE(Router::topology_hash(base), Router::topology_hash(new_counts));
  EXPECT_NE(Router::topology_hash(base), Router::topology_hash(new_k));
  EXPECT_NE(Router::topology_hash(base), Router::topology_hash(new_variant));
}

// ------------------------------------------------------ routed sessions ----

/// A minimal TCP listener standing in for a backend: accepts connections and
/// drains whatever arrives. Silent by default, so routed solves stay in
/// flight for as long as a test needs them to; with a `reply`, it answers
/// every received line with that one line.
class StubBackend {
 public:
  explicit StubBackend(std::string reply = "") {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 8);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    if (!reply.empty()) reply += "\n";
    accepter_ = std::thread([this, reply] {
      while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        std::lock_guard<std::mutex> lock(mutex_);
        fds_.push_back(fd);
        readers_.emplace_back([fd, reply] {
          char buf[4096];
          ssize_t got = 0;
          while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
            if (reply.empty()) continue;
            for (ssize_t i = 0; i < got; ++i) {
              if (buf[i] == '\n') ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
            }
          }
        });
      }
    });
  }

  ~StubBackend() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (accepter_.joinable()) accepter_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : readers_) t.join();
    for (const int fd : fds_) ::close(fd);
  }

  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accepter_;
  std::mutex mutex_;
  std::vector<int> fds_;
  std::vector<std::thread> readers_;
};

TEST(Router, DuplicateInFlightIdIsRejectedNotOverwritten) {
  StubBackend backend;
  Router::Params params;
  params.pool.backends = {BackendAddress{"127.0.0.1", backend.port()}};
  params.policy = PolicyKind::kRoundRobin;
  Router router(params);
  router.start();

  std::mutex mutex;
  std::vector<std::string> lines;
  const std::uint64_t session =
      router.register_session([&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mutex);
        lines.push_back(line);
      });

  const std::string solve =
      R"({"op":"solve","id":1,"loads":[4,1],"counts":[2,2],"k":2})";
  router.handle_client_line(session, solve);
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(lines.empty());  // the backend never answers: still in flight
  }

  // Reusing the correlation id while the first solve is in flight is an
  // error — silently overwriting the pending entry would orphan the first
  // solve's coalescer waiter (cancel/teardown could no longer detach it).
  router.handle_client_line(session, solve);
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("error"), std::string::npos);
    EXPECT_NE(lines[0].find("in flight"), std::string::npos);
  }
  // The rejected duplicate never joined the group...
  EXPECT_EQ(router.coalescer().coalesced_total(), 0u);
  // ...but the same solve under a fresh id coalesces as usual.
  router.handle_client_line(
      session, R"({"op":"solve","id":2,"loads":[4,1],"counts":[2,2],"k":2})");
  EXPECT_EQ(router.coalescer().coalesced_total(), 1u);

  router.unregister_session(session);
  router.stop();
}

// One backend accepts but never answers, the other answers every line with
// the same stats document. A fleet stats op must wait out the control timeout
// (2 s) once, then splice what arrived and report the silent backend as null.
TEST(Router, StatsTimesOutOnASilentBackendAndSplicesTheOthers) {
  StubBackend silent;
  StubBackend answering(R"({"stats":{"queue_depth":0,"tag":"alive"}})");
  Router::Params params;
  params.pool.backends = {BackendAddress{"127.0.0.1", silent.port()},
                          BackendAddress{"127.0.0.1", answering.port()}};
  params.federate_ms = 0.0;
  params.profile_hz = 0;
  Router router(params);
  router.start();
  std::vector<std::string> lines;
  const std::uint64_t session = router.register_session(
      [&](const std::string& line) { lines.push_back(line); });

  const auto t0 = std::chrono::steady_clock::now();
  router.handle_client_line(session, R"({"op":"stats"})");
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_GE(waited_ms, 1900.0);
  EXPECT_LT(waited_ms, 8000.0);

  ASSERT_EQ(lines.size(), 1u);
  const io::JsonValue doc = io::JsonValue::parse(lines[0]);
  const io::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->int_or("healthy", -1), 2);
  const io::JsonValue* backends = stats->find("backend_stats");
  ASSERT_NE(backends, nullptr);
  ASSERT_EQ(backends->as_array().size(), 2u);
  const io::JsonValue& quiet = backends->as_array()[0];
  const io::JsonValue& alive = backends->as_array()[1];
  EXPECT_EQ(quiet.string_or("backend", ""),
            "127.0.0.1:" + std::to_string(silent.port()));
  ASSERT_NE(quiet.find("stats"), nullptr);
  EXPECT_TRUE(quiet.find("stats")->is_null());
  ASSERT_NE(alive.find("stats"), nullptr);
  EXPECT_EQ(alive.find("stats")->string_or("tag", ""), "alive");
  router.unregister_session(session);
  router.stop();
}

TEST(Router, HealthAnswersLocallyFromTheProbedView) {
  Router::Params params;
  params.pool.backends = parse_backend_list("1,2");  // nothing listening
  Router router(params);  // deliberately not start()ed: both backends down
  std::vector<std::string> lines;
  const std::uint64_t session = router.register_session(
      [&](const std::string& line) { lines.push_back(line); });
  router.handle_client_line(session, R"({"op":"health"})");
  ASSERT_EQ(lines.size(), 1u);
  const io::JsonValue doc = io::JsonValue::parse(lines[0]);
  const io::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->string_or("role", ""), "router");
  EXPECT_EQ(stats->int_or("backends", -1), 2);
  EXPECT_EQ(stats->int_or("healthy", -1), 0);
  EXPECT_EQ(stats->int_or("queue_depth", -1), 0);
  EXPECT_EQ(stats->int_or("inflight", -1), 0);
  router.unregister_session(session);
}

}  // namespace
}  // namespace qulrb::router
