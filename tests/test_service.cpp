#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "io/json_value.hpp"
#include "obs/clock.hpp"
#include "obs/event_log.hpp"
#include "service/rebalance_service.hpp"
#include "util/timer.hpp"

namespace qulrb::service {
namespace {

RebalanceRequest small_request(std::uint64_t seed = 1) {
  RebalanceRequest request;
  request.task_loads = {10.0, 2.0, 2.0, 2.0};
  request.task_counts = {8, 8, 8, 8};
  request.k = 6;
  request.hybrid.sweeps = 300;
  request.hybrid.num_restarts = 1;
  request.hybrid.seed = seed;
  return request;
}

/// A request whose solve runs until its token is tripped.
RebalanceRequest long_request() {
  RebalanceRequest request;
  request.task_loads = std::vector<double>(12, 1.0);
  request.task_loads[0] = 20.0;
  request.task_counts = std::vector<std::int64_t>(12, 64);
  request.k = 64;
  request.hybrid.sweeps = 500'000;
  request.hybrid.num_restarts = 8;
  request.hybrid.seed = 5;
  return request;
}

TEST(Service, SolvesEndToEnd) {
  RebalanceService svc({.num_workers = 2});
  const RebalanceResponse r = svc.submit(small_request()).get();
  EXPECT_EQ(r.outcome, RequestOutcome::kOk);
  EXPECT_TRUE(r.feasible);
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_LT(r.metrics.imbalance_after, r.metrics.imbalance_before);
  EXPECT_GT(r.total_ms, 0.0);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

// The solve event names the portfolio member that produced the plan: a
// one-restart Q_CQM1 request is won by its refinement restart.
TEST(Service, SolveEventNamesWinningRestart) {
  const std::string path = testing::TempDir() + "qulrb_service_winner.jsonl";
  std::remove(path.c_str());
  {
    obs::EventLog log(path, /*append=*/false);
    RebalanceService svc({.num_workers = 1, .event_log = &log});
    EXPECT_EQ(svc.submit(small_request()).get().winner_kind,
              anneal::RestartKind::kRefine);
    svc.drain();
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const io::JsonValue doc = io::JsonValue::parse(line);
  EXPECT_EQ(doc.string_or("winner_restart", ""), "0");
  EXPECT_EQ(doc.string_or("winner_kind", ""), "refine");
  std::remove(path.c_str());
}

TEST(Service, RepeatRequestsHitTheCache) {
  RebalanceService svc({.num_workers = 1});
  svc.submit(small_request(1)).get();
  const RebalanceResponse warm = svc.submit(small_request(2)).get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.cache_retargeted);

  RebalanceRequest drifted = small_request(3);
  drifted.task_loads = {2.0, 10.0, 2.0, 2.0};
  const RebalanceResponse retargeted = svc.submit(drifted).get();
  EXPECT_TRUE(retargeted.cache_hit);
  EXPECT_TRUE(retargeted.cache_retargeted);
  EXPECT_EQ(retargeted.outcome, RequestOutcome::kOk);
  EXPECT_TRUE(retargeted.feasible);
}

TEST(Service, LockFreeHealthAccessorsTrackTheService) {
  RebalanceService svc({.num_workers = 1});
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(svc.inflight(), 0u);
  EXPECT_DOUBLE_EQ(svc.cache_hit_rate(), 0.0);

  svc.submit(small_request(1)).get();  // cold: miss
  svc.submit(small_request(2)).get();  // warm: exact hit
  // The future resolves inside the finish callback, just before the running
  // set shrinks — drain() is the barrier after which the mirrors read 0.
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_EQ(svc.inflight(), 0u);
  EXPECT_DOUBLE_EQ(svc.cache_hit_rate(), 0.5);
  // The relaxed mirror agrees with the authoritative mutex-taking snapshot.
  EXPECT_DOUBLE_EQ(svc.stats().cache_hit_rate, svc.cache_hit_rate());
}

TEST(Service, QueueFullRejectsImmediately) {
  ServiceParams params;
  params.num_workers = 1;
  params.max_pending = 2;
  RebalanceService svc(params);

  // Occupy the single worker, then fill the queue.
  const std::uint64_t blocker = svc.submit(long_request(), {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto queued1 = svc.submit(small_request());
  auto queued2 = svc.submit(small_request());

  util::WallTimer timer;
  const RebalanceResponse r = svc.submit(small_request()).get();
  EXPECT_EQ(r.outcome, RequestOutcome::kRejected);
  EXPECT_EQ(r.error, "queue full");
  EXPECT_LT(timer.elapsed_ms(), 100.0);  // rejection is synchronous
  EXPECT_EQ(svc.stats().rejected_queue_full, 1u);

  EXPECT_TRUE(svc.cancel(blocker));
  queued1.get();
  queued2.get();
}

TEST(Service, PriorityOrdersTheQueue) {
  ServiceParams params;
  params.num_workers = 1;
  RebalanceService svc(params);

  const std::uint64_t blocker = svc.submit(long_request(), {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::mutex mutex;
  std::vector<int> order;
  auto tag = [&](int label) {
    return [&, label](RebalanceResponse) {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(label);
    };
  };
  RebalanceRequest low = small_request();
  low.priority = 0;
  RebalanceRequest high = small_request();
  high.priority = 5;
  svc.submit(low, tag(0));
  svc.submit(high, tag(5));

  EXPECT_TRUE(svc.cancel(blocker));
  svc.drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 5);  // higher priority ran first despite later submit
  EXPECT_EQ(order[1], 0);
}

TEST(Service, ExpiredDeadlineIsShedNotSolved) {
  ServiceParams params;
  params.num_workers = 1;
  params.admission_deadline_check = false;  // let it into the queue
  RebalanceService svc(params);

  const std::uint64_t blocker = svc.submit(long_request(), {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  RebalanceRequest hopeless = small_request();
  hopeless.deadline_ms = 1.0;
  auto future = svc.submit(hopeless);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it expire
  EXPECT_TRUE(svc.cancel(blocker));

  const RebalanceResponse r = future.get();
  EXPECT_EQ(r.outcome, RequestOutcome::kShed);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_EQ(svc.stats().shed, 1u);
}

TEST(Service, DeadlineBoundsRunningSolve) {
  RebalanceService svc({.num_workers = 1});
  RebalanceRequest request = long_request();
  request.deadline_ms = 80.0;
  util::WallTimer timer;
  const RebalanceResponse r = svc.submit(request).get();
  // The solve was cut by the budget but still answered with its incumbent.
  EXPECT_LT(timer.elapsed_ms(), 3000.0);
  EXPECT_EQ(r.outcome, RequestOutcome::kOk);
  EXPECT_TRUE(r.budget_expired);
  EXPECT_TRUE(r.plan.has_value());
}

TEST(Service, CancelPendingRequest) {
  ServiceParams params;
  params.num_workers = 1;
  RebalanceService svc(params);
  const std::uint64_t blocker = svc.submit(long_request(), {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto future = svc.submit(small_request());
  // The id of the queued request is blocker + 1 (ids are sequential).
  EXPECT_TRUE(svc.cancel(blocker + 1));
  const RebalanceResponse r = future.get();
  EXPECT_EQ(r.outcome, RequestOutcome::kCancelled);
  EXPECT_FALSE(r.plan.has_value());

  EXPECT_TRUE(svc.cancel(blocker));
  EXPECT_FALSE(svc.cancel(blocker + 7));  // unknown id
  svc.drain();
}

TEST(Service, CancelRunningSolveReturnsIncumbent) {
  RebalanceService svc({.num_workers = 1});
  auto future = svc.submit(long_request());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(svc.cancel(1));
  const RebalanceResponse r = future.get();
  EXPECT_EQ(r.outcome, RequestOutcome::kCancelled);
  EXPECT_TRUE(r.plan.has_value());  // solved enough to decode something
  EXPECT_TRUE(r.budget_expired);
}

TEST(Service, InvalidRequestFailsCleanly) {
  RebalanceService svc({.num_workers = 1});
  RebalanceRequest bad;
  bad.task_loads = {1.0, 2.0};
  bad.task_counts = {4};  // mismatched lengths
  const RebalanceResponse r = svc.submit(bad).get();
  EXPECT_EQ(r.outcome, RequestOutcome::kFailed);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(Service, DestructorAnswersPendingRequests) {
  std::future<RebalanceResponse> orphan;
  {
    RebalanceService svc({.num_workers = 1});
    svc.submit(long_request(), {});
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    orphan = svc.submit(small_request());
  }  // destructor cancels the running solve and answers the queued one
  const RebalanceResponse r = orphan.get();
  EXPECT_EQ(r.outcome, RequestOutcome::kCancelled);
}

TEST(Service, StatsAggregateLatencies) {
  RebalanceService svc({.num_workers = 2});
  std::vector<std::future<RebalanceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(svc.submit(small_request(static_cast<std::uint64_t>(i))));
  }
  for (auto& f : futures) f.get();
  svc.drain();  // futures resolve inside callbacks, slightly before bookkeeping
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.solve_ms.count(), 6u);
  EXPECT_EQ(stats.total_ms.count(), 6u);
  EXPECT_GT(stats.ewma_solve_ms, 0.0);
  EXPECT_GT(svc.metrics_registry().histogram("qulrb_service_total_ms").count(),
            0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.running, 0u);
}

// Request spans sit on the process-wide obs timebase: the queue wait starts
// at admission and the routed hop ends there, however long the process was
// idle before the request arrived.
TEST(Service, TracedRequestSpansAnchorAtAdmission) {
  obs::clock::touch();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  RebalanceService svc({.num_workers = 1, .record_traces = true});
  RebalanceRequest request = small_request();
  request.router_ms = 0.5;
  const RebalanceResponse r = svc.submit(std::move(request)).get();
  ASSERT_EQ(r.outcome, RequestOutcome::kOk);
  svc.drain();  // the trace is stored after the callback fires
  const std::vector<std::string> traces = svc.last_traces(1);
  ASSERT_EQ(traces.size(), 1u);

  const io::JsonValue doc = io::JsonValue::parse(traces[0]);
  const io::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const io::JsonValue* queue = nullptr;
  const io::JsonValue* router = nullptr;
  for (const io::JsonValue& event : events->as_array()) {
    if (event.string_or("ph", "") != "X") continue;
    const std::string name = event.string_or("name", "");
    if (name == "queue-wait") queue = &event;
    if (name == "router-admission") router = &event;
  }
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(router, nullptr);
  EXPECT_LE(queue->number_or("dur", 1e18), r.queue_ms * 1000.0 + 1000.0);
  // Timestamps are printed with 12 significant digits, so allow rounding.
  EXPECT_LE(router->number_or("ts", 1e18) + router->number_or("dur", 1e18),
            queue->number_or("ts", 0.0) + 1e-3);
}

}  // namespace
}  // namespace qulrb::service
