#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "anneal/sa.hpp"
#include "io/json_value.hpp"
#include "model/qubo.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"

namespace qulrb::obs {
namespace {

// ------------------------------------------------------------ counters -----

TEST(Counter, ExactUnderConcurrency) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  Counter counter;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, BulkIncrement) {
  Counter counter;
  counter.inc(41);
  counter.inc();
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAddMax) {
  Gauge g;
  g.set(3.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.update_max(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);  // max never lowers
  g.update_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

// ----------------------------------------------------------- histogram -----

TEST(LogHistogram, ExactTotalsUnderConcurrency) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  LogHistogram hist;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        hist.observe(0.5 + static_cast<double>((t + i) % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);

  // The double sum is an exact CAS accumulation of exactly representable
  // halves, so the total is deterministic too (addition order varies, but
  // every addend is a multiple of 0.5 well within the mantissa).
  double expected_sum = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      expected_sum += 0.5 + static_cast<double>((t + i) % 100);
    }
  }
  EXPECT_NEAR(hist.sum(), expected_sum, 1e-6 * expected_sum);

  // Bucket counts add back up to the total.
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < hist.num_buckets(); ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(LogHistogram, BucketEdgesMonotone) {
  LogHistogram hist;
  double prev = 0.0;
  for (std::size_t b = 0; b + 1 < hist.num_buckets(); ++b) {
    const double edge = hist.upper_edge(b);
    EXPECT_GT(edge, prev);
    prev = edge;
  }
  EXPECT_TRUE(std::isinf(hist.upper_edge(hist.num_buckets() - 1)));
}

TEST(LogHistogram, QuantileBracketsObservations) {
  LogHistogram hist;
  for (int i = 0; i < 1000; ++i) hist.observe(10.0);
  const double p50 = hist.quantile(0.5);
  // One bucket holds everything; the quantile interpolates inside it.
  EXPECT_GE(p50, hist.upper_edge(hist.bucket_of(10.0) - 1));
  EXPECT_LE(p50, hist.upper_edge(hist.bucket_of(10.0)));
}

TEST(LogHistogram, MergeAddsExactTotals) {
  LogHistogram a, b;
  for (int i = 0; i < 100; ++i) a.observe(1.0);
  for (int i = 0; i < 50; ++i) b.observe(64.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 150u);
  EXPECT_DOUBLE_EQ(a.sum(), 100.0 * 1.0 + 50.0 * 64.0);
  EXPECT_EQ(a.bucket_count(a.bucket_of(64.0)), 50u);
  // The source histogram is untouched.
  EXPECT_EQ(b.count(), 50u);
}

TEST(LogHistogram, MergeRejectsMismatchedLayouts) {
  LogHistogram a;
  HistogramLayout other;
  other.buckets = 12;
  LogHistogram b(other);
  EXPECT_THROW(a.merge(b), std::exception);
}

TEST(LogHistogram, MergeIsExactUnderConcurrency) {
  // Writers keep observing into `a` while other threads merge `b` into it
  // repeatedly; once everyone quiesces the totals must be exact.
  constexpr std::size_t kObservers = 2, kMergers = 2;
  constexpr std::size_t kObserves = 20000, kMerges = 5;
  LogHistogram a, b;
  for (int i = 0; i < 1000; ++i) b.observe(2.0);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kObservers; ++t) {
    threads.emplace_back([&a] {
      for (std::size_t i = 0; i < kObserves; ++i) a.observe(8.0);
    });
  }
  for (std::size_t t = 0; t < kMergers; ++t) {
    threads.emplace_back([&a, &b] {
      for (std::size_t i = 0; i < kMerges; ++i) a.merge(b);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(a.count(), kObservers * kObserves + kMergers * kMerges * 1000);
  EXPECT_DOUBLE_EQ(a.sum(),
                   static_cast<double>(kObservers * kObserves) * 8.0 +
                       static_cast<double>(kMergers * kMerges * 1000) * 2.0);
}

TEST(LogHistogram, QuantileWithinOneBucketWidth) {
  // The documented error bound: a quantile is good to one bucket width,
  // i.e. within a factor 2^(1/buckets_per_octave) of the true value.
  LogHistogram hist;
  const double factor =
      std::pow(2.0, 1.0 / hist.layout().buckets_per_octave);
  for (const double v : {0.01, 0.7, 10.0, 900.0}) {
    LogHistogram h;
    for (int i = 0; i < 1000; ++i) h.observe(v);
    for (const double q : {0.05, 0.5, 0.95}) {
      const double estimate = h.quantile(q);
      EXPECT_LE(estimate, v * factor) << "v=" << v << " q=" << q;
      EXPECT_GE(estimate, v / factor) << "v=" << v << " q=" << q;
    }
  }
}

// ------------------------------------------------------------ registry -----

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("test_requests_total", "Requests", "kind=\"a\"").inc(3);
  registry.counter("test_requests_total", "Requests", "kind=\"b\"").inc(1);
  registry.gauge("test_depth", "Depth").set(7.0);
  registry.histogram("test_ms", "Latency").observe(2.0);

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE test_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_requests_total{kind=\"a\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_requests_total{kind=\"b\"} 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("test_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("test_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_ms_count 1"), std::string::npos);
  // HELP/TYPE appear once per family even with two labelled children.
  const auto first = text.find("# TYPE test_requests_total");
  EXPECT_EQ(text.find("# TYPE test_requests_total", first + 1),
            std::string::npos);
}

TEST(MetricsRegistry, GroupsInterleavedFamilies) {
  // Registration order interleaves two families; the exposition must still
  // emit each family's HELP/TYPE exactly once, with all children together.
  MetricsRegistry registry;
  using Labels = MetricsRegistry::Labels;
  registry.counter("test_fam_a_total", "A", Labels{{"k", "1"}}).inc();
  registry.counter("test_fam_b_total", "B").inc();
  registry.counter("test_fam_a_total", "A", Labels{{"k", "2"}}).inc(2);

  const std::string text = registry.to_prometheus();
  const auto type_a = text.find("# TYPE test_fam_a_total counter");
  ASSERT_NE(type_a, std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_fam_a_total", type_a + 1),
            std::string::npos);
  const auto child1 = text.find("test_fam_a_total{k=\"1\"} 1");
  const auto child2 = text.find("test_fam_a_total{k=\"2\"} 2");
  const auto type_b = text.find("# TYPE test_fam_b_total counter");
  ASSERT_NE(child1, std::string::npos);
  ASSERT_NE(child2, std::string::npos);
  ASSERT_NE(type_b, std::string::npos);
  // Both a-children precede family b: no family is split by another.
  EXPECT_LT(child1, child2);
  EXPECT_LT(child2, type_b);
}

TEST(MetricsRegistry, EscapesLabelValues) {
  // Prometheus text exposition: label values must escape backslash, double
  // quote, and newline.
  MetricsRegistry registry;
  using Labels = MetricsRegistry::Labels;
  registry
      .counter("test_escape_total", "Escapes",
               Labels{{"path", "a\\b"}, {"msg", "say \"hi\"\nbye"}})
      .inc();

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos) << text;
  EXPECT_NE(text.find("msg=\"say \\\"hi\\\"\\nbye\""), std::string::npos)
      << text;
  // The raw newline must NOT appear inside the sample line.
  EXPECT_EQ(text.find("say \"hi\"\n"), std::string::npos);
}

TEST(MetricsRegistry, EscapesHelpText) {
  MetricsRegistry registry;
  registry.counter("test_help_total", "line one\nline two").inc();
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# HELP test_help_total line one\\nline two"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistry, StableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test_x_total", "X");
  Counter& b = registry.counter("test_x_total", "X");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("test_y_total", "Y");
  EXPECT_THROW(registry.gauge("test_y_total", "Y"), std::exception);
}

// ------------------------------------------------------------- recorder ----

TEST(Recorder, PerfettoJsonWellFormed) {
  Recorder rec("unit-test");
  rec.annotate("case", "well-formed");
  rec.name_track(1, "restart 0");
  {
    Recorder::Span span(&rec, "phase-a", "test", 0);
  }
  rec.sample("incumbent_energy", 1, 12.5);
  rec.sample("incumbent_energy", 1, 11.0);

  const std::string json = to_perfetto_json(rec);
  const io::JsonValue doc = io::JsonValue::parse(json);
  ASSERT_TRUE(doc.is_object());
  const io::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_process_name = false, saw_complete = false, saw_counter = false;
  for (const io::JsonValue& event : events->as_array()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "M" && event.string_or("name", "") == "process_name") {
      saw_process_name = true;
    }
    if (ph == "X" && event.string_or("name", "") == "phase-a") {
      saw_complete = true;
      EXPECT_GE(event.number_or("dur", -1.0), 0.0);
    }
    if (ph == "C") saw_counter = true;
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_counter);
  const io::JsonValue* metadata = doc.find("metadata");
  ASSERT_NE(metadata, nullptr);
  EXPECT_EQ(metadata->string_or("case", ""), "well-formed");
}

TEST(Recorder, NowUsStrictlyMonotonicAcrossThreads) {
  // The timestamp watermark: two calls never return the same value and every
  // thread sees its own calls strictly increase, even under contention where
  // raw steady_clock reads routinely tie.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kCalls = 20000;
  Recorder rec;
  std::vector<std::vector<double>> stamps(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, &stamps, t] {
      stamps[t].reserve(kCalls);
      for (std::size_t i = 0; i < kCalls; ++i) {
        stamps[t].push_back(rec.now_us());
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<double> all;
  all.reserve(kThreads * kCalls);
  for (const auto& per_thread : stamps) {
    for (std::size_t i = 1; i < per_thread.size(); ++i) {
      ASSERT_LT(per_thread[i - 1], per_thread[i]);
    }
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate timestamp issued";
}

TEST(Recorder, OwnedSamplesExportAsCounters) {
  Recorder rec("owned");
  rec.sample_at("violation/capacity", 0, 5.0, 3.5);
  rec.sample("violation/balance", 2, 1.0);
  const std::string json = to_perfetto_json(rec);
  const io::JsonValue doc = io::JsonValue::parse(json);
  const io::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_main = false, saw_suffixed = false;
  for (const io::JsonValue& event : events->as_array()) {
    if (event.string_or("ph", "") != "C") continue;
    const std::string name = event.string_or("name", "");
    if (name == "violation/capacity") saw_main = true;
    if (name == "violation/balance/t2") saw_suffixed = true;
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_suffixed);
}

TEST(Recorder, SpanPushesProfilerLabelWithOrWithoutRecorder) {
  // Tracing must not change the profile: a phase carries the same profiler
  // label whether or not a recorder is attached, and only the trace span
  // depends on the recorder.
  const int depth = prof::thread_phase_state().depth.load();
  {
    prof::PhaseScope outer("outer");
    Recorder::Span untraced(nullptr, "session-retarget", "test", 0);
    EXPECT_STREQ(prof::current_phase(), "session-retarget");
    untraced.close();
    EXPECT_STREQ(prof::current_phase(), "outer");
    untraced.close();  // a second close pops nothing
    EXPECT_STREQ(prof::current_phase(), "outer");
  }
  EXPECT_EQ(prof::thread_phase_state().depth.load(), depth);

  Recorder rec("traced");
  {
    Recorder::Span traced(&rec, "session-retarget", "test", 0);
    EXPECT_STREQ(prof::current_phase(), "session-retarget");
  }
  EXPECT_EQ(prof::thread_phase_state().depth.load(), depth);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans()[0].name, "session-retarget");
  EXPECT_TRUE(rec.samples().empty());
}

TEST(Recorder, SpanWritesFlightRecordWithPayload) {
  FlightRecorder flight(64);
  const std::uint16_t name = flight.intern("anneal");
  {
    Recorder::Span untagged(nullptr, "anneal", "test", 3);
  }
  EXPECT_EQ(flight.total_records(), 0u);
  {
    Recorder::Span tagged(nullptr, "anneal", "test", 3, {&flight, name, 42});
    tagged.close(17.0);
  }
  const auto records = flight.snapshot(0.0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, FlightKind::kSpan);
  EXPECT_EQ(records[0].name, name);
  EXPECT_EQ(records[0].track, 3u);
  EXPECT_EQ(records[0].rid, 42u);
  EXPECT_EQ(records[0].value, 17.0);
  EXPECT_GT(records[0].dur_us, 0.0);
}

// ---------------------------------------------------------- determinism ----

model::QuboModel ring_qubo(std::size_t n) {
  model::QuboModel q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.add_linear(static_cast<model::VarId>(i), (i % 2 == 0) ? -1.0 : 0.5);
    q.add_quadratic(static_cast<model::VarId>(i),
                    static_cast<model::VarId>((i + 1) % n), 0.75);
  }
  return q;
}

TEST(Recorder, SamplerOutputBitwiseIdenticalWithRecordingOn) {
  const model::QuboModel qubo = ring_qubo(12);

  anneal::SaParams plain;
  plain.sweeps = 400;
  plain.num_reads = 4;
  plain.seed = 77;
  const anneal::SampleSet base = anneal::SimulatedAnnealer(plain).sample(qubo);

  Recorder rec("determinism");
  obs::Counter sweeps;
  anneal::SaParams recorded = plain;
  recorded.sinks.recorder = &rec;
  recorded.sinks.sweep_counter = &sweeps;
  const anneal::SampleSet traced =
      anneal::SimulatedAnnealer(recorded).sample(qubo);

  // Recording consumes no RNG, so the runs are bitwise identical: same
  // states in the same order, same energies to the last bit.
  ASSERT_EQ(base.size(), traced.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base.at(i).state, traced.at(i).state);
    EXPECT_EQ(base.at(i).energy, traced.at(i).energy);
    EXPECT_EQ(base.at(i).violation, traced.at(i).violation);
  }
  EXPECT_EQ(sweeps.value(), plain.sweeps * plain.num_reads);
  EXPECT_FALSE(rec.spans().empty());
}

TEST(Recorder, SamplerOutputBitwiseIdenticalWithProfilingOn) {
  const model::QuboModel qubo = ring_qubo(12);

  anneal::SaParams plain;
  plain.sweeps = 400;
  plain.num_reads = 4;
  plain.seed = 77;
  const anneal::SampleSet base = anneal::SimulatedAnnealer(plain).sample(qubo);

  // The CPU sampler interrupts the solve asynchronously but touches no RNG
  // and no solver state — the same zero-cost-off contract recording has:
  // profiled runs are bitwise identical to bare ones.
  Profiler profiler;
  ASSERT_TRUE(profiler.start());
  anneal::SampleSet profiled;
  {
    prof::RidScope rid_scope(9);
    prof::PhaseScope phase_scope("determinism");
    profiled = anneal::SimulatedAnnealer(plain).sample(qubo);
  }
  profiler.stop();

  ASSERT_EQ(base.size(), profiled.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base.at(i).state, profiled.at(i).state);
    EXPECT_EQ(base.at(i).energy, profiled.at(i).energy);
    EXPECT_EQ(base.at(i).violation, profiled.at(i).violation);
  }
}

// ------------------------------------------------------ flight recorder ----

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(65).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorder, InternIsStableAndRoundTrips) {
  FlightRecorder rec(64);
  const std::uint16_t a = rec.intern("solve");
  const std::uint16_t b = rec.intern("route");
  EXPECT_NE(a, 0);  // code 0 is reserved for "?"
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.intern("solve"), a);
  EXPECT_EQ(rec.name_of(a), "solve");
  EXPECT_EQ(rec.name_of(b), "route");
  EXPECT_EQ(rec.name_of(0), "?");
  EXPECT_EQ(rec.name_of(9999), "?");
}

TEST(FlightRecorder, RecordsRoundTripThroughSnapshot) {
  FlightRecorder rec(64);
  const std::uint16_t solve = rec.intern("solve");
  const std::uint16_t depth = rec.intern("queue-depth");
  const double t0 = rec.now_us();
  const double t1 = rec.now_us();
  rec.span(solve, /*track=*/3, /*rid=*/42, t0, t1);
  rec.instant(solve, 0, 7, /*value=*/1.5);
  rec.counter(depth, 1, 0, /*value=*/12.0);

  const std::vector<FlightRecord> records = rec.snapshot(-1.0);
  ASSERT_EQ(records.size(), 3u);
  // Sorted by timestamp: the span ends at t1 which precedes the instants'
  // now_us() stamps.
  EXPECT_EQ(records[0].kind, FlightKind::kSpan);
  EXPECT_EQ(records[0].name, solve);
  EXPECT_EQ(records[0].track, 3u);
  EXPECT_EQ(records[0].rid, 42u);
  EXPECT_DOUBLE_EQ(records[0].t_us, t1);
  EXPECT_DOUBLE_EQ(records[0].dur_us, t1 - t0);
  EXPECT_EQ(records[1].kind, FlightKind::kInstant);
  EXPECT_DOUBLE_EQ(records[1].value, 1.5);
  EXPECT_EQ(records[2].kind, FlightKind::kCounter);
  EXPECT_DOUBLE_EQ(records[2].value, 12.0);
}

TEST(FlightRecorder, SnapshotWindowDropsOldRecords) {
  FlightRecorder rec(64);
  const std::uint16_t name = rec.intern("ev");
  // An "old" record stamped well before the window and a fresh one now.
  rec.record(name, FlightKind::kInstant, 0, 1, rec.now_us() - 10e6, 0.0, 0.0);
  rec.instant(name, 0, 2);
  const std::vector<FlightRecord> recent = rec.snapshot(1e6);  // last 1 s
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].rid, 2u);
  EXPECT_EQ(rec.snapshot(-1.0).size(), 2u);
}

TEST(FlightRecorder, WraparoundKeepsNewestCapacityRecords) {
  FlightRecorder rec(64);
  const std::uint16_t name = rec.intern("ev");
  constexpr std::uint64_t kWrites = 200;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    rec.instant(name, 0, /*rid=*/i + 1);
  }
  EXPECT_EQ(rec.total_records(), kWrites);
  const std::vector<FlightRecord> records = rec.snapshot(-1.0);
  ASSERT_EQ(records.size(), rec.capacity());
  // Exactly the newest capacity() records survive, in ticket order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].ticket, kWrites - rec.capacity() + i);
    EXPECT_EQ(records[i].rid, records[i].ticket + 1);
  }
}

TEST(FlightRecorder, NoTornRecordsUnderEightThreadWritePressure) {
  // The satellite's torn-record hunt: 8 writers hammer a small ring (forcing
  // constant wraparound) while a reader snapshots concurrently. Every
  // surfaced record must be internally consistent — its rid-encoded
  // (thread, i) identity must match its track and value — and snapshot
  // timestamps must be strictly monotonic (now_us never ties).
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 30000;
  FlightRecorder rec(256);
  const std::uint16_t name = rec.intern("pressure");

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn_or_wrong{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::vector<FlightRecord> records = rec.snapshot(-1.0);
      double prev_t = -1.0;
      for (const FlightRecord& r : records) {
        const std::uint64_t t = r.rid >> 32;
        const std::uint64_t i = r.rid & 0xffffffffu;
        const double expect_value = static_cast<double>(t * 1000003u + i);
        if (r.track != t || r.value != expect_value || r.name != name ||
            !(r.t_us > prev_t)) {
          torn_or_wrong.fetch_add(1, std::memory_order_relaxed);
        }
        prev_t = r.t_us;
      }
    }
  });

  std::vector<std::thread> writers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, name, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.instant(name, t, (static_cast<std::uint64_t>(t) << 32) | i,
                    static_cast<double>(t * 1000003u + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(torn_or_wrong.load(), 0u);
  EXPECT_EQ(rec.total_records(), kThreads * kPerThread);
  // Quiesced: the final snapshot is a full, consistent ring.
  EXPECT_EQ(rec.snapshot(-1.0).size(), rec.capacity());
}

TEST(FlightRecorder, PerfettoDumpWellFormedAndTagged) {
  FlightRecorder rec(64);
  const std::uint16_t solve = rec.intern("solve");
  const std::uint16_t depth = rec.intern("queue-depth");
  const double t0 = rec.now_us();
  rec.span(solve, 2, 42, t0, rec.now_us());
  rec.instant(solve, 0, 42, 3.0);
  rec.counter(depth, 1, 0, 5.0);

  const std::string json =
      flight_to_perfetto_json(rec, /*window_s=*/0.0, /*trigger_rid=*/42,
                              "slo-burn", "unit-test");
  const io::JsonValue doc = io::JsonValue::parse(json);
  ASSERT_TRUE(doc.is_object());
  const io::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 3u);
  bool saw_span = false, saw_instant = false, saw_counter = false;
  for (const io::JsonValue& event : events->as_array()) {
    const std::string ph = event.string_or("ph", "");
    const io::JsonValue* args = event.find("args");
    ASSERT_NE(args, nullptr);
    if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(event.string_or("name", ""), "solve");
      EXPECT_GE(event.number_or("dur", -1.0), 0.0);
      EXPECT_EQ(args->int_or("rid", -1), 42);
    }
    if (ph == "i") saw_instant = true;
    if (ph == "C") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(args->number_or("queue-depth", -1.0), 5.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  const io::JsonValue* metadata = doc.find("metadata");
  ASSERT_NE(metadata, nullptr);
  EXPECT_EQ(metadata->int_or("trigger_rid", -1), 42);
  EXPECT_EQ(metadata->string_or("trigger", ""), "slo-burn");
  EXPECT_EQ(metadata->string_or("source", ""), "unit-test");
  EXPECT_EQ(metadata->int_or("records", -1), 3);
}

// ------------------------------------------------------ event log cap ------

TEST(EventLog, RotatesAtSizeCapWithCompleteLines) {
  const std::string path = ::testing::TempDir() + "qulrb_eventlog_rot.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  {
    EventLog log(path, /*append=*/false, /*max_bytes=*/512);
    SolveEvent event;
    event.source = "unit-test";
    event.solver = "qcqm1";
    event.outcome = "ok";
    for (int i = 0; i < 64; ++i) {
      event.request_id = static_cast<std::uint64_t>(i + 1);
      log.log(event);
    }
    EXPECT_GE(log.rotations(), 1u);
    EXPECT_EQ(log.lines_written(), 64u);
  }
  // Both generations exist and hold only complete, parsable JSON lines.
  std::size_t lines = 0;
  for (const std::string& p : {path, path + ".1"}) {
    std::ifstream in(p);
    ASSERT_TRUE(in.good()) << p;
    std::string line;
    while (std::getline(in, line)) {
      const io::JsonValue doc = io::JsonValue::parse(line);
      EXPECT_EQ(doc.string_or("source", ""), "unit-test");
      ++lines;
    }
    // The live generation stays under the cap.
    in.clear();
    in.seekg(0, std::ios::end);
    EXPECT_LE(in.tellg(), 512);
  }
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(EventLog, UncappedNeverRotates) {
  const std::string path = ::testing::TempDir() + "qulrb_eventlog_uncapped.jsonl";
  std::remove(path.c_str());
  {
    EventLog log(path, /*append=*/false);
    SolveEvent event;
    event.source = "unit-test";
    for (int i = 0; i < 32; ++i) log.log(event);
    EXPECT_EQ(log.rotations(), 0u);
    EXPECT_EQ(log.lines_written(), 32u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qulrb::obs
