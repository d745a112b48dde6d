#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/json_value.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/process_metrics.hpp"
#include "obs/profile_export.hpp"
#include "obs/profiler.hpp"
#include "obs/stack_unwind.hpp"

namespace qulrb::obs {

// External-linkage, noinline call chain: with CMAKE_ENABLE_EXPORTS these
// land in the dynamic symbol table, so dladdr can name them, and the asm
// barriers pin each call in a real (non-tail) frame the walker must cross.
__attribute__((noinline)) int profiler_test_leaf(std::uintptr_t* pcs,
                                                 int max_frames) {
  const int n = prof::unwind_here(pcs, max_frames, 0);
  asm volatile("" ::: "memory");
  return n;
}

__attribute__((noinline)) int profiler_test_mid(std::uintptr_t* pcs,
                                                int max_frames) {
  const int n = profiler_test_leaf(pcs, max_frames);
  asm volatile("" ::: "memory");
  return n;
}

__attribute__((noinline)) int profiler_test_outer(std::uintptr_t* pcs,
                                                  int max_frames) {
  const int n = profiler_test_mid(pcs, max_frames);
  asm volatile("" ::: "memory");
  return n;
}

namespace {

// ------------------------------------------------------------- unwinder ----

TEST(StackUnwind, KnownCallChainResolvesToNames) {
  prof::init_unwinder();
  std::uintptr_t pcs[prof::kMaxFrames] = {};
  const int n = profiler_test_outer(pcs, prof::kMaxFrames);
  ASSERT_GE(n, 3) << "the walker must cross the three test frames";

  prof::Symbolizer symbolizer;
  std::string joined;
  for (int i = 0; i < n; ++i) {
    joined += symbolizer.resolve_return_address(pcs[i]);
    joined += ';';
  }
  EXPECT_NE(joined.find("profiler_test_mid"), std::string::npos) << joined;
  EXPECT_NE(joined.find("profiler_test_outer"), std::string::npos) << joined;
}

TEST(StackUnwind, TruncatesAtMaxFrames) {
  prof::init_unwinder();
  std::uintptr_t pcs[prof::kMaxFrames] = {};
  const int n = profiler_test_outer(pcs, 2);
  EXPECT_GE(n, 1);
  EXPECT_LE(n, 2);
}

TEST(Symbolizer, ForeignAndGarbagePcsDegradeToHexNotCrash) {
  prof::Symbolizer symbolizer;
  // Unmapped / nonsense addresses must come back as something printable.
  for (const std::uintptr_t pc :
       {std::uintptr_t{0}, std::uintptr_t{0x10}, std::uintptr_t{0xdeadbeef},
        ~std::uintptr_t{0} - 64}) {
    const std::string name = symbolizer.resolve(pc);
    EXPECT_FALSE(name.empty());
    // Frame names feed the folded format, whose separator is ';'.
    EXPECT_EQ(name.find(';'), std::string::npos);
  }
  // Same pc resolves identically through the cache.
  EXPECT_EQ(symbolizer.resolve(0xdeadbeef), symbolizer.resolve(0xdeadbeef));
}

// ---------------------------------------------------------------- clock ----

TEST(ObsClock, StrictStampsAreUniqueAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  std::vector<std::vector<double>> stamps(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stamps, t] {
      stamps[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        stamps[t].push_back(clock::strict_us());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<double> unique;
  for (const auto& vec : stamps) {
    for (double s : vec) unique.insert(s);
    // Per-thread sequences are strictly increasing.
    for (std::size_t i = 1; i < vec.size(); ++i) EXPECT_GT(vec[i], vec[i - 1]);
  }
  EXPECT_EQ(unique.size(), kThreads * kPerThread);
}

// ------------------------------------------------------------- profiler ----

double burn_until(const Profiler& profiler, std::uint64_t min_samples) {
  volatile double acc = 1.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.total_samples() < min_samples &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 20000; ++i) acc = acc * 1.0000001 + 0.1;
  }
  return acc;
}

TEST(Profiler, SamplesCarryPhaseAndRidAttribution) {
  Profiler::Params params;
  params.hz = 500;
  params.ring_capacity = 2048;
  Profiler profiler(params);
  ASSERT_TRUE(profiler.start());
  {
    prof::RidScope rid_scope(42);
    prof::PhaseScope phase_scope("test-burn");
    burn_until(profiler, 25);
  }
  profiler.stop();
  ASSERT_GE(profiler.total_samples(), 25u)
      << "ITIMER_PROF did not fire; CPU-time sampling unavailable?";

  const std::vector<ProfileSample> samples = profiler.snapshot(0.0);
  ASSERT_FALSE(samples.empty());
  std::size_t attributed = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(samples[i].t_us, samples[i - 1].t_us);
    }
    if (samples[i].rid == 42 && samples[i].phase != nullptr &&
        std::strcmp(samples[i].phase, "test-burn") == 0) {
      ++attributed;
      EXPECT_GT(samples[i].depth, 0);
    }
  }
  // The burn loop dominates the process's CPU while sampling, so most
  // samples must land inside the scope.
  EXPECT_GT(attributed, samples.size() / 2);
}

TEST(Profiler, SecondSamplerCannotStartWhileFirstRuns) {
  Profiler first;
  ASSERT_TRUE(first.start());
  Profiler second;
  EXPECT_FALSE(second.start());
  first.stop();
  // The process-wide slot frees on stop.
  EXPECT_TRUE(second.start());
  second.stop();
}

TEST(Profiler, DisabledRateRefusesToStart) {
  Profiler::Params params;
  params.hz = 0;
  Profiler profiler(params);
  EXPECT_FALSE(profiler.start());
  profiler.stop();  // idempotent no-op
}

TEST(Profiler, WindowSnapshotExcludesOldSamples) {
  Profiler::Params params;
  params.hz = 500;
  Profiler profiler(params);
  ASSERT_TRUE(profiler.start());
  burn_until(profiler, 10);
  profiler.stop();
  // A window far in the past covers everything; a zero-width future-anchored
  // window covers nothing the ring recorded before now.
  EXPECT_FALSE(profiler.snapshot(1e6).empty());
  EXPECT_TRUE(profiler.snapshot(1e-9).empty());
}

// --------------------------------------------------------------- export ----

std::vector<ProfileSample> synthetic_samples() {
  std::uintptr_t pcs[prof::kMaxFrames] = {};
  const int n = profiler_test_outer(pcs, prof::kMaxFrames);
  ProfileSample attributed;
  attributed.ticket = 1;
  attributed.t_us = 10.0;
  attributed.rid = 7;
  attributed.phase = "polish";
  attributed.depth = n;
  std::memcpy(attributed.pcs, pcs, sizeof(pcs));
  ProfileSample duplicate = attributed;
  duplicate.ticket = 2;
  duplicate.t_us = 20.0;
  ProfileSample unwound_none;  // depth 0: the walker found nothing
  unwound_none.ticket = 3;
  unwound_none.t_us = 30.0;
  return {attributed, duplicate, unwound_none};
}

TEST(ProfileExport, FoldedFoldsDuplicateStacksAndTagsAttribution) {
  const std::vector<ProfileSample> samples = synthetic_samples();
  prof::Symbolizer symbolizer;
  ProfileExportOptions options;
  options.source = "testsrc";
  const std::string folded =
      profile_to_folded(samples, symbolizer, options);

  bool found_attributed = false;
  bool found_unwound_none = false;
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t nl = folded.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "folded lines are newline-terminated";
    const std::string line = folded.substr(pos, nl - pos);
    pos = nl + 1;
    ++lines;
    EXPECT_EQ(line.rfind("testsrc", 0), 0u) << line;
    if (line.rfind("testsrc;rid:7;phase:polish;", 0) == 0) {
      found_attributed = true;
      // Two identical stacks fold into one line with count 2.
      EXPECT_EQ(line.substr(line.rfind(' ') + 1), "2") << line;
      EXPECT_NE(line.find("profiler_test_mid"), std::string::npos) << line;
    }
    if (line.rfind("testsrc;[unwound:none]", 0) == 0) {
      found_unwound_none = true;
      EXPECT_EQ(line.substr(line.rfind(' ') + 1), "1") << line;
    }
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_TRUE(found_attributed);
  EXPECT_TRUE(found_unwound_none);

  // Deterministic: same samples, same text.
  prof::Symbolizer fresh;
  EXPECT_EQ(folded, profile_to_folded(samples, fresh, options));
}

TEST(ProfileExport, JsonDocumentAggregatesPhases) {
  const std::vector<ProfileSample> samples = synthetic_samples();
  prof::Symbolizer symbolizer;
  ProfileExportOptions options;
  options.source = "testsrc";
  options.hz = 99;
  options.window_s = 2.0;
  const io::JsonValue doc =
      io::JsonValue::parse(profile_to_json(samples, symbolizer, options));
  EXPECT_EQ(doc.string_or("source", ""), "testsrc");
  EXPECT_EQ(doc.int_or("hz", 0), 99);
  EXPECT_DOUBLE_EQ(doc.number_or("window_s", 0.0), 2.0);
  EXPECT_EQ(doc.int_or("samples", 0), 3);
  EXPECT_EQ(doc.int_or("distinct_stacks", 0), 2);
  const io::JsonValue* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  bool found = false;
  for (const io::JsonValue& entry : phases->as_array()) {
    if (entry.string_or("phase", "") == "polish") {
      found = true;
      EXPECT_EQ(entry.int_or("rid", 0), 7);
      EXPECT_EQ(entry.int_or("samples", 0), 2);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_NE(doc.find("folded"), nullptr);
}

TEST(ProfileExport, InstanceTaggingPrefixesEveryLine) {
  const std::string folded = "a;b;c 3\nx;y 1\n";
  const std::string tagged = folded_with_instance(folded, "127.0.0.1:7471");
  EXPECT_EQ(tagged, "instance:127.0.0.1:7471;a;b;c 3\n"
                    "instance:127.0.0.1:7471;x;y 1\n");
  EXPECT_EQ(folded_with_instance("", "b"), "");
}

// ------------------------------------------------------- process metrics ----

TEST(ProcessMetrics, ExportsSaneSelfValues) {
  MetricsRegistry registry;
  ProcessMetrics metrics(registry);
  // Burn a little CPU so the rusage counter is visibly nonzero.
  volatile double acc = 1.0;
  for (int i = 0; i < 2000000; ++i) acc = acc * 1.0000001 + 0.1;
  metrics.update();

  EXPECT_GE(registry.gauge("qulrb_process_cpu_seconds_total").value(), 0.0);
  EXPECT_GT(registry.gauge("qulrb_process_resident_memory_bytes").value(),
            1024.0 * 1024.0);
  EXPECT_GE(registry.gauge("qulrb_process_open_fds").value(), 3.0);
  // A plausible unix timestamp (after 2001), not an uptime.
  EXPECT_GT(registry.gauge("qulrb_process_start_time_seconds").value(), 1e9);

  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("qulrb_process_cpu_seconds_total"), std::string::npos);
  EXPECT_NE(text.find("qulrb_process_resident_memory_bytes"),
            std::string::npos);
  EXPECT_NE(text.find("qulrb_process_open_fds"), std::string::npos);
  EXPECT_NE(text.find("qulrb_process_start_time_seconds"), std::string::npos);
}

}  // namespace
}  // namespace qulrb::obs
