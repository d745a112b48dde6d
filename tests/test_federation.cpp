#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "io/json_value.hpp"
#include "obs/build_info.hpp"
#include "obs/histogram_wire.hpp"
#include "obs/metrics.hpp"
#include "router/federation.hpp"

namespace qulrb::router {
namespace {

using obs::HistogramLayout;
using obs::LogHistogram;
using obs::MetricsRegistry;

// ------------------------------------------------- histogram wire codec ----

TEST(HistogramWire, RoundTripsExactly) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  for (int i = 0; i < 7; ++i) h.observe(64.0);
  h.observe(1e-9);  // underflow bucket
  h.observe(1e12);  // overflow bucket

  const io::JsonValue doc = io::JsonValue::parse(obs::histogram_to_json(h));
  HistogramLayout layout;
  ASSERT_TRUE(obs::histogram_layout_from_json(doc, layout));
  EXPECT_EQ(layout.buckets, h.layout().buckets);

  LogHistogram back(layout);
  ASSERT_TRUE(obs::merge_histogram_json(doc, back));
  EXPECT_EQ(back.count(), h.count());
  // Bucket counts are integers and round-trip exactly; the sum is a double
  // serialized at 12 significant digits.
  EXPECT_NEAR(back.sum(), h.sum(), 1e-11 * h.sum());
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    EXPECT_EQ(back.bucket_count(b), h.bucket_count(b)) << "bucket " << b;
  }
}

TEST(HistogramWire, RoundTripsAcrossWriterStripes) {
  // Concurrent observers spread counts across the histogram's internal
  // stripes; the wire form must fold them — stripes are a writer-side
  // detail, never visible on the wire.
  LogHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 5000; ++i) {
        h.observe(static_cast<double>(1 << (t % 4)));
      }
    });
  }
  for (auto& t : threads) t.join();

  const io::JsonValue doc = io::JsonValue::parse(obs::histogram_to_json(h));
  LogHistogram back;
  ASSERT_TRUE(obs::merge_histogram_json(doc, back));
  EXPECT_EQ(back.count(), 8u * 5000u);
  EXPECT_DOUBLE_EQ(back.sum(), h.sum());
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    EXPECT_EQ(back.bucket_count(b), h.bucket_count(b));
  }
}

TEST(HistogramWire, EmptyHistogramRoundTrips) {
  LogHistogram empty;
  const io::JsonValue doc =
      io::JsonValue::parse(obs::histogram_to_json(empty));
  LogHistogram back;
  ASSERT_TRUE(obs::merge_histogram_json(doc, back));
  EXPECT_EQ(back.count(), 0u);
  EXPECT_DOUBLE_EQ(back.sum(), 0.0);
}

TEST(HistogramWire, NonDefaultLayoutRoundTrips) {
  HistogramLayout layout;
  layout.lo = 0.5;
  layout.buckets = 12;
  layout.buckets_per_octave = 1.0;
  LogHistogram h(layout);
  for (int i = 0; i < 9; ++i) h.observe(2.0);

  const io::JsonValue doc = io::JsonValue::parse(obs::histogram_to_json(h));
  HistogramLayout parsed;
  ASSERT_TRUE(obs::histogram_layout_from_json(doc, parsed));
  EXPECT_DOUBLE_EQ(parsed.lo, 0.5);
  EXPECT_EQ(parsed.buckets, 12u);
  LogHistogram back(parsed);
  ASSERT_TRUE(obs::merge_histogram_json(doc, back));
  EXPECT_EQ(back.count(), 9u);
}

TEST(HistogramWire, MergeRejectsLayoutMismatchUntouched) {
  HistogramLayout other;
  other.buckets = 12;
  LogHistogram h(other);
  h.observe(1.0);
  const io::JsonValue doc = io::JsonValue::parse(obs::histogram_to_json(h));

  LogHistogram target;  // default layout, 58 buckets
  target.observe(3.0);
  EXPECT_FALSE(obs::merge_histogram_json(doc, target));
  EXPECT_EQ(target.count(), 1u);  // untouched
  EXPECT_DOUBLE_EQ(target.sum(), 3.0);
}

// A backend's layout sizes the router's next allocation (kMetricShards
// atomics per bucket), so the decoder refuses more than 1024 buckets. Only
// the decoder runs here: no histogram is built from a refused layout.
TEST(HistogramWire, RejectsOversizedLayout) {
  const auto decode = [](const std::string& buckets, HistogramLayout& out) {
    return obs::histogram_layout_from_json(
        io::JsonValue::parse(R"({"layout":{"lo":0.001,"buckets":)" + buckets +
                             R"(,"per_octave":2},"counts":[],"sum":0})"),
        out);
  };
  HistogramLayout layout;
  ASSERT_TRUE(decode("1024", layout));
  EXPECT_EQ(layout.buckets, 1024u);
  for (const char* oversized : {"1025", "1000000000000", "4611686018427387904"}) {
    HistogramLayout untouched;
    EXPECT_FALSE(decode(oversized, untouched)) << oversized;
    EXPECT_EQ(untouched.buckets, HistogramLayout().buckets) << oversized;
  }
}

TEST(HistogramWire, SerializedMergeMatchesLiveMerge) {
  // The federation exactness guarantee: merging two serialized histograms
  // is bit-identical to merging the live ones.
  LogHistogram a, b;
  for (int i = 0; i < 123; ++i) a.observe(0.7);
  for (int i = 0; i < 45; ++i) b.observe(900.0);
  for (int i = 0; i < 6; ++i) b.observe(0.7);

  LogHistogram via_wire;
  ASSERT_TRUE(obs::merge_histogram_json(
      io::JsonValue::parse(obs::histogram_to_json(a)), via_wire));
  ASSERT_TRUE(obs::merge_histogram_json(
      io::JsonValue::parse(obs::histogram_to_json(b)), via_wire));

  LogHistogram live;
  live.merge(a);
  live.merge(b);

  EXPECT_EQ(via_wire.count(), live.count());
  EXPECT_DOUBLE_EQ(via_wire.sum(), live.sum());
  for (std::size_t bk = 0; bk < live.num_buckets(); ++bk) {
    EXPECT_EQ(via_wire.bucket_count(bk), live.bucket_count(bk));
  }
}

// --------------------------------------------------------- build info ------

TEST(BuildInfo, ExpositionConformance) {
  MetricsRegistry registry;
  obs::register_build_info(registry, obs::build_info(), "serve");
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE qulrb_build_info gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find("qulrb_build_info{"), std::string::npos);
  for (const char* label :
       {"version=", "revision=", "build=", "role=\"serve\""}) {
    EXPECT_NE(text.find(label), std::string::npos) << label;
  }
  EXPECT_NE(text.find("} 1"), std::string::npos);
}

// ---------------------------------------------------------- federation -----

/// A serve-shaped obs response document around one registry.
std::string obs_doc(const MetricsRegistry& registry) {
  io::JsonWriter w;
  w.begin_object();
  w.field("role", "serve");
  w.key("registry");
  obs::write_registry_obs_json(registry, w);
  w.end_object();
  return w.str();
}

bool feed(Federation& federation, std::size_t backend,
          const std::string& label, const std::string& raw, double now_ms) {
  const io::JsonValue doc = io::JsonValue::parse(raw);
  return federation.update(backend, label, raw, doc, now_ms);
}

TEST(Federation, MergesCountersGaugesAndHistogramsExactly) {
  MetricsRegistry a;
  a.counter("qulrb_service_requests_total", "Requests").inc(3);
  a.gauge("qulrb_service_queue_depth", "Depth").set(2.0);
  for (int i = 0; i < 10; ++i) {
    a.histogram("qulrb_service_request_ms", "Latency").observe(4.0);
  }
  MetricsRegistry b;
  b.counter("qulrb_service_requests_total", "Requests").inc(4);
  b.gauge("qulrb_service_queue_depth", "Depth").set(5.0);
  for (int i = 0; i < 6; ++i) {
    b.histogram("qulrb_service_request_ms", "Latency").observe(64.0);
  }

  Federation federation(2);
  ASSERT_TRUE(feed(federation, 0, "127.0.0.1:7471", obs_doc(a), 10.0));
  ASSERT_TRUE(feed(federation, 1, "127.0.0.1:7472", obs_doc(b), 11.0));
  EXPECT_EQ(federation.reporting(), 2u);

  const std::string text = federation.fleet_prometheus();
  EXPECT_NE(text.find("qulrb_fleet_service_requests_total 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("qulrb_fleet_service_queue_depth 7"), std::string::npos)
      << text;
  // Histogram merge is exact: 16 observations, sum 10*4 + 6*64.
  EXPECT_NE(text.find("qulrb_fleet_service_request_ms_count 16"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("qulrb_fleet_service_request_ms_sum 424"),
            std::string::npos)
      << text;
  // Coverage gauges ride along.
  EXPECT_NE(text.find("qulrb_fleet_backends 2"), std::string::npos);
  EXPECT_NE(text.find("qulrb_fleet_backends_reporting 2"), std::string::npos);
}

TEST(Federation, BuildInfoStaysPerInstance) {
  MetricsRegistry a;
  obs::register_build_info(a, obs::build_info(), "serve");
  MetricsRegistry b;
  obs::register_build_info(b, obs::build_info(), "serve");

  Federation federation(2);
  ASSERT_TRUE(feed(federation, 0, "127.0.0.1:7471", obs_doc(a), 10.0));
  ASSERT_TRUE(feed(federation, 1, "127.0.0.1:7472", obs_doc(b), 10.0));

  const std::string text = federation.fleet_prometheus();
  // Identity is never merged or renamed: one child per backend, tagged with
  // its instance, under the original family name.
  EXPECT_EQ(text.find("qulrb_fleet_build_info"), std::string::npos) << text;
  EXPECT_NE(text.find("instance=\"127.0.0.1:7471\""), std::string::npos);
  EXPECT_NE(text.find("instance=\"127.0.0.1:7472\""), std::string::npos);
}

TEST(Federation, MalformedUpdateLeavesSnapshotUntouched) {
  MetricsRegistry a;
  a.counter("qulrb_x_total", "X").inc(3);

  Federation federation(1);
  ASSERT_TRUE(feed(federation, 0, "127.0.0.1:7471", obs_doc(a), 10.0));
  EXPECT_EQ(federation.reporting(), 1u);

  // Not a registry serialization: rejected, prior snapshot survives.
  EXPECT_FALSE(feed(federation, 0, "127.0.0.1:7471", "{\"role\":\"serve\"}",
                    20.0));
  EXPECT_FALSE(feed(federation, 0, "127.0.0.1:7471", "[1,2,3]", 20.0));
  EXPECT_EQ(federation.reporting(), 1u);
  EXPECT_NE(federation.fleet_prometheus().find("qulrb_fleet_x_total 3"),
            std::string::npos);
}

// The fleet view adds counters as uint64; a value outside that range would
// be an undefined conversion at scrape time, so the snapshot is refused.
TEST(Federation, RejectsCounterOutsideUint64) {
  Federation federation(1);
  for (const std::string value : {"-1", "1e20"}) {
    const std::string raw =
        R"({"counters":[{"name":"qulrb_x_total","labels":"","value":)" + value +
        R"(}],"gauges":[],"histograms":[]})";
    EXPECT_FALSE(feed(federation, 0, "127.0.0.1:7471", raw, 1.0)) << value;
  }
  EXPECT_EQ(federation.reporting(), 0u);
}

TEST(Federation, InvalidateDropsBackendFromFleetView) {
  MetricsRegistry a;
  a.counter("qulrb_x_total", "X").inc(3);
  Federation federation(2);
  ASSERT_TRUE(feed(federation, 0, "127.0.0.1:7471", obs_doc(a), 10.0));
  EXPECT_EQ(federation.reporting(), 1u);

  federation.invalidate(0);
  EXPECT_EQ(federation.reporting(), 0u);
  const std::string text = federation.fleet_prometheus();
  // A dead backend's counters must not keep counting in the fleet view.
  EXPECT_EQ(text.find("qulrb_fleet_x_total"), std::string::npos) << text;
  EXPECT_NE(text.find("qulrb_fleet_backends_reporting 0"), std::string::npos);
}

TEST(Federation, FleetJsonReportsFreshnessPerBackend) {
  MetricsRegistry a;
  a.counter("qulrb_x_total", "X").inc(1);
  Federation federation(2);
  ASSERT_TRUE(feed(federation, 0, "127.0.0.1:7471", obs_doc(a), 100.0));

  io::JsonWriter w;
  federation.write_fleet_json(w, 350.0);
  const io::JsonValue doc = io::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.as_array().size(), 2u);
  const io::JsonValue& live = doc.as_array()[0];
  EXPECT_TRUE(live.find("reporting") != nullptr);
  EXPECT_DOUBLE_EQ(live.number_or("age_ms", -1.0), 250.0);
  ASSERT_NE(live.find("obs"), nullptr);
  EXPECT_TRUE(live.find("obs")->is_object());
  const io::JsonValue& dead = doc.as_array()[1];
  ASSERT_NE(dead.find("obs"), nullptr);
  EXPECT_TRUE(dead.find("obs")->is_null());
}

TEST(Federation, FleetNameRewriting) {
  EXPECT_EQ(Federation::fleet_name("qulrb_service_requests_total"),
            "qulrb_fleet_service_requests_total");
  EXPECT_EQ(Federation::fleet_name("qulrb_x"), "qulrb_fleet_x");
  EXPECT_EQ(Federation::fleet_name("other_metric"),
            "qulrb_fleet_other_metric");
}

}  // namespace
}  // namespace qulrb::router
