#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace qulrb::io {
class JsonWriter;
class JsonValue;
}  // namespace qulrb::io

namespace qulrb::obs {

/// Wire codec for LogHistogram and whole metric registries, so the router
/// can federate per-backend metrics with exact bucket-wise merges. The wire
/// form is stripe-agnostic (stripes are a writer-side concurrency detail):
///
///   {"layout": {"lo": 0.001, "buckets": 58, "per_octave": 2},
///    "counts": [[b, c], ...],        // sparse: only non-zero buckets
///    "sum": S}
///
/// Deserialize-and-merge is plain addition (LogHistogram::add_bucket /
/// add_sum), so merging M backends' serialized histograms into one is
/// bit-identical to merging the live histograms — the federation exactness
/// guarantee rests on this.

/// Serialize one histogram as the wire object (written as the next value).
void write_histogram_json(const LogHistogram& h, io::JsonWriter& w);
std::string histogram_to_json(const LogHistogram& h);

/// Most buckets a wire layout may declare. A LogHistogram allocates
/// kMetricShards atomics per bucket, so a peer's unchecked count would size
/// the reader's next allocation; every layout in the tree has 58.
inline constexpr std::int64_t kMaxWireBuckets = 1024;

/// Read the layout of a serialized histogram. Returns false when the doc is
/// not a histogram wire object or declares more than kMaxWireBuckets buckets.
bool histogram_layout_from_json(const io::JsonValue& doc,
                                HistogramLayout& out);

/// Fold a serialized histogram into `target`. Returns false (target
/// untouched) on malformed input or layout mismatch.
bool merge_histogram_json(const io::JsonValue& doc, LogHistogram& target);

/// Serialize a whole registry for the {"op":"obs"} protocol op: counters and
/// gauges as {"name","labels","value"} entries, histograms in the wire form
/// above. Written as the next value (an object with "counters", "gauges",
/// "histograms" arrays).
void write_registry_obs_json(const MetricsRegistry& registry,
                             io::JsonWriter& w);

}  // namespace qulrb::obs
