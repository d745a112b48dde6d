#include "obs/histogram_wire.hpp"

#include "io/json.hpp"
#include "io/json_value.hpp"

namespace qulrb::obs {

void write_histogram_json(const LogHistogram& h, io::JsonWriter& w) {
  const HistogramLayout& layout = h.layout();
  w.begin_object();
  w.key("layout").begin_object();
  w.field("lo", layout.lo);
  w.field("buckets", layout.buckets);
  w.field("per_octave", layout.buckets_per_octave);
  w.end_object();
  w.key("counts").begin_array();
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    const std::uint64_t c = h.bucket_count(b);
    if (c == 0) continue;
    w.begin_array();
    w.value(b);
    w.value(static_cast<std::int64_t>(c));
    w.end_array();
  }
  w.end_array();
  w.field("sum", h.sum());
  w.end_object();
}

std::string histogram_to_json(const LogHistogram& h) {
  io::JsonWriter w;
  write_histogram_json(h, w);
  return w.str();
}

bool histogram_layout_from_json(const io::JsonValue& doc,
                                HistogramLayout& out) {
  const io::JsonValue* layout = doc.find("layout");
  if (layout == nullptr || !layout->is_object()) return false;
  const double lo = layout->number_or("lo", 0.0);
  const std::int64_t buckets = layout->int_or("buckets", 0);
  const double per_octave = layout->number_or("per_octave", 0.0);
  if (!(lo > 0.0) || buckets < 3 || buckets > kMaxWireBuckets ||
      !(per_octave > 0.0)) {
    return false;
  }
  out.lo = lo;
  out.buckets = static_cast<std::size_t>(buckets);
  out.buckets_per_octave = per_octave;
  return true;
}

bool merge_histogram_json(const io::JsonValue& doc, LogHistogram& target) {
  HistogramLayout layout;
  if (!histogram_layout_from_json(doc, layout)) return false;
  const HistogramLayout& mine = target.layout();
  if (layout.lo != mine.lo || layout.buckets != mine.buckets ||
      layout.buckets_per_octave != mine.buckets_per_octave) {
    return false;
  }
  const io::JsonValue* counts = doc.find("counts");
  if (counts == nullptr || !counts->is_array()) return false;
  // Validate the whole payload before the first add so a malformed doc
  // leaves the target untouched.
  for (const io::JsonValue& pair : counts->as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2) return false;
    const std::int64_t b = pair.as_array()[0].as_int();
    const std::int64_t c = pair.as_array()[1].as_int();
    if (b < 0 || static_cast<std::size_t>(b) >= layout.buckets || c < 0) {
      return false;
    }
  }
  for (const io::JsonValue& pair : counts->as_array()) {
    target.add_bucket(
        static_cast<std::size_t>(pair.as_array()[0].as_int()),
        static_cast<std::uint64_t>(pair.as_array()[1].as_int()));
  }
  target.add_sum(doc.number_or("sum", 0.0));
  return true;
}

void write_registry_obs_json(const MetricsRegistry& registry,
                             io::JsonWriter& w) {
  w.begin_object();
  w.key("counters").begin_array();
  registry.visit([&](const std::string& name, const std::string& labels,
                     const Counter* counter, const Gauge*,
                     const LogHistogram*) {
    if (counter == nullptr) return;
    w.begin_object();
    w.field("name", name);
    w.field("labels", labels);
    w.field("value", static_cast<std::int64_t>(counter->value()));
    w.end_object();
  });
  w.end_array();
  w.key("gauges").begin_array();
  registry.visit([&](const std::string& name, const std::string& labels,
                     const Counter*, const Gauge* gauge, const LogHistogram*) {
    if (gauge == nullptr) return;
    w.begin_object();
    w.field("name", name);
    w.field("labels", labels);
    w.field("value", gauge->value());
    w.end_object();
  });
  w.end_array();
  w.key("histograms").begin_array();
  registry.visit([&](const std::string& name, const std::string& labels,
                     const Counter*, const Gauge*,
                     const LogHistogram* histogram) {
    if (histogram == nullptr) return;
    w.begin_object();
    w.field("name", name);
    w.field("labels", labels);
    w.key("data");
    write_histogram_json(*histogram, w);
    w.end_object();
  });
  w.end_array();
  w.end_object();
}

}  // namespace qulrb::obs
