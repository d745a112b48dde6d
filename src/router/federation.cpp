#include "router/federation.hpp"

#include <utility>

#include "io/json.hpp"
#include "io/json_value.hpp"
#include "obs/histogram_wire.hpp"

namespace qulrb::router {

Federation::Federation(std::size_t num_backends) {
  snapshots_.resize(num_backends);
}

std::string Federation::fleet_name(const std::string& name) {
  constexpr const char* kPrefix = "qulrb_";
  if (name.rfind(kPrefix, 0) == 0) {
    return "qulrb_fleet_" + name.substr(6);
  }
  return "qulrb_fleet_" + name;
}

bool Federation::update(std::size_t backend, const std::string& backend_label,
                        const std::string& raw, const io::JsonValue& doc,
                        double now_ms) {
  if (backend >= snapshots_.size()) return false;
  // The registry serialization may sit at the top level of the obs doc or
  // nested under "registry" (the serve shell nests it next to role/build/slo).
  const io::JsonValue* reg = doc.find("registry");
  if (reg == nullptr) reg = &doc;
  const io::JsonValue* counters = reg->find("counters");
  const io::JsonValue* gauges = reg->find("gauges");
  const io::JsonValue* hists = reg->find("histograms");
  if (counters == nullptr || !counters->is_array() || gauges == nullptr ||
      !gauges->is_array() || hists == nullptr || !hists->is_array()) {
    return false;
  }

  Snapshot snap;
  snap.valid = true;
  snap.label = backend_label;
  snap.updated_ms = now_ms;
  snap.raw = raw;

  const auto parse_scalars = [](const io::JsonValue& list,
                                std::vector<ScalarSample>& out) {
    for (const io::JsonValue& entry : list.as_array()) {
      if (!entry.is_object()) return false;
      ScalarSample s;
      s.name = entry.string_or("name", "");
      if (s.name.empty()) return false;
      s.labels = entry.string_or("labels", "");
      s.value = entry.number_or("value", 0.0);
      out.push_back(std::move(s));
    }
    return true;
  };
  if (!parse_scalars(*counters, snap.counters) ||
      !parse_scalars(*gauges, snap.gauges)) {
    return false;
  }
  // fleet_prometheus() adds counters as uint64; outside [0, 2^64) that
  // conversion is undefined.
  for (const ScalarSample& c : snap.counters) {
    if (!(c.value >= 0.0 && c.value < 0x1p64)) return false;
  }

  for (const io::JsonValue& entry : hists->as_array()) {
    if (!entry.is_object()) return false;
    HistSample h;
    h.name = entry.string_or("name", "");
    if (h.name.empty()) return false;
    h.labels = entry.string_or("labels", "");
    const io::JsonValue* data = entry.find("data");
    if (data == nullptr || !obs::histogram_layout_from_json(*data, h.layout)) {
      return false;
    }
    const io::JsonValue* counts = data->find("counts");
    if (counts == nullptr || !counts->is_array()) return false;
    for (const io::JsonValue& pair : counts->as_array()) {
      if (!pair.is_array() || pair.as_array().size() != 2) return false;
      const std::int64_t b = pair.as_array()[0].as_int();
      const std::int64_t c = pair.as_array()[1].as_int();
      if (b < 0 || c < 0 ||
          static_cast<std::size_t>(b) >= h.layout.buckets) {
        return false;
      }
      h.counts.emplace_back(static_cast<std::size_t>(b),
                            static_cast<std::uint64_t>(c));
    }
    h.sum = data->number_or("sum", 0.0);
    snap.hists.push_back(std::move(h));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  snapshots_[backend] = std::move(snap);
  return true;
}

void Federation::invalidate(std::size_t backend) {
  if (backend >= snapshots_.size()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot& snap = snapshots_[backend];
  snap.valid = false;
  snap.raw.clear();
  snap.counters.clear();
  snap.gauges.clear();
  snap.hists.clear();
}

std::size_t Federation::reporting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Snapshot& snap : snapshots_) {
    if (snap.valid) ++n;
  }
  return n;
}

std::string Federation::fleet_prometheus() const {
  // Fold every live snapshot into a fresh registry and reuse the standard
  // exposition: the merged quantiles are exactly those of a bucket-wise
  // merge because that is literally how they are computed.
  obs::MetricsRegistry fleet;
  std::size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Snapshot& snap : snapshots_) {
      if (!snap.valid) continue;
      ++live;
      for (const ScalarSample& c : snap.counters) {
        fleet.counter(fleet_name(c.name), "", c.labels)
            .inc(static_cast<std::uint64_t>(c.value));
      }
      for (const ScalarSample& g : snap.gauges) {
        if (g.name == "qulrb_build_info" ||
            g.name.rfind("qulrb_process_", 0) == 0) {
          // Identity stays per-process: re-emit unmerged, instance-labelled.
          // Process self-metrics (RSS, fds, start time) describe one process
          // — a fleet sum would be nonsense, so they federate like identity.
          std::string labels = g.labels;
          if (!labels.empty()) labels += ',';
          labels += "instance=\"" +
                    obs::MetricsRegistry::escape_label_value(snap.label) +
                    "\"";
          fleet.gauge(g.name, "", labels).set(g.value);
          continue;
        }
        fleet.gauge(fleet_name(g.name), "", g.labels).add(g.value);
      }
      for (const HistSample& h : snap.hists) {
        obs::LogHistogram& fh =
            fleet.histogram(fleet_name(h.name), "", h.labels, h.layout);
        for (const auto& [b, c] : h.counts) fh.add_bucket(b, c);
        fh.add_sum(h.sum);
      }
    }
    fleet
        .gauge("qulrb_fleet_backends",
               "Backends this router federates metrics from")
        .set(static_cast<double>(snapshots_.size()));
    fleet
        .gauge("qulrb_fleet_backends_reporting",
               "Backends with a live obs snapshot in the fleet view")
        .set(static_cast<double>(live));
  }
  return fleet.to_prometheus();
}

void Federation::write_fleet_json(io::JsonWriter& w, double now_ms) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w.begin_array();
  for (const Snapshot& snap : snapshots_) {
    w.begin_object();
    w.field("backend", snap.label);
    w.field("reporting", snap.valid);
    if (snap.valid) {
      w.field("age_ms", now_ms - snap.updated_ms);
      w.key("obs").raw_value(snap.raw);
    } else {
      w.key("obs").null();
    }
    w.end_object();
  }
  w.end_array();
}

}  // namespace qulrb::router
