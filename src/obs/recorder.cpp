#include "obs/recorder.hpp"

#include <algorithm>
#include <set>

#include "obs/trace_writer.hpp"

namespace qulrb::obs {

std::string to_perfetto_json(const Recorder& recorder) {
  constexpr std::int64_t kPid = 1;
  TraceWriter writer;
  writer.process_name(kPid, recorder.name());

  auto spans = recorder.spans();
  auto samples = recorder.samples();
  const auto track_names = recorder.track_names();

  // Label every track that carries data, preferring explicit names.
  std::set<std::uint32_t> tracks;
  for (const auto& s : spans) tracks.insert(s.track);
  for (const auto& s : samples) tracks.insert(s.track);
  for (const std::uint32_t track : tracks) {
    std::string label = track == 0 ? "main" : "track " + std::to_string(track);
    for (const auto& [t, name] : track_names) {
      if (t == track) label = name;
    }
    writer.thread_name(kPid, static_cast<std::int64_t>(track), label);
  }

  // The viewers tolerate unsorted events but render sorted ones faster, and
  // sorted output makes the document diffable in tests.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_us < b.start_us;
                   });
  std::stable_sort(samples.begin(), samples.end(),
                   [](const TraceSample& a, const TraceSample& b) {
                     return a.t_us < b.t_us;
                   });

  for (const auto& s : spans) {
    writer.complete(s.name, s.category, kPid,
                    static_cast<std::int64_t>(s.track), s.start_us, s.dur_us);
  }
  for (const auto& s : samples) {
    std::string series = s.series;
    if (s.track != 0) series += "/t" + std::to_string(s.track);
    writer.counter(series, kPid, s.t_us, s.value);
  }

  for (const auto& [key, value] : recorder.annotations()) {
    writer.metadata(key, value);
  }
  writer.metadata("recorder", recorder.name());
  writer.metadata("spans", static_cast<std::int64_t>(spans.size()));
  writer.metadata("samples", static_cast<std::int64_t>(samples.size()));
  return writer.finish();
}

}  // namespace qulrb::obs
