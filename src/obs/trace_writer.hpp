#pragma once

#include <cstdint>
#include <string>

#include "io/json.hpp"

namespace qulrb::obs {

/// Streaming emitter for the Chrome-trace JSON flavour that
/// https://ui.perfetto.dev and chrome://tracing load: a `traceEvents` array
/// of complete ("X"), counter ("C"), instant ("i"), and name-metadata ("M")
/// events, followed by a free-form `metadata` object. Timestamps and
/// durations are microseconds, per the format.
///
/// Used by the solver trace export (obs::to_perfetto_json); BSP runs traced
/// through runtime::BspConfig::recorder land in that same document.
class TraceWriter {
 public:
  TraceWriter();

  /// A closed interval on row (pid, tid). Zero/negative durations are
  /// dropped — the viewers render them as artifacts.
  void complete(const std::string& name, const char* category, std::int64_t pid,
                std::int64_t tid, double start_us, double dur_us);

  /// One point of a per-process counter timeline named `series`.
  void counter(const std::string& series, std::int64_t pid, double t_us,
               double value);

  /// A zero-duration marker on row (pid, tid).
  void instant(const std::string& name, const char* category, std::int64_t pid,
               std::int64_t tid, double t_us);

  void process_name(std::int64_t pid, const std::string& name);
  void thread_name(std::int64_t pid, std::int64_t tid, const std::string& name);

  /// Append a field to the trailing `metadata` object.
  void metadata(const std::string& key, const std::string& value);
  void metadata(const std::string& key, double value);
  void metadata(const std::string& key, std::int64_t value);
  void metadata(const std::string& key, std::size_t value) {
    metadata(key, static_cast<std::int64_t>(value));
  }

  /// Close the document and return it. The writer is spent afterwards.
  std::string finish();

 private:
  void begin_event(const char* ph, std::int64_t pid, std::int64_t tid);

  io::JsonWriter events_;  ///< open inside {"traceEvents": [
  io::JsonWriter meta_;    ///< open metadata object
  bool finished_ = false;
};

}  // namespace qulrb::obs
