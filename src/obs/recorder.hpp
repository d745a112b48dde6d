#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/phase.hpp"

namespace qulrb::obs {

/// One closed span on a trace track (durations/timestamps in microseconds
/// on the process-wide obs::clock timebase).
struct TraceSpan {
  std::string name;
  const char* category = "solve";  ///< must point at a static string
  std::uint32_t track = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// One point on a counter timeline (e.g. incumbent energy over time). The
/// series name is owned so post-hoc analyses (convergence envelopes,
/// per-constraint violation attribution) can build it at runtime; the
/// samplers record a few dozen points per anneal, so the copy is off the hot
/// path.
struct TraceSample {
  std::string series;
  std::uint32_t track = 0;
  double t_us = 0.0;
  double value = 0.0;
};

/// Per-request trace collector: spans (phases) on numbered tracks plus
/// sampled counter timelines, all timestamped against one steady-clock epoch
/// so concurrent restart tracks line up in the viewer.
///
/// One Recorder is the whole trace handle of a request: the service (or the
/// CLI) constructs it with the request id, and every layer the request
/// touches — service queue, session cache, the hybrid solver's restart
/// pool, the simulated BSP ranks — takes the same `Recorder*`, so
/// one Perfetto document shows the request end to end. Layers that need
/// rows of their own claim them with claim_tracks(), which keeps solver
/// restart rows and BSP rank rows from colliding in one document.
///
/// Null-object discipline — identical to util::CancelToken: solver params
/// carry a `Recorder*` that is nullptr when tracing is off, and every call
/// site guards with `if (recorder != nullptr)`. The guard is a single
/// perfectly-predicted branch, the recorder consumes no RNG, and it never
/// changes control flow, so sampler output is bitwise identical either way.
///
/// Recording methods take a mutex; they are called per phase or per sampled
/// sweep batch, never per flip, so the lock is off the hot path.
class Recorder {
 public:
  /// A non-zero `request_id` is annotated into the trace metadata so it
  /// survives into the exported document.
  explicit Recorder(std::string name = "solve", std::uint64_t request_id = 0)
      : name_(std::move(name)), request_id_(request_id) {
    if (request_id_ != 0) annotate("request_id", std::to_string(request_id_));
  }

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Microseconds on the process-wide obs timebase (obs::clock), strictly
  /// monotonic across threads: two calls never return the same value, and a
  /// call that happens-after another (e.g. a span's end after its begin,
  /// even when the begin ran on a different thread) always reads a larger
  /// one — the CAS high-watermark lives in obs::clock::strict_us(). Sharing
  /// the timebase with the FlightRecorder and the profiler is what makes
  /// spans, flight records and CPU samples directly comparable in one
  /// incident bundle. Callers that need "since this solve started" subtract
  /// epoch_us().
  double now_us() const noexcept { return clock::strict_us(); }

  /// The timebase reading when this recorder was constructed — the zero
  /// point for "how long into the solve" analyses (ConvergenceDiagnostics'
  /// time-to-first-feasible subtracts this).
  double epoch_us() const noexcept { return epoch_us_; }

  const std::string& name() const noexcept { return name_; }
  std::uint64_t request_id() const noexcept { return request_id_; }

  /// Reserve `n` consecutive track ids for one layer's rows and return the
  /// first. Thread-safe; the first claim on a fresh recorder returns 1, and
  /// track 0 is never handed out — it stays the request's main row (queue,
  /// session and presolve spans).
  std::uint32_t claim_tracks(std::uint32_t n) noexcept {
    return next_track_.fetch_add(n, std::memory_order_relaxed);
  }

  void span(std::string name, const char* category, std::uint32_t track,
            double start_us, double end_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(TraceSpan{std::move(name), category, track, start_us,
                               end_us > start_us ? end_us - start_us : 0.0});
  }

  void sample(std::string series, std::uint32_t track, double value) {
    sample_at(std::move(series), track, now_us(), value);
  }

  /// Counter point with an explicit (possibly backdated) timestamp — used by
  /// post-hoc analyses that replay derived timelines (convergence envelopes,
  /// per-constraint violations) into the trace. `t_us` is on this
  /// recorder's timebase, i.e. a value obtained from now_us() or from
  /// another sample's timestamp.
  void sample_at(std::string series, std::uint32_t track, double t_us,
                 double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(TraceSample{std::move(series), track, t_us, value});
  }

  /// Human-readable label for a track row in the viewer (track 0 is labelled
  /// automatically from the recorder name).
  void name_track(std::uint32_t track, std::string label) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [t, l] : track_names_) {
      if (t == track) {
        l = std::move(label);
        return;
      }
    }
    track_names_.emplace_back(track, std::move(label));
  }

  /// Free-form annotation exported into the trace's metadata object.
  void annotate(const std::string& key, std::string value) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [k, v] : annotations_) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    annotations_.emplace_back(key, std::move(value));
  }

  std::vector<TraceSpan> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  std::vector<TraceSample> samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }
  std::vector<std::pair<std::uint32_t, std::string>> track_names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return track_names_;
  }
  std::vector<std::pair<std::string, std::string>> annotations() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return annotations_;
  }

  /// RAII phase scope, the one object that marks a phase. For its whole life
  /// it pushes `name` onto the calling thread's prof phase stack, whether or
  /// not anything is attached, so CPU samples attribute the same way with
  /// tracing on or off. With a recorder it also records the span on
  /// `track`; with a tagged flight ring it records one flight span whose
  /// value is the payload given to close() (the samplers pass their executed
  /// sweeps). Each attached sink costs one pointer test when absent:
  ///
  ///   obs::Recorder::Span phase(params.recorder, "presolve", "hybrid", 0);
  ///
  /// Labels and names must be static strings.
  class Span {
   public:
    Span(Recorder* recorder, const char* name, const char* category,
         std::uint32_t track, FlightTag flight = {}) noexcept
        : recorder_(recorder),
          flight_(flight),
          name_(name),
          category_(category),
          track_(track) {
      prof::push_phase(name_);
      if (recorder_ != nullptr || flight_.ring != nullptr) {
        start_us_ = clock::strict_us();
      }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span() { close(); }

    /// Ends the phase early; later calls (and the destructor) do nothing.
    void close(double payload = 0.0) noexcept {
      if (!open_) return;
      open_ = false;
      prof::pop_phase();
      if (recorder_ == nullptr && flight_.ring == nullptr) return;
      const double end_us = clock::strict_us();
      if (flight_.ring != nullptr) {
        flight_.ring->span(flight_.name, track_, flight_.rid, start_us_,
                           end_us, payload);
      }
      if (recorder_ == nullptr) return;
      try {
        recorder_->span(name_, category_, track_, start_us_, end_us);
      } catch (...) {
        // Allocation failure while tracing must not take down the solve.
      }
    }

   private:
    Recorder* recorder_;
    FlightTag flight_;
    const char* name_;
    const char* category_;
    std::uint32_t track_;
    double start_us_ = 0.0;
    bool open_ = true;
  };

 private:
  std::string name_;
  std::uint64_t request_id_ = 0;
  std::atomic<std::uint32_t> next_track_{1};  ///< 0 is the main row
  /// Timebase reading at construction; see epoch_us().
  double epoch_us_ = clock::raw_us();
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceSample> samples_;
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
  std::vector<std::pair<std::string, std::string>> annotations_;
};

/// Perfetto/Chrome-trace JSON for one recorded solve: spans become complete
/// events (track = tid), counter timelines become counter events (the series
/// of track t > 0 are suffixed "/t<t>" so restart timelines stay separate),
/// track labels become thread-name metadata, annotations land in the
/// document's metadata object. Defined in recorder.cpp (export side only —
/// the recording side above stays header-only so the samplers need no link
/// dependency on qulrb_obs).
std::string to_perfetto_json(const Recorder& recorder);

}  // namespace qulrb::obs
