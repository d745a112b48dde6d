#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"

namespace qulrb::anneal {

/// Control and telemetry sinks of one sampler run, shared by all three
/// samplers (CqmAnnealer, ParallelTempering, SimulatedAnnealer). Every sink
/// is optional and follows one discipline: it
/// consumes no RNG and never alters control flow, so output is bitwise
/// identical with or without it.
struct SamplerSinks {
  /// Polled once per sweep; when expired the best-seen sample is returned
  /// immediately (anytime semantics). Inert by default.
  util::CancelToken cancel;
  /// Trace sink: one span per run on `trace_track` plus the sampled
  /// incumbent timeline (see SamplerRun).
  obs::Recorder* recorder = nullptr;
  std::uint32_t trace_track = 0;
  /// Metrics sink: bumped once per run by the sweeps executed (for
  /// tempering, rounds over the whole ladder).
  obs::Counter* sweep_counter = nullptr;
  /// Always-on flight ring: one compact span per run on `trace_track`
  /// carrying the executed sweep count, stamped with the tag's rid so a
  /// retroactive dump slices out the triggering request's solver activity.
  obs::FlightTag flight;
};

/// The instrumentation of one sampler run, in one object: the run's phase
/// scope (profiler label, trace span, flight span), the incumbent timeline
/// and the sweep count. Every sampler records through it, so every trace
/// track carries the paired "incumbent_energy" (objective + violation) and
/// "incumbent_violation" series that obs::ConvergenceDiagnostics reads.
class SamplerRun {
 public:
  /// Opens phase `name` for a run of `sweeps` planned sweeps.
  SamplerRun(const SamplerSinks& sinks, const char* name,
             std::size_t sweeps) noexcept
      : sinks_(sinks),
        span_(sinks.recorder, name, "sampler", sinks.trace_track, sinks.flight),
        sweeps_(sweeps),
        sample_every_(std::max<std::size_t>(1, sweeps / 64)) {}

  SamplerRun(const SamplerRun&) = delete;
  SamplerRun& operator=(const SamplerRun&) = delete;

  ~SamplerRun() { close(); }

  /// Sweep `sweep` (0-based) finished with the incumbent at (objective,
  /// violation). About 64 evenly spaced sweeps of the run, and its last,
  /// add a point to both series.
  void sweep_done(std::size_t sweep, double objective, double violation) {
    ++swept_;
    if (sinks_.recorder != nullptr &&
        (sweep % sample_every_ == 0 || sweep + 1 == sweeps_)) {
      sinks_.recorder->sample("incumbent_energy", sinks_.trace_track,
                              objective + violation);
      sinks_.recorder->sample("incumbent_violation", sinks_.trace_track,
                              violation);
    }
  }

  /// Ends the run early; the destructor calls it too. Adds the executed
  /// sweeps to the sweep counter and closes the phase with them as the
  /// flight payload.
  void close() noexcept {
    if (closed_) return;
    closed_ = true;
    if (sinks_.sweep_counter != nullptr && swept_ > 0) {
      sinks_.sweep_counter->inc(swept_);
    }
    span_.close(static_cast<double>(swept_));
  }

 private:
  const SamplerSinks& sinks_;
  obs::Recorder::Span span_;
  std::size_t sweeps_;
  std::size_t sample_every_;
  std::size_t swept_ = 0;
  bool closed_ = false;
};

}  // namespace qulrb::anneal
