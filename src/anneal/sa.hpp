#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/sampleset.hpp"
#include "model/qubo.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

struct SaParams {
  std::size_t sweeps = 1000;
  std::size_t num_reads = 8;  ///< independent restarts, one sample kept per read
  std::uint64_t seed = 1;
  /// Polled once per sweep (and between reads); when expired the best
  /// incumbent so far is returned. Inert by default.
  util::CancelToken cancel;
  /// Optional trace sink: one span per read plus a sampled incumbent-energy
  /// timeline. Consumes no RNG; output is bitwise identical with it on/off.
  obs::Recorder* recorder = nullptr;
  std::uint32_t trace_track = 0;
  /// Optional metrics sink: bumped by sweeps executed, once per read.
  obs::Counter* sweep_counter = nullptr;
};

/// Plain single-flip Metropolis simulated annealing over a QUBO, with O(deg)
/// incremental energy updates and a geometric schedule derived from the
/// QUBO's largest coefficient. This is the workhorse behind both the QUBO
/// path (ablations, penalty studies) and the test oracles.
class SimulatedAnnealer {
 public:
  explicit SimulatedAnnealer(SaParams params = {}) : params_(params) {}

  /// Run num_reads independent anneals; each read contributes its best-seen
  /// state (not the final state) to the sample set.
  SampleSet sample(const model::QuboModel& qubo) const;

  /// Single anneal starting from `initial` (random when empty).
  Sample anneal_once(const model::QuboModel& qubo, util::Rng& rng,
                     const model::State& initial = {}) const;

 private:
  SaParams params_;
};

}  // namespace qulrb::anneal
