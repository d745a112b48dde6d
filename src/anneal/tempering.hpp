#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/sampleset.hpp"
#include "model/cqm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace qulrb::util {
class ThreadPool;
}  // namespace qulrb::util

namespace qulrb::anneal {

class PairMoveIndex;

struct TemperingParams {
  std::size_t num_replicas = 8;
  std::size_t sweeps = 1000;          ///< Metropolis sweeps per replica
  std::size_t swap_interval = 10;     ///< sweeps between exchange attempts
  double beta_hot = 0.0;              ///< 0 selects automatically from scale
  double beta_cold = 0.0;
  std::uint64_t seed = 1;
  /// Polled once per sweep by every replica walk; when expired the best
  /// sample seen by any replica so far is returned. Inert by default.
  util::CancelToken cancel;
  /// Optional pool: each swap interval runs one task per ladder position on
  /// it, while the exchange and the incumbent merge stay on the calling
  /// thread. Null runs the same tasks inline, in ladder order. The result is
  /// bitwise identical either way, for any pool size.
  util::ThreadPool* pool = nullptr;
  /// Optional trace sink: one span per run plus a sampled incumbent-energy
  /// timeline. Consumes no RNG; output is bitwise identical with it on/off.
  obs::Recorder* recorder = nullptr;
  std::uint32_t trace_track = 0;
  /// Optional metrics sink: bumped by replica-rounds executed (sweeps over
  /// the whole ladder), once per run.
  obs::Counter* sweep_counter = nullptr;
  /// Optional always-on flight ring: one compact span per run (value =
  /// ladder rounds executed). Same null discipline as `recorder`.
  obs::FlightRecorder* flight = nullptr;
  std::uint16_t flight_name = 0;
  std::uint64_t flight_rid = 0;
};

/// Replica-exchange (parallel tempering) Monte Carlo on a CQM with penalty
/// energy. A geometric beta ladder is run concurrently; adjacent replicas
/// exchange configurations with the Metropolis criterion
///   P(swap) = min(1, exp((beta_a - beta_b) * (E_a - E_b))).
/// Between two exchanges the replicas walk independently, so each swap
/// interval is a barrier-separated batch of per-replica tasks.
/// Better than plain SA on rugged penalty landscapes (tight `k` bounds),
/// which is why the hybrid solver enables it for hard instances.
class ParallelTempering {
 public:
  explicit ParallelTempering(TemperingParams params = {}) : params_(params) {}

  /// Returns the best sample seen by any replica. When `pairs` is non-null
  /// it is used as the pair-move index instead of rebuilding one per run.
  Sample run(const model::CqmModel& cqm, std::vector<double> penalties,
             const model::State& initial = {},
             const PairMoveIndex* pairs = nullptr) const;

 private:
  TemperingParams params_;
};

}  // namespace qulrb::anneal
