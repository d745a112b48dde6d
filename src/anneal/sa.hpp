#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/sampleset.hpp"
#include "anneal/sinks.hpp"
#include "model/qubo.hpp"
#include "util/rng.hpp"

namespace qulrb::anneal {

struct SaParams {
  std::size_t sweeps = 1000;
  std::size_t num_reads = 8;  ///< independent restarts, one sample kept per read
  std::uint64_t seed = 1;
  /// The cancel token is polled once per sweep and between reads; each read
  /// is one "sa-read" run on the other sinks.
  SamplerSinks sinks;
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
