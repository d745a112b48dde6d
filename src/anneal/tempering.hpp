#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/cqm_anneal.hpp"
#include "anneal/sampleset.hpp"
#include "model/cqm.hpp"

namespace qulrb::util {
class ThreadPool;
}  // namespace qulrb::util

namespace qulrb::anneal {

struct TemperingParams {
  std::size_t num_replicas = 8;
  std::size_t sweeps = 1000;          ///< Metropolis sweeps per replica
  std::size_t swap_interval = 10;     ///< sweeps between exchange attempts
  std::uint64_t seed = 1;
  /// Optional pool: each swap interval runs one task per ladder position on
  /// it, while the exchange and the incumbent merge stay on the calling
  /// thread. Null runs the same tasks inline, in ladder order. The result is
  /// bitwise identical either way, for any pool size.
  util::ThreadPool* pool = nullptr;
  /// Cancellation is polled once per sweep by every replica walk (the best
  /// sample any replica has seen is returned); the sweep counter and the
  /// flight span count rounds over the whole ladder.
  SamplerSinks sinks;
};

/// Replica-exchange (parallel tempering) Monte Carlo on a CQM with penalty
/// energy. A geometric beta ladder, derived from the model's energy scale, is
/// run concurrently; adjacent replicas exchange configurations with the
/// Metropolis criterion
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
