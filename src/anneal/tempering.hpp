#pragma once

#include <cstddef>
#include <cstdint>

#include "anneal/cqm_anneal.hpp"
#include "anneal/sampleset.hpp"
#include "model/cqm.hpp"
#include "util/rng.hpp"

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

/// The replica-exchange beta ladder, hottest first, geometric between two
/// points probed from up to 256 random single flips of `walk` (drawn from
/// `rng`):
///  - the objective point, log 2 / the largest |objective delta| (or
///    |total delta|, if that is smaller): the largest objective move is
///    accepted with probability 1/2;
///  - the total point, 10^4 / the largest |total delta|.
/// While penalties inflate the total move scale by less than 10^4 / log 2,
/// the objective point is the hot end, so the hottest replica tunes the
/// objective instead of random-walking among infeasible states. Past that
/// (escalated penalties, large models) the two points swap ends, so the
/// ladder stays ordered in every penalty round. With no probed objective
/// move, the objective point uses the total scale.
std::vector<double> tempering_ladder(const CqmIncrementalState& walk,
                                     util::Rng& rng, std::size_t num_replicas);

/// Replica-exchange (parallel tempering) Monte Carlo on a CQM with penalty
/// energy. The replicas run concurrently on the `tempering_ladder` betas;
/// adjacent replicas exchange configurations with the
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
