#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "anneal/cqm_anneal.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/problem.hpp"
#include "model/presolve.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace qulrb::service {

/// What a cache lookup found.
enum class CacheHit : std::uint8_t {
  kMiss,      ///< cold build: model, presolve, and pair index from scratch
  kRetarget,  ///< topology matched; coefficients rewritten in place
  kExact,     ///< loads matched too; everything reused, warm start available
};

/// Everything load-rebalancing solves can share across requests on one
/// problem topology: the built CQM (variables, constraints, CSR incidence
/// layout), the presolve fixings, the pair-move index, and the best state of
/// the previous solve as a warm-start hint.
///
/// Invariant on every checkout: `model` is targeted at exactly the loads of
/// the request's problem, and `presolve` / `pairs` describe that targeted
/// model (both are load-dependent — capacity rhs moves with L_max and pair
/// classes key on |coefficient| — so a retarget recomputes them while still
/// keeping the expensive model build and CSR layout).
struct Session {
  Session(const lrp::LrpProblem& problem, lrp::CqmVariant variant,
          std::int64_t k, const lrp::CqmBuildOptions& options);

  /// Re-point at new loads (same topology) and refresh the derived state.
  /// Returns false when the topology differs after all (caller rebuilds).
  bool retarget(const lrp::LrpProblem& problem);

  lrp::LrpCqm model;
  model::PresolveResult presolve;
  anneal::PairMoveIndex pairs;
  std::vector<double> loads;  ///< loads the model is currently targeted at
  model::State warm_hint;     ///< best state of the previous solve (may be empty)
};

/// Keyed, LRU-bounded store of Sessions. Checkout removes the session from
/// the cache (no locks are held during a solve; two concurrent requests on
/// the same key simply build two sessions) and give_back() reinserts it,
/// evicting the least-recently-used entry when over capacity.
class SessionCache {
 public:
  struct Key {
    std::vector<std::int64_t> task_counts;
    lrp::CqmVariant variant;
    std::int64_t k;
    bool paper_coefficients;

    bool operator==(const Key&) const = default;
  };

  struct Stats {
    std::uint64_t exact_hits = 0;
    std::uint64_t retarget_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  struct Checkout {
    std::unique_ptr<Session> session;
    Key key;
    CacheHit hit = CacheHit::kMiss;
  };

  explicit SessionCache(std::size_t capacity = 16) : capacity_(capacity) {}

  /// Session ready to solve `problem` (model targeted, presolve/pairs
  /// consistent). Never returns null; builds cold on a miss. When
  /// `recorder` is set, the expensive paths (cold build, retarget refresh)
  /// are recorded as spans on the request's main track.
  Checkout checkout(const lrp::LrpProblem& problem, lrp::CqmVariant variant,
                    std::int64_t k, const lrp::CqmBuildOptions& options,
                    obs::Recorder* recorder = nullptr);

  /// Return a session after a solve (typically with a fresh warm_hint).
  /// If the slot was refilled meanwhile, the newer-returned session wins.
  void give_back(Checkout checkout);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Mirror hit/miss/eviction counts into `registry` (qulrb_cache_*) in
  /// addition to the local Stats. Call once, before serving traffic.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  struct Slot {
    std::unique_ptr<Session> session;
    std::list<Key>::iterator lru_it;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::unordered_map<Key, Slot, KeyHash> slots_;
  std::list<Key> lru_;  ///< front = most recently used
  Stats stats_;

  // Optional registry mirrors (null until attach_metrics()).
  obs::Counter* m_exact_hits_ = nullptr;
  obs::Counter* m_retarget_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace qulrb::service
