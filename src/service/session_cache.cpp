#include "service/session_cache.hpp"

#include <utility>

namespace qulrb::service {

Session::Session(const lrp::LrpProblem& problem, lrp::CqmVariant variant,
                 std::int64_t k, const lrp::CqmBuildOptions& options)
    : model(problem, variant, k, options),
      presolve(model::presolve(model.cqm())),
      pairs(anneal::PairMoveIndex::build(model.cqm())),
      loads(problem.task_loads()) {}

bool Session::retarget(const lrp::LrpProblem& problem) {
  if (!model.retarget(problem)) return false;
  // Presolve fixings and pair classes follow the coefficients, so they must
  // track the retarget. The CSR incidence layout inside the model does not —
  // that reuse is the point of the session.
  presolve = model::presolve(model.cqm());
  pairs = anneal::PairMoveIndex::build(model.cqm());
  loads = problem.task_loads();
  return true;
}

std::size_t SessionCache::KeyHash::operator()(const Key& key) const noexcept {
  std::size_t h = std::hash<std::int64_t>{}(key.k);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(key.variant));
  mix(key.paper_coefficients ? 1u : 2u);
  for (const std::int64_t c : key.task_counts) {
    mix(std::hash<std::int64_t>{}(c));
  }
  return h;
}

SessionCache::Checkout SessionCache::checkout(const lrp::LrpProblem& problem,
                                              lrp::CqmVariant variant,
                                              std::int64_t k,
                                              const lrp::CqmBuildOptions& options,
                                              obs::Recorder* rec) {
  Checkout out;
  out.key = Key{problem.task_counts(), variant, k,
                options.use_paper_coefficient_set};

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(out.key);
    if (it != slots_.end()) {
      out.session = std::move(it->second.session);
      lru_.erase(it->second.lru_it);
      slots_.erase(it);
    }
  }

  if (out.session != nullptr) {
    if (out.session->loads == problem.task_loads()) {
      out.hit = CacheHit::kExact;
      if (m_exact_hits_ != nullptr) m_exact_hits_->inc();
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.exact_hits;
      return out;
    }
    bool retargeted = false;
    {
      obs::Recorder::Span span(rec, "session-retarget", "cache", 0);
      retargeted = out.session->retarget(problem);
    }
    if (retargeted) {
      out.hit = CacheHit::kRetarget;
      if (m_retarget_hits_ != nullptr) m_retarget_hits_->inc();
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.retarget_hits;
      return out;
    }
    out.session.reset();  // zero-load pattern changed: rebuild cold
  }

  {
    obs::Recorder::Span span(rec, "session-build", "cache", 0);
    out.session = std::make_unique<Session>(problem, variant, k, options);
  }
  out.hit = CacheHit::kMiss;
  if (m_misses_ != nullptr) m_misses_->inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  return out;
}

void SessionCache::give_back(Checkout checkout) {
  if (checkout.session == nullptr || capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(checkout.key);
  if (it != slots_.end()) {
    // Latest return wins: its warm hint is the freshest.
    it->second.session = std::move(checkout.session);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(checkout.key);
  slots_.emplace(std::move(checkout.key),
                 Slot{std::move(checkout.session), lru_.begin()});
  while (slots_.size() > capacity_) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    if (m_evictions_ != nullptr) m_evictions_->inc();
  }
}

void SessionCache::attach_metrics(obs::MetricsRegistry& registry) {
  using Labels = obs::MetricsRegistry::Labels;
  m_exact_hits_ = &registry.counter("qulrb_cache_hits_total",
                                    "Session-cache hits by kind",
                                    Labels{{"kind", "exact"}});
  m_retarget_hits_ = &registry.counter("qulrb_cache_hits_total",
                                       "Session-cache hits by kind",
                                       Labels{{"kind", "retarget"}});
  m_misses_ = &registry.counter("qulrb_cache_misses_total",
                                "Session-cache cold builds");
  m_evictions_ = &registry.counter("qulrb_cache_evictions_total",
                                   "Session-cache LRU evictions");
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace qulrb::service
