#include "anneal/cqm_anneal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "anneal/schedule.hpp"
#include "util/error.hpp"

namespace qulrb::anneal {

using model::CqmModel;
using model::Sense;
using model::VarId;

CqmIncrementalState::CqmIncrementalState(const CqmModel& cqm, model::State initial,
                                         std::vector<double> penalties)
    : state_(std::move(initial)) {
  util::require(state_.size() == cqm.num_variables(),
                "CqmIncrementalState: state size mismatch");
  util::require(penalties.size() == cqm.num_constraints(),
                "CqmIncrementalState: penalty count mismatch");

  // Bind the model's flat kernel views once so flip paths are allocation-free
  // contiguous scans.
  group_kernel_ = &cqm.group_kernel();
  con_inc_ = &cqm.constraint_incidence();
  linear_ = cqm.objective_linear();
  group_weights_ = cqm.group_weight_flat();

  const auto groups = cqm.squared_groups();
  group_values_.resize(groups.size());
  objective_ = cqm.objective_offset();
  for (VarId v = 0; v < linear_.size(); ++v) {
    if (state_[v]) objective_ += linear_[v];
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_values_[g] = groups[g].expr.evaluate(state_);
    objective_ += groups[g].weight * group_values_[g] * group_values_[g];
  }

  const auto constraints = cqm.constraints();
  cons_.resize(constraints.size());
  penalty_ = 0.0;
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    auto& slot = cons_[c];
    slot.activity = constraints[c].lhs.evaluate(state_);
    slot.rhs = constraints[c].rhs;
    slot.penalty = penalties[c];
    slot.sense = constraints[c].sense;
    penalty_ += penalty_of(slot, slot.activity);
  }
}

double CqmIncrementalState::total_violation() const noexcept {
  double v = 0.0;
  for (const auto& slot : cons_) {
    v += CqmModel::violation_of(slot.sense, slot.activity, slot.rhs);
  }
  return v;
}

bool CqmIncrementalState::feasible(double tol) const noexcept {
  for (const auto& slot : cons_) {
    if (CqmModel::violation_of(slot.sense, slot.activity, slot.rhs) > tol) {
      return false;
    }
  }
  return true;
}

CqmIncrementalState::FlipDelta CqmIncrementalState::flip_delta_parts(
    VarId v) const noexcept {
  const double sign = state_[v] ? -1.0 : 1.0;
  FlipDelta delta;
  double obj = sign * linear_[v];
  for (const auto& t : (*group_kernel_)[v]) {
    obj += sign * t.alpha * group_values_[t.index] + t.beta;
  }

  double pen = 0.0;
  for (const auto& inc : (*con_inc_)[v]) {
    const ConSlot& slot = cons_[inc.index];
    pen += penalty_of(slot, slot.activity + sign * inc.coeff) -
           penalty_of(slot, slot.activity);
  }
  delta.objective = obj;
  delta.penalty = pen;
  return delta;
}

CqmIncrementalState::FlipDelta CqmIncrementalState::pair_delta_parts(
    VarId a, VarId b) const noexcept {
  const double sign_a = state_[a] ? -1.0 : 1.0;
  const double sign_b = state_[b] ? -1.0 : 1.0;
  FlipDelta delta;
  double obj = sign_a * linear_[a] + sign_b * linear_[b];

  // Squared groups: merge the two sorted kernel rows; a group containing
  // both variables sees the combined step d = s_a*c_a + s_b*c_b.
  {
    const auto row_a = (*group_kernel_)[a];
    const auto row_b = (*group_kernel_)[b];
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < row_a.size() || ib < row_b.size()) {
      std::uint32_t g;
      double d;
      if (ib == row_b.size() ||
          (ia < row_a.size() && row_a[ia].index < row_b[ib].index)) {
        g = row_a[ia].index;
        d = sign_a * row_a[ia].coeff;
        ++ia;
      } else if (ia == row_a.size() || row_b[ib].index < row_a[ia].index) {
        g = row_b[ib].index;
        d = sign_b * row_b[ib].coeff;
        ++ib;
      } else {
        g = row_a[ia].index;
        d = sign_a * row_a[ia].coeff + sign_b * row_b[ib].coeff;
        ++ia;
        ++ib;
      }
      const double gv = group_values_[g];
      obj += group_weights_[g] * (2.0 * gv * d + d * d);
    }
  }

  // Constraints: same merge; a shared constraint sees both activity steps at
  // once (this is exactly what makes matched pair moves penalty-neutral).
  double pen = 0.0;
  {
    const auto row_a = (*con_inc_)[a];
    const auto row_b = (*con_inc_)[b];
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < row_a.size() || ib < row_b.size()) {
      std::uint32_t c;
      double d;
      if (ib == row_b.size() ||
          (ia < row_a.size() && row_a[ia].index < row_b[ib].index)) {
        c = row_a[ia].index;
        d = sign_a * row_a[ia].coeff;
        ++ia;
      } else if (ia == row_a.size() || row_b[ib].index < row_a[ia].index) {
        c = row_b[ib].index;
        d = sign_b * row_b[ib].coeff;
        ++ib;
      } else {
        c = row_a[ia].index;
        d = sign_a * row_a[ia].coeff + sign_b * row_b[ib].coeff;
        ++ia;
        ++ib;
      }
      const ConSlot& slot = cons_[c];
      pen += penalty_of(slot, slot.activity + d) - penalty_of(slot, slot.activity);
    }
  }
  delta.objective = obj;
  delta.penalty = pen;
  return delta;
}

void CqmIncrementalState::apply_flip(VarId v) noexcept {
  const double sign = state_[v] ? -1.0 : 1.0;
  objective_ += sign * linear_[v];

  for (const auto& t : (*group_kernel_)[v]) {
    double& gv = group_values_[t.index];
    objective_ += sign * t.alpha * gv + t.beta;
    gv += sign * t.coeff;
  }

  const auto con_row = (*con_inc_)[v];
  for (const auto& inc : con_row) {
    ConSlot& slot = cons_[inc.index];
    const double nact = slot.activity + sign * inc.coeff;
    penalty_ += penalty_of(slot, nact) - penalty_of(slot, slot.activity);
    slot.activity = nact;
  }

  if (pair_inc_bits_ != nullptr) {
    // The bound index's bits run parallel to the constraint incidence rows.
    const std::uint32_t* bits =
        pair_inc_bits_ + (con_row.data() - con_inc_->entries().data());
    for (std::size_t k = 0; k < con_row.size(); ++k) {
      pair_bits_[bits[k] >> 6] ^= std::uint64_t{1} << (bits[k] & 63);
    }
  }

  state_[v] ^= 1u;
}

void CqmIncrementalState::bind_pairs(const PairMoveIndex& pairs) {
  util::require(pairs.inc_bits_.size() == con_inc_->num_entries(),
                "CqmIncrementalState: pair index built for another model");
  pairs_ = &pairs;
  pair_inc_bits_ = pairs.inc_bits_.data();
  // Class by class, so each word is assembled in a register and stored once.
  // The word after the last class takes the flips of incidences in no class.
  pair_bits_.assign(pairs.class_words_.back() + 1, 0);
  for (std::size_t c = 0; c < pairs.num_classes(); ++c) {
    const auto members = pairs.class_at(c);
    std::uint64_t* words = pair_bits_.data() + pairs.class_words_[c];
    for (std::size_t i = 0; i < members.size(); i += 64) {
      std::uint64_t word = 0;
      for (std::size_t j = i; j < std::min(members.size(), i + 64); ++j) {
        word |= std::uint64_t{state_[members[j]]} << (j - i);
      }
      words[i >> 6] = word;
    }
  }
}

bool CqmIncrementalState::pair_member_set(std::size_t c, std::size_t i) const noexcept {
  const std::size_t bit = std::size_t{pairs_->class_words_[c]} * 64 + i;
  return ((pair_bits_[bit >> 6] >> (bit & 63)) & 1u) != 0;
}

std::size_t CqmIncrementalState::pair_set_count(std::size_t c) const noexcept {
  return pairs_->set_count(*this, c);
}

PairMoveIndex PairMoveIndex::build(const CqmModel& cqm) {
  PairMoveIndex index;
  index.class_offsets_.push_back(0);
  index.class_words_.push_back(0);
  // Membership rows, parallel to the model's constraint incidence: that CSR
  // lists each variable's (constraint, term) pairs in constraint order, so
  // the k-th term naming v, counting constraints in order, is entry k of v's
  // row. `next` walks each row as the terms are visited below.
  constexpr std::uint32_t kNoBit = 0xFFFFFFFFu;
  std::vector<std::uint32_t> next(cqm.num_variables());
  {
    const auto& incidence = cqm.constraint_incidence();
    const auto* first = incidence.entries().data();
    for (std::size_t v = 0; v < next.size(); ++v) {
      next[v] = static_cast<std::uint32_t>(incidence[v].data() - first);
    }
    index.inc_bits_.assign(incidence.num_entries(), kNoBit);
  }
  // Group each constraint's variables by |coefficient| (exact bit match — the
  // LRP coefficients are integers scaled by task loads, so equality is
  // meaningful; near-equal floats simply land in separate classes). Grouping
  // uses a linear-probe table keyed on the coefficient's bit pattern instead
  // of a comparison sort: O(terms) per constraint. The table starts with
  // room for every term but at most 128 slots, and doubles only when the
  // distinct magnitudes fill half of it, so it stays in L1 on the LRP models
  // (a handful of coefficients per constraint); the scratch buffers are
  // reused across constraints.
  // Classes come out in first-occurrence order and members in term order,
  // both of which are deterministic model insertion orders.
  constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;
  std::vector<std::uint64_t> slot_key;
  std::vector<std::uint32_t> slot_class;
  std::vector<std::uint64_t> class_key;
  std::vector<std::uint32_t> term_class;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> cursor;
  std::vector<std::uint32_t> bit_minus_at;
  std::size_t mask = 0;
  int shift = 0;
  auto slot_of = [&](std::uint64_t bits) {
    // Fibonacci hashing: the top bits of the product depend on every key
    // bit. (Small integers and powers of two have all-zero low mantissa
    // bits, so a slot taken from the product's low bits sends them all to
    // one probe chain.)
    std::size_t s = static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> shift);
    while (slot_class[s] != kFree && slot_key[s] != bits) s = (s + 1) & mask;
    return s;
  };
  for (const auto& con : cqm.constraints()) {
    const auto terms = con.lhs.terms();
    if (terms.size() < 2) {
      for (const auto& term : terms) ++next[term.var];
      continue;
    }
    mask = 15;
    shift = 60;
    while (mask < 127 && mask + 1 < 2 * terms.size()) {
      mask = 2 * mask + 1;
      --shift;
    }
    slot_key.assign(mask + 1, 0);
    slot_class.assign(mask + 1, kFree);
    class_key.clear();
    term_class.resize(terms.size());
    counts.clear();
    for (std::size_t t = 0; t < terms.size(); ++t) {
      std::uint64_t bits;
      const double mag = std::abs(terms[t].coeff);
      static_assert(sizeof(bits) == sizeof(mag));
      std::memcpy(&bits, &mag, sizeof(bits));
      std::size_t s = slot_of(bits);
      if (slot_class[s] == kFree) {
        if (2 * (counts.size() + 1) > mask + 1) {
          // Keep the load factor at or below 1/2: double and reinsert.
          mask = 2 * mask + 1;
          --shift;
          slot_key.assign(mask + 1, 0);
          slot_class.assign(mask + 1, kFree);
          for (std::uint32_t c = 0; c < class_key.size(); ++c) {
            const std::size_t r = slot_of(class_key[c]);
            slot_key[r] = class_key[c];
            slot_class[r] = c;
          }
          s = slot_of(bits);
        }
        slot_key[s] = bits;
        slot_class[s] = static_cast<std::uint32_t>(counts.size());
        class_key.push_back(bits);
        counts.push_back(0);
      }
      term_class[t] = slot_class[s];
      ++counts[term_class[t]];
    }
    // Lay out classes of size >= 2 contiguously, in discovery order. Each
    // class starts on a fresh occupancy word, so the member at position
    // `at` of members_ is bit at + bit_minus_at[c].
    cursor.assign(counts.size(), kNoClass);
    bit_minus_at.resize(counts.size());
    std::size_t base = index.members_.size();
    for (std::size_t c = 0; c < counts.size(); ++c) {
      if (counts[c] < 2) continue;
      cursor[c] = static_cast<std::uint32_t>(base);
      bit_minus_at[c] = static_cast<std::uint32_t>(64 * index.class_words_.back() - base);
      base += counts[c];
      index.class_offsets_.push_back(base);
      index.class_words_.push_back(index.class_words_.back() + (counts[c] + 63) / 64);
    }
    index.members_.resize(base);
    for (std::size_t t = 0; t < terms.size(); ++t) {
      const std::uint32_t c = term_class[t];
      const std::uint32_t k = next[terms[t].var]++;
      if (cursor[c] == kNoClass) continue;
      const std::uint32_t at = cursor[c]++;
      index.members_[at] = terms[t].var;
      index.inc_bits_[k] = at + bit_minus_at[c];
    }
  }
  // Incidences in no class flip a spare word after the last class.
  const std::uint32_t spare = 64 * index.class_words_.back();
  for (auto& bit : index.inc_bits_) {
    if (bit == kNoBit) bit = spare;
  }
  return index;
}

std::size_t PairMoveIndex::pair_scan_cost() const noexcept {
  std::size_t cost = 0;
  for (std::size_t c = 0; c + 1 < class_offsets_.size(); ++c) {
    const std::size_t size = class_offsets_[c + 1] - class_offsets_[c];
    cost += size * size;
  }
  return cost;
}

namespace {

/// Share of Metropolis steps that propose a pair move instead of a flip.
constexpr double kPairMoveProb = 0.5;

}  // namespace

bool metropolis_sweep(CqmIncrementalState& walk, const PairMoveIndex& pairs,
                      util::Rng& rng, double beta, bool refinement) {
  const std::size_t n = walk.num_variables();
  const bool use_pairs = !pairs.empty();
  bool moved = false;
  for (std::size_t step = 0; step < n; ++step) {
    if (use_pairs && rng.next_bool(kPairMoveProb)) {
      moved = pairs.attempt(walk, rng, beta, refinement) || moved;
      continue;
    }
    const auto v = static_cast<VarId>(rng.next_below(n));
    const auto d = walk.flip_delta_parts(v);
    if (refinement && d.penalty > 0.0) continue;  // keep feasibility
    const double criterion = refinement ? d.objective : d.total();
    if (criterion <= 0.0 || rng.next_double() < std::exp(-beta * criterion)) {
      walk.apply_flip(v);
      moved = true;
    }
  }
  return moved;
}

Sample CqmAnnealer::anneal_once(const CqmModel& cqm, std::vector<double> penalties,
                                util::Rng& rng, const model::State& initial,
                                const PairMoveIndex* pairs) const {
  const std::size_t n = cqm.num_variables();
  util::require(initial.empty() || initial.size() == n,
                "CqmAnnealer: initial state size mismatch");

  model::State start(n);
  if (initial.empty()) {
    for (auto& b : start) b = static_cast<std::uint8_t>(rng.next_below(2));
  } else {
    start = initial;
  }

  CqmIncrementalState walk(cqm, std::move(start), std::move(penalties));
  if (n == 0) {
    return {walk.state(), walk.objective(), walk.total_violation(), walk.feasible()};
  }

  // Temperature range: hot end covers the full (objective + penalty) move
  // scale so constraints can be escaped early; cold end resolves moves on the
  // *objective* scale so the final refinement is not left at an effectively
  // infinite temperature when penalties dwarf the objective.
  const BetaSchedule schedule = [&] {
    double max_abs_total = 1e-9;
    double max_abs_obj = 1e-9;
    const std::size_t probes = std::min<std::size_t>(n, 512);
    for (std::size_t p = 0; p < probes; ++p) {
      const auto v = static_cast<VarId>(rng.next_below(n));
      const auto d = walk.flip_delta_parts(v);
      max_abs_total = std::max(max_abs_total, std::abs(d.total()));
      max_abs_obj = std::max(max_abs_obj, std::abs(d.objective));
    }
    if (params_.refinement) {
      // Anneal on the objective scale only (feasibility is enforced by the
      // move filter, not the temperature).
      return BetaSchedule::for_energy_scale(max_abs_obj * 1e-7, max_abs_obj,
                                            params_.sweeps);
    }
    return BetaSchedule::for_energy_scale(max_abs_obj * 1e-6, max_abs_total,
                                          params_.sweeps);
  }();

  Sample best{walk.state(), walk.objective(), walk.total_violation(), walk.feasible()};

  const SamplerSinks& sinks = params_.sinks;
  SamplerRun run(sinks, params_.refinement ? "refine" : "anneal",
                 schedule.sweeps());

  const PairMoveIndex local_pairs =
      pairs == nullptr ? PairMoveIndex::build(cqm) : PairMoveIndex{};
  const PairMoveIndex& pair_index = pairs != nullptr ? *pairs : local_pairs;

  for (std::size_t sweep = 0; sweep < schedule.sweeps(); ++sweep) {
    if (sinks.cancel.expired()) break;
    if (metropolis_sweep(walk, pair_index, rng, schedule.at(sweep),
                         params_.refinement)) {
      Sample current{{}, walk.objective(), walk.total_violation(), walk.feasible()};
      if (current.better_than(best)) {
        current.state = walk.state();
        best = std::move(current);
      }
    }
    run.sweep_done(sweep, best.energy, best.violation);
  }
  return best;
}

}  // namespace qulrb::anneal
