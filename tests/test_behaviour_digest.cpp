// Behaviour digests: FNV-1a 64 hashes of fixed-seed solver outputs, pinned
// as constants. A refactor of the annealing kernels that is meant to keep
// behaviour must leave every digest unchanged; a change that moves one must
// say why and record the new value.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "anneal/cqm_anneal.hpp"
#include "anneal/sa.hpp"
#include "anneal/tempering.hpp"
#include "classical/kk.hpp"
#include "lrp/cqm_builder.hpp"
#include "lrp/kselect.hpp"
#include "lrp/quantum_solver.hpp"
#include "model/cqm_to_qubo.hpp"
#include "util/rng.hpp"
#include "workloads/samoa.hpp"
#include "workloads/scenarios.hpp"

namespace qulrb {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) noexcept {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (value >> (8 * b)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// Table V (sam(oa)^2, M=32, n=208) at the settings of
// Hybrid.TableVPlansIdenticalAtOneAndFourThreads: seed 1, 40 sweeps, 3
// restarts. The digest covers the M x M plan counts in (to, from) order.
// Last moved when pair moves began drawing from per-walk class occupancy:
// the same proposal law as the 8-try rejection loop, fewer RNG draws.
std::string table_v_plan_digest(lrp::CqmVariant variant, bool use_k1) {
  const workloads::SamoaWorkload workload = workloads::make_samoa_workload();
  const lrp::KSelection ks = lrp::select_k(workload.problem);
  lrp::QcqmOptions options;
  options.variant = variant;
  options.k = use_k1 ? ks.k1 : ks.k2;
  options.hybrid.seed = 1;
  options.hybrid.sweeps = 40;
  options.hybrid.num_restarts = 3;
  options.hybrid.threads = 4;
  const lrp::MigrationPlan plan = lrp::QcqmSolver(options).solve(workload.problem).plan;
  Fnv1a h;
  const std::size_t m = plan.num_processes();
  for (std::size_t to = 0; to < m; ++to) {
    for (std::size_t from = 0; from < m; ++from) {
      h.add(static_cast<std::uint64_t>(plan.count(to, from)));
    }
  }
  return h.hex();
}

TEST(BehaviourDigest, TableVQcqm1K1Plan) {
  EXPECT_EQ(table_v_plan_digest(lrp::CqmVariant::kReduced, true), "22bb0617048ac0ad");
}

TEST(BehaviourDigest, TableVQcqm2K2Plan) {
  EXPECT_EQ(table_v_plan_digest(lrp::CqmVariant::kFull, false), "a557897c1b78d6d9");
}

// SimulatedAnnealer::sample on the penalty QUBO of the M=8, n=50 Table II
// instance: 8 reads, no recorder, no deadline. The digest covers every
// read's state bits and the bit pattern of its energy, in read order.
TEST(BehaviourDigest, SimulatedAnnealerSampleSet) {
  const lrp::LrpProblem problem = workloads::scenarios::imbalance_levels()[4].problem;
  const lrp::LrpCqm cqm(problem, lrp::CqmVariant::kReduced,
                        lrp::select_k(problem).k1);
  const model::QuboConversion conv = model::cqm_to_qubo(cqm.cqm());
  anneal::SaParams params;
  params.sweeps = 100;
  params.num_reads = 8;
  params.seed = 3;
  const anneal::SampleSet set = anneal::SimulatedAnnealer(params).sample(conv.qubo);
  ASSERT_EQ(set.size(), params.num_reads);
  Fnv1a h;
  for (std::size_t r = 0; r < set.size(); ++r) {
    for (const std::uint8_t bit : set.at(r).state) h.add(bit);
    h.add(std::bit_cast<std::uint64_t>(set.at(r).energy));
  }
  EXPECT_EQ(h.hex(), "79da1f85cfc6469d");
}

// The two CQM samplers run standalone on the penalty CQM (Q_CQM1, k1) of the
// M=8, n=50 Table II instance, uniform penalty 2, prebuilt pair index, no
// recorder, no deadline. Each digest covers the returned state bits and the
// bit patterns of its energy and violation. Recorded while the annealer and
// tempering still had separate step loops, so they pin that the one sweep
// kernel draws and accepts exactly as both did.
struct StandaloneModel {
  lrp::LrpProblem problem = workloads::scenarios::imbalance_levels()[4].problem;
  lrp::LrpCqm lrp{problem, lrp::CqmVariant::kReduced, lrp::select_k(problem).k1};
  const model::CqmModel& cqm = lrp.cqm();
  anneal::PairMoveIndex pairs = anneal::PairMoveIndex::build(cqm);
  std::vector<double> penalties = std::vector<double>(cqm.num_constraints(), 2.0);
};

std::string sample_digest(const anneal::Sample& s) {
  Fnv1a h;
  for (const std::uint8_t bit : s.state) h.add(bit);
  h.add(std::bit_cast<std::uint64_t>(s.energy));
  h.add(std::bit_cast<std::uint64_t>(s.violation));
  h.add(s.feasible ? 1U : 0U);
  return h.hex();
}

// CqmAnnealer::anneal_once from a random state: 60 sweeps, seed 11.
TEST(BehaviourDigest, CqmAnnealerAnnealOnce) {
  const StandaloneModel m;
  anneal::CqmAnnealParams params;
  params.sweeps = 60;
  util::Rng rng(11);
  const anneal::Sample s = anneal::CqmAnnealer(params).anneal_once(
      m.cqm, m.penalties, rng, {}, &m.pairs);
  EXPECT_EQ(sample_digest(s), "26e036c53285cd43");
}

// CqmAnnealer::anneal_once in refinement mode from the no-migration point:
// 60 sweeps, seed 13.
TEST(BehaviourDigest, CqmAnnealerRefinement) {
  const StandaloneModel m;
  anneal::CqmAnnealParams params;
  params.sweeps = 60;
  params.refinement = true;
  util::Rng rng(13);
  const anneal::Sample s = anneal::CqmAnnealer(params).anneal_once(
      m.cqm, m.penalties, rng, model::State(m.cqm.num_variables(), 0), &m.pairs);
  EXPECT_EQ(sample_digest(s), "d4b630268934a46c");
}

// ParallelTempering::run from random states: 4 replicas, 30 sweeps, swap
// interval 5, seed 17.
TEST(BehaviourDigest, ParallelTemperingRun) {
  const StandaloneModel m;
  anneal::TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 30;
  params.swap_interval = 5;
  params.seed = 17;
  const anneal::Sample s =
      anneal::ParallelTempering(params).run(m.cqm, m.penalties, {}, &m.pairs);
  EXPECT_EQ(sample_digest(s), "611a7c39224f0806");
}

// The same run from the refined state of CqmAnnealerRefinement with every
// 13th bit flipped, under uniform penalties of 1e8 and 1e10: the largest
// probed total move is then ~2.7e3 and ~2.7e5 times the largest objective
// move, so the first ladder has the objective point as its hot end and the
// second has the two points swapped. Recorded with the two-point ladder.
TEST(BehaviourDigest, ParallelTemperingPenaltyDominated) {
  const StandaloneModel m;
  anneal::CqmAnnealParams refine;
  refine.sweeps = 60;
  refine.refinement = true;
  util::Rng rng(13);
  model::State start = anneal::CqmAnnealer(refine)
                           .anneal_once(m.cqm, m.penalties, rng,
                                        model::State(m.cqm.num_variables(), 0),
                                        &m.pairs)
                           .state;
  for (std::size_t v = 0; v < start.size(); v += 13) start[v] ^= 1U;
  anneal::TemperingParams params;
  params.num_replicas = 4;
  params.sweeps = 30;
  params.swap_interval = 5;
  params.seed = 17;
  std::vector<std::string> digests;
  for (const double weight : {1e8, 1e10}) {
    digests.push_back(sample_digest(anneal::ParallelTempering(params).run(
        m.cqm, std::vector<double>(m.cqm.num_constraints(), weight), start,
        &m.pairs)));
  }
  EXPECT_EQ(digests[0], "c55d4a83c6d36c4f");
  EXPECT_EQ(digests[1], "a7b06360f03f46bc");
}

// classical::kk_partition: every bin's member indices in order, then the
// bit patterns of the bin sums. Recorded on the heap-of-tuples
// implementation, before the flat one replaced it.
std::string partition_digest(const classical::PartitionResult& r) {
  Fnv1a h;
  for (const auto& bin : r.bins) {
    h.add(bin.size());
    for (const std::size_t i : bin) h.add(i);
  }
  for (const double sum : r.bin_sums) h.add(std::bit_cast<std::uint64_t>(sum));
  return h.hex();
}

// The Table V items (M=32, n=208 per node): KK is the k2 source of the
// paper pipeline on this instance.
TEST(BehaviourDigest, KkPartitionTableV) {
  const workloads::SamoaWorkload workload = workloads::make_samoa_workload();
  const std::vector<double> items = workload.problem.flatten_tasks();
  EXPECT_EQ(partition_digest(classical::kk_partition(
                items, workload.problem.num_processes())),
            "8956ca5eecbaac03");
}

// Random instances: distinct uniform loads into 7 bins, and small integer
// loads (many equal sums, so tie order matters) into 16 bins.
TEST(BehaviourDigest, KkPartitionRandom) {
  util::Rng rng(23);
  std::vector<double> uniform(500);
  for (double& x : uniform) x = rng.next_double() * 100.0;
  EXPECT_EQ(partition_digest(classical::kk_partition(uniform, 7)), "3b2ea3e313e17b8a");
  std::vector<double> integers(300);
  for (double& x : integers) x = static_cast<double>(1 + rng.next_below(9));
  EXPECT_EQ(partition_digest(classical::kk_partition(integers, 16)),
            "3904f67246f4152b");
}

}  // namespace
}  // namespace qulrb
