#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/error.hpp"
#include "workloads/mxm.hpp"
#include "workloads/mxm_kernel.hpp"
#include "workloads/samoa.hpp"
#include "workloads/scenarios.hpp"

namespace qulrb::workloads {
namespace {

// ------------------------------------------------------------------ mxm ----

TEST(Mxm, CostModelIsCubic) {
  MxmCostModel model;
  const double t128 = model.task_ms(128);
  const double t256 = model.task_ms(256);
  EXPECT_NEAR(t256 / t128, 8.0, 1e-9);
}

TEST(Mxm, PaperSizesRange) {
  const auto sizes = paper_matrix_sizes();
  ASSERT_EQ(sizes.size(), 7u);
  EXPECT_EQ(sizes.front(), 128);
  EXPECT_EQ(sizes.back(), 512);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i] - sizes[i - 1], 64);
  }
}

TEST(Mxm, ProblemConstruction) {
  const std::vector<int> sizes = {128, 256};
  const auto p = make_mxm_problem(sizes, 50);
  EXPECT_EQ(p.num_processes(), 2u);
  EXPECT_EQ(p.tasks_on(0), 50);
  EXPECT_GT(p.task_load(1), p.task_load(0));
}

TEST(Mxm, RejectsBadInputs) {
  EXPECT_THROW(make_mxm_problem({}, 10), util::InvalidArgument);
  const std::vector<int> bad = {0};
  EXPECT_THROW(make_mxm_problem(bad, 10), util::InvalidArgument);
}

// ---------------------------------------------------------------- kernel ---

TEST(MxmKernel, CorrectProduct) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  Matrix c(2, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]].
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t k = 0; k < 3; ++k) a.at(r, k) = v++;
  v = 7.0;
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t col = 0; col < 2; ++col) b.at(k, col) = v++;
  mxm(a, b, c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MxmKernel, BlockedMatchesUnblocked) {
  const std::size_t n = 37;  // deliberately not a multiple of the block
  Matrix a(n, n), b(n, n), c_small(n, n), c_big(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = static_cast<double>((i * 7 + j * 3) % 11) - 5.0;
      b.at(i, j) = static_cast<double>((i * 5 + j * 2) % 13) - 6.0;
    }
  }
  mxm(a, b, c_small, 8);
  mxm(a, b, c_big, 1024);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(c_small.at(i, j), c_big.at(i, j), 1e-9);
    }
  }
}

TEST(MxmKernel, AccumulatesIntoC) {
  Matrix a(1, 1, 2.0), b(1, 1, 3.0), c(1, 1, 10.0);
  mxm(a, b, c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 16.0);  // 10 + 2*3
}

TEST(MxmKernel, DimensionMismatchRejected) {
  Matrix a(2, 3), b(2, 2), c(2, 2);
  EXPECT_THROW(mxm(a, b, c), util::InvalidArgument);
}

TEST(MxmKernel, MeasureAndCalibrate) {
  const double ms = measure_mxm_ms(64);
  EXPECT_GT(ms, 0.0);
  const double gflops = calibrate_gflops(64);
  EXPECT_GT(gflops, 0.01);
  EXPECT_LT(gflops, 1000.0);
}

// ----------------------------------------------------------------- samoa ---

TEST(Samoa, HilbertIndexIsBijective) {
  const std::uint32_t order = 4;  // 16 x 16
  std::set<std::uint64_t> seen;
  for (std::uint32_t y = 0; y < 16; ++y) {
    for (std::uint32_t x = 0; x < 16; ++x) {
      seen.insert(hilbert_index(order, x, y));
    }
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 255u);
}

TEST(Samoa, HilbertNeighborsAreClose) {
  // Consecutive curve indices map to grid-adjacent cells (locality — the
  // property that makes contiguous sections spatially compact).
  const std::uint32_t order = 5;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_index(1u << (2 * order));
  for (std::uint32_t y = 0; y < (1u << order); ++y) {
    for (std::uint32_t x = 0; x < (1u << order); ++x) {
      by_index[hilbert_index(order, x, y)] = {x, y};
    }
  }
  for (std::size_t d = 1; d < by_index.size(); ++d) {
    const auto [x0, y0] = by_index[d - 1];
    const auto [x1, y1] = by_index[d];
    const auto dist = std::abs(static_cast<int>(x1) - static_cast<int>(x0)) +
                      std::abs(static_cast<int>(y1) - static_cast<int>(y0));
    EXPECT_EQ(dist, 1) << "gap at curve position " << d;
  }
}

TEST(Samoa, DefaultWorkloadMatchesPaperSetup) {
  const SamoaWorkload w = make_samoa_workload();
  EXPECT_EQ(w.problem.num_processes(), 32u);
  EXPECT_EQ(w.problem.tasks_on(0), 208);
  EXPECT_NEAR(w.problem.imbalance_ratio(), 4.1994, 1e-6);
  EXPECT_GT(w.limited_cells, 0u);
  EXPECT_GT(w.total_cells, 32u * 208u);
}

TEST(Samoa, CalibrationDisabledKeepsRawImbalance) {
  SamoaConfig config;
  config.target_imbalance = 0.0;
  const SamoaWorkload w = make_samoa_workload(config);
  EXPECT_GT(w.problem.imbalance_ratio(), 0.0);  // refinement produces imbalance
}

TEST(Samoa, LoadsArePositive) {
  const SamoaWorkload w = make_samoa_workload();
  for (std::size_t i = 0; i < w.problem.num_processes(); ++i) {
    EXPECT_GT(w.problem.task_load(i), 0.0) << "process " << i;
  }
}

TEST(Samoa, LimiterRaisesFrontCellCost) {
  SamoaConfig with_limiter;
  SamoaConfig without;
  without.limiter_cost_factor = 1.0;
  without.target_imbalance = 0.0;
  with_limiter.target_imbalance = 0.0;
  const auto a = make_samoa_workload(with_limiter);
  const auto b = make_samoa_workload(without);
  // Same mesh, but the limiter concentrates cost -> higher imbalance.
  EXPECT_EQ(a.total_cells, b.total_cells);
  EXPECT_GT(a.problem.imbalance_ratio(), b.problem.imbalance_ratio());
}

TEST(Samoa, SmallerConfigScales) {
  SamoaConfig config;
  config.num_processes = 8;
  config.sections_per_process = 16;
  config.base_depth = 5;
  config.max_depth = 7;
  config.target_imbalance = 2.0;
  const SamoaWorkload w = make_samoa_workload(config);
  EXPECT_EQ(w.problem.num_processes(), 8u);
  EXPECT_NEAR(w.problem.imbalance_ratio(), 2.0, 1e-6);
}

TEST(Samoa, TooCoarseMeshRejected) {
  SamoaConfig config;
  config.base_depth = 2;  // 16 cells for 32*208 sections
  config.max_depth = 3;
  EXPECT_THROW(make_samoa_workload(config), util::InvalidArgument);
}

TEST(Samoa, Deterministic) {
  const auto a = make_samoa_workload();
  const auto b = make_samoa_workload();
  EXPECT_EQ(a.total_cells, b.total_cells);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(a.process_loads[i], b.process_loads[i]);
  }
}

// ------------------------------------------------------------- scenarios ---

TEST(Scenarios, ImbalanceLevelsAreMonotone) {
  const auto levels = scenarios::imbalance_levels();
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_NEAR(levels[0].problem.imbalance_ratio(), 0.0, 1e-12);  // Imb.0 flat
  for (std::size_t l = 1; l < levels.size(); ++l) {
    EXPECT_GT(levels[l].problem.imbalance_ratio(),
              levels[l - 1].problem.imbalance_ratio())
        << levels[l].name;
  }
  for (const auto& s : levels) {
    EXPECT_EQ(s.problem.num_processes(), 8u);
    EXPECT_EQ(s.problem.tasks_on(0), 50);
  }
}

TEST(Scenarios, NodeScalingSetups) {
  EXPECT_EQ(scenarios::node_scaling_counts(),
            (std::vector<std::size_t>{4, 8, 16, 32, 64}));
  for (std::size_t nodes : scenarios::node_scaling_counts()) {
    const auto s = scenarios::node_scaling(nodes);
    EXPECT_EQ(s.problem.num_processes(), nodes);
    EXPECT_EQ(s.problem.tasks_on(0), 100);
    EXPECT_GT(s.problem.imbalance_ratio(), 0.0);
  }
}

TEST(Scenarios, TaskScalingSetups) {
  EXPECT_EQ(scenarios::task_scaling_counts().front(), 8);
  EXPECT_EQ(scenarios::task_scaling_counts().back(), 2048);
  for (std::int64_t n : scenarios::task_scaling_counts()) {
    const auto s = scenarios::task_scaling(n);
    EXPECT_EQ(s.problem.num_processes(), 8u);
    EXPECT_EQ(s.problem.tasks_on(0), n);
  }
}

TEST(Scenarios, TaskScalingImbalanceIndependentOfN) {
  // R_imb depends only on the per-process loads' shape, not n.
  const auto a = scenarios::task_scaling(8);
  const auto b = scenarios::task_scaling(2048);
  EXPECT_NEAR(a.problem.imbalance_ratio(), b.problem.imbalance_ratio(), 1e-12);
}

TEST(Scenarios, SamoaScenarioMatchesTableV) {
  const auto s = scenarios::samoa_oscillating_lake();
  EXPECT_EQ(s.problem.num_processes(), 32u);
  EXPECT_EQ(s.problem.tasks_on(0), 208);
  EXPECT_NEAR(s.problem.imbalance_ratio(), 4.1994, 1e-6);
}

// ------------------------------------------------------ heavy-tail gen -----

TEST(HeavyTail, LoadsArePositiveAndSkewed) {
  const auto p = workloads::make_heavy_tail_problem(64, 10, 1.2, 7);
  EXPECT_EQ(p.num_processes(), 64u);
  double max_w = 0.0, min_w = 1e300;
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_GE(p.task_load(i), 1.0);  // Pareto x_min
    max_w = std::max(max_w, p.task_load(i));
    min_w = std::min(min_w, p.task_load(i));
  }
  EXPECT_GT(max_w / min_w, 3.0);  // genuinely heavy-tailed
  EXPECT_GT(p.imbalance_ratio(), 0.5);
}

TEST(HeavyTail, LargerAlphaIsMoreUniform) {
  const auto heavy = workloads::make_heavy_tail_problem(128, 4, 1.0, 3);
  const auto light = workloads::make_heavy_tail_problem(128, 4, 8.0, 3);
  EXPECT_GT(heavy.imbalance_ratio(), light.imbalance_ratio());
}

TEST(HeavyTail, DeterministicPerSeed) {
  const auto a = workloads::make_heavy_tail_problem(8, 4, 1.5, 9);
  const auto b = workloads::make_heavy_tail_problem(8, 4, 1.5, 9);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.task_load(i), b.task_load(i));
  }
}

TEST(HeavyTail, RejectsBadParameters) {
  EXPECT_THROW(workloads::make_heavy_tail_problem(0, 4), util::InvalidArgument);
  EXPECT_THROW(workloads::make_heavy_tail_problem(4, 4, 0.0), util::InvalidArgument);
}

}  // namespace
}  // namespace qulrb::workloads
