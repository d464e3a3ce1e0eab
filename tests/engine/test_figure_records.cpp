// `sysgo table fig5|fig6` formats core::fig5_rows / fig6_rows.  The sweep
// engine must compute the same numbers on the same grids, bit for bit, so
// a sweep over the paper's families reproduces the paper's tables.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/tables.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"

namespace sysgo::engine {
namespace {

const std::vector<int> kFig5Periods{3, 4, 5, 6, 7, 8};

ScenarioSpec paper_grid(std::vector<int> periods, std::vector<Task> tasks) {
  ScenarioSpec spec;
  spec.families = all_families();
  spec.degrees = {2, 3};
  spec.modes = {protocol::Mode::kHalfDuplex};
  spec.periods = std::move(periods);
  spec.tasks = std::move(tasks);
  return spec;
}

TEST(FigureRecords, Fig5GridEqualsFig5Rows) {
  const auto rows = core::fig5_rows(kFig5Periods);
  SweepRunner runner;
  const auto records = runner.run(paper_grid(kFig5Periods, {Task::kBound}));
  // Expansion order: one (family, d) row, its periods consecutively.
  ASSERT_EQ(records.size(), rows.size() * kFig5Periods.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < kFig5Periods.size(); ++j) {
      const SweepRecord& r = records[i * kFig5Periods.size() + j];
      EXPECT_EQ(r.key.family, rows[i].family) << i;
      EXPECT_EQ(r.key.d, rows[i].d) << i;
      EXPECT_EQ(r.s, kFig5Periods[j]) << i;
      EXPECT_EQ(r.alpha, rows[i].alpha) << i;
      EXPECT_EQ(r.ell, rows[i].ell) << i;
      EXPECT_EQ(r.e, rows[i].e_by_period[j]) << i << " s=" << kFig5Periods[j];
    }
}

TEST(FigureRecords, Fig6GridEqualsFig6Rows) {
  const auto rows = core::fig6_rows();
  const auto params = core::fig5_rows({});  // alpha and ell per row
  SweepRunner runner;
  const auto records = runner.run(paper_grid(
      {core::kUnboundedPeriod}, {Task::kBound, Task::kDiameterBound}));
  // Expansion order: per (family, d), the s = ∞ bound then the diameter.
  ASSERT_EQ(records.size(), 2 * rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRecord& matrix = records[2 * i];
    const SweepRecord& diameter = records[2 * i + 1];
    EXPECT_EQ(matrix.task, Task::kBound) << i;
    EXPECT_EQ(diameter.task, Task::kDiameterBound) << i;
    EXPECT_EQ(matrix.key.family, rows[i].family) << i;
    EXPECT_EQ(matrix.key.d, rows[i].d) << i;
    EXPECT_EQ(diameter.key, matrix.key) << i;
    EXPECT_EQ(matrix.s, core::kUnboundedPeriod) << i;
    EXPECT_EQ(matrix.alpha, params[i].alpha) << i;
    EXPECT_EQ(matrix.ell, params[i].ell) << i;
    EXPECT_EQ(matrix.e, rows[i].e_matrix) << i;
    EXPECT_EQ(diameter.e, rows[i].e_diameter) << i;
  }
}

}  // namespace
}  // namespace sysgo::engine
