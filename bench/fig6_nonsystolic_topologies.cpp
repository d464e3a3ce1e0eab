// Reproduces Fig. 6: non-systolic (s -> ∞) half-duplex/directed lower
// bounds for specific networks, compared with the trivial diameter bound
// (the paper's "diam." entries) and the 1.4404 general bound.
//
// The table is produced by the sweep engine over the grid below; the
// benchmark measures the full engine sweep.
//
// Quoted checkpoints: WBF(2,D) -> 1.9750, DB(2,D) -> 1.5876.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <cstdio>

#include "core/bounds.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "util/table.hpp"

namespace {

// The Fig. 6 grid: the non-systolic (s = ∞) matrix bound plus the trivial
// diameter coefficient for all seven families × d ∈ {2, 3}.
sysgo::engine::ScenarioSpec fig6_spec() {
  sysgo::engine::ScenarioSpec spec;
  spec.families = sysgo::engine::all_families();
  spec.degrees = {2, 3};
  spec.modes = {sysgo::protocol::Mode::kHalfDuplex};
  spec.periods = {sysgo::core::kUnboundedPeriod};
  spec.tasks = {sysgo::engine::Task::kBound,
                sysgo::engine::Task::kDiameterBound};
  return spec;
}

void print_fig6() {
  std::printf("=== Fig. 6: non-systolic half-duplex/directed bounds ===\n");
  std::printf("entries multiply log2(n)*(1 - o(1)); general bound = 1.4404\n\n");
  sysgo::util::Table table({"network", "matrix bound", "diameter", "best"});
  sysgo::engine::SweepRunner runner;
  const auto records = runner.run(fig6_spec());
  // Expansion order: a kBound record at s = ∞ then kDiameterBound per row.
  for (std::size_t i = 0; i + 2 <= records.size(); i += 2) {
    const auto& matrix = records[i];
    const auto& diam = records[i + 1];
    table.add_row({sysgo::topology::family_name(matrix.key.family, matrix.key.d),
                   sysgo::util::format_fixed(matrix.e, 4),
                   sysgo::util::format_fixed(diam.e, 4),
                   sysgo::util::format_fixed(std::max(matrix.e, diam.e), 4)});
  }
  std::printf("%s\n", table.str().c_str());
}

void BM_Fig6AllRows(benchmark::State& state) {
  std::size_t rows = 0;
  for (auto _ : state) {
    sysgo::engine::SweepRunner runner;
    const auto records = runner.run(fig6_spec());
    rows = records.size() / 2;
    benchmark::DoNotOptimize(records);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_Fig6AllRows)->Name("fig6/full_table")->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("fig6_nonsystolic_topologies", print_fig6())
