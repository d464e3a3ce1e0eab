// Reproduces Fig. 5: lower bounds e(s)·log2(n)·(1 − o(1)) for s-systolic
// half-duplex/directed gossip on Butterfly, Wrapped Butterfly, de Bruijn
// and Kautz families (Theorem 5.1 + Lemma 3.1), s = 3..8.
//
// The table is produced by the sweep engine over the grid below rather than
// a bespoke families×periods loop; the benchmark measures a full engine
// sweep and the single-entry separator-bound kernel.
//
// Quoted checkpoints: WBF(2,D) @ s=4 -> 2.0218, DB(2,D) @ s=4 -> 1.8133.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>
#include <vector>

#include "core/separator_bound.hpp"
#include "core/tables.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "util/table.hpp"

namespace {

// The Fig. 5 grid: all seven families × d ∈ {2, 3}, half-duplex separator
// bounds at s = 3..8.
sysgo::engine::ScenarioSpec fig5_spec() {
  sysgo::engine::ScenarioSpec spec;
  spec.families = sysgo::engine::all_families();
  spec.degrees = {2, 3};
  spec.modes = {sysgo::protocol::Mode::kHalfDuplex};
  spec.periods = {3, 4, 5, 6, 7, 8};
  spec.tasks = {sysgo::engine::Task::kBound};
  return spec;
}

void print_fig5() {
  std::printf(
      "=== Fig. 5: systolic half-duplex/directed bounds for specific networks ===\n");
  std::printf("entries: e(s) such that t >= e(s)*log2(n)*(1 - o(1))\n\n");
  const auto spec = fig5_spec();
  std::vector<std::string> header{"network", "alpha", "l"};
  for (int s : spec.periods) header.push_back("s=" + sysgo::core::period_label(s));
  sysgo::util::Table table(header);

  sysgo::engine::SweepRunner runner;
  const auto records = runner.run(spec);
  // Expansion order: one (family, d) row per spec.periods.size() records.
  const std::size_t stride = spec.periods.size();
  for (std::size_t i = 0; i + stride <= records.size(); i += stride) {
    const auto& first = records[i];
    std::vector<std::string> cells{
        sysgo::topology::family_name(first.key.family, first.key.d),
        sysgo::util::format_fixed(first.alpha, 4),
        sysgo::util::format_fixed(first.ell, 4)};
    for (std::size_t j = 0; j < stride; ++j)
      cells.push_back(sysgo::util::format_fixed(records[i + j].e, 4));
    table.add_row(std::move(cells));
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\n(entries equal to the Fig. 4 value e(s) correspond to the paper's"
      " '*' cells)\n\n");
}

void BM_Fig5Entry(benchmark::State& state) {
  const auto families = sysgo::core::paper_family_list();
  const auto& [family, d] = families[static_cast<std::size_t>(state.range(0))];
  const int s = static_cast<int>(state.range(1));
  double e = 0.0;
  for (auto _ : state) {
    e = sysgo::core::separator_bound(family, d, s, sysgo::core::Duplex::kHalf).e;
    benchmark::DoNotOptimize(e);
  }
  state.counters["e"] = e;
  state.SetLabel(sysgo::topology::family_name(family, d) + " s=" +
                 std::to_string(s));
}
BENCHMARK(BM_Fig5Entry)
    ->Name("fig5/separator_bound")
    ->ArgsProduct({{0, 4, 8, 12}, {3, 4, 8}});

void BM_Fig5Sweep(benchmark::State& state) {
  for (auto _ : state) {
    sysgo::engine::SweepRunner runner;
    const auto records = runner.run(fig5_spec());
    benchmark::DoNotOptimize(records);
  }
}
BENCHMARK(BM_Fig5Sweep)->Name("fig5/engine_sweep")->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("fig5_systolic_topologies", print_fig5())
