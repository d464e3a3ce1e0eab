// Engine throughput (ours): gossip-simulator round rate, serial vs threaded
// column slices.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "protocol/builders.hpp"
#include "simulator/gossip_sim.hpp"
#include "support/classic_protocols.hpp"
#include "topology/de_bruijn.hpp"

namespace {

using sysgo::protocol::Mode;

void BM_GossipHypercube(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const bool parallel = state.range(1) != 0;
  const auto sched = sysgo::protocol::hypercube_schedule(D, Mode::kFullDuplex);
  sysgo::simulator::GossipOptions opts;
  opts.parallel = parallel;
  for (auto _ : state) {
    const int t = sysgo::simulator::gossip_time(sched, 4 * D, opts);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * (1 << D));
  state.SetLabel(parallel ? "threaded" : "serial");
}
BENCHMARK(BM_GossipHypercube)
    ->Name("engine/gossip_hypercube")
    ->ArgsProduct({{8, 10, 12}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_GossipDeBruijn(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const auto g = sysgo::topology::de_bruijn(2, D);
  const auto sched =
      sysgo::protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  for (auto _ : state) {
    const int t = sysgo::simulator::gossip_time(sched, 1 << 20);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * g.vertex_count());
}
BENCHMARK(BM_GossipDeBruijn)
    ->Name("engine/gossip_debruijn")
    ->DenseRange(6, 10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN("engine_throughput")
