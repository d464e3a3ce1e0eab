// Validation harness: measured gossip times of concrete systolic protocols
// vs the certified Theorem 4.1 lower bounds (audit) and the analytic
// e(s)·log2(n) coefficients.  Reproduces the paper's upper-vs-lower "shape":
// the certified bound always sits below the measured time, and the audit's
// per-vertex refinement is at least as strong as the general e(s).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "engine/scenario.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "support/classic_protocols.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/wrapped_butterfly.hpp"
#include "util/table.hpp"

namespace {

using sysgo::protocol::Mode;

// A named concrete schedule: measured gossip time vs its certified audit.
struct Case {
  std::string name;
  sysgo::protocol::SystolicSchedule schedule;
  int max_rounds;
};

std::vector<Case> corpus() {
  std::vector<Case> cases;
  cases.push_back({"path(32) hd", sysgo::protocol::path_schedule(32, Mode::kHalfDuplex),
                   2000});
  cases.push_back({"cycle(32) hd",
                   sysgo::protocol::cycle_schedule(32, Mode::kHalfDuplex), 2000});
  cases.push_back({"grid(6x6) hd",
                   sysgo::protocol::grid_schedule(6, 6, Mode::kHalfDuplex), 2000});
  cases.push_back({"hypercube(6) fd",
                   sysgo::protocol::hypercube_schedule(6, Mode::kFullDuplex), 200});
  cases.push_back({"hypercube(6) hd",
                   sysgo::protocol::hypercube_schedule(6, Mode::kHalfDuplex), 400});
  cases.push_back({"complete(64) fd",
                   sysgo::protocol::complete_power2_schedule(64, Mode::kFullDuplex),
                   200});
  cases.push_back({"DB(2,5) coloring hd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::de_bruijn(2, 5), Mode::kHalfDuplex),
                   4000});
  cases.push_back({"DB(2,7) coloring hd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::de_bruijn(2, 7), Mode::kHalfDuplex),
                   8000});
  cases.push_back({"WBF(2,4) coloring hd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::wrapped_butterfly(2, 4), Mode::kHalfDuplex),
                   8000});
  cases.push_back({"K(2,5) coloring fd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::kautz(2, 5), Mode::kFullDuplex),
                   8000});
  return cases;
}

void print_validation() {
  std::printf("=== Validation: measured systolic gossip vs certified bounds ===\n\n");
  sysgo::util::Table table({"protocol", "n", "s", "measured t", "cert. bound",
                            "audit e", "general e(s)", "ok"});
  for (const Case& c : corpus()) {
    const auto compiled = sysgo::protocol::CompiledSchedule::compile(c.schedule);
    const int s = compiled.period_length();
    const int measured = sysgo::simulator::gossip_time(compiled, c.max_rounds);
    const auto audit = sysgo::core::audit_schedule(compiled);
    const double gen =
        s >= 3 ? sysgo::core::e_general(
                     s, sysgo::engine::duplex_of(c.schedule.mode))
               : 0.0;
    const bool ok = measured > 0 && audit.round_lower_bound <= measured;
    table.add_row({c.name, std::to_string(compiled.n()), std::to_string(s),
                   std::to_string(measured),
                   std::to_string(audit.round_lower_bound),
                   sysgo::util::format_fixed(audit.e_coeff, 4),
                   sysgo::util::format_fixed(gen, 4), ok ? "yes" : "NO"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("'cert. bound' = Theorem 4.1 round count at the audit's lambda*.\n\n");
}

void BM_AuditSchedule(benchmark::State& state) {
  const auto sched = sysgo::protocol::edge_coloring_schedule(
      sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
      Mode::kHalfDuplex);
  for (auto _ : state) {
    auto res = sysgo::core::audit_schedule(sched);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_AuditSchedule)->Name("validation/audit_debruijn")->DenseRange(4, 8);

void BM_MeasureGossip(benchmark::State& state) {
  const auto sched = sysgo::protocol::edge_coloring_schedule(
      sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
      Mode::kHalfDuplex);
  int t = 0;
  for (auto _ : state) {
    t = sysgo::simulator::gossip_time(sched, 100000);
    benchmark::DoNotOptimize(t);
  }
  state.counters["rounds"] = t;
}
BENCHMARK(BM_MeasureGossip)
    ->Name("validation/gossip_time_debruijn")
    ->DenseRange(4, 7)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("validation_upper_vs_lower", print_validation())
