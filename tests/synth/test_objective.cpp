#include "synth/objective.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "protocol/builders.hpp"
#include "simulator/broadcast_sim.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "util/rng.hpp"

namespace sysgo::synth {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(Objective, TieOrderRoundsThenPeriodThenLinks) {
  Objective a;
  a.feasible = true;
  a.rounds = 10;
  a.period = 4;
  a.links = 12;
  Objective b = a;

  b.rounds = 11;
  EXPECT_TRUE(better(a, b));
  b = a;
  b.period = 5;
  EXPECT_TRUE(better(a, b));
  b = a;
  b.links = 13;
  EXPECT_TRUE(better(a, b));
  EXPECT_FALSE(better(a, a));  // strict

  // Fewer rounds beats any period/link advantage.
  b = a;
  b.rounds = 9;
  b.period = 40;
  b.links = 400;
  EXPECT_TRUE(better(b, a));

  // The order is exact past the score()'s decimal packing boundaries:
  // a smaller audit gap wins even against a much smaller period, and a
  // smaller period wins against thousands fewer links.
  Objective gap_small = a, gap_big = a;
  gap_small.audit_gap = 1.0;
  gap_small.period = 15;
  gap_big.audit_gap = 2.0;
  gap_big.period = 4;
  EXPECT_TRUE(better(gap_small, gap_big));
  Objective period_small = a, period_big = a;
  period_small.period = 10;
  period_small.links = 5000;
  period_big.period = 11;
  period_big.links = 100;
  EXPECT_TRUE(better(period_small, period_big));
}

TEST(Objective, FeasibleAlwaysBeatsInfeasible) {
  Objective bad;  // infeasible with high coverage
  bad.coverage = 1000;
  Objective good;
  good.feasible = true;
  good.rounds = 100000;
  good.period = 100;
  good.links = 100000;
  EXPECT_TRUE(better(good, bad));
  // Among infeasible candidates, more coverage wins.
  Objective worse = bad;
  worse.coverage = 999;
  EXPECT_TRUE(better(bad, worse));
}

TEST(Objective, GossipEvaluationMatchesSimulator) {
  const auto g = topology::kautz(2, 3);
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto sched = protocol::edge_coloring_schedule(g, mode);
    const auto cs = CompiledSchedule::compile(sched, &g);
    ObjectiveOptions opts;
    const auto obj = evaluate(cs, opts);
    ASSERT_TRUE(obj.feasible);
    EXPECT_EQ(obj.rounds, simulator::gossip_time(cs, opts.max_rounds));
    EXPECT_EQ(obj.period, cs.period_length());
    const int links = static_cast<int>(mode == Mode::kFullDuplex
                                           ? cs.arc_total() / 2
                                           : cs.arc_total());
    EXPECT_EQ(obj.links, links);
    EXPECT_EQ(obj.coverage, g.vertex_count() * g.vertex_count());
  }
}

TEST(Objective, BroadcastEvaluationMatchesSimulator) {
  const auto g = topology::cycle(7);
  const auto sched = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  const auto cs = CompiledSchedule::compile(sched, &g);
  ObjectiveOptions opts;
  opts.goal = Goal::kBroadcast;
  for (int src : {0, 3, 6}) {
    opts.source = src;
    const auto obj = evaluate(cs, opts);
    ASSERT_TRUE(obj.feasible) << "source " << src;
    EXPECT_EQ(obj.rounds, simulator::broadcast_time(cs, src, opts.max_rounds));
  }
  opts.source = 7;
  EXPECT_THROW((void)evaluate(cs, opts), std::invalid_argument);
}

TEST(Objective, InfeasibleReportsCoverageGradient) {
  // One fixed matching repeated forever can never finish gossip on a cycle
  // of 6: knowledge stops spreading after the first exchange.
  const auto g = topology::cycle(6);
  protocol::SystolicSchedule sched;
  sched.n = 6;
  sched.mode = Mode::kFullDuplex;
  sched.period.push_back({{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}}});
  const auto obj = evaluate(CompiledSchedule::compile(sched, &g), {});
  EXPECT_FALSE(obj.feasible);
  EXPECT_EQ(obj.rounds, -1);
  // Each vertex ends with exactly its pair's two items.
  EXPECT_EQ(obj.coverage, 12);
}

TEST(Objective, AuditGapTermJoinsTheScore) {
  const auto g = topology::kautz(2, 3);
  const auto sched = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  const auto cs = CompiledSchedule::compile(sched, &g);
  ObjectiveOptions opts;
  opts.audit_gap = true;
  const auto obj = evaluate(cs, opts);
  ASSERT_TRUE(obj.feasible);
  const auto audit = core::audit_schedule(cs);
  EXPECT_DOUBLE_EQ(obj.audit_gap,
                   static_cast<double>(obj.rounds - audit.round_lower_bound));
  ObjectiveOptions plain;
  const auto base = evaluate(cs, plain);
  EXPECT_DOUBLE_EQ(base.audit_gap, 0.0);
  EXPECT_GE(obj.score(), base.score());
}

// Coverage is 64-bit: n² and the capped Σ counts of Q_16 (n = 65,536) both
// pass INT_MAX.  Each vertex of the full-duplex dimension-order schedule
// knows 2^k items after k rounds, so round 16 completes and a cap of 15
// leaves n · 2^15 = 2^31 items delivered.
TEST(Objective, CoverageIsExactPastIntRangeOnHypercube16) {
  const auto g = topology::hypercube(16);
  const auto cs = CompiledSchedule::compile(
      protocol::edge_coloring_schedule(g, Mode::kFullDuplex), &g);
  ASSERT_EQ(cs.n(), 65536);
  ObjectiveOptions opts;
  const Objective done = evaluate(cs, opts);
  ASSERT_TRUE(done.feasible);
  EXPECT_EQ(done.rounds, 16);
  EXPECT_EQ(done.coverage, std::int64_t{65536} * 65536);
  opts.max_rounds = 15;
  const Objective capped = evaluate(cs, opts);
  EXPECT_FALSE(capped.feasible);
  EXPECT_EQ(capped.coverage, std::int64_t{1} << 31);
}

void expect_same_objective(const Objective& a, const Objective& b,
                           const std::string& where) {
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.period, b.period) << where;
  EXPECT_EQ(a.links, b.links) << where;
  EXPECT_EQ(a.coverage, b.coverage) << where;
  EXPECT_EQ(a.audit_gap, b.audit_gap) << where;
}

// The draft evaluator and the compiled evaluate share the slice engine
// through different round tables; they must agree at every slice width
// (n across the W = 1, 2, 4, 8 and multi-slice edges), in both modes, at
// caps that complete and caps that stop one round short.
TEST(Objective, DraftEvaluatorMatchesCompiledAcrossSliceWidths) {
  util::Rng rng(0xd4af7);
  DraftEvaluator de;
  for (const int n : {2, 63, 64, 65, 128, 129, 256, 257, 512, 513, 1025}) {
    for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      // Four rounds of random matchings on K_n; half-duplex periods add
      // the four reversed rounds, so every link carries both directions.
      protocol::SystolicSchedule sched;
      sched.n = n;
      sched.mode = mode;
      for (int r = 0; r < 4; ++r) {
        protocol::Round round;
        protocol::Round reversed;
        const std::vector<int> perm = rng.permutation(n);
        for (int i = 0; i + 1 < n; i += 2) {
          if (rng.uniform_index(32) == 0) continue;
          const int a = perm[static_cast<std::size_t>(i)];
          const int b = perm[static_cast<std::size_t>(i) + 1];
          round.arcs.push_back({a, b});
          (mode == Mode::kFullDuplex ? round : reversed).arcs.push_back({b, a});
        }
        sched.period.push_back(std::move(round));
        if (mode == Mode::kHalfDuplex)
          sched.period.push_back(std::move(reversed));
      }
      const ScheduleDraft draft = ScheduleDraft::from_schedule(sched);
      const auto cs = CompiledSchedule::compile(draft.to_schedule());
      ObjectiveOptions opts;
      const int t = evaluate(cs, opts).rounds;
      ASSERT_GT(t, 0) << "n=" << n;
      for (const int cap : {opts.max_rounds, t, t - 1, 1}) {
        opts.max_rounds = cap;
        expect_same_objective(
            de.evaluate(draft, opts), evaluate(cs, opts),
            "n=" + std::to_string(n) + " cap=" + std::to_string(cap) +
                (mode == Mode::kFullDuplex ? " full" : " half"));
      }
    }
  }
}

// Switching goals on one evaluator must not reallocate the gossip slice
// scratch (broadcast runs on its own reach vector), and results after each
// switch must match fresh evaluators.
TEST(Objective, DraftEvaluatorScratchSurvivesGoalSwitch) {
  DraftEvaluator ev;
  DraftEvaluator fresh_gossip;
  DraftEvaluator fresh_broadcast;
  const ScheduleDraft draft = ScheduleDraft::from_schedule(
      protocol::edge_coloring_schedule(topology::kautz(2, 3),
                                       Mode::kHalfDuplex));
  ObjectiveOptions gossip;
  ObjectiveOptions broadcast;
  broadcast.goal = Goal::kBroadcast;
  broadcast.source = 1;

  const Objective g1 = ev.evaluate(draft, gossip);
  const auto* scratch = ev.scratch_data();
  ASSERT_NE(scratch, nullptr);
  const Objective b1 = ev.evaluate(draft, broadcast);
  EXPECT_EQ(ev.scratch_data(), scratch) << "broadcast switch reallocated";
  const Objective g2 = ev.evaluate(draft, gossip);
  EXPECT_EQ(ev.scratch_data(), scratch) << "gossip switch reallocated";

  expect_same_objective(g1, fresh_gossip.evaluate(draft, gossip),
                        "pre-switch");
  expect_same_objective(b1, fresh_broadcast.evaluate(draft, broadcast),
                        "broadcast");
  expect_same_objective(g2, g1, "post-switch gossip");
}

}  // namespace
}  // namespace sysgo::synth
