#include "support/delay_digraph.hpp"

#include <gtest/gtest.h>

#include "support/classic_protocols.hpp"

namespace sysgo::core {
namespace {

using protocol::Mode;
using protocol::Protocol;

// P3 half-duplex, 4-systolic: (0,1), (1,2), (2,1), (1,0), repeated.
Protocol p3_protocol(int t) {
  Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  const std::vector<protocol::Round> period = {
      {{{0, 1}}}, {{{1, 2}}}, {{{2, 1}}}, {{{1, 0}}}};
  for (int i = 0; i < t; ++i)
    p.rounds.push_back(period[static_cast<std::size_t>(i % 4)]);
  return p;
}

TEST(DelayDigraph, NodesAreAllActivations) {
  const auto dg = DelayDigraph(p3_protocol(8), 4);
  EXPECT_EQ(dg.node_count(), 8u);  // one arc per round
  EXPECT_EQ(dg.period(), 4);
  // Activation (0,1) at round 1 exists; at round 2 does not.
  EXPECT_GE(dg.find(0, 1, 1), 0);
  EXPECT_EQ(dg.find(0, 1, 2), -1);
  EXPECT_GE(dg.find(1, 2, 2), 0);
}

TEST(DelayDigraph, ArcsRespectWindowAndMiddleVertex) {
  const auto dg = DelayDigraph(p3_protocol(8), 4);
  for (const auto& arc : dg.arcs()) {
    const auto& from = dg.nodes()[static_cast<std::size_t>(arc.from)];
    const auto& to = dg.nodes()[static_cast<std::size_t>(arc.to)];
    EXPECT_EQ(from.head, to.tail);           // consecutive arcs share the vertex
    EXPECT_EQ(arc.weight, to.round - from.round);
    EXPECT_GE(arc.weight, 1);
    EXPECT_LT(arc.weight, 4);                // window j - i < s
  }
}

TEST(DelayDigraph, SpecificDelayEdges) {
  const auto dg = DelayDigraph(p3_protocol(8), 4);
  const int a01r1 = dg.find(0, 1, 1);
  const int a12r2 = dg.find(1, 2, 2);
  const int a10r4 = dg.find(1, 0, 4);
  ASSERT_GE(a01r1, 0);
  ASSERT_GE(a12r2, 0);
  ASSERT_GE(a10r4, 0);
  // (0,1,1) -> (1,2,2) with delay 1, and (0,1,1) -> (1,0,4) with delay 3.
  int found_12 = 0, found_10 = 0;
  for (const auto& arc : dg.arcs()) {
    if (arc.from == a01r1 && arc.to == a12r2) {
      EXPECT_EQ(arc.weight, 1);
      ++found_12;
    }
    if (arc.from == a01r1 && arc.to == a10r4) {
      EXPECT_EQ(arc.weight, 3);
      ++found_10;
    }
  }
  EXPECT_EQ(found_12, 1);
  EXPECT_EQ(found_10, 1);
}

TEST(DelayDigraph, NoArcAtDelayS) {
  // (0,1,1) and (1,2,6): delay 5 > s-1 -> no arc.
  const auto dg = DelayDigraph(p3_protocol(8), 4);
  const int from = dg.find(0, 1, 1);
  const int to = dg.find(1, 2, 6);
  ASSERT_GE(from, 0);
  ASSERT_GE(to, 0);
  for (const auto& arc : dg.arcs()) EXPECT_FALSE(arc.from == from && arc.to == to);
}

TEST(DelayDigraph, WeightedDistanceIsOverallDelay) {
  const auto dg = DelayDigraph(p3_protocol(12), 4);
  // Item of 0 crossing (0,1) at round 1, then (1,2) at round 2: delay 1.
  const int a = dg.find(0, 1, 1);
  const int b = dg.find(1, 2, 2);
  EXPECT_EQ(dg.weighted_distance(a, b), 1);
  // (0,1,1) to (1,2,6): not direct, but via (2,1,3)? No: (1,2,...) needs an
  // in-arc of 1 first.  Path (0,1,1) -> (1,2,2) exists; to reach (1,2,6) we
  // need ... -> (2,1,3) -> (1,2,6)? 6-3 = 3 < 4: yes.
  const int c = dg.find(2, 1, 3);
  const int d = dg.find(1, 2, 6);
  ASSERT_GE(c, 0);
  ASSERT_GE(d, 0);
  EXPECT_EQ(dg.weighted_distance(b, d), 4);  // (1,2,2)->(2,1,3)->(1,2,6)
  EXPECT_EQ(dg.weighted_distance(a, d), 5);
}

TEST(DelayDigraph, UnreachableDistanceIsMinusOne) {
  const auto dg = DelayDigraph(p3_protocol(4), 4);
  const int late = dg.find(1, 0, 4);
  const int early = dg.find(0, 1, 1);
  ASSERT_GE(late, 0);
  ASSERT_GE(early, 0);
  EXPECT_EQ(dg.weighted_distance(late, early), -1);
}

TEST(DelayDigraph, ScheduleConstructorMatchesManual) {
  const auto sched = protocol::path_schedule(4, Mode::kHalfDuplex);
  const auto dg1 = DelayDigraph(sched, 12);
  const auto dg2 = DelayDigraph(sched.expand(12), sched.period_length());
  EXPECT_EQ(dg1.node_count(), dg2.node_count());
  EXPECT_EQ(dg1.arc_count(), dg2.arc_count());
}

TEST(DelayDigraph, CompiledConstructorMatchesExpandedProtocol) {
  const auto sched = protocol::path_schedule(5, Mode::kHalfDuplex);
  const auto cs = protocol::CompiledSchedule::compile(sched);
  const int t = 3 * sched.period_length();
  const DelayDigraph via_protocol(sched, t);
  const DelayDigraph via_compiled(cs, t);
  EXPECT_EQ(via_compiled.period(), via_protocol.period());
  ASSERT_EQ(via_compiled.node_count(), via_protocol.node_count());
  ASSERT_EQ(via_compiled.arc_count(), via_protocol.arc_count());
  for (std::size_t i = 0; i < via_compiled.node_count(); ++i)
    EXPECT_TRUE(via_compiled.nodes()[i] == via_protocol.nodes()[i]) << i;
  for (std::size_t i = 0; i < via_compiled.arc_count(); ++i) {
    EXPECT_EQ(via_compiled.arcs()[i].from, via_protocol.arcs()[i].from);
    EXPECT_EQ(via_compiled.arcs()[i].to, via_protocol.arcs()[i].to);
    EXPECT_EQ(via_compiled.arcs()[i].weight, via_protocol.arcs()[i].weight);
  }
}

TEST(DelayDigraph, RejectsTinyPeriod) {
  EXPECT_THROW(DelayDigraph(p3_protocol(4), 1), std::invalid_argument);
}

TEST(DelayDigraph, NodeCountScalesWithRounds) {
  const auto sched = protocol::hypercube_schedule(3, Mode::kFullDuplex);
  const auto dg = DelayDigraph(sched, 6);
  // Every round activates all 8 vertices in 4 pairs = 8 arcs; 6 rounds.
  EXPECT_EQ(dg.node_count(), 48u);
}

}  // namespace
}  // namespace sysgo::core
