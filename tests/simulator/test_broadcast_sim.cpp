#include "simulator/broadcast_sim.hpp"

#include <gtest/gtest.h>

#include "protocol/classic_protocols.hpp"
#include "simulator/gossip_sim.hpp"

namespace sysgo::simulator {
namespace {

using protocol::Mode;

TEST(BroadcastSim, ReachOnChainProtocol) {
  protocol::Protocol p;
  p.n = 4;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}, {{{2, 3}}}};
  const auto reach = broadcast_reach(p, 0);
  EXPECT_EQ(reach[0], 0);
  EXPECT_EQ(reach[1], 1);
  EXPECT_EQ(reach[2], 2);
  EXPECT_EQ(reach[3], 3);
}

TEST(BroadcastSim, NoSameRoundForwarding) {
  // Both arcs in one round: item can hop only one arc per round.
  protocol::Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  // (0,1) and (1,2) can't share a round (matching); use separate rounds and
  // check the reverse order does not deliver.
  p.rounds = {{{{1, 2}}}, {{{0, 1}}}};
  const auto reach = broadcast_reach(p, 0);
  EXPECT_EQ(reach[1], 2);
  EXPECT_EQ(reach[2], -1);  // the (1,2) activation came before 1 was informed
}

TEST(BroadcastSim, UnreachedVerticesAreMinusOne) {
  protocol::Protocol p;
  p.n = 3;
  p.rounds = {{{{0, 1}}}};
  const auto reach = broadcast_reach(p, 2);
  EXPECT_EQ(reach[2], 0);
  EXPECT_EQ(reach[0], -1);
  EXPECT_EQ(reach[1], -1);
}

TEST(BroadcastSim, HypercubeBroadcastInDRounds) {
  const int D = 4;
  const auto sched = protocol::hypercube_schedule(D, Mode::kFullDuplex);
  for (int src : {0, 5, 15}) {
    EXPECT_EQ(broadcast_time(sched, src, 10 * D), D) << "src=" << src;
  }
}

TEST(BroadcastSim, BroadcastNeverBeatsEccentricity) {
  const auto sched = protocol::path_schedule(9, Mode::kFullDuplex);
  const int t = broadcast_time(sched, 0, 200);
  ASSERT_GT(t, 0);
  EXPECT_GE(t, 8);  // distance from 0 to 8
}

TEST(BroadcastSim, BroadcastTimeUnreachable) {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.period = {{{{0, 1}}}};
  EXPECT_EQ(broadcast_time(sched, 0, 50), -1);
}

TEST(BroadcastSim, CompiledMatchesLegacyBroadcast) {
  const std::vector<protocol::SystolicSchedule> corpus = {
      protocol::path_schedule(7, Mode::kHalfDuplex),
      protocol::hypercube_schedule(4, Mode::kFullDuplex),
      protocol::cycle_schedule(6, Mode::kFullDuplex),
  };
  for (const auto& sched : corpus) {
    const auto cs = protocol::CompiledSchedule::compile(sched);
    for (int src = 0; src < sched.n; ++src) {
      EXPECT_EQ(broadcast_time(cs, src, 500), broadcast_time(sched, src, 500));
      const int t = broadcast_time(sched, src, 500);
      ASSERT_GT(t, 0);
      const auto p = sched.expand(t);
      EXPECT_EQ(broadcast_reach(protocol::CompiledSchedule::compile(p), src),
                broadcast_reach(p, src));
    }
  }
}

TEST(BroadcastSim, CompiledReachRejectsPeriodicSchedules) {
  const auto sched = protocol::path_schedule(4, Mode::kHalfDuplex);
  EXPECT_THROW(
      (void)broadcast_reach(protocol::CompiledSchedule::compile(sched), 0),
      std::invalid_argument);
}

TEST(BroadcastSim, AchievesGossipExactlyWhenComplete) {
  const auto good = protocol::hypercube_schedule(3, Mode::kFullDuplex).expand(3);
  EXPECT_TRUE(achieves_gossip(good));
  const auto bad = protocol::hypercube_schedule(3, Mode::kFullDuplex).expand(2);
  EXPECT_FALSE(achieves_gossip(bad));
}

TEST(BroadcastSim, ArrivalMatrixRowsMatchBroadcastReach) {
  const auto p = protocol::path_schedule(5, Mode::kHalfDuplex).expand(30);
  const auto arrivals = arrival_times(p);
  ASSERT_EQ(arrivals.size(), 5u);
  for (int src = 0; src < 5; ++src)
    EXPECT_EQ(arrivals[static_cast<std::size_t>(src)], broadcast_reach(p, src));
}

TEST(BroadcastSim, ArrivalCompletionMatchesGossipTime) {
  const auto sched = protocol::hypercube_schedule(3, Mode::kFullDuplex);
  const auto p = sched.expand(10);
  const auto arrivals = arrival_times(p);
  const int from_arrivals = gossip_completion_from_arrivals(arrivals);
  const int t = gossip_time(protocol::CompiledSchedule::compile(p), p.length());
  ASSERT_GT(t, 0);
  EXPECT_EQ(from_arrivals, t);
}

TEST(BroadcastSim, ArrivalCompletionMinusOneWhenUnserved) {
  protocol::Protocol p;
  p.n = 3;
  p.rounds = {{{{0, 1}}}};
  EXPECT_EQ(gossip_completion_from_arrivals(arrival_times(p)), -1);
}

TEST(BroadcastSim, GossipImpliesBroadcastFromEverySource) {
  const auto p = protocol::path_schedule(6, Mode::kHalfDuplex).expand(40);
  ASSERT_TRUE(achieves_gossip(p));
  for (int src = 0; src < 6; ++src) {
    const auto reach = broadcast_reach(p, src);
    for (int v = 0; v < 6; ++v) EXPECT_NE(reach[static_cast<std::size_t>(v)], -1);
  }
}

}  // namespace
}  // namespace sysgo::simulator
