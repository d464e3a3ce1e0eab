#include "simulator/broadcast_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "simulator/gossip_sim.hpp"
#include "support/classic_protocols.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

// Gossip completion read off one broadcast per source: the latest arrival,
// or -1 when some item never reaches some vertex.
int completion_from_reach(const CompiledSchedule& cs) {
  int worst = 0;
  for (int src = 0; src < cs.n(); ++src)
    for (const int t : broadcast_reach(cs, src)) {
      if (t == -1) return -1;
      worst = std::max(worst, t);
    }
  return worst;
}

TEST(BroadcastSim, ReachOnChainProtocol) {
  protocol::Protocol p;
  p.n = 4;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}, {{{2, 3}}}};
  const auto reach = broadcast_reach(CompiledSchedule::compile(p), 0);
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
  const auto reach = broadcast_reach(CompiledSchedule::compile(p), 0);
  EXPECT_EQ(reach[1], 2);
  EXPECT_EQ(reach[2], -1);  // the (1,2) activation came before 1 was informed
}

TEST(BroadcastSim, UnreachedVerticesAreMinusOne) {
  protocol::Protocol p;
  p.n = 3;
  p.rounds = {{{{0, 1}}}};
  const auto reach = broadcast_reach(CompiledSchedule::compile(p), 2);
  EXPECT_EQ(reach[2], 0);
  EXPECT_EQ(reach[0], -1);
  EXPECT_EQ(reach[1], -1);
}

TEST(BroadcastSim, HypercubeBroadcastInDRounds) {
  const int D = 4;
  const auto cs = CompiledSchedule::compile(
      protocol::hypercube_schedule(D, Mode::kFullDuplex));
  for (int src : {0, 5, 15}) {
    EXPECT_EQ(broadcast_time(cs, src, 10 * D), D) << "src=" << src;
  }
}

TEST(BroadcastSim, BroadcastNeverBeatsEccentricity) {
  const auto cs = CompiledSchedule::compile(
      protocol::path_schedule(9, Mode::kFullDuplex));
  const int t = broadcast_time(cs, 0, 200);
  ASSERT_GT(t, 0);
  EXPECT_GE(t, 8);  // distance from 0 to 8
}

TEST(BroadcastSim, BroadcastTimeUnreachable) {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.period = {{{{0, 1}}}};
  EXPECT_EQ(broadcast_time(CompiledSchedule::compile(sched), 0, 50), -1);
}

// The periodic executor (broadcast_time) and the finite one
// (broadcast_reach over the schedule expanded to that many rounds) agree.
TEST(BroadcastSim, PeriodicTimeMatchesExpandedReach) {
  const std::vector<protocol::SystolicSchedule> corpus = {
      protocol::path_schedule(7, Mode::kHalfDuplex),
      protocol::hypercube_schedule(4, Mode::kFullDuplex),
      protocol::cycle_schedule(6, Mode::kFullDuplex),
  };
  for (const auto& sched : corpus) {
    const auto cs = CompiledSchedule::compile(sched);
    for (int src = 0; src < sched.n; ++src) {
      const int t = broadcast_time(cs, src, 500);
      ASSERT_GT(t, 0);
      const auto reach =
          broadcast_reach(CompiledSchedule::compile(sched.expand(t)), src);
      EXPECT_EQ(*std::max_element(reach.begin(), reach.end()), t);
      EXPECT_EQ(std::count(reach.begin(), reach.end(), -1), 0);
    }
  }
}

TEST(BroadcastSim, CompiledReachRejectsPeriodicSchedules) {
  const auto sched = protocol::path_schedule(4, Mode::kHalfDuplex);
  EXPECT_THROW(
      (void)broadcast_reach(CompiledSchedule::compile(sched), 0),
      std::invalid_argument);
}

TEST(BroadcastSim, ReachCompletionMatchesGossipTime) {
  const auto good = CompiledSchedule::compile(
      protocol::hypercube_schedule(3, Mode::kFullDuplex).expand(10));
  const int t = gossip_time(good, good.round_count());
  EXPECT_EQ(t, 3);
  EXPECT_EQ(completion_from_reach(good), t);
  // Two rounds of the hypercube exchange serve no pair at distance 3.
  const auto short_run = CompiledSchedule::compile(
      protocol::hypercube_schedule(3, Mode::kFullDuplex).expand(2));
  EXPECT_EQ(gossip_time(short_run, short_run.round_count()), -1);
  EXPECT_EQ(completion_from_reach(short_run), -1);
}

TEST(BroadcastSim, GossipImpliesBroadcastFromEverySource) {
  const auto cs = CompiledSchedule::compile(
      protocol::path_schedule(6, Mode::kHalfDuplex).expand(40));
  ASSERT_GE(gossip_time(cs, cs.round_count()), 0);
  for (int src = 0; src < 6; ++src) {
    const auto reach = broadcast_reach(cs, src);
    for (int v = 0; v < 6; ++v) EXPECT_NE(reach[static_cast<std::size_t>(v)], -1);
  }
}

}  // namespace
}  // namespace sysgo::simulator
