#include "simulator/gossip_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "reference_gossip.hpp"
#include "simulator/batch.hpp"
#include "support/classic_protocols.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;
using protocol::Protocol;

/// A finite protocol's gossip time over its own length.
int protocol_time(const Protocol& p) {
  return gossip_time(CompiledSchedule::compile(p), p.length());
}

/// Items known summed over all vertices after the first `cap` rounds.
std::int64_t coverage_after(const Protocol& p, int cap) {
  GossipArena arena;
  return arena.run(CompiledSchedule::compile(p), cap, /*coverage=*/true)
      .coverage;
}

TEST(GossipSim, TwoVerticesHalfDuplexNeedsTwoRounds) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 0}}}};
  EXPECT_EQ(protocol_time(p), 2);
}

TEST(GossipSim, TwoVerticesFullDuplexNeedsOneRound) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  p.rounds = {{{{0, 1}, {1, 0}}}};
  EXPECT_EQ(protocol_time(p), 1);
}

TEST(GossipSim, IncompleteProtocolReported) {
  Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}};
  EXPECT_EQ(protocol_time(p), -1);
  EXPECT_EQ(coverage_after(p, 1), 1 + 2 + 1);  // vertex 1 learned item 0
}

TEST(GossipSim, HalfDuplexRoundSemantics) {
  // Chain 0->1 then 1->2: item 0 reaches 2 after two rounds, not one.
  Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}};
  EXPECT_EQ(coverage_after(p, 1), 1 + 2 + 1);
  EXPECT_EQ(coverage_after(p, 2), 1 + 2 + 3);
}

TEST(GossipSim, FullDuplexPairSwapsKnowledge) {
  // Q2 as two full-duplex rounds: each pair exchange doubles both rows.
  Protocol p;
  p.n = 4;
  p.mode = Mode::kFullDuplex;
  p.rounds = {{{{0, 1}, {1, 0}, {2, 3}, {3, 2}}},
              {{{0, 2}, {2, 0}, {1, 3}, {3, 1}}}};
  EXPECT_EQ(coverage_after(p, 1), 4 * 2);
  EXPECT_EQ(protocol_time(p), 2);
}

TEST(GossipSim, EarlyExitOnceComplete) {
  Protocol p;
  p.n = 2;
  p.mode = Mode::kFullDuplex;
  for (int i = 0; i < 50; ++i) p.rounds.push_back({{{0, 1}, {1, 0}}});
  EXPECT_EQ(protocol_time(p), 1);
}

TEST(GossipSim, ParallelMatchesSerial) {
  const auto sched = protocol::hypercube_schedule(6, Mode::kFullDuplex);
  GossipOptions serial, parallel;
  parallel.parallel = true;
  EXPECT_EQ(gossip_time(sched, 100, serial), gossip_time(sched, 100, parallel));
}

TEST(GossipSim, GossipTimeSingleVertexIsZero) {
  protocol::SystolicSchedule sched;
  sched.n = 1;
  sched.period = {{}};
  EXPECT_EQ(gossip_time(sched, 10), 0);
}

TEST(GossipSim, GossipTimeReturnsMinusOneWhenStuck) {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.mode = Mode::kHalfDuplex;
  sched.period = {{{{0, 1}}}};  // vertex 2 never participates
  EXPECT_EQ(gossip_time(sched, 50), -1);
  EXPECT_EQ(gossip_time(CompiledSchedule::compile(sched), 50), -1);
}

// The authoring-format overload is compile-then-run: the reference run's
// times over the authored period, and a round that is not a matching is
// rejected rather than executed in arc order.
TEST(GossipSim, ScheduleOverloadCompilesFirst) {
  for (const auto& sched : {protocol::path_schedule(6, Mode::kHalfDuplex),
                            protocol::cycle_schedule(7, Mode::kHalfDuplex),
                            protocol::hypercube_schedule(4, Mode::kFullDuplex),
                            protocol::hypercube_schedule(5, Mode::kHalfDuplex)}) {
    const int t = gossip_time(sched, 1 << 12);
    ASSERT_GT(t, 0);
    EXPECT_EQ(reference_gossip(sched.n, sched.period, /*periodic=*/true,
                               1 << 12)
                  .rounds,
              t);
  }
  protocol::SystolicSchedule chain;
  chain.n = 4;
  chain.mode = Mode::kHalfDuplex;
  chain.period = {{{{0, 1}, {1, 2}}}, {{{2, 3}, {3, 0}}}};
  EXPECT_THROW((void)gossip_time(chain, 50), std::invalid_argument);
}

TEST(GossipSim, CompiledFiniteProtocolStopsAtItsLength) {
  // A finite compiled protocol never executes past round_count(), even
  // when max_rounds asks for more.
  const auto p = protocol::path_schedule(5, Mode::kHalfDuplex).expand(3);
  const auto cs = CompiledSchedule::compile(p);
  EXPECT_EQ(gossip_time(cs, 1 << 12), -1);  // 3 rounds cannot finish P5
}

}  // namespace
}  // namespace sysgo::simulator
