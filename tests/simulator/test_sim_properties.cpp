// Property sweep: random protocols on random-ish networks obey the
// simulator's fundamental invariants, and the single-item broadcast view is
// consistent with the full knowledge-set view.
#include <gtest/gtest.h>

#include <cstdint>

#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "simulator/broadcast_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "util/rng.hpp"

namespace sysgo::simulator {
namespace {

using protocol::Mode;

graph::Digraph pick_network(int which) {
  switch (which % 4) {
    case 0: return topology::cycle(9);
    case 1: return topology::de_bruijn(2, 4);
    case 2: return topology::kautz(2, 3);
    default: return topology::grid(3, 4);
  }
}

class SimProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimProperty, KnowledgeInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto g = pick_network(GetParam());
  const auto mode = GetParam() % 2 == 0 ? Mode::kHalfDuplex : Mode::kFullDuplex;
  const auto p = protocol::random_protocol(g, 20, mode, rng);
  ASSERT_TRUE(protocol::validate_structure(p, &g).ok);

  // Coverage after each prefix of rounds starts at n (every vertex holds
  // its own item), never shrinks, and never exceeds n².
  const auto cs = protocol::CompiledSchedule::compile(p);
  const std::int64_t n = p.n;
  GossipArena arena;
  std::int64_t prev = n;
  for (int cap = 0; cap <= p.length(); ++cap) {
    const std::int64_t c = arena.run(cs, cap, /*coverage=*/true).coverage;
    EXPECT_GE(c, prev) << "cap=" << cap;  // monotone
    EXPECT_LE(c, n * n) << "cap=" << cap;
    prev = c;
  }
}

TEST_P(SimProperty, BroadcastViewMatchesKnowledgeView) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const auto g = pick_network(GetParam() + 1);
  const auto mode = GetParam() % 2 == 0 ? Mode::kFullDuplex : Mode::kHalfDuplex;
  const auto p = protocol::random_protocol(g, 16, mode, rng);

  // The engine's coverage must equal the number of (source, vertex) pairs
  // whose item arrived, counted one broadcast at a time.
  const auto cs = protocol::CompiledSchedule::compile(p);
  std::int64_t reached = 0;
  for (int src = 0; src < p.n; ++src)
    for (const int t : broadcast_reach(cs, src)) reached += t != -1 ? 1 : 0;
  GossipArena arena;
  EXPECT_EQ(arena.run(cs, p.length(), /*coverage=*/true).coverage, reached);
}

TEST_P(SimProperty, ReachTimesRespectRoundOrdering) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const auto g = pick_network(GetParam() + 2);
  const auto p = protocol::random_protocol(g, 12, Mode::kHalfDuplex, rng);
  const auto cs = protocol::CompiledSchedule::compile(p);
  for (int src = 0; src < p.n; src += 3) {
    const auto reach = broadcast_reach(cs, src);
    EXPECT_EQ(reach[static_cast<std::size_t>(src)], 0);
    for (int v = 0; v < p.n; ++v) {
      const int r = reach[static_cast<std::size_t>(v)];
      EXPECT_LE(r, p.length());
      EXPECT_GE(r, -1);
      if (v != src && r != -1) {
        EXPECT_GE(r, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace sysgo::simulator
