// Differential suite for the slice-major gossip engine (simulator/batch.hpp)
// against the snapshot-semantics reference run (reference_gossip.hpp):
//
//   * the slice_step8 kernels vs an independent reference step, every
//     supported ISA, full and partial masks, pre-full rows;
//   * completion round and capped coverage over every registry family at
//     small D, random schedules, n at the slice edges (1, 2, 63..65, ...,
//     1025), caps that yield -1, finite compiled protocols;
//   * GossipOptions::parallel against serial, and every supported kernel
//     through ScopedKernel;
//   * the scratch size: n·W·8 + n bytes per lane.
#include "simulator/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/kernels.hpp"
#include "reference_gossip.hpp"
#include "topology/topology.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace sysgo::simulator {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> ks;
  for (int k = 0; k < kKernelKindCount; ++k)
    if (kernel_supported(static_cast<KernelKind>(k)))
      ks.push_back(static_cast<KernelKind>(k));
  return ks;
}

// ------------------------------------------------------------ step kernels

/// Independent reference step on 8-word slices (not a call into
/// slice_step<8>, so the suite cannot share a bug with it).
int reference_step(std::vector<std::uint64_t>& rows,
                   const std::vector<graph::Arc>& links, bool pairs,
                   const std::uint64_t* mask, std::vector<std::uint8_t>& full) {
  const auto is_full = [&](std::size_t v) {
    for (std::size_t w = 0; w < 8; ++w)
      if (rows[v * 8 + w] != mask[w]) return false;
    return true;
  };
  int marked = 0;
  for (const graph::Arc& a : links) {
    const auto t = static_cast<std::size_t>(a.tail);
    const auto h = static_cast<std::size_t>(a.head);
    if (pairs ? (full[t] && full[h]) : full[h]) continue;
    for (std::size_t w = 0; w < 8; ++w) {
      rows[h * 8 + w] |= rows[t * 8 + w];
      if (pairs) rows[t * 8 + w] = rows[h * 8 + w];
    }
    for (const std::size_t v : {t, h}) {
      if ((pairs || v == h) && !full[v] && is_full(v)) {
        full[v] = 1;
        ++marked;
      }
    }
  }
  return marked;
}

TEST(SliceStep, EveryKernelMatchesReference) {
  util::Rng rng(0x511ce);
  constexpr int kRows = 96;
  for (const int bits : {1, 2, 63, 64, 65, 200, 447, 511, 512}) {
    std::uint64_t mask[8] = {};
    for (int b = 0; b < bits; ++b) mask[b / 64] |= std::uint64_t{1} << (b % 64);
    for (const bool pairs : {false, true}) {
      // Dense random rows inside the mask; a third of them full up front.
      std::vector<std::uint64_t> rows0(kRows * 8);
      std::vector<std::uint8_t> full0(kRows, 0);
      for (int v = 0; v < kRows; ++v) {
        for (int w = 0; w < 8; ++w)
          rows0[v * 8 + w] = (rng.engine()() | rng.engine()()) & mask[w];
        if (v % 3 == 0) {
          std::copy(mask, mask + 8, rows0.begin() + v * 8);
          full0[static_cast<std::size_t>(v)] = 1;
        }
      }
      const std::vector<int> perm = rng.permutation(kRows);
      std::vector<graph::Arc> links;
      for (int i = 0; i + 1 < kRows; i += 2) {
        graph::Arc a{perm[static_cast<std::size_t>(i)],
                     perm[static_cast<std::size_t>(i) + 1]};
        if (pairs && a.tail > a.head) std::swap(a.tail, a.head);
        links.push_back(a);
      }
      auto want_rows = rows0;
      auto want_full = full0;
      const int want = reference_step(want_rows, links, pairs, mask, want_full);
      for (const KernelKind kind : supported_kernels()) {
        util::CacheAlignedVector<std::uint64_t> rows(rows0.begin(),
                                                     rows0.end());
        auto full = full0;
        const int got = kernel_table(kind).slice_step8(
            rows.data(), links.data(), links.size(), pairs, mask, full.data());
        const std::string what = std::string(kernel_name(kind)) +
                                 " bits=" + std::to_string(bits) +
                                 (pairs ? " pairs" : " arcs");
        EXPECT_EQ(got, want) << what;
        EXPECT_TRUE(std::equal(rows.begin(), rows.end(), want_rows.begin()))
            << what;
        EXPECT_EQ(full, want_full) << what;
      }
    }
  }
}

// ------------------------------------------------------- whole-run oracle

/// Engine against the oracle at `cap`: gossip_time, the coverage run, and
/// both again on the pool.
void expect_matches(const CompiledSchedule& cs, int cap,
                    const std::string& what) {
  const ReferenceOutcome want = reference_gossip(cs, cap);
  GossipArena arena;
  EXPECT_EQ(gossip_time(cs, cap), want.rounds) << what;
  const GossipOutcome got = arena.run(cs, cap, /*coverage=*/true);
  EXPECT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.coverage, want.coverage) << what;
  GossipOptions par;
  par.parallel = true;
  EXPECT_EQ(gossip_time(cs, cap, par, arena), want.rounds) << what << " par";
  const GossipOutcome got_par = arena.run(cs, cap, true, /*parallel=*/true);
  EXPECT_EQ(got_par.rounds, want.rounds) << what << " par";
  EXPECT_EQ(got_par.coverage, want.coverage) << what << " par";
}

/// expect_matches at a generous cap and, when that completes in t > 0
/// rounds, at t (completes) and t - 1 (the -1 / coverage branch).
void expect_matches_around_completion(const CompiledSchedule& cs,
                                      const std::string& what) {
  constexpr int kCap = 1 << 12;
  expect_matches(cs, kCap, what);
  const int t = reference_gossip(cs, kCap).rounds;
  if (t > 0) {
    expect_matches(cs, t, what + " cap=t");
    expect_matches(cs, t - 1, what + " cap=t-1");
    EXPECT_EQ(gossip_time(cs, t - 1), -1) << what;
  }
}

/// s rounds of random matchings on K_n: each round pairs up a shuffled
/// vertex order, dropping about one pair in 32.  Half-duplex rounds are
/// each followed by their reverse, so every link carries both directions
/// and the run usually completes.
CompiledSchedule random_matchings(int n, int s, Mode mode, util::Rng& rng) {
  protocol::SystolicSchedule sched;
  sched.n = n;
  sched.mode = mode;
  for (int r = 0; r < s; ++r) {
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
    if (mode == Mode::kHalfDuplex) sched.period.push_back(std::move(reversed));
  }
  return CompiledSchedule::compile(sched);
}

std::string mode_name(Mode mode) {
  return mode == Mode::kFullDuplex ? " full" : " half";
}

TEST(SliceEngine, MatchesReferenceOnEveryFamily) {
  using topology::Family;
  const std::vector<std::tuple<Family, int, int>> members = {
      {Family::kButterfly, 2, 3},
      {Family::kWrappedButterflyDirected, 2, 3},
      {Family::kWrappedButterfly, 2, 4},
      {Family::kDeBruijnDirected, 2, 6},
      {Family::kDeBruijn, 2, 7},
      {Family::kKautzDirected, 2, 5},
      {Family::kKautz, 2, 6},
      {Family::kCycle, 2, 9},
      {Family::kComplete, 2, 7},
      {Family::kHypercube, 2, 5},
      {Family::kCubeConnectedCycles, 2, 4},
      {Family::kShuffleExchange, 2, 6},
      {Family::kKnodel, 3, 16},
      {Family::kRandomRegular, 3, 24},
      {Family::kRandomGnp, 3, 20},
  };
  for (const auto& [family, d, D] : members) {
    const graph::Digraph g = topology::make_family(family, d, D);
    for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      // Non-symmetric members activate reversed arcs: compile without g.
      const auto cs =
          CompiledSchedule::compile(protocol::edge_coloring_schedule(g, mode));
      expect_matches_around_completion(
          cs, topology::family_name(family, d) + " D=" + std::to_string(D) +
                  mode_name(mode));
    }
  }
}

TEST(SliceEngine, MatchesOnRandomSchedules) {
  util::Rng rng(77);
  for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    for (int trial = 0; trial < 12; ++trial) {
      const graph::Digraph g = topology::make_family(
          topology::Family::kDeBruijn, 2, 4 + trial % 6);
      const auto cs = CompiledSchedule::compile(
          protocol::random_systolic_schedule(g, 2 + trial % 5, mode, rng));
      expect_matches_around_completion(
          cs, "random trial=" + std::to_string(trial) + mode_name(mode));
    }
  }
}

// Sizes at every slice-width and slice-count edge: W = 1, 2, 4, 8 and the
// partial last 64-byte slice.
TEST(SliceEngine, MatchesAtSliceEdges) {
  util::Rng rng(0xed9e);
  for (const int n : {1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511,
                      512, 513, 1025}) {
    for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      const auto cs = random_matchings(n, 4 + n % 3, mode, rng);
      if (n > 1) {
        ASSERT_GT(reference_gossip(cs, 1 << 12).rounds, 0) << "n=" << n;
      }
      expect_matches_around_completion(
          cs, "K_" + std::to_string(n) + mode_name(mode));
    }
  }
}

TEST(SliceEngine, SingleVertexIsDoneAtRoundZero) {
  util::Rng rng(1);
  const auto cs = random_matchings(1, 2, Mode::kHalfDuplex, rng);
  GossipArena arena;
  EXPECT_EQ(gossip_time(cs, 0), 0);
  const GossipOutcome out = arena.run(cs, 5, true);
  EXPECT_EQ(out.rounds, 0);
  EXPECT_EQ(out.coverage, 1);
}

TEST(SliceEngine, FiniteProtocolsStopAtTheirLength) {
  util::Rng rng(0xf1);
  for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    for (const int D : {4, 7, 10}) {  // n = 16, 128, 1024
      const graph::Digraph g =
          topology::make_family(topology::Family::kDeBruijn, 2, D);
      for (const int t : {0, 3, 40}) {
        const protocol::Protocol p = protocol::random_protocol(g, t, mode, rng);
        const auto cs = CompiledSchedule::compile(p);
        const std::string what = "db(2," + std::to_string(D) +
                                 ") t=" + std::to_string(t) + mode_name(mode);
        expect_matches(cs, 1 << 12, what);
        expect_matches(cs, t / 2, what + " cap=t/2");
        // The protocol's own rounds, not the compiled ones.
        const ReferenceOutcome ref =
            reference_gossip(p.n, p.rounds, /*periodic=*/false, 1 << 12);
        EXPECT_EQ(gossip_time(cs, 1 << 12), ref.rounds) << what;
      }
    }
  }
}

TEST(SliceEngine, ParallelMatchesSerialOnMultiSliceMembers) {
  using topology::Family;
  for (const auto& [family, D] :
       {std::pair{Family::kDeBruijn, 11}, std::pair{Family::kKautz, 10},
        std::pair{Family::kWrappedButterfly, 7}}) {
    for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      const auto cs =
          CompiledSchedule::compile(protocol::edge_coloring_schedule(
              topology::make_family(family, 2, D), mode));
      const std::string what =
          topology::family_name(family, 2) + " D=" + std::to_string(D) +
          mode_name(mode);
      GossipArena serial;
      GossipArena par;
      for (const int cap : {1 << 12, 9}) {
        const GossipOutcome a = serial.run(cs, cap, true);
        const GossipOutcome b = par.run(cs, cap, true, true);
        EXPECT_EQ(a.rounds, b.rounds) << what;
        EXPECT_EQ(a.coverage, b.coverage) << what;
        EXPECT_EQ(serial.run(cs, cap, false).rounds,
                  par.run(cs, cap, false, true).rounds)
            << what;
      }
    }
  }
}

TEST(SliceEngine, EveryKernelGivesTheOracleResults) {
  util::Rng rng(0x6e6e);
  std::vector<CompiledSchedule> corpus;
  for (const int n : {65, 600, 1025, 1600})
    for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex})
      corpus.push_back(random_matchings(n, 4, mode, rng));
  corpus.push_back(CompiledSchedule::compile(protocol::edge_coloring_schedule(
      topology::make_family(topology::Family::kKautz, 2, 9),
      Mode::kHalfDuplex)));
  for (const KernelKind kind : supported_kernels()) {
    const ScopedKernel scoped(kind);
    for (std::size_t i = 0; i < corpus.size(); ++i)
      expect_matches_around_completion(
          corpus[i], std::string(kernel_name(kind)) + " member " +
                         std::to_string(i));
  }
}

TEST(SliceEngine, ScratchIsOneSlicePerLane) {
  util::Rng rng(3);
  GossipArena arena;
  EXPECT_EQ(arena.scratch_data(), nullptr);
  // (n, W): W is the smallest power of two >= ceil(n / 64), capped at 8.
  for (const auto& [n, W] : {std::pair{1, 1}, std::pair{64, 1},
                             std::pair{65, 2}, std::pair{129, 4},
                             std::pair{257, 8}, std::pair{513, 8},
                             std::pair{4096, 8}}) {
    const auto cs = random_matchings(n, 2, Mode::kHalfDuplex, rng);
    (void)arena.run(cs, 64, true);
    EXPECT_EQ(arena.lane_bytes(), static_cast<std::size_t>(n) * W * 8 +
                                      static_cast<std::size_t>(n))
        << "n=" << n;
    ASSERT_NE(arena.scratch_data(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.scratch_data()) % 64, 0u);
  }
}

TEST(SliceEngine, HeavyMatchesReferenceOnKautz14) {
  // n = 24,576: the oracle copies and streams a 72 MB state per round.
  if (std::getenv("SYSGO_HEAVY_TESTS") == nullptr)
    GTEST_SKIP() << "set SYSGO_HEAVY_TESTS=1 to run";
  const graph::Digraph g =
      topology::make_family(topology::Family::kKautz, 2, 14);
  for (const Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto cs =
        CompiledSchedule::compile(protocol::edge_coloring_schedule(g, mode));
    ASSERT_EQ(cs.n(), 24576);
    expect_matches_around_completion(cs, "kautz(2,14)" + mode_name(mode));
  }
}

}  // namespace
}  // namespace sysgo::simulator
