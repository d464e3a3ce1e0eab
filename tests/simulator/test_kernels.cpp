// Kernel dispatch and the consumers built on the kernel table (the
// slice_step8 kernels themselves are diffed in test_slice_engine.cpp):
//
//   * the dispatch table's names and unsupported-kernel errors;
//   * the reusable gossip arena vs per-call gossip_time over the
//     paper-figure corpus plus seeded random members;
//   * DraftEvaluator / evaluate_batch vs the one-shot compile-then-evaluate
//     path, both goals, both modes, audit-gap on and off;
//   * end-to-end per-kernel equality (ScopedKernel) — the in-process form
//     of the CI byte-identity matrix.
#include "simulator/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "simulator/broadcast_sim.hpp"
#include "simulator/gossip_sim.hpp"
#include "synth/draft.hpp"
#include "synth/objective.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace sysgo::simulator {
namespace {

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> ks;
  for (int k = 0; k < kKernelKindCount; ++k)
    if (kernel_supported(static_cast<KernelKind>(k)))
      ks.push_back(static_cast<KernelKind>(k));
  return ks;
}

TEST(Kernels, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernel_compiled(KernelKind::kScalar));
  EXPECT_TRUE(kernel_supported(KernelKind::kScalar));
  EXPECT_TRUE(kernel_supported(active_kernel()));
}

TEST(Kernels, NamesRoundTrip) {
  EXPECT_STREQ(kernel_name(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(kernel_name(KernelKind::kAvx2), "avx2");
  EXPECT_STREQ(kernel_name(KernelKind::kAvx512), "avx512");
}

TEST(Kernels, UnsupportedKernelTableThrows) {
  for (int k = 0; k < kKernelKindCount; ++k) {
    const auto kind = static_cast<KernelKind>(k);
    if (!kernel_supported(kind)) {
      EXPECT_THROW(static_cast<void>(kernel_table(kind)), std::runtime_error);
    }
  }
}

// ---------------------------------------------------------------- corpora

struct CorpusMember {
  topology::Family family;
  int d;
  int D;
  std::uint64_t seed;  // random families only (0 = default member)
};

/// The fig5/fig6 families at small D plus seeded random members — compact
/// enough to run per kernel, wide enough to cross word boundaries (de
/// Bruijn / Kautz at D = 5..6 pass n = 64).
std::vector<CorpusMember> corpus() {
  using topology::Family;
  return {
      {Family::kButterfly, 2, 3, 0},
      {Family::kWrappedButterflyDirected, 2, 3, 0},
      {Family::kWrappedButterfly, 2, 3, 0},
      {Family::kDeBruijnDirected, 2, 6, 0},
      {Family::kDeBruijn, 2, 6, 0},
      {Family::kKautzDirected, 2, 5, 0},
      {Family::kKautz, 2, 5, 0},
      {Family::kCycle, 2, 9, 0},
      {Family::kHypercube, 2, 4, 0},
      {Family::kRandomRegular, 3, 24, 0xfeedULL},
      {Family::kRandomGnp, 3, 20, 0xbeefULL},
  };
}

protocol::CompiledSchedule member_schedule(const CorpusMember& m,
                                           protocol::Mode mode) {
  const graph::Digraph g =
      m.seed != 0 ? topology::make_family(m.family, m.d, m.D, m.seed)
                  : topology::make_family(m.family, m.d, m.D);
  // The coloring may activate reversed arcs on non-symmetric digraphs, so
  // compile without a membership graph (matching the builder's contract).
  return protocol::CompiledSchedule::compile(
      protocol::edge_coloring_schedule(g, mode));
}

TEST(Batch, GossipArenaMatchesSerialOverCorpus) {
  constexpr int kMax = 512;
  GossipArena arena;
  // One arena across the whole corpus: mixed n forces reacquisition.
  for (const CorpusMember& m : corpus()) {
    const auto cs = member_schedule(m, protocol::Mode::kHalfDuplex);
    EXPECT_EQ(gossip_time(cs, kMax, {}, arena), gossip_time(cs, kMax))
        << topology::family_name(m.family, m.d) << " D=" << m.D;
  }
}

// ------------------------------------------------- synth evaluation paths

synth::ObjectiveOptions objective_options(synth::Goal goal, bool audit,
                                          int max_rounds = 512) {
  synth::ObjectiveOptions o;
  o.goal = goal;
  o.max_rounds = max_rounds;
  o.audit_gap = audit;
  return o;
}

void expect_objectives_equal(const synth::Objective& a,
                             const synth::Objective& b,
                             const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.period, b.period) << what;
  EXPECT_EQ(a.links, b.links) << what;
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.audit_gap, b.audit_gap) << what;
}

// DraftEvaluator must reproduce the compile-then-evaluate objective for
// arbitrary structurally-valid schedules: random matchings over random
// members, both modes, both goals, audit term on (gossip) and off, plus
// short round caps so the infeasible/coverage branch is hit.
TEST(Synth, DraftEvaluatorMatchesCompiledEvaluate) {
  util::Rng rng(0x5997ULL);
  synth::DraftEvaluator de;
  for (const auto mode : {protocol::Mode::kHalfDuplex,
                          protocol::Mode::kFullDuplex}) {
    for (int trial = 0; trial < 30; ++trial) {
      const graph::Digraph g = topology::make_family(
          topology::Family::kRandomRegular, 3, 10 + 2 * (trial % 4),
          0x1000ULL + trial);  // d = 3 needs even n
      const auto sched = protocol::random_systolic_schedule(
          g, 1 + trial % 5, mode, rng);
      const auto draft = synth::ScheduleDraft::from_schedule(sched);
      const auto cs =
          protocol::CompiledSchedule::compile(draft.to_schedule(), &g);
      for (const int cap : {3, 512}) {
        for (const bool audit : {false, true}) {
          auto opts = objective_options(synth::Goal::kGossip, audit, cap);
          expect_objectives_equal(de.evaluate(draft, opts),
                                  synth::evaluate(cs, opts),
                                  "gossip trial=" + std::to_string(trial) +
                                      " cap=" + std::to_string(cap));
        }
        auto opts = objective_options(synth::Goal::kBroadcast, false, cap);
        opts.source = trial % g.vertex_count();
        expect_objectives_equal(de.evaluate(draft, opts),
                                synth::evaluate(cs, opts),
                                "broadcast trial=" + std::to_string(trial) +
                                    " cap=" + std::to_string(cap));
        // The source range check guards both evaluators alike.
        for (const int bad : {-1, g.vertex_count()}) {
          opts.source = bad;
          EXPECT_THROW((void)de.evaluate(draft, opts), std::invalid_argument)
              << "source=" << bad;
          EXPECT_THROW((void)synth::evaluate(cs, opts), std::invalid_argument)
              << "source=" << bad;
        }
      }
    }
  }
}

TEST(Synth, EvaluateBatchMatchesEvaluate) {
  std::vector<protocol::CompiledSchedule> compiled;
  for (const CorpusMember& m : corpus())
    compiled.push_back(member_schedule(m, protocol::Mode::kFullDuplex));
  std::vector<const protocol::CompiledSchedule*> ptrs;
  for (const auto& cs : compiled) ptrs.push_back(&cs);
  const auto opts = objective_options(synth::Goal::kGossip, true);
  const auto batch = synth::evaluate_batch(ptrs, opts);
  ASSERT_EQ(batch.size(), compiled.size());
  for (std::size_t i = 0; i < compiled.size(); ++i)
    expect_objectives_equal(batch[i], synth::evaluate(compiled[i], opts),
                            "member " + std::to_string(i));
}

// -------------------------------------------------- per-kernel end-to-end

// Every supported kernel must produce the same times/objectives as the
// scalar one on whole runs — the in-process version of the CI matrix's
// byte-identity gate.
TEST(Kernels, EndToEndResultsIdenticalAcrossKernels) {
  constexpr int kMax = 512;
  struct Baseline {
    int gossip;
    std::vector<int> reach;
    synth::Objective objective;
  };
  std::vector<protocol::CompiledSchedule> compiled;
  for (const CorpusMember& m : corpus())
    compiled.push_back(member_schedule(m, protocol::Mode::kHalfDuplex));
  const auto opts = objective_options(synth::Goal::kGossip, true);

  // Broadcast completion time from every source.
  const auto reach_all = [&](const protocol::CompiledSchedule& cs) {
    std::vector<int> reach;
    for (int v = 0; v < cs.n(); ++v)
      reach.push_back(broadcast_time(cs, v, kMax));
    return reach;
  };
  std::vector<Baseline> base;
  {
    const ScopedKernel scoped(KernelKind::kScalar);
    for (const auto& cs : compiled)
      base.push_back({gossip_time(cs, kMax), reach_all(cs),
                      synth::evaluate(cs, opts)});
  }
  for (const KernelKind kind : supported_kernels()) {
    const ScopedKernel scoped(kind);
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      EXPECT_EQ(gossip_time(compiled[i], kMax), base[i].gossip)
          << kernel_name(kind) << " member " << i;
      EXPECT_EQ(reach_all(compiled[i]), base[i].reach)
          << kernel_name(kind) << " member " << i;
      expect_objectives_equal(
          synth::evaluate(compiled[i], opts), base[i].objective,
          std::string(kernel_name(kind)) + " member " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace sysgo::simulator
