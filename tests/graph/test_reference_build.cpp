// The schedule build against its sort-based reference (reference_build.hpp):
// CSR rows, Kautz arcs, the undirected edge list, the greedy coloring, the
// assembled rounds and the compiled tables must all be identical, and the
// compile must reject exactly what the reference rejects, with the same
// message.
#include "reference_build.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "engine/scenario.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace sysgo::graph {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;
using protocol::SystolicSchedule;

std::vector<int> row(std::span<const int> s) { return {s.begin(), s.end()}; }

std::vector<int> row(const std::vector<int>& adj,
                     const std::vector<std::size_t>& offsets, int v) {
  return {adj.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
          adj.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1])};
}

void expect_same_csr(const Digraph& g, const reference::Csr& ref,
                     const std::string& what) {
  ASSERT_EQ(std::vector<Arc>(g.arcs().begin(), g.arcs().end()), ref.arcs) << what;
  for (int v = 0; v < g.vertex_count(); ++v) {
    ASSERT_EQ(row(g.out_neighbors(v)), row(ref.out_adj, ref.out_offsets, v))
        << what << " out-row " << v;
    ASSERT_EQ(row(g.in_neighbors(v)), row(ref.in_adj, ref.in_offsets, v))
        << what << " in-row " << v;
  }
}

void expect_same_coloring(const EdgeColoring& got, const EdgeColoring& want,
                          const std::string& what) {
  ASSERT_EQ(got.edges, want.edges) << what;
  ASSERT_EQ(got.colors, want.colors) << what;
  ASSERT_EQ(got.color_count, want.color_count) << what;
}

void expect_same_compiled(const CompiledSchedule& cs,
                          const reference::Compiled& ref,
                          const std::string& what) {
  const auto rounds = static_cast<int>(ref.arc_begin.size()) - 1;
  ASSERT_EQ(cs.round_count(), rounds) << what;
  ASSERT_EQ(cs.arc_total(), ref.arcs.size()) << what;
  const auto n = static_cast<std::size_t>(cs.n());
  for (int r = 0; r < rounds; ++r) {
    const auto arcs = cs.round_arcs(r);
    ASSERT_TRUE(std::equal(arcs.begin(), arcs.end(), ref.arcs.begin() + ref.arc_begin[r],
                           ref.arcs.begin() + ref.arc_begin[r + 1]))
        << what << " round " << r;
    if (cs.mode() == Mode::kFullDuplex) {
      const auto pairs = cs.round_pairs(r);
      ASSERT_TRUE(std::equal(pairs.begin(), pairs.end(),
                             ref.pairs.begin() + ref.pair_begin[r],
                             ref.pairs.begin() + ref.pair_begin[r + 1]))
          << what << " pairs of round " << r;
    }
    const auto partners = cs.partners(r);
    const auto roles = cs.roles(r);
    ASSERT_TRUE(std::equal(partners.begin(), partners.end(),
                           ref.partner.begin() + static_cast<std::ptrdiff_t>(r * n)))
        << what << " partners of round " << r;
    ASSERT_TRUE(std::equal(roles.begin(), roles.end(),
                           ref.role.begin() + static_cast<std::ptrdiff_t>(r * n)))
        << what << " roles of round " << r;
  }
}

/// The compile's outcome: its tables, or the message it threw.
struct Outcome {
  std::optional<CompiledSchedule> compiled;
  std::optional<reference::Compiled> reference;
  std::string error, reference_error;
};

Outcome compile_both(const SystolicSchedule& s, const Digraph* g) {
  Outcome o;
  try {
    o.compiled = CompiledSchedule::compile(s, g);
  } catch (const std::invalid_argument& e) {
    o.error = e.what();
  }
  try {
    o.reference = reference::compile(s, g);
  } catch (const std::invalid_argument& e) {
    o.reference_error = e.what();
  }
  return o;
}

void expect_same_compile(const SystolicSchedule& s, const Digraph* g,
                         const std::string& what) {
  const Outcome o = compile_both(s, g);
  ASSERT_EQ(o.error, o.reference_error) << what;
  ASSERT_EQ(o.compiled.has_value(), o.reference.has_value()) << what;
  if (o.compiled) expect_same_compiled(*o.compiled, *o.reference, what);
}

/// Every step of the build of g, against the reference.
void expect_same_build(const Digraph& g, const std::string& what) {
  const int n = g.vertex_count();
  expect_same_csr(g, reference::finalize(n, {g.arcs().begin(), g.arcs().end()}), what);
  ASSERT_EQ(g.undirected_edges(), reference::undirected_edges(g.arcs())) << what;
  expect_same_coloring(greedy_edge_coloring(g), reference::greedy_edge_coloring(g),
                       what);
  const bool symmetric = g.is_symmetric();
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const std::string m = what + (mode == Mode::kFullDuplex ? " full" : " half");
    const SystolicSchedule s = protocol::edge_coloring_schedule(g, mode);
    ASSERT_EQ(s.period, reference::edge_coloring_schedule(g, mode).period) << m;
    expect_same_compile(s, symmetric ? &g : nullptr, m);
    // A directed member's reversed arcs are absent from it: both reject.
    if (!symmetric) expect_same_compile(s, &g, m + " against the digraph");
  }
}

TEST(ReferenceBuild, EveryRegistryFamilyMatchesTheReference) {
  const std::vector<int> dims = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 24, 70};
  int members = 0;
  for (topology::Family f : engine::registry_families()) {
    const bool random = f == topology::Family::kRandomRegular ||
                        f == topology::Family::kRandomGnp;
    for (int d = 2; d <= 4; ++d)
      for (int D : dims) {
        std::int64_t order = 0;
        try {
          order = topology::family_order(f, d, D);
        } catch (const std::invalid_argument&) {
          continue;
        }
        if (order > 5000) continue;
        for (std::uint64_t seed : random ? std::vector<std::uint64_t>{1, 2, 3}
                                         : std::vector<std::uint64_t>{1}) {
          std::optional<Digraph> g;
          try {
            g = topology::make_family(f, d, D, seed);
          } catch (const std::exception&) {
            continue;  // e.g. an odd-order Knödel member, a sparse gnp
          }
          expect_same_build(*g, topology::family_name(f, d) + " D=" +
                                    std::to_string(D) + " seed=" +
                                    std::to_string(seed));
          ++members;
        }
      }
  }
  EXPECT_GE(members, 150);
}

TEST(ReferenceBuild, KautzArcsMatchTheWordEnumeration) {
  for (int d = 2; d <= 4; ++d)
    for (int D = 1; D <= 6; ++D) {
      const Digraph g = topology::kautz_directed(d, D);
      const Digraph ref = reference::kautz_directed(d, D);
      ASSERT_EQ(g.vertex_count(), ref.vertex_count()) << d << "," << D;
      ASSERT_TRUE(std::equal(g.arcs().begin(), g.arcs().end(), ref.arcs().begin(),
                             ref.arcs().end()))
          << "d=" << d << " D=" << D;
    }
}

TEST(ReferenceBuild, CompleteGraphsUseSeveralMaskWords) {
  // K70's first-fit coloring needs more than 64 colors.
  const Digraph g = topology::complete(70);
  const EdgeColoring c = greedy_edge_coloring(g);
  EXPECT_GT(c.color_count, 64);
  expect_same_coloring(c, reference::greedy_edge_coloring(g), "K70");
}

TEST(ReferenceBuild, ShuffledArcListsWithDuplicatesAndLoops) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + trial * 3;
    std::vector<Arc> arcs;
    for (int i = 0; i < 4 * n; ++i)
      arcs.push_back({static_cast<int>(rng.engine()() % static_cast<unsigned>(n)),
                      static_cast<int>(rng.engine()() % static_cast<unsigned>(n))});
    arcs.insert(arcs.end(), arcs.begin(), arcs.begin() + n);  // duplicates
    std::shuffle(arcs.begin(), arcs.end(), rng.engine());
    const Digraph g(n, arcs);
    const std::string what = "trial " + std::to_string(trial);
    expect_same_csr(g, reference::finalize(n, arcs), what);
    ASSERT_EQ(g.undirected_edges(), reference::undirected_edges(arcs)) << what;
    expect_same_coloring(greedy_edge_coloring(g), reference::greedy_edge_coloring(g),
                         what);
    std::vector<Arc> both = arcs;
    for (const Arc& a : arcs) both.push_back(reversed(a));
    expect_same_csr(g.symmetric_closure(), reference::finalize(n, both), what);
    std::vector<Arc> rev;
    for (const Arc& a : arcs) rev.push_back(reversed(a));
    expect_same_csr(g.reverse(), reference::finalize(n, rev), what);
  }
}

TEST(ReferenceBuild, OutOfRangeArcThrowsLikeTheReference) {
  const std::vector<Arc> arcs = {{0, 1}, {1, 3}};
  std::string got, want;
  try {
    (void)Digraph(3, arcs);
  } catch (const std::out_of_range& e) {
    got = e.what();
  }
  try {
    (void)reference::finalize(3, arcs);
  } catch (const std::out_of_range& e) {
    want = e.what();
  }
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, want);
}

// Malformed rounds: the linear-time checks reject exactly what the
// reference compile rejects, with the same message, in both modes.
TEST(ReferenceBuild, CompileRejectionCorpus) {
  const Digraph path = topology::path(6);
  struct Case {
    std::string name;
    std::vector<std::vector<Arc>> rounds;
    bool against_path = false;
  };
  const std::vector<Case> corpus = {
      {"self-loop", {{{1, 1}}}},
      {"self-loop beside a pair", {{{0, 1}, {1, 0}, {2, 2}}}},
      {"endpoint above n", {{{0, 6}, {6, 0}}}},
      {"negative endpoint", {{{-1, 2}}}},
      {"range error after a matching error", {{{0, 1}, {1, 2}, {2, 1}, {1, 0}, {3, 9}}}},
      {"vertex in two arcs", {{{0, 1}, {1, 2}}}},
      {"vertex in two pairs", {{{0, 1}, {1, 0}, {1, 2}, {2, 1}}}},
      {"missing opposite arc", {{{0, 1}}}},
      {"missing opposite arc among pairs", {{{2, 3}, {3, 2}, {4, 5}}}},
      {"two partners for one vertex", {{{0, 1}, {1, 0}, {0, 2}, {2, 0}}}},
      {"two partners, half", {{{0, 1}, {2, 0}}}},
      {"arc absent from g", {{{0, 1}, {1, 0}}, {{0, 3}, {3, 0}}}, true},
      {"absent arc reported before a matching error", {{{1, 2}, {2, 3}, {0, 5}}}, true},
      {"duplicated arc", {{{0, 1}, {1, 0}, {0, 1}}}},
      {"duplicated pair", {{{0, 1}, {1, 0}, {1, 0}, {0, 1}}}},
      {"unsorted round", {{{4, 5}, {5, 4}, {1, 0}, {0, 1}}, {{2, 3}, {3, 2}}}},
      {"error in a later round", {{{0, 1}, {1, 0}}, {{2, 3}, {3, 2}, {3, 4}}}},
      {"empty round", {{}}},
  };
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex})
    for (const Case& c : corpus) {
      SystolicSchedule s;
      s.n = 6;
      s.mode = mode;
      for (const auto& arcs : c.rounds) s.period.push_back({arcs});
      const std::string what =
          c.name + (mode == Mode::kFullDuplex ? " (full)" : " (half)");
      expect_same_compile(s, c.against_path ? &path : nullptr, what);
    }

  // The cases the corpus exists for do throw, and duplicates are repaired
  // only in full duplex.
  const auto outcome = [](std::vector<Arc> arcs, Mode mode) {
    SystolicSchedule s;
    s.n = 6;
    s.mode = mode;
    s.period.push_back({std::move(arcs)});
    return compile_both(s, nullptr);
  };
  EXPECT_EQ(outcome({{0, 1}, {1, 0}, {0, 1}}, Mode::kHalfDuplex).error,
            "CompiledSchedule: round 1 is not a valid half-duplex matching");
  const Outcome dup = outcome({{0, 1}, {1, 0}, {0, 1}}, Mode::kFullDuplex);
  ASSERT_TRUE(dup.compiled.has_value()) << dup.error;
  EXPECT_EQ(dup.compiled->round_arcs(0).size(), 2u);
  EXPECT_EQ(outcome({{0, 1}}, Mode::kFullDuplex).error,
            "CompiledSchedule: round 1 is not a valid full-duplex matching");
  EXPECT_EQ(outcome({{0, 7}}, Mode::kHalfDuplex).error,
            "CompiledSchedule: round 1 activates an endpoint outside [0, n)");
}

}  // namespace
}  // namespace sysgo::graph
