// Generic systolic schedule builders.
//
// * edge_coloring_schedule — the Liestman–Richards "periodic" construction:
//   a proper edge coloring induces one (full-duplex) or two (half-duplex)
//   rounds per color class.
// * random_systolic_schedule / random_protocol — randomized matchings, used
//   by property tests and as weak baselines.
#pragma once

#include "graph/digraph.hpp"
#include "protocol/systolic.hpp"
#include "util/rng.hpp"

namespace sysgo::protocol {

/// Periodic schedule from a greedy proper edge coloring of g's undirected
/// support.  Half-duplex: period = 2 · #colors (each color forward then
/// backward).  Full-duplex: period = #colors.  Every round comes out
/// canonical (sorted by tail, no duplicates), in O(m + n + #rounds).
///
/// Because the coloring runs on the undirected support, schedules for
/// non-symmetric digraphs activate reversed arcs that g itself lacks (the
/// backward rounds / the opposite full-duplex directions); validate or
/// compile such schedules without a graph, or against the support.
[[nodiscard]] SystolicSchedule edge_coloring_schedule(const graph::Digraph& g,
                                                      Mode mode);

/// Random s-periodic schedule: each period round is a greedy matching over
/// a shuffled arc pool of g.  Always structurally valid; completeness is
/// whatever it is (property tests only).
[[nodiscard]] SystolicSchedule random_systolic_schedule(const graph::Digraph& g,
                                                        int s, Mode mode,
                                                        util::Rng& rng);

/// Random non-periodic protocol of t rounds.
[[nodiscard]] Protocol random_protocol(const graph::Digraph& g, int t, Mode mode,
                                       util::Rng& rng);

}  // namespace sysgo::protocol
