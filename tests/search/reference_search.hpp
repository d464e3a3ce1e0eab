// Reference exact search — a test oracle, compiled into the search test
// binary only.
//
// Plain breadth-first search over raw knowledge rows: no symmetry
// reduction, no canonical states, and every matching of the network —
// found by brute force over subsets of its links, maximal or not — as a
// move.  Each round reads a copy of the state at its start (snapshot
// semantics), as the whispering model is defined.  It shares no code with
// src/search (in particular not search::maximal_matchings), so agreeing
// with search::solve checks the symmetry reduction, the restriction to
// maximal matchings and the batched frontier at once.  Small n only: the
// raw state space is searched whole.  No library code calls it.
#pragma once

#include "graph/digraph.hpp"
#include "protocol/protocol.hpp"

namespace sysgo::search {

/// Minimum gossip time of g in `mode` (n <= 8), or -1 when gossip cannot
/// complete within max_rounds.
[[nodiscard]] int reference_gossip_rounds(const graph::Digraph& g,
                                          protocol::Mode mode,
                                          int max_rounds = 64);

/// Minimum time for `source`'s item to reach every vertex (n <= 8), or -1
/// when it cannot within max_rounds.
[[nodiscard]] int reference_broadcast_rounds(const graph::Digraph& g,
                                             protocol::Mode mode, int source,
                                             int max_rounds = 64);

}  // namespace sysgo::search
