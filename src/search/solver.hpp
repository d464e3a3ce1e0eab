// Exact optimal-protocol search: symmetry-reduced, parallel.
//
// Computes the exact gossip or broadcast complexity of a concrete network
// (n <= 12) in either duplex mode by searching the knowledge-state space
// whose moves are the maximal matchings of the network (matchings.hpp;
// restricting to maximal rounds is lossless because knowledge is
// monotone).  States are stored canonically under (a subgroup of) the
// network's automorphism group (symmetry.hpp), dividing the reachable
// space by up to |Aut(G)|; that is what makes instances up to n = 12
// tractable.  Alongside the optimum the solver reports an admissible lower
// bound at the root — the per-instance forms of the classic analytic
// bounds: the distance deficit (every unknown item u must still travel
// dist(u, v)) and the information-doubling deficit (a row at most doubles
// per round, the growth argument behind the broadcasting bound).
//
// One search per problem.  Gossip runs a frontier-parallel BFS on the
// persistent util/thread_pool; its results — rounds and states_explored —
// are identical for every thread count: the frontier is sorted between
// layers, budget/goal checks happen only at deterministic batch barriers,
// and set membership is order-independent.  Broadcast, whose masks number
// at most 2^n, runs the same layered BFS serially.  A witness comes from
// the same run: the layers are kept and the goal is traced back through
// them, so asking for one changes no count and no stopping point.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "protocol/protocol.hpp"

namespace sysgo::search {

enum class Problem {
  kGossip,     // every vertex learns every item
  kBroadcast,  // every vertex learns the source's item
};

struct SolveOptions {
  Problem problem = Problem::kGossip;
  protocol::Mode mode = protocol::Mode::kHalfDuplex;
  /// Broadcast source vertex (ignored by gossip).
  int source = 0;
  int max_rounds = 64;
  /// Abort with budget_exhausted once this many canonical states are
  /// stored (checked at batch barriers, so the last batch may overshoot).
  std::size_t max_states = 20'000'000;
  /// Like engine::SweepOptions::threads: 0 runs BFS batches on the
  /// process-wide pool, 1 is serial, k > 1 spawns a private pool of k
  /// lanes FOR THIS CALL (prefer 0 when solving many instances — the
  /// process-wide pool is persistent).  Results do not depend on this
  /// value.
  unsigned threads = 0;
  /// Store states canonically under the automorphism group (subgroup
  /// capped at max_group_order; identity-only beyond the cap).
  bool use_symmetry = true;
  std::size_t max_group_order = 4096;
  /// Reconstruct one optimal protocol: keeps every BFS layer (memory
  /// grows by the sum of the frontiers) and traces the goal back.
  bool want_witness = false;
};

struct SolveResult {
  /// Exact optimum, or -1 when unreachable within max_rounds / budget.
  int rounds = -1;
  /// Canonical states stored.
  std::size_t states_explored = 0;
  bool budget_exhausted = false;
  /// Order of the automorphism subgroup used for canonicalization (1 when
  /// symmetry is off or the group exceeded the cap).
  std::size_t group_order = 1;
  /// False when Aut(G) exceeded max_group_order and the search fell back
  /// to identity-only canonicalization.
  bool group_complete = true;
  /// Admissible lower bound at the initial state (distance + doubling
  /// deficits); rounds == root_lower_bound certifies the analytic bound
  /// tight on this instance.
  int root_lower_bound = 0;
  /// One optimal protocol when want_witness was set (empty otherwise;
  /// rounds mapped back to original vertex labels).
  std::vector<protocol::Round> witness;
};

/// Exact optimum for g (n <= kMaxVertices = 12; throws std::invalid_argument
/// beyond, or for a broadcast source out of range).
[[nodiscard]] SolveResult solve(const graph::Digraph& g,
                                const SolveOptions& opts = {});

/// Check a recorded witness through the shared compiled execution path: the
/// witness must have exactly res.rounds rounds, compile against g (every
/// round a matching in opts.mode, every arc present in the network), and
/// its compiled execution must achieve the problem's goal in exactly
/// res.rounds rounds (gossip: all-pairs completion; broadcast: opts.source's
/// item everywhere).  False when any of that fails or no witness was
/// recorded.
[[nodiscard]] bool witness_valid(const graph::Digraph& g,
                                 const SolveOptions& opts,
                                 const SolveResult& res);

}  // namespace sysgo::search
