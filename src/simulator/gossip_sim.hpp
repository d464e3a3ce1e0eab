// Round-synchronous gossip simulator.
//
// Executes a protocol or systolic schedule against the whispering model:
// when arc (x, y) is active at round i, y additionally learns everything x
// knew at the beginning of round i.  Within a round the active arcs form a
// matching, so sequential arc processing is order-independent (full-duplex
// pairs are merged symmetrically).
#pragma once

#include <vector>

#include "protocol/compiled.hpp"
#include "protocol/protocol.hpp"
#include "protocol/systolic.hpp"
#include "simulator/knowledge.hpp"

namespace sysgo::simulator {

struct GossipOptions {
  /// Compiled gossip_time: run column slices on the process pool.  The
  /// KnowledgeMatrix paths: multithread the merges within a round.
  bool parallel = false;
  bool track_completion = false;  // record per-vertex completion rounds
};

struct GossipResult {
  bool complete = false;  // every vertex learned every item
  int rounds_executed = 0;
  /// First round after which all vertices were complete (only when
  /// complete == true).
  int completion_round = 0;
  /// Per-vertex completion rounds (filled when track_completion).
  std::vector<int> vertex_completion;
  /// Final knowledge counts per vertex.
  std::vector<int> final_counts;
};

/// Apply one round to the knowledge state.
void apply_round(KnowledgeMatrix& know, const protocol::Round& round,
                 protocol::Mode mode, bool parallel = false);

/// Apply stored round r of a compiled schedule: a branch-light walk of the
/// round's flat spans — half-duplex merges along the contiguous arc span,
/// full-duplex along the tail < head pair list (no per-pair direction
/// filtering, no per-round heap hop).
void apply_round(KnowledgeMatrix& know, const protocol::CompiledSchedule& cs,
                 int r, bool parallel = false);

/// Run a finite protocol to its end (or early-exit once complete).
[[nodiscard]] GossipResult run_gossip(const protocol::Protocol& p,
                                      const GossipOptions& opts = {});

/// Compiled execution of a finite protocol's rounds, once through.
/// Result-identical to run_gossip on the source protocol.  Throws
/// std::invalid_argument for a periodic compiled schedule (one period is
/// not a run; use gossip_time).
[[nodiscard]] GossipResult run_gossip(const protocol::CompiledSchedule& cs,
                                      const GossipOptions& opts = {});

/// Run a systolic schedule until gossip completes or max_rounds elapse.
/// Returns the completion round (gossip time), or -1 when incomplete.
[[nodiscard]] int gossip_time(const protocol::SystolicSchedule& sched,
                              int max_rounds, const GossipOptions& opts = {});

/// Compiled execution on the slice-major engine (simulator/batch.hpp):
/// periodic schedules wrap their stored rounds, finite protocols stop at
/// round_count().  Result-identical to the legacy path.
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts = {});

}  // namespace sysgo::simulator
