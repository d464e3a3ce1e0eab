// Reference gossip run — a test oracle, compiled into the simulator test
// binary only.
//
// A plain uint64_t-row simulation of the whispering model with snapshot
// semantics: every round reads a copy of the state at the start of the
// round, exactly as the model is defined (arc (x, y) active in round i
// gives y everything x knew at the start of round i).  Unlike the
// slice-major engine it neither splits the item columns nor merges in
// place, so it does not lean on a round's arcs forming a matching, and it
// shares no code with src/simulator.  No library code calls it.
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/compiled.hpp"
#include "protocol/protocol.hpp"

namespace sysgo::simulator {

struct ReferenceOutcome {
  int rounds = -1;            // completion round, -1 when the cap hits first
  std::int64_t coverage = 0;  // items known summed over all vertices
};

/// Gossip on n vertices over `rounds` (a full-duplex link is its two
/// opposite arcs) from round 0 for up to max_rounds rounds: periodic runs
/// wrap, finite runs stop after the last stored round.
[[nodiscard]] ReferenceOutcome reference_gossip(
    int n, const std::vector<protocol::Round>& rounds, bool periodic,
    int max_rounds);

/// The compiled schedule's stored rounds, read through round_arcs.
[[nodiscard]] ReferenceOutcome reference_gossip(
    const protocol::CompiledSchedule& cs, int max_rounds);

}  // namespace sysgo::simulator
