// Systolic gossip on complete d-ary trees — the family for which [8] gives
// optimal systolic protocols.  The schedule activates one edge-color class
// per round; trees are class-1 graphs, so Δ = d+1 colors suffice, giving
// period d+1 (full-duplex) or 2(d+1) (half-duplex).
//
// Test fixture; no library code calls it.
#pragma once

#include "protocol/systolic.hpp"

namespace sysgo::protocol {

/// Proper (d+1)-edge-coloring schedule for the complete d-ary tree of the
/// given height (vertex layout as topology::complete_tree).
[[nodiscard]] SystolicSchedule tree_schedule(int d, int height, Mode mode);

}  // namespace sysgo::protocol
