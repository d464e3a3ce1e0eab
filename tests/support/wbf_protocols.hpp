// Level-synchronized systolic schedules for the Wrapped Butterfly — the
// paper's headline network.  At each round all vertices of the active level
// send simultaneously; choosing a fixed digit offset makes the round a
// perfect matching (level l words map bijectively to level l−1 words).
// Cycling levels and offsets yields a (D·d)-periodic schedule that sweeps
// items around the wrap.
//
// Test fixture; no library code calls it.
#pragma once

#include "protocol/systolic.hpp"

namespace sysgo::protocol {

/// Directed WBF→(d, D) schedule: period D·d rounds; round (l, a) activates
/// the perfect matching "level ℓ -> ℓ−1, rewrite the rung digit by +a".
/// Half-duplex by construction (arcs are one-directional).
[[nodiscard]] SystolicSchedule wbf_directed_schedule(int d, int D);

/// Undirected WBF(d, D) variant: the same matchings alternated with their
/// reverses (period 2·D·d, half-duplex) so items can also travel up-level.
[[nodiscard]] SystolicSchedule wbf_schedule(int d, int D, Mode mode);

}  // namespace sysgo::protocol
