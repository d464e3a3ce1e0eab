// The dimensional gossip schedule on Knödel graphs: round k activates the
// dimension-k perfect matching.  On W(⌊log2 n⌋, n) the ascending order
// completes full-duplex gossip in ⌈log2 n⌉ rounds when n is a power of two
// — the optimum any network can achieve.
//
// Test fixture; no library code calls it.
#pragma once

#include "protocol/systolic.hpp"

namespace sysgo::protocol {

/// Period-Δ (full-duplex) / 2Δ (half-duplex) dimensional schedule on
/// W(delta, n).
[[nodiscard]] SystolicSchedule knodel_schedule(int delta, int n, Mode mode);

}  // namespace sysgo::protocol
