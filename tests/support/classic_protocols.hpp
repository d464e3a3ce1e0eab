// Hand-crafted systolic schedules for the classic topologies — the
// upper-bound side of the comparison benches.  All are small-period
// ("traffic-light") protocols in the style of [8, 11, 20]:
//
// * path / cycle   — alternate the even/odd edge classes, sweeping
//                    information in both directions;
// * grid / torus   — dimension-interleaved variant of the same idea;
// * hypercube      — dimension-order exchange (full-duplex gossip in
//                    exactly D rounds, the optimum);
// * complete graph — hypercube pairing embedded in K_{2^k}.
//
// Test fixture; no library code calls it.  Tests and benches feed these
// schedules to the simulator, the audit and the sweep engine.
#pragma once

#include "protocol/systolic.hpp"

namespace sysgo::protocol {

/// 4-periodic (half-duplex) / 2-periodic (full-duplex) schedule for P_n.
[[nodiscard]] SystolicSchedule path_schedule(int n, Mode mode);

/// Cycle C_n: parity classes when n is even (period 4/2); a third color
/// class when n is odd (period 6/3).
[[nodiscard]] SystolicSchedule cycle_schedule(int n, Mode mode);

/// rows x cols grid: row phases then column phases (period 8/4).
[[nodiscard]] SystolicSchedule grid_schedule(int rows, int cols, Mode mode);

/// Hypercube Q_D dimension-order exchange; full-duplex period D completes
/// gossip in D rounds; half-duplex period 2D alternates arc directions.
[[nodiscard]] SystolicSchedule hypercube_schedule(int D, Mode mode);

/// K_n with n = 2^k: hypercube pairing i <-> i xor 2^b embedded in the
/// complete graph (full-duplex gossip in log2(n) rounds).
[[nodiscard]] SystolicSchedule complete_power2_schedule(int n, Mode mode);

}  // namespace sysgo::protocol
