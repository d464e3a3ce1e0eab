// Broadcasting lower bounds for bounded-degree networks [22, 2].
//
// b(G) >= c(d)·log2(n) where d is the max out-degree (directed) or degree−1
// (undirected), and c(d) = 1/log2(x_d) with x_d the unique root > 1 of
//   x^d = x^{d−1} + x^{d−2} + … + 1.
// c(2) = 1.4404, c(3) = 1.1374, c(4) = 1.0562, c(d) ≈ 1 + log2(e)/(2d).
//
// The paper's Section 6 observation — the general full-duplex s-systolic
// gossip bound coincides with the broadcasting bound — becomes the exact
// identity e_general(s, full) = c(s−1), which the test suite pins.
//
// Test oracle; no library code calls it.  An independent root-finding
// check of the production e(s, full) (core/bounds.hpp).
#pragma once

namespace sysgo::core {

/// The growth root x_d (in (1, 2]).
[[nodiscard]] double broadcast_growth_root(int d);

/// c(d) = 1/log2(x_d); requires d >= 1.  c(1) = 1 (binary doubling... d = 1
/// gives x = 1 degenerate), so d >= 2 in practice.
[[nodiscard]] double broadcast_coefficient(int d);

}  // namespace sysgo::core
