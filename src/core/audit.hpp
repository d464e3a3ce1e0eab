// Protocol auditor: a certified lower bound for a *concrete* systolic
// schedule via Theorem 4.1.
//
// For each vertex x the schedule fixes the per-period activation pattern;
// Lemma 4.2/4.3 bound the local norm from the per-period left/right
// activation totals (half-duplex), or from cyclic gap sums and
// ‖A‖₂ <= √(‖A‖₁·‖A‖∞) (full-duplex).  The largest λ* with
// max_x bound_x(λ*) <= 1 then certifies (Theorem 4.1) that gossip under
// this schedule needs at least theorem41_round_bound(λ*, n) rounds.
//
// Because the audit uses each vertex's actual totals (L_x, R_x) rather than
// the worst-case ⌈s/2⌉/⌊s/2⌋ split, it can certify strictly more than the
// general e(s)·log n bound — the per-protocol refinement the paper's
// technique enables.
//
// Cost: the bound depends on a vertex only through its per-period role
// sequence, so the audit walks the role tables once to group vertices into
// activation classes (a handful for the paper's families, not growing with
// n) and then does O(classes) work per λ — the bisection for λ* and the
// worst vertex at λ*.
#pragma once

#include <vector>

#include "core/bounds.hpp"
#include "protocol/compiled.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::core {

/// Per-vertex, per-period activation summary.
struct VertexActivity {
  int left_rounds = 0;   // rounds of the period with an incoming activation
  int right_rounds = 0;  // rounds with an outgoing activation
  std::vector<int> active_rounds;  // full-duplex: rounds with any activation
};

/// Summaries for every vertex of a compiled period, read straight off the
/// per-round role tables.
[[nodiscard]] std::vector<VertexActivity> vertex_activities(
    const protocol::CompiledSchedule& cs);

/// The certified per-vertex local-norm bound at λ: half-duplex uses
/// Lemma 4.3 with the vertex's (L, R) totals; full-duplex uses cyclic gap
/// sums with ‖A‖₂ <= √(‖A‖₁·‖A‖∞).  s is the schedule period.
[[nodiscard]] double vertex_norm_bound(const VertexActivity& activity, int s,
                                       double lambda, protocol::Mode mode);

/// Certified upper bound on ‖M(λ)‖ for this schedule (max over vertices of
/// the per-vertex local-norm bound, evaluated once per activation class).
/// Increasing in λ.
[[nodiscard]] double audit_norm_bound(const protocol::CompiledSchedule& cs,
                                      double lambda);

struct AuditResult {
  double lambda_star = 0.0;  // largest λ with certified ‖M(λ)‖ <= 1
  double e_coeff = 0.0;      // 1/log2(1/λ*)
  int round_lower_bound = 0; // Theorem 4.1 round count at λ*
  int worst_vertex = -1;     // lowest-index vertex attaining the bound at λ*
};

/// Run the audit.  The bound holds for *any* execution length of this
/// schedule that achieves gossip on an n-vertex network.  The compiled
/// overload builds the activation classes once and evaluates each λ of the
/// bisection over them, and requires a periodic compiled schedule (as do
/// the other compiled audit entry points); the schedule overload compiles
/// first.
[[nodiscard]] AuditResult audit_schedule(const protocol::CompiledSchedule& cs);
[[nodiscard]] AuditResult audit_schedule(const protocol::SystolicSchedule& sched);

}  // namespace sysgo::core
