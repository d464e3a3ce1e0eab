// Protocol auditing walkthrough: author a custom systolic protocol by hand,
// validate it, read its per-vertex activity and norm bound, and derive a
// certified lower bound — the paper's machinery applied as a tool.
//
//   $ ./audit_protocol
#include <cstdio>

#include "core/audit.hpp"
#include "protocol/systolic.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"

int main() {
  using namespace sysgo;
  using protocol::Mode;

  // A hand-written 4-systolic half-duplex protocol on the 8-cycle:
  // alternate even/odd edge classes clockwise, then counter-clockwise.
  const int n = 8;
  protocol::SystolicSchedule sched;
  sched.n = n;
  sched.mode = Mode::kHalfDuplex;
  protocol::Round cw_even, cw_odd, ccw_even, ccw_odd;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    ((i % 2 == 0) ? cw_even : cw_odd).arcs.push_back({i, j});
    ((i % 2 == 0) ? ccw_even : ccw_odd).arcs.push_back({j, i});
  }
  sched.period = {cw_even, cw_odd, ccw_even, ccw_odd};

  const auto g = topology::cycle(n);
  const auto valid = protocol::validate_structure(sched, &g);
  std::printf("validation: %s\n", valid.ok ? "ok" : valid.message.c_str());

  // Compile once: the audit reads the validated flat form.
  const auto compiled = protocol::CompiledSchedule::compile(sched);

  // Per-vertex activity: every cycle vertex relays with L = R = 2 per period.
  const auto acts = core::vertex_activities(compiled);
  std::printf("vertex 0 activity per period: %d left rounds, %d right rounds\n",
              acts[0].left_rounds, acts[0].right_rounds);

  // The audit's certified bound on ||M(lambda)||: it grows with lambda,
  // and lambda* is where it reaches 1.
  for (double lam : {0.4, 0.55, 0.68}) {
    std::printf("lambda = %.2f: audit bound on ||M(lambda)|| = %.4f\n", lam,
                core::audit_norm_bound(compiled, lam));
  }

  // The certificate.
  const auto audit = core::audit_schedule(compiled);
  const int measured = simulator::gossip_time(compiled, 1000);
  std::printf("certified lower bound: %d rounds (lambda* = %.4f, e = %.4f)\n",
              audit.round_lower_bound, audit.lambda_star, audit.e_coeff);
  std::printf("measured gossip time:  %d rounds\n", measured);
  return 0;
}
