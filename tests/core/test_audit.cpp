#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>

#include "linalg/polynomial.hpp"
#include "linalg/roots.hpp"
#include "protocol/builders.hpp"
#include "simulator/gossip_sim.hpp"
#include "support/classic_protocols.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace sysgo::core {
namespace {

using protocol::Mode;

TEST(Audit, VertexActivitiesOnPathSchedule) {
  // P4 half-duplex, period 4: rounds {(0,1),(2,3)}, {(1,2)}, {(1,0),(3,2)}, {(2,1)}.
  const auto acts = vertex_activities(protocol::CompiledSchedule::compile(
      protocol::path_schedule(4, Mode::kHalfDuplex)));
  ASSERT_EQ(acts.size(), 4u);
  // Endpoint 0: one in-round, one out-round per period.
  EXPECT_EQ(acts[0].left_rounds, 1);
  EXPECT_EQ(acts[0].right_rounds, 1);
  // Middle vertex 1: receives from 0 and 2, sends to 0 and 2.
  EXPECT_EQ(acts[1].left_rounds, 2);
  EXPECT_EQ(acts[1].right_rounds, 2);
}

TEST(Audit, NormBoundIncreasingInLambda) {
  const auto cs = protocol::CompiledSchedule::compile(
      protocol::cycle_schedule(8, Mode::kHalfDuplex));
  EXPECT_LT(audit_norm_bound(cs, 0.3), audit_norm_bound(cs, 0.6));
}

TEST(Audit, EvenCycleMatchesGeneralS4Bound) {
  // Even cycle edge classes give every vertex L = R = 2 over period 4, so
  // the audit certifies exactly the general e(4) = 1.8133.
  const auto sched = protocol::cycle_schedule(8, Mode::kHalfDuplex);
  ASSERT_EQ(sched.period_length(), 4);
  const auto res = audit_schedule(sched);
  EXPECT_NEAR(res.e_coeff, e_general(4, Duplex::kHalf), 1e-6);
}

TEST(Audit, PathEndpointsDoNotWeakenBound) {
  // Path endpoints have L = R = 1 (weaker local norm); the max is still the
  // middle vertices' balanced pattern.
  const auto sched = protocol::path_schedule(8, Mode::kHalfDuplex);
  const auto res = audit_schedule(sched);
  EXPECT_NEAR(res.e_coeff, e_general(4, Duplex::kHalf), 1e-6);
}

TEST(Audit, CertifiedBoundHoldsOnConcreteRuns) {
  // The audit's round bound must never exceed the measured gossip time.
  struct Case {
    protocol::SystolicSchedule sched;
    int max_rounds;
  };
  std::vector<Case> cases;
  cases.push_back({protocol::path_schedule(16, Mode::kHalfDuplex), 400});
  cases.push_back({protocol::cycle_schedule(16, Mode::kHalfDuplex), 400});
  cases.push_back({protocol::hypercube_schedule(4, Mode::kFullDuplex), 100});
  cases.push_back({protocol::grid_schedule(4, 4, Mode::kHalfDuplex), 600});
  for (auto& c : cases) {
    const int measured = simulator::gossip_time(c.sched, c.max_rounds);
    ASSERT_GT(measured, 0);
    const auto res = audit_schedule(c.sched);
    EXPECT_LE(res.round_lower_bound, measured)
        << "n=" << c.sched.n << " s=" << c.sched.period_length();
  }
}

TEST(Audit, FullDuplexHypercubeMatchesGeometricBound) {
  // Every vertex is active every round: the per-vertex cyclic gap sums equal
  // λ + ... + λ^{s-1}, i.e. the audit reproduces the Section 6 general bound.
  const int D = 4;
  const auto sched = protocol::hypercube_schedule(D, Mode::kFullDuplex);
  const auto res = audit_schedule(sched);
  EXPECT_NEAR(res.e_coeff, e_general(D, Duplex::kFull), 1e-6);
}

TEST(Audit, IdleRoundsDoNotWeakenTheCertificate) {
  // The per-vertex bound depends only on the activation *counts* per period
  // (Lemma 4.2), so spreading the same activations over a doubled period
  // with idle rounds leaves the certificate unchanged — while the general
  // e(s) bound for the doubled period would be weaker.  This is exactly the
  // audit's refinement over the worst-case split.
  const auto dense = protocol::cycle_schedule(8, Mode::kHalfDuplex);
  auto sparse = dense;
  sparse.period.clear();
  for (const auto& r : dense.period) {
    sparse.period.push_back(r);
    sparse.period.push_back({});
  }
  const auto res_dense = audit_schedule(dense);
  const auto res_sparse = audit_schedule(sparse);
  EXPECT_NEAR(res_sparse.e_coeff, res_dense.e_coeff, 1e-9);
  EXPECT_GT(res_sparse.e_coeff,
            e_general(sparse.period_length(), Duplex::kHalf) + 1e-6);
}

TEST(Audit, WorstVertexIsARelay) {
  const auto cs = protocol::CompiledSchedule::compile(
      protocol::path_schedule(8, Mode::kHalfDuplex));
  const auto res = audit_schedule(cs);
  ASSERT_GE(res.worst_vertex, 0);
  const auto acts = vertex_activities(cs);
  EXPECT_GT(acts[static_cast<std::size_t>(res.worst_vertex)].left_rounds, 0);
  EXPECT_GT(acts[static_cast<std::size_t>(res.worst_vertex)].right_rounds, 0);
}

TEST(Audit, RandomSchedulesNeverBeatTheirAudit) {
  util::Rng rng(2024);
  const auto g = topology::de_bruijn(2, 4);
  for (int trial = 0; trial < 5; ++trial) {
    const int s = 3 + trial;
    const auto sched =
        protocol::random_systolic_schedule(g, s, Mode::kHalfDuplex, rng);
    const int measured = simulator::gossip_time(sched, 4000);
    if (measured < 0) continue;  // random schedule may not gossip; skip
    const auto res = audit_schedule(sched);
    EXPECT_LE(res.round_lower_bound, measured) << "s=" << s;
  }
}

TEST(Audit, EmptyPeriodRejected) {
  protocol::SystolicSchedule sched;
  sched.n = 4;
  EXPECT_THROW((void)audit_schedule(sched), std::invalid_argument);
}

TEST(Audit, CompiledEntryPointsRejectFiniteProtocols) {
  // A finite protocol's length is not a period; auditing one (including a
  // zero-round protocol, which would certify nonsense) must fail loudly.
  protocol::Protocol p;
  p.n = 4;
  const auto empty = protocol::CompiledSchedule::compile(p);
  EXPECT_THROW((void)audit_schedule(empty), std::invalid_argument);
  p.rounds = {{{{0, 1}}}, {{{1, 2}}}};
  const auto finite = protocol::CompiledSchedule::compile(p);
  EXPECT_THROW((void)audit_schedule(finite), std::invalid_argument);
  EXPECT_THROW((void)audit_norm_bound(finite, 0.5), std::invalid_argument);
}

TEST(Audit, NonRelayingScheduleDegenerates) {
  // One-directional star: center receives but never sends onward items
  // can't relay -> norm bound ~0, certificate weak but well-defined.
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.mode = Mode::kHalfDuplex;
  sched.period = {{{{1, 0}}}, {{{2, 0}}}};  // only inbound to 0
  const auto res = audit_schedule(sched);
  EXPECT_GT(res.lambda_star, 0.9);  // norm below 1 for all λ
}

// The audit must be a pure function of the compiled representation: the
// schedule entry point (which compiles first) agrees bit for bit.
TEST(Audit, CompiledEntryPointsMatchScheduleEntryPoints) {
  const std::vector<protocol::SystolicSchedule> corpus = {
      protocol::path_schedule(6, Mode::kHalfDuplex),
      protocol::edge_coloring_schedule(topology::de_bruijn(2, 4),
                                       Mode::kHalfDuplex),
      protocol::hypercube_schedule(4, Mode::kFullDuplex),
  };
  for (const auto& sched : corpus) {
    const auto a = audit_schedule(protocol::CompiledSchedule::compile(sched));
    const auto b = audit_schedule(sched);
    EXPECT_DOUBLE_EQ(a.lambda_star, b.lambda_star);
    EXPECT_DOUBLE_EQ(a.e_coeff, b.e_coeff);
    EXPECT_EQ(a.round_lower_bound, b.round_lower_bound);
    EXPECT_EQ(a.worst_vertex, b.worst_vertex);
  }
}

TEST(Audit, AuditNormBoundRejectsBadLambda) {
  const auto cs = protocol::CompiledSchedule::compile(
      protocol::path_schedule(4, Mode::kHalfDuplex));
  EXPECT_THROW((void)audit_norm_bound(cs, 0.0), std::invalid_argument);
  EXPECT_THROW((void)audit_norm_bound(cs, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential oracle: the audit evaluates its bound once per activation
// class (vertices sharing a per-period role sequence).  The reference below
// is the straightforward per-vertex evaluation — every vertex's bound at
// every λ, powers by std::pow — and the class evaluation must reproduce it
// bit for bit, including the lowest-index worst vertex.
namespace ref {

double half_duplex_bound(const VertexActivity& act, double lambda) {
  if (act.left_rounds == 0 || act.right_rounds == 0) return 0.0;
  return lambda * std::sqrt(linalg::delay_polynomial(act.right_rounds, lambda)) *
         std::sqrt(linalg::delay_polynomial(act.left_rounds, lambda));
}

double full_duplex_bound(const VertexActivity& act, int s, double lambda) {
  const auto& rounds = act.active_rounds;
  if (rounds.size() < 2) return 0.0;
  double max_row = 0.0;
  double max_col = 0.0;
  for (std::size_t a = 0; a < rounds.size(); ++a) {
    double row = 0.0;
    double col = 0.0;
    for (std::size_t b = 0; b < rounds.size(); ++b) {
      if (a == b) continue;
      const int fwd = ((rounds[b] - rounds[a]) % s + s) % s;
      const int bwd = ((rounds[a] - rounds[b]) % s + s) % s;
      if (fwd > 0 && fwd < s) row += std::pow(lambda, fwd);
      if (bwd > 0 && bwd < s) col += std::pow(lambda, bwd);
    }
    max_row = std::max(max_row, row);
    max_col = std::max(max_col, col);
  }
  return std::sqrt(max_row * max_col);
}

double vertex_bound(const VertexActivity& act, int s, double lambda, Mode mode) {
  return mode == Mode::kFullDuplex ? full_duplex_bound(act, s, lambda)
                                   : half_duplex_bound(act, lambda);
}

double norm_bound(std::span<const VertexActivity> acts, int s, double lambda,
                  Mode mode) {
  double worst = 0.0;
  for (const auto& act : acts)
    worst = std::max(worst, vertex_bound(act, s, lambda, mode));
  return worst;
}

AuditResult audit(const protocol::CompiledSchedule& cs) {
  AuditResult res;
  const auto acts = vertex_activities(cs);
  const int s = cs.period_length();
  const Mode mode = cs.mode();
  constexpr double kLo = 1e-9;
  constexpr double kHi = 1.0 - 1e-9;
  const auto f = [&](double lam) { return norm_bound(acts, s, lam, mode) - 1.0; };
  res.lambda_star = f(kHi) <= 0.0 ? kHi : linalg::bisect(f, kLo, kHi).x;
  res.e_coeff = e_coefficient(res.lambda_star);
  res.round_lower_bound = theorem41_round_bound(res.lambda_star, cs.n());
  double worst = -1.0;
  for (std::size_t v = 0; v < acts.size(); ++v) {
    const double b = vertex_bound(acts[v], s, res.lambda_star, mode);
    if (b > worst) {
      worst = b;
      res.worst_vertex = static_cast<int>(v);
    }
  }
  return res;
}

}  // namespace ref

// Bit-equal audit results (EXPECT_EQ on doubles, not a tolerance).
void expect_matches_reference(const protocol::CompiledSchedule& cs,
                              const std::string& label) {
  SCOPED_TRACE(label);
  const auto got = audit_schedule(cs);
  const auto want = ref::audit(cs);
  EXPECT_EQ(got.lambda_star, want.lambda_star);
  EXPECT_EQ(got.e_coeff, want.e_coeff);
  EXPECT_EQ(got.round_lower_bound, want.round_lower_bound);
  EXPECT_EQ(got.worst_vertex, want.worst_vertex);
}

void expect_norm_matches_reference(const protocol::CompiledSchedule& cs,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  const auto acts = vertex_activities(cs);
  for (double lambda : {0.05, 0.3, 0.5, 0.62, 0.77, 0.95})
    EXPECT_EQ(audit_norm_bound(cs, lambda),
              ref::norm_bound(acts, cs.period_length(), lambda, cs.mode()))
        << "lambda=" << lambda;
}

TEST(AuditClasses, MatchesPerVertexReferenceOnEveryRegistryFamily) {
  using topology::Family;
  struct Member {
    Family family;
    int d;
    int D;
  };
  const std::vector<Member> members = {
      {Family::kButterfly, 2, 3},
      {Family::kWrappedButterflyDirected, 2, 3},
      {Family::kWrappedButterfly, 2, 3},
      {Family::kDeBruijnDirected, 2, 4},
      {Family::kDeBruijn, 2, 4},
      {Family::kKautzDirected, 2, 3},
      {Family::kKautz, 2, 3},
      {Family::kCycle, 2, 7},
      {Family::kComplete, 2, 6},
      {Family::kHypercube, 2, 4},
      {Family::kCubeConnectedCycles, 2, 3},
      {Family::kShuffleExchange, 2, 4},
      {Family::kKnodel, 3, 8},
      {Family::kRandomRegular, 3, 10},
      {Family::kRandomGnp, 3, 12},
  };
  for (const auto& m : members) {
    const auto g = topology::make_family(m.family, m.d, m.D);
    for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
      const auto cs = protocol::CompiledSchedule::compile(
          protocol::edge_coloring_schedule(g, mode));
      const std::string label = topology::family_name(m.family, m.d) + " D=" +
                                std::to_string(m.D) +
                                (mode == Mode::kFullDuplex ? " full" : " half");
      expect_matches_reference(cs, label);
      expect_norm_matches_reference(cs, label);
    }
  }
}

TEST(AuditClasses, MatchesPerVertexReferenceOnLargeFullDuplexMembers) {
  for (const auto& [family, name] :
       {std::pair{topology::Family::kDeBruijn, "db(2,12)"},
        std::pair{topology::Family::kKautz, "kautz(2,12)"}}) {
    const auto cs = protocol::CompiledSchedule::compile(
        protocol::edge_coloring_schedule(topology::make_family(family, 2, 12),
                                         Mode::kFullDuplex));
    expect_matches_reference(cs, name);
  }
}

TEST(AuditClasses, MatchesPerVertexReferenceOnRandomSchedules) {
  util::Rng rng(2024);
  const auto g = topology::de_bruijn(2, 4);
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    for (int trial = 0; trial < 8; ++trial) {
      const int s = 2 + trial;
      const auto cs = protocol::CompiledSchedule::compile(
          protocol::random_systolic_schedule(g, s, mode, rng));
      const std::string label = "random s=" + std::to_string(s) +
                                (mode == Mode::kFullDuplex ? " full" : " half");
      expect_matches_reference(cs, label);
      expect_norm_matches_reference(cs, label);
    }
  }
}

TEST(AuditClasses, HeavyMatchesPerVertexReferenceOnKautz14FullDuplex) {
  // n = 24,576: the reference walks every vertex at every bisection step.
  if (std::getenv("SYSGO_HEAVY_TESTS") == nullptr)
    GTEST_SKIP() << "set SYSGO_HEAVY_TESTS=1 to run";
  const auto cs = protocol::CompiledSchedule::compile(protocol::edge_coloring_schedule(
      topology::make_family(topology::Family::kKautz, 2, 14), Mode::kFullDuplex));
  ASSERT_EQ(cs.n(), 24576);
  expect_matches_reference(cs, "kautz(2,14) full");
}

TEST(AuditClasses, WorstVertexOfAOneClassMemberIsVertexZero) {
  // Every vertex of WBF(2,8) full-duplex has the same role sequence.
  const auto cs = protocol::CompiledSchedule::compile(protocol::edge_coloring_schedule(
      topology::make_family(topology::Family::kWrappedButterfly, 2, 8),
      Mode::kFullDuplex));
  const auto acts = vertex_activities(cs);
  for (const auto& act : acts) ASSERT_EQ(act.active_rounds, acts[0].active_rounds);
  EXPECT_EQ(audit_schedule(cs).worst_vertex, 0);
}

TEST(AuditClasses, WorstVertexIsTheLowestIndexTiedRelay) {
  // P8 half-duplex: the endpoints have L = R = 1; the six inner vertices all
  // have L = R = 2, and so tie, across several role sequences.
  const auto cs = protocol::CompiledSchedule::compile(
      protocol::path_schedule(8, Mode::kHalfDuplex));
  const auto res = audit_schedule(cs);
  const auto acts = vertex_activities(cs);
  const double top = ref::half_duplex_bound(acts[1], res.lambda_star);
  EXPECT_LT(ref::half_duplex_bound(acts[0], res.lambda_star), top);
  for (int v = 2; v <= 6; ++v)
    EXPECT_EQ(ref::half_duplex_bound(acts[static_cast<std::size_t>(v)],
                                     res.lambda_star),
              top);
  const auto role_sequence = [&](int v) {
    std::vector<protocol::RoundRole> seq;
    for (int r = 0; r < cs.round_count(); ++r) seq.push_back(cs.role(r, v));
    return seq;
  };
  EXPECT_NE(role_sequence(1), role_sequence(2));  // tied across classes
  EXPECT_EQ(res.worst_vertex, 1);
}

}  // namespace
}  // namespace sysgo::core
