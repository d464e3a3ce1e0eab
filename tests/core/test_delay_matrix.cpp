#include "support/delay_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "support/classic_protocols.hpp"

namespace sysgo::core {
namespace {

using protocol::Mode;

protocol::Protocol p3_protocol(int t) {
  protocol::Protocol p;
  p.n = 3;
  p.mode = Mode::kHalfDuplex;
  const std::vector<protocol::Round> period = {
      {{{0, 1}}}, {{{1, 2}}}, {{{2, 1}}}, {{{1, 0}}}};
  for (int i = 0; i < t; ++i)
    p.rounds.push_back(period[static_cast<std::size_t>(i % 4)]);
  return p;
}

TEST(DelayMatrix, EntriesAreLambdaToWeight) {
  const double lam = 0.5;
  const auto dg = DelayDigraph(p3_protocol(8), 4);
  const auto m = delay_matrix(dg, lam);
  EXPECT_EQ(m.rows(), dg.node_count());
  for (const auto& arc : dg.arcs())
    EXPECT_NEAR(m.at(static_cast<std::size_t>(arc.from),
                     static_cast<std::size_t>(arc.to)),
                std::pow(lam, arc.weight), 1e-15);
  EXPECT_EQ(m.nnz(), dg.arc_count());
}

// The key property of Definition 3.4: (M^t)_{u,v} sums λ^{path length} over
// all t-arc dipaths, verified against explicit path enumeration.
TEST(DelayMatrix, PowerCountsWeightedPaths) {
  const double lam = 0.5;
  const auto dg = DelayDigraph(p3_protocol(10), 4);
  const auto m = delay_matrix(dg, lam).to_dense();

  // Enumerate all dipaths with exactly 2 arcs via adjacency.
  const auto m2 = m.multiply(m);
  const std::size_t n = dg.node_count();
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = 0; v < n; ++v) {
      double expected = 0.0;
      for (const auto& a1 : dg.arcs())
        for (const auto& a2 : dg.arcs())
          if (static_cast<std::size_t>(a1.from) == u && a1.to == a2.from &&
              static_cast<std::size_t>(a2.to) == v)
            expected += std::pow(lam, a1.weight + a2.weight);
      EXPECT_NEAR(m2(u, v), expected, 1e-12);
    }
}

TEST(DelayMatrix, GeometricSeriesDominatedByDistanceTerm) {
  // If dist(u, v) = l (<= t arcs), then Σ_i (M^i)_{uv} >= λ^l.
  const double lam = 0.5;
  const auto dg = DelayDigraph(p3_protocol(12), 4);
  const auto m = delay_matrix(dg, lam).to_dense();
  const int u = dg.find(0, 1, 1);
  const int v = dg.find(1, 2, 6);
  ASSERT_GE(u, 0);
  ASSERT_GE(v, 0);
  const int dist = dg.weighted_distance(u, v);
  ASSERT_GT(dist, 0);
  auto acc = m;
  auto power = m;
  for (int i = 1; i < 12; ++i) {
    power = power.multiply(m);
    acc = acc.add(power);
  }
  EXPECT_GE(acc(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) + 1e-12,
            std::pow(lam, dist));
}

TEST(DelayMatrix, NormBelowAuditBound) {
  // The exact delay-matrix norm is certified by the audit's analytic bound.
  const auto sched = protocol::path_schedule(6, Mode::kHalfDuplex);
  const auto compiled = protocol::CompiledSchedule::compile(sched);
  const auto dg = DelayDigraph(compiled, 4 * compiled.period_length());
  for (double lam : {0.4, 0.55, 0.7}) {
    const double exact = delay_matrix_norm(dg, lam);
    const double bound = audit_norm_bound(compiled, lam);
    EXPECT_LE(exact, bound + 1e-9) << "lam=" << lam;
  }
}

TEST(DelayMatrix, NormMonotoneInLambda) {
  const auto sched = protocol::cycle_schedule(8, Mode::kHalfDuplex);
  const auto dg = DelayDigraph(sched, 3 * sched.period_length());
  EXPECT_LT(delay_matrix_norm(dg, 0.3), delay_matrix_norm(dg, 0.6));
}

TEST(DelayMatrix, RejectsBadLambda) {
  const auto dg = DelayDigraph(p3_protocol(4), 4);
  EXPECT_THROW((void)delay_matrix(dg, 0.0), std::invalid_argument);
  EXPECT_THROW((void)delay_matrix(dg, 1.0), std::invalid_argument);
  EXPECT_THROW((void)delay_matrix(dg, -0.5), std::invalid_argument);
}

TEST(DelayMatrix, FullDuplexProtocolNormBelowLemma61) {
  const auto sched = protocol::hypercube_schedule(3, Mode::kFullDuplex);
  const auto dg = DelayDigraph(sched, 3 * sched.period_length());
  const double lam = 0.5;
  const double exact = delay_matrix_norm(dg, lam);
  double lemma61 = 0.0;
  for (int i = 1; i <= sched.period_length() - 1; ++i) lemma61 += std::pow(lam, i);
  EXPECT_LE(exact, lemma61 + 1e-9);
}

}  // namespace
}  // namespace sysgo::core
