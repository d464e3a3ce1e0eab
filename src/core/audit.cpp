#include "core/audit.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "linalg/polynomial.hpp"
#include "linalg/roots.hpp"

namespace sysgo::core {

namespace {

// Fold round r's role into a vertex's period summary.
void add_role(VertexActivity& act, protocol::RoundRole role, int r) {
  using protocol::RoundRole;
  if (role == RoundRole::kIdle) return;
  if (role != RoundRole::kSend) ++act.left_rounds;      // receive/exchange
  if (role != RoundRole::kReceive) ++act.right_rounds;  // send/exchange
  act.active_rounds.push_back(r);
}

// Half-duplex per-vertex bound (Lemma 4.3 with per-period totals):
// λ·√(p_R(λ))·√(p_L(λ)); zero when the vertex never relays.
double half_duplex_vertex_bound(const VertexActivity& act, double lambda) {
  if (act.left_rounds == 0 || act.right_rounds == 0) return 0.0;
  return lambda * std::sqrt(linalg::delay_polynomial(act.right_rounds, lambda)) *
         std::sqrt(linalg::delay_polynomial(act.left_rounds, lambda));
}

// powers[δ] = λ^δ for 0 <= δ < s: every delay the full-duplex bound reads.
void fill_delay_powers(std::vector<double>& powers, int s, double lambda) {
  powers.resize(static_cast<std::size_t>(s));
  for (int d = 0; d < s; ++d)
    powers[static_cast<std::size_t>(d)] = std::pow(lambda, d);
}

// Full-duplex per-vertex bound: the local matrix is doubly indexed by the
// vertex's activation rounds (cyclically repeated, entries λ^δ for delays
// 0 < δ < s); ‖A‖₂² <= ‖A‖₁·‖A‖∞ = (max col sum)·(max row sum).
double full_duplex_vertex_bound(const VertexActivity& act, int s,
                                std::span<const double> powers) {
  const auto& rounds = act.active_rounds;
  if (rounds.size() < 2) return 0.0;  // no pair of activations within a window
  double max_row = 0.0;
  double max_col = 0.0;
  for (std::size_t a = 0; a < rounds.size(); ++a) {
    double row = 0.0;
    double col = 0.0;
    for (std::size_t b = 0; b < rounds.size(); ++b) {
      if (a == b) continue;  // same activation recurs at delay s, outside window
      const int fwd = ((rounds[b] - rounds[a]) % s + s) % s;   // delay a -> b
      const int bwd = ((rounds[a] - rounds[b]) % s + s) % s;   // delay b -> a
      if (fwd > 0) row += powers[static_cast<std::size_t>(fwd)];
      if (bwd > 0) col += powers[static_cast<std::size_t>(bwd)];
    }
    max_row = std::max(max_row, row);
    max_col = std::max(max_col, col);
  }
  return std::sqrt(max_row * max_col);
}

// The audit's view of a compiled period.  Vertices with the same per-period
// role sequence share (L, R, active_rounds) and hence every local-norm
// bound, so the bound is evaluated once per activation class.  Classes are
// built in one walk of the role tables and kept in order of their lowest
// vertex, so a strict-'>' scan over classes finds the lowest-index vertex
// attaining the maximum.
class ClassAudit {
 public:
  struct Worst {
    double bound = 0.0;  // max_x bound_x(λ): certified upper bound on ‖M(λ)‖
    int vertex = -1;     // lowest-index vertex attaining it (-1 when n = 0)
  };

  explicit ClassAudit(const protocol::CompiledSchedule& cs)
      : s_(cs.period_length()), mode_(cs.mode()) {
    std::unordered_map<std::string, std::size_t> index;
    std::string key(static_cast<std::size_t>(s_), '\0');
    for (int v = 0; v < cs.n(); ++v) {
      for (int r = 0; r < s_; ++r)
        key[static_cast<std::size_t>(r)] = static_cast<char>(cs.role(r, v));
      if (!index.try_emplace(key, classes_.size()).second) continue;
      Class c;
      c.first_vertex = v;
      for (int r = 0; r < s_; ++r) add_role(c.activity, cs.role(r, v), r);
      classes_.push_back(std::move(c));
    }
  }

  Worst evaluate(double lambda) {
    const bool full = mode_ == protocol::Mode::kFullDuplex;
    if (full) fill_delay_powers(powers_, s_, lambda);
    Worst w;
    for (const auto& c : classes_) {
      const double b = full ? full_duplex_vertex_bound(c.activity, s_, powers_)
                            : half_duplex_vertex_bound(c.activity, lambda);
      if (w.vertex < 0 || b > w.bound) w = {b, c.first_vertex};
    }
    return w;
  }

 private:
  struct Class {
    VertexActivity activity;
    int first_vertex = 0;
  };

  int s_;
  protocol::Mode mode_;
  std::vector<double> powers_;  // full-duplex: λ^δ for the λ being evaluated
  std::vector<Class> classes_;
};

}  // namespace

std::vector<VertexActivity> vertex_activities(
    const protocol::CompiledSchedule& cs) {
  std::vector<VertexActivity> acts(static_cast<std::size_t>(cs.n()));
  for (int r = 0; r < cs.round_count(); ++r) {
    const auto roles = cs.roles(r);
    for (int v = 0; v < cs.n(); ++v)
      add_role(acts[static_cast<std::size_t>(v)],
               roles[static_cast<std::size_t>(v)], r);
  }
  return acts;
}

double vertex_norm_bound(const VertexActivity& activity, int s, double lambda,
                         protocol::Mode mode) {
  if (mode != protocol::Mode::kFullDuplex)
    return half_duplex_vertex_bound(activity, lambda);
  std::vector<double> powers;
  fill_delay_powers(powers, s, lambda);
  return full_duplex_vertex_bound(activity, s, powers);
}

double audit_norm_bound(const protocol::CompiledSchedule& cs, double lambda) {
  // The audit's period reading is only meaningful for periodic schedules;
  // a compiled finite protocol (possibly empty) must not masquerade as one.
  cs.require_periodic("audit_norm_bound");
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("audit_norm_bound: need 0 < lambda < 1");
  return ClassAudit(cs).evaluate(lambda).bound;
}

AuditResult audit_schedule(const protocol::CompiledSchedule& cs) {
  cs.require_periodic("audit_schedule");
  AuditResult res;
  ClassAudit classes(cs);

  constexpr double kLoLambda = 1e-9;
  constexpr double kHiLambda = 1.0 - 1e-9;
  const auto f = [&](double lam) { return classes.evaluate(lam).bound - 1.0; };

  if (f(kHiLambda) <= 0.0) {
    // The norm bound stays below 1 on all of (0, 1), so λ* is pinned at
    // 1 − 10⁻⁹ (e ≈ 6.9·10⁸).  A schedule with no relaying vertex lands
    // here, but so do small full-duplex schedules that do gossip: C4 and
    // C6 with period 2 have bound λ < 1 at every vertex.  The round bound
    // at the pinned λ* can then exceed the achieved time (C4: 3 > 2, C6:
    // 4 > 3).  The values stay until the fix of ROADMAP.md item 1 lands.
    res.lambda_star = kHiLambda;
  } else {
    const auto root = linalg::bisect(f, kLoLambda, kHiLambda);
    res.lambda_star = root.x;
  }
  res.e_coeff = e_coefficient(res.lambda_star);
  res.round_lower_bound = theorem41_round_bound(res.lambda_star, cs.n());
  res.worst_vertex = classes.evaluate(res.lambda_star).vertex;
  return res;
}

AuditResult audit_schedule(const protocol::SystolicSchedule& sched) {
  if (sched.period.empty())
    throw std::invalid_argument("audit_schedule: empty period");
  return audit_schedule(protocol::CompiledSchedule::compile(sched));
}

}  // namespace sysgo::core
