#include "support/gap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/audit.hpp"
#include "linalg/polynomial.hpp"
#include "support/matrix.hpp"
#include "support/power_iteration.hpp"

namespace sysgo::analysis {
namespace {

// Rounds (1-based) within the window where `vertex` has an incoming /
// outgoing activation, read off the compiled role tables.
struct LocalRounds {
  std::vector<int> in_rounds;
  std::vector<int> out_rounds;
};

LocalRounds local_rounds(const protocol::CompiledSchedule& cs, int vertex,
                         int window) {
  using protocol::RoundRole;
  LocalRounds lr;
  for (int i = 1; i <= window; ++i) {
    const RoundRole role = cs.role(cs.round_index(i), vertex);
    if (role == RoundRole::kIdle) continue;
    if (role != RoundRole::kSend) lr.in_rounds.push_back(i);
    if (role != RoundRole::kReceive) lr.out_rounds.push_back(i);
  }
  return lr;
}

// The vertex's local delay matrix: rows = incoming activations, columns =
// outgoing activations, entry λ^{j−i} whenever 0 < j − i < s.
linalg::Matrix local_matrix(const LocalRounds& lr, int s, double lambda) {
  linalg::Matrix m(lr.in_rounds.size(), lr.out_rounds.size());
  for (std::size_t r = 0; r < lr.in_rounds.size(); ++r)
    for (std::size_t c = 0; c < lr.out_rounds.size(); ++c) {
      const int delay = lr.out_rounds[c] - lr.in_rounds[r];
      if (delay > 0 && delay < s)
        m(r, c) = std::pow(lambda, delay);
    }
  return m;
}

}  // namespace

double exact_local_norm(const protocol::CompiledSchedule& cs, int vertex,
                        double lambda, int periods) {
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("exact_local_norm: need 0 < lambda < 1");
  cs.require_periodic("exact_local_norm");  // window spans `periods` periods
  // Match the legacy arc scan: a vertex outside the network matches no
  // activation and has norm 0 (no out-of-bounds table read).
  if (vertex < 0 || vertex >= cs.n()) return 0.0;
  const int window = periods * cs.period_length();
  const auto lr = local_rounds(cs, vertex, window);
  if (lr.in_rounds.empty() || lr.out_rounds.empty()) return 0.0;
  return linalg::operator_norm(local_matrix(lr, cs.period_length(), lambda))
      .value;
}

double exact_local_norm(const protocol::SystolicSchedule& sched, int vertex,
                        double lambda, int periods) {
  return exact_local_norm(protocol::CompiledSchedule::compile(sched), vertex,
                          lambda, periods);
}

std::vector<VertexGapRow> audit_gap_report(const protocol::CompiledSchedule& cs,
                                           double lambda, int periods) {
  cs.require_periodic("audit_gap_report");
  const auto acts = core::vertex_activities(cs);
  std::vector<VertexGapRow> rows;
  rows.reserve(acts.size());
  for (int v = 0; v < cs.n(); ++v) {
    VertexGapRow row;
    row.vertex = v;
    row.left_rounds = acts[static_cast<std::size_t>(v)].left_rounds;
    row.right_rounds = acts[static_cast<std::size_t>(v)].right_rounds;
    row.exact_norm = exact_local_norm(cs, v, lambda, periods);
    row.analytic_bound =
        core::vertex_norm_bound(acts[static_cast<std::size_t>(v)],
                                cs.period_length(), lambda, cs.mode());
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const VertexGapRow& a, const VertexGapRow& b) {
    return a.analytic_bound > b.analytic_bound;
  });
  return rows;
}

std::vector<VertexGapRow> audit_gap_report(const protocol::SystolicSchedule& sched,
                                           double lambda, int periods) {
  return audit_gap_report(protocol::CompiledSchedule::compile(sched), lambda,
                          periods);
}

}  // namespace sysgo::analysis
