#include "support/classic_protocols.hpp"

#include <stdexcept>

namespace sysgo::protocol {
namespace {

// Expand one undirected color class into schedule rounds (two directed
// rounds for half-duplex, one both-ways round for full-duplex).
void append_color_class(SystolicSchedule& sched,
                        const std::vector<std::pair<int, int>>& edges, Mode mode) {
  if (mode == Mode::kFullDuplex) {
    Round r;
    for (auto [u, v] : edges) {
      r.arcs.push_back({u, v});
      r.arcs.push_back({v, u});
    }
    r.canonicalize();
    sched.period.push_back(std::move(r));
  } else {
    Round fwd, bwd;
    for (auto [u, v] : edges) {
      fwd.arcs.push_back({u, v});
      bwd.arcs.push_back({v, u});
    }
    fwd.canonicalize();
    bwd.canonicalize();
    sched.period.push_back(std::move(fwd));
    sched.period.push_back(std::move(bwd));
  }
}

}  // namespace

SystolicSchedule path_schedule(int n, Mode mode) {
  if (n < 2) throw std::invalid_argument("path_schedule: need n >= 2");
  SystolicSchedule sched;
  sched.n = n;
  sched.mode = mode;
  std::vector<std::pair<int, int>> even, odd;
  for (int i = 0; i + 1 < n; ++i) (i % 2 == 0 ? even : odd).emplace_back(i, i + 1);
  append_color_class(sched, even, mode);
  append_color_class(sched, odd, mode);
  return sched;
}

SystolicSchedule cycle_schedule(int n, Mode mode) {
  if (n < 3) throw std::invalid_argument("cycle_schedule: need n >= 3");
  SystolicSchedule sched;
  sched.n = n;
  sched.mode = mode;
  std::vector<std::pair<int, int>> classes[3];
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    int color = i % 2;
    if (n % 2 == 1 && i == n - 1) color = 2;  // odd cycle needs a third class
    classes[color].emplace_back(i, j);
  }
  for (const auto& cls : classes)
    if (!cls.empty()) append_color_class(sched, cls, mode);
  return sched;
}

SystolicSchedule grid_schedule(int rows, int cols, Mode mode) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("grid_schedule: bad size");
  SystolicSchedule sched;
  sched.n = rows * cols;
  sched.mode = mode;
  auto id = [cols](int r, int c) { return r * cols + c; };
  std::vector<std::pair<int, int>> cls[4];  // row-even, row-odd, col-even, col-odd
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c)
      cls[c % 2].emplace_back(id(r, c), id(r, c + 1));
  for (int c = 0; c < cols; ++c)
    for (int r = 0; r + 1 < rows; ++r)
      cls[2 + r % 2].emplace_back(id(r, c), id(r + 1, c));
  for (const auto& edges : cls)
    if (!edges.empty()) append_color_class(sched, edges, mode);
  return sched;
}

SystolicSchedule hypercube_schedule(int D, Mode mode) {
  if (D < 1 || D > 24) throw std::invalid_argument("hypercube_schedule: bad D");
  const int n = 1 << D;
  SystolicSchedule sched;
  sched.n = n;
  sched.mode = mode;
  for (int b = 0; b < D; ++b) {
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < n; ++v)
      if ((v & (1 << b)) == 0) edges.emplace_back(v, v ^ (1 << b));
    append_color_class(sched, edges, mode);
  }
  return sched;
}

SystolicSchedule complete_power2_schedule(int n, Mode mode) {
  if (n < 2 || (n & (n - 1)) != 0)
    throw std::invalid_argument("complete_power2_schedule: n must be a power of 2");
  int D = 0;
  while ((1 << D) < n) ++D;
  SystolicSchedule sched = hypercube_schedule(D, mode);
  sched.n = n;  // pairings i <-> i^bit are complete-graph edges
  return sched;
}

}  // namespace sysgo::protocol
