#include "support/tree_protocols.hpp"

#include <stdexcept>
#include <vector>

#include "topology/classic.hpp"
#include "topology/words.hpp"

namespace sysgo::protocol {

SystolicSchedule tree_schedule(int d, int height, Mode mode) {
  if (d < 2 || height < 1)
    throw std::invalid_argument("tree_schedule: need d >= 2, height >= 1");
  const std::int64_t n64 = (topology::ipow(d, height + 1) - 1) / (d - 1);
  if (n64 > (1 << 22)) throw std::invalid_argument("tree_schedule: too large");
  const int n = static_cast<int>(n64);
  const int colors = d + 1;

  // BFS order: assign each child edge a color distinct from the vertex's
  // parent-edge color, cycling through {0..d}.  Trees are class 1, so this
  // greedy is exact.
  std::vector<int> parent_color(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<std::pair<int, int>>> classes(
      static_cast<std::size_t>(colors));
  for (int v = 0; v < n; ++v) {
    int next = 0;
    for (int c = 1; c <= d; ++c) {
      const std::int64_t child = static_cast<std::int64_t>(d) * v + c;
      if (child >= n) break;
      while (next == parent_color[static_cast<std::size_t>(v)]) ++next;
      if (next >= colors) throw std::logic_error("tree_schedule: coloring overflow");
      parent_color[static_cast<std::size_t>(child)] = next;
      classes[static_cast<std::size_t>(next)].emplace_back(v,
                                                           static_cast<int>(child));
      ++next;
    }
  }

  SystolicSchedule sched;
  sched.n = n;
  sched.mode = mode;
  for (const auto& cls : classes) {
    if (cls.empty()) continue;
    if (mode == Mode::kFullDuplex) {
      Round r;
      for (auto [u, v] : cls) {
        r.arcs.push_back({u, v});
        r.arcs.push_back({v, u});
      }
      r.canonicalize();
      sched.period.push_back(std::move(r));
    } else {
      Round down, up;
      for (auto [u, v] : cls) {
        down.arcs.push_back({u, v});
        up.arcs.push_back({v, u});
      }
      down.canonicalize();
      up.canonicalize();
      sched.period.push_back(std::move(down));
      sched.period.push_back(std::move(up));
    }
  }
  return sched;
}

}  // namespace sysgo::protocol
