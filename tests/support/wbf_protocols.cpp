#include "support/wbf_protocols.hpp"

#include <stdexcept>

#include "topology/words.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace sysgo::protocol {
namespace {

// The perfect matching of round (level, offset): every level-`level` vertex
// sends to level-1 below (with wrap), rewriting the rung digit by +offset.
Round level_matching(int d, int D, int level, int offset, bool reversed) {
  Round round;
  const std::int64_t words = topology::ipow(d, D);
  const int target_level = (level + D - 1) % D;
  const int rung_digit = (level > 0) ? level - 1 : D - 1;
  for (std::int64_t x = 0; x < words; ++x) {
    const int digit = topology::digit(x, rung_digit, d);
    const std::int64_t y =
        topology::with_digit(x, rung_digit, (digit + offset) % d, d);
    const int u = topology::wrapped_butterfly_index(x, level, d, D);
    const int v = topology::wrapped_butterfly_index(y, target_level, d, D);
    if (reversed)
      round.arcs.push_back({v, u});
    else
      round.arcs.push_back({u, v});
  }
  round.canonicalize();
  return round;
}

}  // namespace

SystolicSchedule wbf_directed_schedule(int d, int D) {
  if (d < 2 || D < 2)
    throw std::invalid_argument("wbf_directed_schedule: need d >= 2, D >= 2");
  SystolicSchedule sched;
  sched.n = static_cast<int>(topology::wrapped_butterfly_order(d, D));
  sched.mode = Mode::kHalfDuplex;
  // Descend through levels D-1 .. 0 with offset 0, then again with offset
  // 1, ... — each full sweep rotates one digit choice everywhere.
  for (int a = 0; a < d; ++a)
    for (int l = D - 1; l >= 0; --l)
      sched.period.push_back(level_matching(d, D, l, a, /*reversed=*/false));
  return sched;
}

SystolicSchedule wbf_schedule(int d, int D, Mode mode) {
  if (d < 2 || D < 2)
    throw std::invalid_argument("wbf_schedule: need d >= 2, D >= 2");
  SystolicSchedule sched;
  sched.n = static_cast<int>(topology::wrapped_butterfly_order(d, D));
  sched.mode = mode;
  for (int a = 0; a < d; ++a)
    for (int l = D - 1; l >= 0; --l) {
      if (mode == Mode::kFullDuplex) {
        Round fwd = level_matching(d, D, l, a, false);
        const Round bwd = level_matching(d, D, l, a, true);
        fwd.arcs.insert(fwd.arcs.end(), bwd.arcs.begin(), bwd.arcs.end());
        fwd.canonicalize();
        sched.period.push_back(std::move(fwd));
      } else {
        sched.period.push_back(level_matching(d, D, l, a, false));
        sched.period.push_back(level_matching(d, D, l, a, true));
      }
    }
  return sched;
}

}  // namespace sysgo::protocol
