#include "support/knodel_protocols.hpp"

#include <stdexcept>

#include "topology/knodel.hpp"

namespace sysgo::protocol {

SystolicSchedule knodel_schedule(int delta, int n, Mode mode) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("knodel_schedule: n must be even and >= 2");
  if (delta < 1 || delta > topology::knodel_max_delta(n))
    throw std::invalid_argument("knodel_schedule: bad delta");
  SystolicSchedule sched;
  sched.n = n;
  sched.mode = mode;
  const int half = n / 2;
  for (int k = 0; k < delta; ++k) {
    const int shift = ((1 << k) - 1) % half;
    Round fwd, bwd;
    for (int j = 0; j < half; ++j) {
      const int u = topology::knodel_index(0, j);
      const int v = topology::knodel_index(1, (j + shift) % half);
      fwd.arcs.push_back({u, v});
      bwd.arcs.push_back({v, u});
    }
    if (mode == Mode::kFullDuplex) {
      Round both;
      both.arcs = fwd.arcs;
      both.arcs.insert(both.arcs.end(), bwd.arcs.begin(), bwd.arcs.end());
      both.canonicalize();
      sched.period.push_back(std::move(both));
    } else {
      fwd.canonicalize();
      bwd.canonicalize();
      sched.period.push_back(std::move(fwd));
      sched.period.push_back(std::move(bwd));
    }
  }
  return sched;
}

}  // namespace sysgo::protocol
