#include "simulator/broadcast_sim.hpp"

#include <stdexcept>

namespace sysgo::simulator {
namespace {

// One single-item propagation step over a round's arc span.  Pre-round
// snapshot semantics: heads are collected against the state at the
// beginning of the round, then marked, so a vertex informed this round
// does not forward within the same round.  Works for both duplex modes
// (full-duplex pairs are two opposite arcs evaluated independently).
// Returns how many vertices the round informed.
int step_reach(std::span<const sysgo::graph::Arc> arcs, std::vector<int>& reach,
               std::vector<int>& newly, int round_no) {
  newly.clear();
  for (const auto& a : arcs) {
    if (reach[static_cast<std::size_t>(a.tail)] != -1 &&
        reach[static_cast<std::size_t>(a.head)] == -1)
      newly.push_back(a.head);
  }
  for (int v : newly) reach[static_cast<std::size_t>(v)] = round_no;
  return static_cast<int>(newly.size());
}

}  // namespace

std::vector<int> broadcast_reach(const protocol::CompiledSchedule& cs, int src) {
  if (cs.periodic())  // periodic schedules go through broadcast_time
    throw std::invalid_argument(
        "broadcast_reach: needs a compiled finite protocol");
  std::vector<int> reach(static_cast<std::size_t>(cs.n()), -1);
  reach[static_cast<std::size_t>(src)] = 0;
  std::vector<int> newly;
  for (int r = 0; r < cs.round_count(); ++r)
    step_reach(cs.round_arcs(r), reach, newly, r + 1);
  return reach;
}

int broadcast_time(const protocol::CompiledSchedule& cs, int src, int max_rounds) {
  std::vector<int> reach(static_cast<std::size_t>(cs.n()), -1);
  reach[static_cast<std::size_t>(src)] = 0;
  int informed = 1;
  if (informed == cs.n()) return 0;  // n == 1: consistent with gossip_time
  const int rounds = cs.round_count();
  if (!cs.periodic() && max_rounds > rounds) max_rounds = rounds;
  std::vector<int> newly;
  int r = 0;
  for (int i = 1; i <= max_rounds; ++i) {
    informed += step_reach(cs.round_arcs(r), reach, newly, i);
    if (informed == cs.n()) return i;
    if (++r == rounds) r = 0;
  }
  return -1;
}

}  // namespace sysgo::simulator
