#include "reference_gossip.hpp"

#include <bit>
#include <cstddef>

namespace sysgo::simulator {

ReferenceOutcome reference_gossip(int n,
                                  const std::vector<protocol::Round>& rounds,
                                  bool periodic, int max_rounds) {
  const auto rows = static_cast<std::size_t>(n);
  const std::size_t words = (rows + 63) / 64;
  std::vector<std::uint64_t> know(rows * words, 0);
  for (std::size_t v = 0; v < rows; ++v)
    know[v * words + v / 64] |= std::uint64_t{1} << (v % 64);
  const auto coverage = [&] {
    std::int64_t items = 0;
    for (const std::uint64_t w : know) items += std::popcount(w);
    return items;
  };
  const std::int64_t all = std::int64_t{n} * n;

  if (coverage() == all) return {0, all};
  if (!periodic && max_rounds > static_cast<int>(rounds.size()))
    max_rounds = static_cast<int>(rounds.size());
  std::vector<std::uint64_t> start;
  for (int i = 1; i <= max_rounds; ++i) {
    start = know;  // the state at the start of round i
    const protocol::Round& round = rounds[static_cast<std::size_t>(i - 1) %
                                          rounds.size()];
    for (const graph::Arc& a : round.arcs)
      for (std::size_t w = 0; w < words; ++w)
        know[static_cast<std::size_t>(a.head) * words + w] |=
            start[static_cast<std::size_t>(a.tail) * words + w];
    if (coverage() == all) return {i, all};
  }
  return {-1, coverage()};
}

ReferenceOutcome reference_gossip(const protocol::CompiledSchedule& cs,
                                  int max_rounds) {
  std::vector<protocol::Round> rounds;
  for (int r = 0; r < cs.round_count(); ++r) {
    const auto arcs = cs.round_arcs(r);
    rounds.push_back({{arcs.begin(), arcs.end()}});
  }
  return reference_gossip(cs.n(), rounds, cs.periodic(), max_rounds);
}

}  // namespace sysgo::simulator
