#include "protocol/compiled.hpp"

#include <algorithm>
#include <functional>
#include <string>

namespace sysgo::protocol {

namespace {

[[noreturn]] void fail(int round, const std::string& what) {
  throw std::invalid_argument("CompiledSchedule: round " +
                              std::to_string(round) + " " + what);
}

}  // namespace

CompiledSchedule CompiledSchedule::build(int n, Mode mode, bool periodic,
                                         std::span<const Round> rounds,
                                         const graph::Digraph* g) {
  if (n < 1) throw std::invalid_argument("CompiledSchedule: need n >= 1");
  if (periodic && rounds.empty())
    throw std::invalid_argument("CompiledSchedule: empty period");

  CompiledSchedule cs;
  cs.n_ = n;
  cs.mode_ = mode;
  cs.periodic_ = periodic;
  const bool full = mode == Mode::kFullDuplex;
  const std::size_t nr = rounds.size();
  std::size_t total = 0;
  for (const Round& round : rounds) total += round.arcs.size();
  cs.arc_begin_.reserve(nr + 1);
  cs.arcs_.reserve(total);
  cs.partner_.assign(nr * static_cast<std::size_t>(n), -1);
  cs.role_.assign(nr * static_cast<std::size_t>(n), RoundRole::kIdle);
  if (full) {
    cs.pair_begin_.reserve(nr + 1);
    cs.pair_begin_.push_back(0);
    cs.pairs_.reserve(total / 2);
  }

  for (std::size_t r = 0; r < nr; ++r) {
    const int round_no = static_cast<int>(r) + 1;
    const std::vector<graph::Arc>& arcs = rounds[r].arcs;
    // Validate the round AS AUTHORED — canonicalizing dedups, and a
    // duplicated arc must fail the half-duplex matching check exactly as it
    // does in validate_structure, not be silently repaired.
    for (const graph::Arc& a : arcs) {
      if (a.tail < 0 || a.tail >= n || a.head < 0 || a.head >= n)
        fail(round_no, "activates an endpoint outside [0, n)");
      if (g != nullptr && !g->has_arc(a.tail, a.head))
        fail(round_no, "activates arc (" + std::to_string(a.tail) + "," +
                           std::to_string(a.head) +
                           ") absent from the network");
    }
    // The matching check fills the round's partner and role rows as it
    // goes: a vertex already given a partner is matched.  Full duplex marks
    // each tail kExchange first and then asks every head to be a tail too,
    // which makes every active arc's opposite active.
    std::int32_t* partners =
        cs.partner_.data() + r * static_cast<std::size_t>(n);
    RoundRole* roles = cs.role_.data() + r * static_cast<std::size_t>(n);
    const auto free_for = [partners, full](int v, int other) {
      return partners[v] == -1 || (full && partners[v] == other);
    };
    bool matching = true;
    for (const graph::Arc& a : arcs) {
      matching = a.tail != a.head && free_for(a.tail, a.head) &&
                 free_for(a.head, a.tail);
      if (!matching) break;
      partners[a.tail] = a.head;
      partners[a.head] = a.tail;
      if (full) {
        roles[a.tail] = RoundRole::kExchange;
      } else {
        roles[a.tail] = RoundRole::kSend;
        roles[a.head] = RoundRole::kReceive;
      }
    }
    if (matching && full)
      for (const graph::Arc& a : arcs)
        if (roles[a.head] != RoundRole::kExchange) matching = false;
    if (!matching)
      fail(round_no, std::string("is not a valid ") + (full ? "full" : "half") +
                         "-duplex matching");

    // Store the round canonical: as authored when it is already strictly
    // increasing, else a sorted, deduplicated copy.
    const auto begin = cs.arcs_.end() - cs.arcs_.begin();
    cs.arcs_.insert(cs.arcs_.end(), arcs.begin(), arcs.end());
    if (std::adjacent_find(arcs.begin(), arcs.end(), std::greater_equal<>()) !=
        arcs.end()) {
      std::sort(cs.arcs_.begin() + begin, cs.arcs_.end());
      cs.arcs_.erase(std::unique(cs.arcs_.begin() + begin, cs.arcs_.end()),
                     cs.arcs_.end());
    }
    cs.arc_begin_.push_back(static_cast<std::int32_t>(cs.arcs_.size()));
    if (full) {
      for (auto a = cs.arcs_.begin() + begin; a != cs.arcs_.end(); ++a)
        if (a->tail < a->head) cs.pairs_.push_back(*a);
      cs.pair_begin_.push_back(static_cast<std::int32_t>(cs.pairs_.size()));
    }
  }
  return cs;
}

void CompiledSchedule::require_periodic(const char* who) const {
  if (!periodic_)
    throw std::invalid_argument(std::string(who) +
                                ": needs a periodic schedule");
}

CompiledSchedule CompiledSchedule::compile(const SystolicSchedule& s,
                                           const graph::Digraph* g) {
  return build(s.n, s.mode, /*periodic=*/true, s.period, g);
}

CompiledSchedule CompiledSchedule::compile(const Protocol& p,
                                           const graph::Digraph* g) {
  return build(p.n, p.mode, /*periodic=*/false, p.rounds, g);
}

}  // namespace sysgo::protocol
