// Mutable schedule drafts: the annealer's working representation.
//
// A ScheduleDraft is a periodic schedule held in link form — one entry per
// active communication link per round (half-duplex: the directed arc;
// full-duplex: the tail < head edge representative) — plus a per-round
// per-vertex occupancy index.  Every mutation preserves the matching
// property by construction (an insert touching an occupied endpoint is
// rejected in O(1)), so any draft compiles cleanly through
// protocol::CompiledSchedule at evaluation time; nothing is re-validated
// per move.
//
// The move set mirrors the neighborhood the synthesizer explores: link
// insert / remove (and their composition, replace), cross-round link
// moves, period rotation, and period grow/shrink.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "protocol/protocol.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::synth {

class ScheduleDraft {
 public:
  /// Empty draft: `period` empty rounds on n vertices.
  ScheduleDraft(int n, protocol::Mode mode, int period);

  /// Import an authored schedule (the warm starts).  Full-duplex rounds are
  /// folded to their tail < head representatives.  Throws
  /// std::invalid_argument when a round is not a matching in the
  /// schedule's mode, an endpoint is out of range, or the period is empty.
  [[nodiscard]] static ScheduleDraft from_schedule(
      const protocol::SystolicSchedule& s);

  /// Export back to the authoring form (full-duplex links expand to both
  /// directions; rounds canonicalized).
  [[nodiscard]] protocol::SystolicSchedule to_schedule() const;

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] protocol::Mode mode() const noexcept { return mode_; }
  [[nodiscard]] int period() const noexcept {
    return static_cast<int>(rounds_.size());
  }
  [[nodiscard]] const std::vector<graph::Arc>& links(int r) const {
    return rounds_[static_cast<std::size_t>(r)];
  }
  /// Active links across the whole period.
  [[nodiscard]] std::size_t total_links() const noexcept { return total_links_; }

  /// Index of v's link in round r, or -1 when v is idle there.  O(1).
  [[nodiscard]] int link_of(int r, int v) const {
    return occupancy_[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)];
  }

  /// Both endpoints of `link` free in round r (and the link well-formed:
  /// distinct in-range endpoints, tail < head when full-duplex)?  O(1).
  [[nodiscard]] bool can_insert(int r, graph::Arc link) const;

  /// Add `link` to round r; false (and no change) when can_insert fails.
  bool insert(int r, graph::Arc link);

  /// Remove round r's link at `idx` (swap-with-last) and return it.
  graph::Arc remove(int r, std::size_t idx);

  /// Rotate the period left by k (round k becomes round 0).  Gossip under a
  /// periodic schedule starts at stored round 0, so rotation changes the
  /// achieved time without changing the round multiset.
  void rotate(int k);

  /// Insert an empty round before position `at` (0 <= at <= period()).
  void insert_round(int at);

  /// Remove round r entirely, returning its links (caller may re-insert to
  /// undo).  Requires period() > 1 — a schedule needs a nonempty period.
  std::vector<graph::Arc> remove_round(int r);

 private:
  int n_ = 0;
  protocol::Mode mode_ = protocol::Mode::kHalfDuplex;
  std::vector<std::vector<graph::Arc>> rounds_;
  // occupancy_[r][v] = index of v's link in rounds_[r], or -1.
  std::vector<std::vector<int>> occupancy_;
  std::size_t total_links_ = 0;
};

}  // namespace sysgo::synth
