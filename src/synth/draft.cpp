#include "synth/draft.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sysgo::synth {

using graph::Arc;
using protocol::Mode;

ScheduleDraft::ScheduleDraft(int n, Mode mode, int period)
    : n_(n), mode_(mode) {
  if (n < 1) throw std::invalid_argument("ScheduleDraft: need n >= 1");
  if (period < 1) throw std::invalid_argument("ScheduleDraft: need period >= 1");
  rounds_.resize(static_cast<std::size_t>(period));
  occupancy_.assign(static_cast<std::size_t>(period),
                    std::vector<int>(static_cast<std::size_t>(n), -1));
}

ScheduleDraft ScheduleDraft::from_schedule(const protocol::SystolicSchedule& s) {
  if (s.period.empty())
    throw std::invalid_argument("ScheduleDraft: empty period");
  ScheduleDraft draft(s.n, s.mode, s.period_length());
  for (int r = 0; r < s.period_length(); ++r) {
    for (const Arc& a : s.period[static_cast<std::size_t>(r)].arcs) {
      // Full-duplex rounds carry both directions; keep one representative.
      if (s.mode == Mode::kFullDuplex && a.tail > a.head) continue;
      if (!draft.insert(r, a))
        throw std::invalid_argument(
            "ScheduleDraft: round is not a matching in the schedule's mode");
    }
    if (s.mode == Mode::kFullDuplex) {
      // Every authored arc must be one direction of an inserted link:
      // exactly two arcs per link.  This catches a missing opposite in
      // either orientation ({1,3} alone AND {3,1} alone) and duplicates —
      // a skipped tail > head arc with no representative would otherwise
      // vanish silently.
      if (s.period[static_cast<std::size_t>(r)].arcs.size() !=
          2 * draft.links(r).size())
        throw std::invalid_argument(
            "ScheduleDraft: full-duplex round is not a set of opposite "
            "arc pairs");
    }
  }
  return draft;
}

protocol::SystolicSchedule ScheduleDraft::to_schedule() const {
  protocol::SystolicSchedule s;
  s.n = n_;
  s.mode = mode_;
  s.period.resize(rounds_.size());
  for (std::size_t r = 0; r < rounds_.size(); ++r) {
    auto& round = s.period[r];
    round.arcs.reserve(rounds_[r].size() * (mode_ == Mode::kFullDuplex ? 2 : 1));
    for (const Arc& link : rounds_[r]) {
      round.arcs.push_back(link);
      if (mode_ == Mode::kFullDuplex) round.arcs.push_back(graph::reversed(link));
    }
    round.canonicalize();
  }
  return s;
}

bool ScheduleDraft::can_insert(int r, Arc link) const {
  if (link.tail < 0 || link.tail >= n_ || link.head < 0 || link.head >= n_ ||
      link.tail == link.head)
    return false;
  if (mode_ == Mode::kFullDuplex && link.tail > link.head) return false;
  return link_of(r, link.tail) == -1 && link_of(r, link.head) == -1;
}

bool ScheduleDraft::insert(int r, Arc link) {
  if (!can_insert(r, link)) return false;
  auto& round = rounds_[static_cast<std::size_t>(r)];
  auto& occ = occupancy_[static_cast<std::size_t>(r)];
  const int idx = static_cast<int>(round.size());
  round.push_back(link);
  occ[static_cast<std::size_t>(link.tail)] = idx;
  occ[static_cast<std::size_t>(link.head)] = idx;
  ++total_links_;
  return true;
}

Arc ScheduleDraft::remove(int r, std::size_t idx) {
  auto& round = rounds_[static_cast<std::size_t>(r)];
  auto& occ = occupancy_[static_cast<std::size_t>(r)];
  const Arc removed = round[idx];
  occ[static_cast<std::size_t>(removed.tail)] = -1;
  occ[static_cast<std::size_t>(removed.head)] = -1;
  if (idx + 1 != round.size()) {
    round[idx] = round.back();  // swap-with-last keeps removal O(1)
    occ[static_cast<std::size_t>(round[idx].tail)] = static_cast<int>(idx);
    occ[static_cast<std::size_t>(round[idx].head)] = static_cast<int>(idx);
  }
  round.pop_back();
  --total_links_;
  return removed;
}

void ScheduleDraft::rotate(int k) {
  const int p = period();
  k = ((k % p) + p) % p;
  if (k == 0) return;
  std::rotate(rounds_.begin(), rounds_.begin() + k, rounds_.end());
  std::rotate(occupancy_.begin(), occupancy_.begin() + k, occupancy_.end());
}

void ScheduleDraft::insert_round(int at) {
  // Explicit element type: a bare {} would select the initializer_list
  // overload of vector::insert and insert nothing.
  rounds_.insert(rounds_.begin() + at, std::vector<Arc>{});
  occupancy_.insert(occupancy_.begin() + at,
                    std::vector<int>(static_cast<std::size_t>(n_), -1));
}

std::vector<Arc> ScheduleDraft::remove_round(int r) {
  if (period() <= 1)
    throw std::logic_error("ScheduleDraft::remove_round: period would be empty");
  std::vector<Arc> links = std::move(rounds_[static_cast<std::size_t>(r)]);
  rounds_.erase(rounds_.begin() + r);
  occupancy_.erase(occupancy_.begin() + r);
  total_links_ -= links.size();
  return links;
}

}  // namespace sysgo::synth
