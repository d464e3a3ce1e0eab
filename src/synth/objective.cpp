#include "synth/objective.hpp"

#include <stdexcept>
#include <vector>

#include "core/audit.hpp"

namespace sysgo::synth {

namespace {

/// Record a gossip run: feasible with its completion round, or infeasible
/// with the coverage the run reached at the cap.
void set_gossip(const simulator::GossipOutcome& run, Objective& obj) {
  obj.feasible = run.rounds >= 0;
  obj.rounds = run.rounds;
  obj.coverage = run.coverage;
}

/// Broadcast run with coverage: one reach bitset, whispering semantics —
/// a head learns what its tail knew at the *start* of the round (a
/// matching's merges are independent, so a two-phase sweep suffices).
void run_broadcast_objective(const protocol::CompiledSchedule& cs, int source,
                             int max_rounds, std::vector<char>& known,
                             Objective& obj) {
  const int n = cs.n();
  if (source < 0 || source >= n)
    throw std::invalid_argument("synth::evaluate: broadcast source out of range");
  known.assign(static_cast<std::size_t>(n), 0);
  known[static_cast<std::size_t>(source)] = 1;
  int reached = 1;
  if (reached == n) {
    obj.feasible = true;
    obj.rounds = 0;
    obj.coverage = reached;
    return;
  }
  const int rounds = cs.round_count();
  int r = 0;
  for (int i = 1; i <= max_rounds; ++i) {
    for (const graph::Arc& a : cs.round_arcs(r)) {
      // A matching never revisits a head within the round, so marking heads
      // immediately cannot leak same-round relays; full-duplex pair lists
      // expand to both directed arcs in round_arcs, covering exchanges.
      if (known[static_cast<std::size_t>(a.tail)] &&
          !known[static_cast<std::size_t>(a.head)]) {
        known[static_cast<std::size_t>(a.head)] = 1;
        ++reached;
      }
    }
    if (reached == n) {
      obj.feasible = true;
      obj.rounds = i;
      obj.coverage = reached;
      return;
    }
    if (++r == rounds) r = 0;
  }
  obj.coverage = reached;
}

/// The Theorem 4.1 gap term: measured rounds minus the audited lower bound,
/// clamped at 0 (the audit is a lower bound).
double audit_gap_of(const protocol::CompiledSchedule& cs, int rounds) {
  const auto audit = core::audit_schedule(cs);
  const double gap = static_cast<double>(rounds - audit.round_lower_bound);
  return gap < 0.0 ? 0.0 : gap;
}

/// The shared body of evaluate / evaluate_batch: period/links bookkeeping,
/// the goal run through the given scratch, and the optional audit term.
Objective evaluate_with_scratch(const protocol::CompiledSchedule& cs,
                                const ObjectiveOptions& opts,
                                simulator::GossipArena& arena,
                                std::vector<char>& reach) {
  cs.require_periodic("synth::evaluate");
  Objective obj;
  obj.period = cs.period_length();
  obj.links = static_cast<int>(cs.mode() == protocol::Mode::kFullDuplex
                                   ? cs.arc_total() / 2
                                   : cs.arc_total());
  if (opts.goal == Goal::kGossip)
    set_gossip(arena.run(cs, opts.max_rounds, /*coverage=*/true), obj);
  else
    run_broadcast_objective(cs, opts.source, opts.max_rounds, reach, obj);
  if (opts.audit_gap && opts.goal == Goal::kGossip && obj.feasible)
    obj.audit_gap = audit_gap_of(cs, obj.rounds);
  return obj;
}

}  // namespace

double Objective::score() const noexcept {
  if (!feasible)
    return 1e12 - static_cast<double>(coverage) * 1e3 +
           static_cast<double>(period);
  return static_cast<double>(rounds) * 1e6 + audit_gap * 1e4 +
         static_cast<double>(period) * 1e3 + static_cast<double>(links);
}

bool better(const Objective& a, const Objective& b) noexcept {
  // Authoritative lexicographic order — exact at any magnitude, unlike the
  // packed score() (whose decimal weights can invert adjacent criteria for
  // period >= 10 or links >= 1000).
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) {
    if (a.coverage != b.coverage) return a.coverage > b.coverage;
    return a.period < b.period;
  }
  if (a.rounds != b.rounds) return a.rounds < b.rounds;
  if (a.audit_gap != b.audit_gap) return a.audit_gap < b.audit_gap;
  if (a.period != b.period) return a.period < b.period;
  return a.links < b.links;
}

Objective evaluate(const protocol::CompiledSchedule& cs,
                   const ObjectiveOptions& opts) {
  simulator::GossipArena arena;
  std::vector<char> reach;
  return evaluate_with_scratch(cs, opts, arena, reach);
}

std::vector<Objective> evaluate_batch(
    std::span<const protocol::CompiledSchedule* const> batch,
    const ObjectiveOptions& opts) {
  simulator::GossipArena arena;
  std::vector<char> reach;
  std::vector<Objective> out;
  out.reserve(batch.size());
  for (const protocol::CompiledSchedule* cs : batch)
    out.push_back(evaluate_with_scratch(*cs, opts, arena, reach));
  return out;
}

// ------------------------------------------------------------ DraftEvaluator

const std::uint64_t* DraftEvaluator::scratch_data() const noexcept {
  return arena_.scratch_data();
}

Objective DraftEvaluator::evaluate(const ScheduleDraft& draft,
                                   const ObjectiveOptions& opts) {
  const int n = draft.n();
  const int period = draft.period();
  const bool full = draft.mode() == protocol::Mode::kFullDuplex;
  Objective obj;
  obj.period = period;
  obj.links = static_cast<int>(draft.total_links());

  if (opts.goal == Goal::kGossip) {
    // Draft links are the compiled work list: half-duplex rounds are their
    // directed arcs, full-duplex rounds their tail < head pair
    // representatives.  Merge order within a matching is irrelevant, so
    // skipping canonicalization changes nothing.
    links_.clear();
    for (int r = 0; r < period; ++r) links_.push_back(draft.links(r));
    set_gossip(arena_.run(n, full, links_, opts.max_rounds, /*coverage=*/true),
               obj);
  } else {
    if (opts.source < 0 || opts.source >= n)
      throw std::invalid_argument(
          "synth::evaluate: broadcast source out of range");
    reach_.assign(static_cast<std::size_t>(n), 0);
    reach_[static_cast<std::size_t>(opts.source)] = 1;
    int reached = 1;
    if (reached == n) {  // n == 1
      obj.feasible = true;
      obj.rounds = 0;
    } else {
      int r = 0;
      for (int i = 1; i <= opts.max_rounds; ++i) {
        for (const graph::Arc& a : draft.links(r)) {
          // Matching property: a vertex sits in at most one link per round,
          // so an exchange's two directions only talk to each other —
          // immediate marking equals the snapshot-semantics serial sweep.
          // Full-duplex draft links are tail < head representatives, hence
          // the relay in both directions.
          if (reach_[static_cast<std::size_t>(a.tail)] &&
              !reach_[static_cast<std::size_t>(a.head)]) {
            reach_[static_cast<std::size_t>(a.head)] = 1;
            ++reached;
          } else if (full && reach_[static_cast<std::size_t>(a.head)] &&
                     !reach_[static_cast<std::size_t>(a.tail)]) {
            reach_[static_cast<std::size_t>(a.tail)] = 1;
            ++reached;
          }
        }
        if (reached == n) {
          obj.feasible = true;
          obj.rounds = i;
          break;
        }
        if (++r == period) r = 0;
      }
    }
    obj.coverage = reached;
  }

  // The auditor consumes the compiled flat form, so a feasible candidate
  // compiles once for the gap term.
  if (opts.audit_gap && opts.goal == Goal::kGossip && obj.feasible)
    obj.audit_gap = audit_gap_of(
        protocol::CompiledSchedule::compile(draft.to_schedule()), obj.rounds);
  return obj;
}

}  // namespace sysgo::synth
