// Objective evaluation for schedule synthesis.
//
// A candidate schedule's quality is its *measured* completion time through
// the compiled simulator — gossip (all-pairs) or broadcast from a source —
// tie-broken by period length, then active-link count (fewer links = the
// same time with less hardware).  Optionally the Theorem 4.1 audited lower
// bound is evaluated too, and the gap (measured − certified) joins the
// order right after the round count, steering the annealer toward
// schedules the paper's machinery proves near-optimal.
//
// Infeasible candidates (incomplete within max_rounds) rank strictly below
// every feasible one, ordered among themselves by knowledge coverage so
// the annealer still has a gradient toward feasibility.
//
// Two evaluation paths produce identical objectives:
//
//   evaluate(cs, opts)       one-shot, from a compiled schedule
//   DraftEvaluator           the annealer's hot path: evaluates a
//                            ScheduleDraft directly — drafts maintain the
//                            matching invariants by construction, so the
//                            per-move CompiledSchedule build (validation,
//                            canonicalization, partner tables, half a dozen
//                            allocations) is skipped, and the gossip slice
//                            scratch is reused across moves.
//
// Gossip runs on the slice-major engine (simulator/batch.hpp).
//
// evaluate_batch scores many compiled candidates through one shared
// scratch arena (the restart winners' final full-budget re-scoring).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "protocol/compiled.hpp"
#include "simulator/batch.hpp"
#include "synth/draft.hpp"

namespace sysgo::synth {

enum class Goal {
  kGossip,     // every vertex learns every item
  kBroadcast,  // every vertex learns the source's item
};

struct ObjectiveOptions {
  Goal goal = Goal::kGossip;
  int source = 0;          // broadcast source (ignored by gossip)
  int max_rounds = 4096;   // simulation cap; beyond = infeasible
  /// Add the Theorem 4.1 gap term (gossip goal only — the audit certifies
  /// gossip rounds; the flag is ignored for broadcast).
  bool audit_gap = false;
};

struct Objective {
  bool feasible = false;
  int rounds = -1;     // completion time, -1 when infeasible
  int period = 0;      // schedule period
  int links = 0;       // active links summed over the period
  /// Items delivered at the end of the run, summed over vertices (n² when
  /// feasible; the gradient signal for infeasible candidates).  64-bit:
  /// n² overflows an int past n = 46340.
  std::int64_t coverage = 0;
  double audit_gap = 0.0;  // rounds − certified lower bound (audit_gap only)

  /// Annealing energy, lower = better: a scalarization the acceptance rule
  /// can take deltas of.  Feasible: rounds·1e6 + gap·1e4 + period·1e3 +
  /// links; infeasible: 1e12 − coverage·1e3 + period.  Approximate at the
  /// decimal boundaries (period >= 10, links >= 1000) — ranking decisions
  /// use better(), which compares the criteria exactly.
  [[nodiscard]] double score() const noexcept;
};

/// Strict "a beats b" under the documented tie order, compared
/// lexicographically: feasible first; then rounds, audit gap, period,
/// links; infeasible candidates by coverage (desc), then period.
[[nodiscard]] bool better(const Objective& a, const Objective& b) noexcept;

/// Evaluate a compiled periodic schedule.  Throws std::invalid_argument for
/// a non-periodic compilation or a broadcast source out of range.
[[nodiscard]] Objective evaluate(const protocol::CompiledSchedule& cs,
                                 const ObjectiveOptions& opts);

/// Evaluate many compiled periodic candidates through one shared scratch
/// arena (one slice-scratch allocation for the whole batch).  Entry i
/// equals evaluate(*batch[i], opts).
[[nodiscard]] std::vector<Objective> evaluate_batch(
    std::span<const protocol::CompiledSchedule* const> batch,
    const ObjectiveOptions& opts);

/// Reusable draft evaluator: identical objectives to
/// evaluate(CompiledSchedule::compile(d.to_schedule(), g), opts) with no
/// per-call compile and no per-call allocation.  Every call re-simulates
/// from round 0: a systolic schedule repeats its period many times before
/// gossip completes, so a move in any stored round changes almost the whole
/// run and there is no reusable prefix worth keeping.  Drafts reject any
/// move that would break the matching property and only activate pool
/// links, so the compile-time validation is redundant on this path
/// (property-tested in tests/simulator/test_kernels.cpp).  The audit-gap
/// term, when requested and the candidate is feasible, still compiles once
/// — the auditor consumes the flat form.
class DraftEvaluator {
 public:
  /// Evaluate a draft.  Throws std::invalid_argument for a broadcast
  /// source out of range.
  [[nodiscard]] Objective evaluate(const ScheduleDraft& draft,
                                   const ObjectiveOptions& opts);

  /// Test hook: backing words of the gossip slice scratch (nullptr before
  /// the first gossip evaluation).  Stable across goal switches at a fixed
  /// n — broadcast runs on its own reach vector.
  [[nodiscard]] const std::uint64_t* scratch_data() const noexcept;

 private:
  simulator::GossipArena arena_;  // gossip scratch
  std::vector<std::span<const graph::Arc>> links_;  // the draft's rounds
  std::vector<char> reach_;       // broadcast scratch
};

}  // namespace sysgo::synth
