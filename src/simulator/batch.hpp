// The slice-major gossip engine: every gossip run (gossip_time, the sweep's
// simulate task, the synthesizer's objective) goes through it.
//
// An OR merge touches each item column independently, so a run splits by
// columns.  The n item columns are cut into slices of W words — W the
// smallest power of two >= ceil(n / 64), capped at 8, so n <= 512 is one
// slice and larger n uses 64-byte slices — and each slice runs *every*
// round over its W words of all n rows before the next slice starts.  The
// working set is one slice, n·W·8 bytes (1.5 MB at n = 24576), instead of
// the n²/8-byte knowledge matrix streamed once per round.
//
// A row is full in a slice when its words equal the slice's all-ones mask
// (the last slice's mask is partial); a per-row full byte and a full-row
// counter end each slice at its own completion round, and merges into a
// full head are skipped.  No per-merge popcount: the gossip time is the max
// over slices, and coverage (items delivered at the cap) is one popcount
// pass at the end.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "util/aligned.hpp"

namespace sysgo::simulator {

/// Outcome of a slice-major gossip run.
struct GossipOutcome {
  int rounds = -1;  // completion round, -1 when some slice misses the cap
  /// Items known summed over all vertices at the end of the run (n² when
  /// complete).  Only filled when the run was asked for coverage.
  std::int64_t coverage = 0;
};

/// Reusable slice scratch: n·W·8 + n bytes per lane (one lane serially;
/// under GossipOptions::parallel one per pool thread, the caller
/// included), grown on demand and reused across runs.
class GossipArena {
 public:
  /// Gossip over `rounds`: stored round r's merge work list — half-duplex
  /// arcs, or with `pairs` full-duplex tail < head pairs — executed
  /// cyclically from round 0 for up to max_rounds rounds; each round must
  /// be a matching on [0, n).  Without `coverage` the run stops at the
  /// first slice that misses the cap; with it every slice runs to its end
  /// and coverage is filled.  `parallel` runs slices on the process pool.
  [[nodiscard]] GossipOutcome run(
      int n, bool pairs, std::span<const std::span<const graph::Arc>> rounds,
      int max_rounds, bool coverage, bool parallel = false);

  /// A compiled schedule's run: periodic schedules wrap their stored
  /// rounds, finite protocols stop at round_count().
  [[nodiscard]] GossipOutcome run(const protocol::CompiledSchedule& cs,
                                  int max_rounds, bool coverage,
                                  bool parallel = false);

  /// Test hooks: the first lane's slice words (nullptr before the first
  /// run) and the scratch bytes one lane holds (n·W·8 + n after a run).
  [[nodiscard]] const std::uint64_t* scratch_data() const noexcept;
  [[nodiscard]] std::size_t lane_bytes() const noexcept;

 private:
  struct Lane {
    util::CacheAlignedVector<std::uint64_t> rows;  // n slices of W words
    std::vector<std::uint8_t> full;                // per-row full flag
    int latest = 0;             // latest completion round of its slices
    std::int64_t covered = 0;   // coverage of its slices
  };
  std::vector<Lane> lanes_;
  std::vector<std::span<const graph::Arc>> round_links_;  // compiled rounds
};

/// gossip_time through a caller-provided arena: identical results to
/// simulator::gossip_time(cs, max_rounds, opts), minus the per-call
/// allocation.
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts,
                              GossipArena& arena);

}  // namespace sysgo::simulator
