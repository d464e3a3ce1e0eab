// Round-synchronous gossip simulator.
//
// Executes a systolic schedule or compiled protocol against the whispering
// model: when arc (x, y) is active at round i, y additionally learns
// everything x knew at the beginning of round i.  Every run goes through the
// slice-major engine (simulator/batch.hpp).
#pragma once

#include "protocol/compiled.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::simulator {

struct GossipOptions {
  /// Run the engine's column slices on the process pool.
  bool parallel = false;
};

/// Run a systolic schedule until gossip completes or max_rounds elapse.
/// Returns the completion round (gossip time), or -1 when incomplete.
/// Compiles the schedule first, so throws std::invalid_argument when a
/// round is not a matching of its mode (see CompiledSchedule::compile).
[[nodiscard]] int gossip_time(const protocol::SystolicSchedule& sched,
                              int max_rounds, const GossipOptions& opts = {});

/// Compiled execution on the slice-major engine: periodic schedules wrap
/// their stored rounds, finite protocols stop at round_count().
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts = {});

}  // namespace sysgo::simulator
