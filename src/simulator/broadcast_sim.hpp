// Broadcast simulator: reach times of a single item under a compiled
// protocol.  Used for sanity experiments (broadcast lower bounds are the
// baseline the paper improves on), for verifying Definition 3.1's path
// condition, and by the exact search's broadcast witnesses.
#pragma once

#include <vector>

#include "protocol/compiled.hpp"

namespace sysgo::simulator {

/// reach[v] = first round after which v knows src's item (0 for src itself,
/// -1 when the item never arrives within the protocol).  One pass over a
/// compiled finite protocol's flat arc spans; throws std::invalid_argument
/// for a periodic compiled schedule (use broadcast_time).
[[nodiscard]] std::vector<int> broadcast_reach(const protocol::CompiledSchedule& cs,
                                               int src);

/// Rounds until src's item reaches every vertex, or -1: periodic schedules
/// wrap, finite protocols stop at round_count().
[[nodiscard]] int broadcast_time(const protocol::CompiledSchedule& cs, int src,
                                 int max_rounds);

}  // namespace sysgo::simulator
