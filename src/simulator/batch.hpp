// Batched compiled-schedule execution.
//
// GossipArena — many full gossip evaluations through one reusable scratch
// matrix: the arena hands out a reset() KnowledgeMatrix (reallocating only
// when n changes), so a stream of evaluations — the engine's simulate jobs,
// the synthesizer's candidate scoring — stops paying an allocation +
// page-fault per evaluation.  Results are identical to the per-call
// gossip_time.
#pragma once

#include <memory>

#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/knowledge.hpp"

namespace sysgo::simulator {

/// Reusable gossip scratch: acquire(n) returns a reset KnowledgeMatrix,
/// reallocating only when n differs from the previous acquisition.
class GossipArena {
 public:
  [[nodiscard]] KnowledgeMatrix& acquire(int n);

 private:
  std::unique_ptr<KnowledgeMatrix> know_;
};

/// gossip_time through a caller-provided arena: identical results to
/// simulator::gossip_time(cs, max_rounds, opts), minus the per-call
/// allocation.
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts,
                              GossipArena& arena);

}  // namespace sysgo::simulator
