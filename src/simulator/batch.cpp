#include "simulator/batch.hpp"

namespace sysgo::simulator {

KnowledgeMatrix& GossipArena::acquire(int n) {
  if (!know_ || know_->size() != n)
    know_ = std::make_unique<KnowledgeMatrix>(n);
  else
    know_->reset();
  return *know_;
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts, GossipArena& arena) {
  KnowledgeMatrix& know = arena.acquire(cs.n());
  if (know.all_full()) return 0;  // n == 1
  const int rounds = cs.round_count();
  if (!cs.periodic() && max_rounds > rounds) max_rounds = rounds;
  int r = 0;
  for (int i = 1; i <= max_rounds; ++i) {
    apply_round(know, cs, r, opts.parallel);
    if (know.all_full()) return i;
    if (++r == rounds) r = 0;
  }
  return -1;
}

}  // namespace sysgo::simulator
