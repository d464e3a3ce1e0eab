#include "simulator/gossip_sim.hpp"

#include <stdexcept>

#include "util/parallel.hpp"

namespace sysgo::simulator {

void apply_round(KnowledgeMatrix& know, const protocol::Round& round,
                 protocol::Mode mode, bool parallel) {
  if (mode == protocol::Mode::kFullDuplex) {
    // Each unordered pair appears as two opposite arcs; merge once per pair.
    auto merge = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto& a = round.arcs[i];
        if (a.tail < a.head) know.merge_both(a.tail, a.head);
      }
    };
    if (parallel)
      util::parallel_for_blocks(0, round.arcs.size(), merge, 512);
    else
      merge(0, round.arcs.size());
  } else {
    // Matching: heads are distinct and no head is also a tail, so merges
    // are independent.
    auto merge = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto& a = round.arcs[i];
        know.merge_into(a.head, a.tail);
      }
    };
    if (parallel)
      util::parallel_for_blocks(0, round.arcs.size(), merge, 512);
    else
      merge(0, round.arcs.size());
  }
}

void apply_round(KnowledgeMatrix& know, const protocol::CompiledSchedule& cs,
                 int r, bool parallel) {
  // The work list is one flat span, so the whole round is a single batch
  // call (disjoint sub-spans for the parallel blocks: a matching's merges
  // are independent).
  if (cs.mode() == protocol::Mode::kFullDuplex) {
    const auto pairs = cs.round_pairs(r);
    if (parallel)
      util::parallel_for_blocks(
          0, pairs.size(),
          [&](std::size_t lo, std::size_t hi) {
            know.merge_pairs(pairs.subspan(lo, hi - lo));
          },
          512);
    else
      know.merge_pairs(pairs);
  } else {
    const auto arcs = cs.round_arcs(r);
    if (parallel)
      util::parallel_for_blocks(
          0, arcs.size(),
          [&](std::size_t lo, std::size_t hi) {
            know.merge_arcs(arcs.subspan(lo, hi - lo));
          },
          512);
    else
      know.merge_arcs(arcs);
  }
}

namespace {

GossipResult finish(const KnowledgeMatrix& know, bool complete, int executed,
                    int completion_round, std::vector<int> vertex_completion) {
  GossipResult res;
  res.complete = complete;
  res.rounds_executed = executed;
  res.completion_round = complete ? completion_round : 0;
  res.vertex_completion = std::move(vertex_completion);
  res.final_counts.reserve(static_cast<std::size_t>(know.size()));
  for (int v = 0; v < know.size(); ++v) res.final_counts.push_back(know.count(v));
  return res;
}

// The one finite gossip loop both run_gossip overloads share: apply(know, r)
// executes 0-based round r, arcs_of(r) yields its arcs for completion
// tracking (only endpoints of a round's arcs can change state).
template <typename Apply, typename ArcsOf>
GossipResult run_gossip_loop(int n, int round_total, const GossipOptions& opts,
                             Apply&& apply, ArcsOf&& arcs_of) {
  KnowledgeMatrix know(n);
  std::vector<int> vertex_completion;
  if (opts.track_completion) {
    vertex_completion.assign(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v)
      if (know.row_full(v)) vertex_completion[static_cast<std::size_t>(v)] = 0;
  }

  int round_no = 0;
  for (int r = 0; r < round_total; ++r) {
    ++round_no;
    apply(know, r);
    if (opts.track_completion) {
      for (const auto& a : arcs_of(r))
        for (int v : {a.tail, a.head})
          if (vertex_completion[static_cast<std::size_t>(v)] == -1 &&
              know.row_full(v))
            vertex_completion[static_cast<std::size_t>(v)] = round_no;
    }
    if (know.all_full())
      return finish(know, true, round_no, round_no, std::move(vertex_completion));
  }
  return finish(know, know.all_full(), round_no, round_no,
                std::move(vertex_completion));
}

}  // namespace

GossipResult run_gossip(const protocol::Protocol& p, const GossipOptions& opts) {
  return run_gossip_loop(
      p.n, p.length(), opts,
      [&](KnowledgeMatrix& know, int r) {
        apply_round(know, p.rounds[static_cast<std::size_t>(r)], p.mode,
                    opts.parallel);
      },
      [&](int r) -> const std::vector<protocol::Arc>& {
        return p.rounds[static_cast<std::size_t>(r)].arcs;
      });
}

GossipResult run_gossip(const protocol::CompiledSchedule& cs,
                        const GossipOptions& opts) {
  cs.require_finite("run_gossip");  // periodic schedules go through gossip_time
  return run_gossip_loop(
      cs.n(), cs.round_count(), opts,
      [&](KnowledgeMatrix& know, int r) {
        apply_round(know, cs, r, opts.parallel);
      },
      [&](int r) { return cs.round_arcs(r); });
}

int gossip_time(const protocol::SystolicSchedule& sched, int max_rounds,
                const GossipOptions& opts) {
  KnowledgeMatrix know(sched.n);
  if (know.all_full()) return 0;  // n == 1
  for (int i = 1; i <= max_rounds; ++i) {
    apply_round(know, sched.round_at(i), sched.mode, opts.parallel);
    if (know.all_full()) return i;
  }
  return -1;
}

}  // namespace sysgo::simulator
