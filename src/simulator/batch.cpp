#include "simulator/batch.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "simulator/kernels.hpp"
#include "util/thread_pool.hpp"

namespace sysgo::simulator {

namespace {

using SliceStep = int (*)(std::uint64_t*, const graph::Arc*, std::size_t, bool,
                          const std::uint64_t*, std::uint8_t*);

/// Words per slice: the smallest power of two >= ceil(n / 64), capped at 8.
std::size_t slice_words(int n) {
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::size_t w = 1;
  while (w < words && w < 8) w *= 2;
  return w;
}

/// One run's fixed inputs, shared by every slice.
struct SliceRun {
  int n;
  std::size_t words;  // W
  bool pairs;
  std::span<const std::span<const graph::Arc>> rounds;
  int max_rounds;
  SliceStep step;
};

/// Run slice j from round 0 in `rows`/`full` (sized n·W and n): returns its
/// completion round, or -1 when it misses the cap; adds the items its
/// columns hold at the end to *coverage when non-null.
int run_slice(const SliceRun& run, std::size_t j, std::uint64_t* rows,
              std::uint8_t* full, std::int64_t* coverage) {
  const std::size_t n = static_cast<std::size_t>(run.n);
  const std::size_t W = run.words;
  const std::size_t lo = j * W * 64;  // first item column of the slice
  const std::size_t cols = std::min(W * 64, n - lo);
  std::uint64_t mask[8] = {};
  for (std::size_t c = 0; c < cols; c += 64)
    mask[c / 64] = cols - c >= 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (cols - c)) - 1;

  // Identity start: vertex lo + c holds item lo + c.
  std::fill(rows, rows + n * W, std::uint64_t{0});
  std::fill(full, full + n, std::uint8_t{0});
  int full_rows = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    std::uint64_t* const row = rows + (lo + c) * W;
    row[c / 64] |= std::uint64_t{1} << (c % 64);
    if (std::equal(row, row + W, mask)) {  // a one-column slice
      full[lo + c] = 1;
      ++full_rows;
    }
  }

  int done = full_rows == run.n ? 0 : -1;
  const int period = static_cast<int>(run.rounds.size());
  int r = 0;
  for (int i = 1; done < 0 && i <= run.max_rounds; ++i) {
    const std::span<const graph::Arc> links =
        run.rounds[static_cast<std::size_t>(r)];
    full_rows +=
        run.step(rows, links.data(), links.size(), run.pairs, mask, full);
    if (full_rows == run.n) done = i;
    if (++r == period) r = 0;
  }
  if (coverage != nullptr) {
    if (done >= 0) {
      *coverage += static_cast<std::int64_t>(n * cols);
    } else {
      for (std::size_t w = 0; w < n * W; ++w)
        *coverage += std::popcount(rows[w]);
    }
  }
  return done;
}

}  // namespace

GossipOutcome GossipArena::run(
    int n, bool pairs, std::span<const std::span<const graph::Arc>> rounds,
    int max_rounds, bool coverage, bool parallel) {
  const std::size_t W = slice_words(n);
  const std::size_t slices =
      (static_cast<std::size_t>(n) + W * 64 - 1) / (W * 64);
  // The kernel table is resolved even when W < 8 leaves it unused, so a
  // bad SYSGO_FORCE_KERNEL fails every run alike.
  SliceStep step = kernels().slice_step8;
  switch (W) {
    case 1: step = slice_step<1>; break;
    case 2: step = slice_step<2>; break;
    case 4: step = slice_step<4>; break;
    default: break;
  }
  const int cap = rounds.empty() ? 0 : max_rounds;  // nothing to execute
  const SliceRun spec{n, W, pairs, rounds, cap, step};

  util::ThreadPool* pool = nullptr;
  std::size_t lanes = 1;
  if (parallel && slices > 1) {
    pool = &util::ThreadPool::instance();
    lanes = std::min<std::size_t>(slices, pool->worker_count() + 1);
  }
  if (lanes_.size() < lanes) lanes_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lanes_[l].rows.resize(static_cast<std::size_t>(n) * W);
    lanes_[l].full.resize(static_cast<std::size_t>(n));
  }

  // Each lane pulls slices off one counter into its own scratch; a slice
  // that misses the cap stops the others unless coverage is wanted.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto drain = [&](std::size_t l) {
    Lane& lane = lanes_[l];
    lane.latest = 0;
    lane.covered = 0;
    for (std::size_t j = next++; j < slices; j = next++) {
      if (!coverage && failed.load(std::memory_order_relaxed)) return;
      const int t = run_slice(spec, j, lane.rows.data(), lane.full.data(),
                              coverage ? &lane.covered : nullptr);
      if (t < 0) failed.store(true, std::memory_order_relaxed);
      lane.latest = std::max(lane.latest, t);
    }
  };
  if (lanes == 1)
    drain(0);
  else
    pool->run_indexed(lanes, drain);

  GossipOutcome out;
  out.rounds = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    out.rounds = std::max(out.rounds, lanes_[l].latest);
    out.coverage += lanes_[l].covered;
  }
  if (failed) out.rounds = -1;
  return out;
}

GossipOutcome GossipArena::run(const protocol::CompiledSchedule& cs,
                               int max_rounds, bool coverage, bool parallel) {
  if (!cs.periodic()) max_rounds = std::min(max_rounds, cs.round_count());
  round_links_.clear();
  for (int r = 0; r < cs.round_count(); ++r)
    round_links_.push_back(cs.round_pairs(r));
  return run(cs.n(), cs.mode() == protocol::Mode::kFullDuplex, round_links_,
             max_rounds, coverage, parallel);
}

const std::uint64_t* GossipArena::scratch_data() const noexcept {
  return lanes_.empty() ? nullptr : lanes_[0].rows.data();
}

std::size_t GossipArena::lane_bytes() const noexcept {
  return lanes_.empty() ? 0
                        : lanes_[0].rows.size() * sizeof(std::uint64_t) +
                              lanes_[0].full.size();
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts, GossipArena& arena) {
  return arena.run(cs, max_rounds, /*coverage=*/false, opts.parallel).rounds;
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts) {
  GossipArena arena;
  return gossip_time(cs, max_rounds, opts, arena);
}

int gossip_time(const protocol::SystolicSchedule& sched, int max_rounds,
                const GossipOptions& opts) {
  return gossip_time(protocol::CompiledSchedule::compile(sched), max_rounds,
                     opts);
}

}  // namespace sysgo::simulator
