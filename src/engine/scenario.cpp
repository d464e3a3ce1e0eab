#include "engine/scenario.hpp"

#include <functional>
#include <set>
#include <stdexcept>
#include <tuple>

namespace sysgo::engine {

using topology::Family;

std::string task_name(Task t) {
  switch (t) {
    case Task::kBound: return "bound";
    case Task::kDiameterBound: return "diameter";
    case Task::kSimulate: return "simulate";
    case Task::kAudit: return "audit";
    case Task::kSeparatorCheck: return "separator";
    case Task::kSolveGossip: return "solve-gossip";
    case Task::kSolveBroadcast: return "solve-broadcast";
    case Task::kSynthesize: return "synth";
  }
  return "?";
}

Task parse_task_name(const std::string& name) {
  if (name == "bound") return Task::kBound;
  if (name == "diameter") return Task::kDiameterBound;
  if (name == "simulate") return Task::kSimulate;
  if (name == "audit") return Task::kAudit;
  if (name == "separator") return Task::kSeparatorCheck;
  if (name == "solve-gossip") return Task::kSolveGossip;
  if (name == "solve-broadcast") return Task::kSolveBroadcast;
  if (name == "synth") return Task::kSynthesize;
  throw std::invalid_argument("unknown task: " + name);
}

bool task_needs_dimension(Task t) noexcept {
  return t == Task::kSimulate || t == Task::kAudit ||
         t == Task::kSeparatorCheck || t == Task::kSolveGossip ||
         t == Task::kSolveBroadcast || t == Task::kSynthesize;
}

std::size_t ScenarioKeyHash::operator()(const ScenarioKey& k) const noexcept {
  std::size_t h = static_cast<std::size_t>(k.family);
  h = h * 1000003u + static_cast<std::size_t>(k.d);
  h = h * 1000003u + static_cast<std::size_t>(k.D);
  h = h * 1000003u + static_cast<std::size_t>(k.mode);
  return h;
}

std::vector<SweepJob> shard_jobs(const std::vector<SweepJob>& jobs,
                                 util::ShardSpec shard) {
  if (shard.count < 1 || shard.index < 1 || shard.index > shard.count)
    throw std::invalid_argument("invalid shard spec: " +
                                std::to_string(shard.index) + "/" +
                                std::to_string(shard.count));
  std::vector<SweepJob> out;
  out.reserve(jobs.size() / static_cast<std::size_t>(shard.count) + 1);
  for (std::size_t j = static_cast<std::size_t>(shard.index) - 1;
       j < jobs.size(); j += static_cast<std::size_t>(shard.count))
    out.push_back(jobs[j]);
  return out;
}

std::vector<Family> all_families() {
  return {Family::kButterfly,       Family::kWrappedButterflyDirected,
          Family::kWrappedButterfly, Family::kDeBruijnDirected,
          Family::kDeBruijn,         Family::kKautzDirected,
          Family::kKautz};
}

std::vector<Family> registry_families() {
  auto fams = all_families();
  fams.insert(fams.end(),
              {Family::kCycle, Family::kComplete, Family::kHypercube,
               Family::kCubeConnectedCycles, Family::kShuffleExchange,
               Family::kKnodel, Family::kRandomRegular, Family::kRandomGnp});
  return fams;
}

std::vector<SweepJob> ScenarioSpec::expand() const {
  std::vector<ScenarioKey> keys = explicit_keys;
  if (keys.empty()) {
    const std::vector<int> dims = dimensions.empty() ? std::vector<int>{0}
                                                     : dimensions;
    for (Family f : families)
      for (int d : degrees)
        for (int D : dims)
          for (protocol::Mode m : modes) keys.push_back({f, d, D, m});
  }

  // Grid expansion emits asymptotic tasks once per (family, d, mode, task,
  // period) with D normalized to 0, regardless of how many dimensions the
  // grid crosses them with.  Explicit keys skip the dedup so every key
  // produces the same task-shaped record group — consumers index explicit
  // sweeps by a fixed per-key stride.
  const bool dedup = explicit_keys.empty();
  std::set<std::tuple<Family, int, int, Task, int>> seen_asymptotic;
  std::vector<SweepJob> jobs;
  for (const ScenarioKey& key : keys) {
    for (Task task : tasks) {
      if (task_needs_dimension(task)) {
        if (key.D > 0) jobs.push_back({key, task, 0});
        continue;
      }
      ScenarioKey base = key;
      base.D = 0;
      const std::vector<int> ss =
          task == Task::kBound ? periods : std::vector<int>{0};
      for (int s : ss) {
        if (!dedup ||
            seen_asymptotic
                .emplace(base.family, base.d, static_cast<int>(base.mode), task, s)
                .second)
          jobs.push_back({base, task, s});
      }
    }
  }
  return jobs;
}

bool same_result(const SweepRecord& a, const SweepRecord& b) {
  return a.key == b.key && a.task == b.task && a.s == b.s && a.n == b.n &&
         a.alpha == b.alpha && a.ell == b.ell && a.e == b.e &&
         a.lambda == b.lambda && a.rounds == b.rounds &&
         a.diameter == b.diameter && a.sep_distance == b.sep_distance &&
         a.sep_min_size == b.sep_min_size && a.states == b.states &&
         a.group == b.group && a.budget == b.budget &&
         a.objective == b.objective && a.restarts == b.restarts &&
         a.accepted == b.accepted;
}

std::string family_token(Family f) {
  switch (f) {
    case Family::kButterfly: return "bf";
    case Family::kWrappedButterflyDirected: return "wbf-dir";
    case Family::kWrappedButterfly: return "wbf";
    case Family::kDeBruijnDirected: return "db-dir";
    case Family::kDeBruijn: return "db";
    case Family::kKautzDirected: return "kautz-dir";
    case Family::kKautz: return "kautz";
    case Family::kCycle: return "cycle";
    case Family::kComplete: return "complete";
    case Family::kHypercube: return "hypercube";
    case Family::kCubeConnectedCycles: return "ccc";
    case Family::kShuffleExchange: return "se";
    case Family::kKnodel: return "knodel";
    case Family::kRandomRegular: return "rr";
    case Family::kRandomGnp: return "gnp";
  }
  return "?";
}

Family parse_family_token(const std::string& token) {
  if (token == "bf") return Family::kButterfly;
  if (token == "wbf-dir") return Family::kWrappedButterflyDirected;
  if (token == "wbf") return Family::kWrappedButterfly;
  if (token == "db-dir") return Family::kDeBruijnDirected;
  if (token == "db") return Family::kDeBruijn;
  if (token == "kautz-dir") return Family::kKautzDirected;
  if (token == "kautz") return Family::kKautz;
  if (token == "cycle") return Family::kCycle;
  if (token == "complete") return Family::kComplete;
  if (token == "hypercube") return Family::kHypercube;
  if (token == "ccc") return Family::kCubeConnectedCycles;
  if (token == "se") return Family::kShuffleExchange;
  if (token == "knodel") return Family::kKnodel;
  if (token == "rr") return Family::kRandomRegular;
  if (token == "gnp") return Family::kRandomGnp;
  throw std::invalid_argument("unknown family: " + token);
}

std::string mode_name(protocol::Mode m) {
  return m == protocol::Mode::kFullDuplex ? "full" : "half";
}

protocol::Mode parse_mode_name(const std::string& name) {
  if (name == "half") return protocol::Mode::kHalfDuplex;
  if (name == "full") return protocol::Mode::kFullDuplex;
  throw std::invalid_argument("unknown mode: " + name);
}

core::Duplex duplex_of(protocol::Mode m) noexcept {
  return m == protocol::Mode::kFullDuplex ? core::Duplex::kFull
                                          : core::Duplex::kHalf;
}

}  // namespace sysgo::engine
