// perfbench_layers: the benchmark's per-layer span tracer.
//
// Runs one `sysgo sweep|solve|synth` grid by calling each module's public
// functions in the order engine::SweepRunner::run_job_impl calls them, and
// wraps every call in a span recorded here, outside the program.  The
// untraced end-to-end numbers come from the real CLI; this tracer exists
// only to split a run's time by layer.
//
//   perfbench_layers --families F,.. --d 2,3 --D 3:5 --modes half,full
//                    --tasks bound,simulate,.. [--periods 3:8,inf]
//                    [--threads N] [--seed S] [--store PATH [--resume]]
//                    --spans OUT.json --records OUT.csv --metrics OUT.json
//
// List flags use the CLI's syntax ("lo:hi" ranges, "inf" periods).  Spans
// are kept in memory per thread and written once, when the run ends.  Every
// span carries name, start, end, parent and the index of the cell (job) it
// belongs to.  A job that throws is counted and skipped; the records file
// holds the records of the jobs that finished, in job order.  --metrics
// writes the program's own obs registry at the end, as `sysgo --metrics`
// does; the store, pool, search and synth counters in it come from the
// library calls made here.  The engine counters in it stay at zero (only
// engine::SweepRunner increments them), so the jobs run and the artifact
// cache hits and misses of this run are in the spans file instead.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "core/separator_bound.hpp"
#include "engine/scenario.hpp"
#include "graph/search.hpp"
#include "io/sweep_io.hpp"
#include "obs/metrics.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "search/solver.hpp"
#include "search/state.hpp"
#include "separator/separator.hpp"
#include "simulator/batch.hpp"
#include "simulator/gossip_sim.hpp"
#include "store/result_store.hpp"
#include "synth/synthesizer.hpp"
#include "topology/topology.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace engine = sysgo::engine;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

// ------------------------------------------------------------------ spans

enum SpanName : int {
  kRun,
  kStoreLoad,
  kJob,
  kStoreLookup,
  kStoreInsert,
  kIoEmit,
  kTopologyBuild,
  kProtocolColor,
  kProtocolCompile,
  kSimulatorGossip,
  kCoreAudit,
  kCoreBound,
  kSeparatorVerify,
  kSearchSolve,
  kSynthSynthesize,
  kSpanNameCount,
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "run",           "store.load",        "engine.job",
    "store.lookup",  "store.insert",      "io.emit",
    "topology.build", "protocol.color",   "protocol.compile",
    "simulator.gossip", "core.audit",     "core.bound",
    "separator.verify", "search.solve",   "synth.synthesize",
};

struct SpanRec {
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index in the same lane, -1 for a lane root
  std::int64_t cell = -1;
};

/// One thread's span buffer.  Only its owning thread touches it until the
/// run ends and the main thread merges every lane.
struct Lane {
  std::vector<SpanRec> spans;
  std::vector<int> open;
  std::int64_t cell = -1;
};

std::mutex g_lanes_mutex;
std::vector<std::unique_ptr<Lane>> g_lanes;  // guarded by g_lanes_mutex

Lane& this_lane() {
  thread_local Lane* lane = nullptr;
  if (lane == nullptr) {
    auto owned = std::make_unique<Lane>();
    owned->spans.reserve(1 << 14);
    lane = owned.get();
    const std::lock_guard<std::mutex> lock(g_lanes_mutex);
    g_lanes.push_back(std::move(owned));
  }
  return *lane;
}

class Span {
 public:
  explicit Span(SpanName name) : lane_(this_lane()) {
    index_ = static_cast<int>(lane_.spans.size());
    lane_.spans.push_back({name, now_ns(), 0,
                           lane_.open.empty() ? -1 : lane_.open.back(),
                           lane_.cell});
    lane_.open.push_back(index_);
  }
  ~Span() {
    lane_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    lane_.open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Lane& lane_;
  int index_ = 0;
};

// ------------------------------------------------------------- arguments

std::vector<std::string> split_list(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = std::min(arg.find(',', start), arg.size());
    out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::vector<int> parse_int_list(const std::string& arg, const char* flag) {
  std::vector<int> out;
  for (const std::string& tok : split_list(arg)) {
    if (tok == "inf") {
      out.push_back(sysgo::core::kUnboundedPeriod);
      continue;
    }
    const std::size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      out.push_back(sysgo::util::parse_int(tok, flag));
      continue;
    }
    const int lo = sysgo::util::parse_int(tok.substr(0, colon), flag);
    const int hi = sysgo::util::parse_int(tok.substr(colon + 1), flag);
    for (int v = lo; v <= hi; ++v) out.push_back(v);
  }
  return out;
}

struct Args {
  engine::ScenarioSpec spec;
  unsigned threads = 1;
  std::string store_path;
  bool resume = false;
  std::string spans_path;
  std::string records_path;
  std::string metrics_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.spec.degrees = {2};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--resume") {
      a.resume = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--families") {
      for (const auto& t : split_list(value))
        a.spec.families.push_back(engine::parse_family_token(t));
    } else if (flag == "--d") {
      a.spec.degrees = parse_int_list(value, "--d");
    } else if (flag == "--D") {
      a.spec.dimensions = parse_int_list(value, "--D");
    } else if (flag == "--modes") {
      a.spec.modes.clear();
      for (const auto& t : split_list(value))
        a.spec.modes.push_back(engine::parse_mode_name(t));
    } else if (flag == "--tasks") {
      for (const auto& t : split_list(value))
        a.spec.tasks.push_back(engine::parse_task_name(t));
    } else if (flag == "--periods") {
      a.spec.periods = parse_int_list(value, "--periods");
    } else if (flag == "--threads") {
      a.threads = static_cast<unsigned>(
          sysgo::util::parse_int_in(value, "--threads", {1, 256}));
    } else if (flag == "--seed") {
      a.spec.limits.seed = sysgo::util::parse_u64(value, "--seed");
    } else if (flag == "--restarts") {
      a.spec.limits.synth_restarts =
          sysgo::util::parse_int_in(value, "--restarts", {1, 1 << 20});
    } else if (flag == "--store") {
      a.store_path = value;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--records") {
      a.records_path = value;
    } else if (flag == "--metrics") {
      a.metrics_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.spans_path.empty() || a.records_path.empty() ||
      a.metrics_path.empty())
    throw std::invalid_argument("--spans, --records and --metrics are required");
  return a;
}

// ------------------------------------------------------------------ jobs

/// Computed (not measured) simulator kernel work of one simulate cell.
struct KernelWork {
  std::int64_t rounds = 0;
  std::int64_t row_ops = 0;
  std::int64_t bytes = 0;
};

struct Artifacts {
  sysgo::graph::Digraph graph;
  sysgo::protocol::SystolicSchedule schedule;
  sysgo::protocol::CompiledSchedule compiled;
};

/// The artifact cache of engine::SweepRunner, keyed and counted the same
/// way: one build per (family, d, D, mode) for the run's single seed, a miss
/// when the key is new and a hit otherwise; concurrent requests for one key
/// wait on its single build.
class ArtifactCache {
 public:
  std::shared_ptr<const Artifacts> get(const engine::ScenarioKey& key,
                                       std::uint64_t seed) {
    std::shared_ptr<Entry> entry;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto& slot = map_[std::make_tuple(static_cast<int>(key.family), key.d,
                                        key.D, static_cast<int>(key.mode))];
      ++(slot ? hits_ : misses_);
      if (!slot) slot = std::make_shared<Entry>();
      entry = slot;
    }
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (!entry->value) {
      auto art = std::make_shared<Artifacts>();
      {
        const Span s(kTopologyBuild);
        art->graph =
            sysgo::topology::make_family(key.family, key.d, key.D, seed);
      }
      {
        const Span s(kProtocolColor);
        art->schedule =
            sysgo::protocol::edge_coloring_schedule(art->graph, key.mode);
      }
      {
        const Span s(kProtocolCompile);
        art->compiled = sysgo::protocol::CompiledSchedule::compile(
            art->schedule, art->graph.is_symmetric() ? &art->graph : nullptr);
      }
      entry->value = std::move(art);
    }
    return entry->value;
  }

  [[nodiscard]] std::int64_t hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  [[nodiscard]] std::int64_t misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

 private:
  struct Entry {
    std::mutex mutex;
    std::shared_ptr<const Artifacts> value;  // guarded by mutex
  };
  mutable std::mutex mutex_;
  std::map<std::tuple<int, int, int, int>, std::shared_ptr<Entry>>
      map_;                   // guarded by mutex_
  std::int64_t hits_ = 0;     // guarded by mutex_
  std::int64_t misses_ = 0;   // guarded by mutex_
};

/// Rounds, merges and row bytes of a gossip run that stopped after
/// `rounds` steps: each active arc is one row merge of ceil(n/64) words.
/// A half-duplex merge reads two rows and writes one; a full-duplex pair
/// reads and writes both rows, i.e. two row transfers per arc.
KernelWork kernel_work(const sysgo::protocol::CompiledSchedule& cs,
                       int rounds, int max_rounds) {
  KernelWork w;
  w.rounds = rounds >= 0 ? rounds : max_rounds;
  const int period = cs.round_count();
  if (period == 0) return w;
  const std::int64_t full = w.rounds / period;
  w.row_ops = full * static_cast<std::int64_t>(cs.arc_total());
  for (int r = 0; r < w.rounds % period; ++r)
    w.row_ops += static_cast<std::int64_t>(cs.round_arcs(r).size());
  const std::int64_t row_bytes = (cs.n() + 63) / 64 * 8;
  const int transfers =
      cs.mode() == sysgo::protocol::Mode::kFullDuplex ? 2 : 3;
  w.bytes = w.row_ops * row_bytes * transfers;
  return w;
}

struct JobOutcome {
  std::optional<engine::SweepRecord> record;
  KernelWork work;
  bool simulated = false;
};

/// One job, calling the modules in engine::SweepRunner::run_job_impl order.
JobOutcome execute(const engine::SweepJob& job,
                   const engine::ExecutionLimits& limits,
                   ArtifactCache& cache) {
  JobOutcome out;
  engine::SweepRecord r;
  r.key = job.key;
  r.task = job.task;
  r.s = job.s;
  const bool needs_separator_analysis =
      job.task == engine::Task::kBound ||
      job.task == engine::Task::kDiameterBound ||
      job.task == engine::Task::kSeparatorCheck;
  if (needs_separator_analysis &&
      !sysgo::topology::family_has_separator_analysis(job.key.family)) {
    r.alpha = r.ell = r.e = r.lambda = -1.0;
    out.record = r;
    return out;
  }
  switch (job.task) {
    case engine::Task::kBound: {
      const Span s(kCoreBound);
      const auto params = sysgo::separator::lemma31_params(job.key.family,
                                                           job.key.d);
      r.alpha = params.alpha;
      r.ell = params.ell;
      const auto sb = sysgo::core::separator_bound(
          job.key.family, job.key.d, job.s, engine::duplex_of(job.key.mode));
      r.e = sb.e;
      r.lambda = sb.lambda;
      break;
    }
    case engine::Task::kDiameterBound: {
      const Span s(kCoreBound);
      r.e = sysgo::core::diameter_coefficient(job.key.family, job.key.d);
      break;
    }
    case engine::Task::kSimulate: {
      const auto art = cache.get(job.key, limits.seed);
      r.n = art->compiled.n();
      r.s = art->compiled.period_length();
      sysgo::simulator::GossipOptions gopts;
      gopts.parallel = limits.simulate_parallel_rounds;
      thread_local sysgo::simulator::GossipArena arena;
      {
        const Span s(kSimulatorGossip);
        r.rounds = sysgo::simulator::gossip_time(
            art->compiled, limits.simulate_max_rounds, gopts, arena);
      }
      out.work =
          kernel_work(art->compiled, r.rounds, limits.simulate_max_rounds);
      out.simulated = true;
      break;
    }
    case engine::Task::kAudit: {
      const auto art = cache.get(job.key, limits.seed);
      r.n = art->compiled.n();
      r.s = art->compiled.period_length();
      const Span s(kCoreAudit);
      const auto audit = sysgo::core::audit_schedule(art->compiled);
      r.lambda = audit.lambda_star;
      r.e = audit.e_coeff;
      r.rounds = audit.round_lower_bound;
      break;
    }
    case engine::Task::kSeparatorCheck: {
      const auto art = cache.get(job.key, limits.seed);
      r.n = art->graph.vertex_count();
      const Span s(kSeparatorVerify);
      r.diameter = sysgo::graph::diameter(art->graph);
      const auto sep = sysgo::separator::build_separator(
          job.key.family, job.key.d, job.key.D);
      r.alpha = sep.params.alpha;
      r.ell = sep.params.ell;
      const auto chk = sysgo::separator::verify_separator(art->graph, sep);
      r.sep_distance = chk.min_distance;
      r.sep_min_size =
          static_cast<std::int64_t>(std::min(chk.size1, chk.size2));
      break;
    }
    case engine::Task::kSolveGossip:
    case engine::Task::kSolveBroadcast: {
      std::int64_t order = 0;
      try {
        order = sysgo::topology::family_order(job.key.family, job.key.d,
                                              job.key.D);
      } catch (const std::invalid_argument&) {
        break;
      }
      if (order > sysgo::search::kMaxVertices) {
        r.n = static_cast<int>(
            std::min<std::int64_t>(order, std::numeric_limits<int>::max()));
        break;
      }
      sysgo::graph::Digraph g;
      {
        const Span s(kTopologyBuild);
        g = sysgo::topology::make_family(job.key.family, job.key.d,
                                         job.key.D, limits.seed);
      }
      r.n = g.vertex_count();
      sysgo::search::SolveOptions so;
      so.problem = job.task == engine::Task::kSolveGossip
                       ? sysgo::search::Problem::kGossip
                       : sysgo::search::Problem::kBroadcast;
      so.mode = job.key.mode;
      so.max_rounds = limits.solve_max_rounds;
      so.max_states = limits.solve_max_states;
      so.threads = limits.solve_threads;
      const Span s(kSearchSolve);
      const auto sr = sysgo::search::solve(g, so);
      r.rounds = sr.rounds;
      r.states = static_cast<std::int64_t>(sr.states_explored);
      r.group = static_cast<std::int64_t>(sr.group_order);
      r.budget = sr.budget_exhausted ? 1 : 0;
      break;
    }
    case engine::Task::kSynthesize: {
      try {
        (void)sysgo::topology::family_order(job.key.family, job.key.d,
                                            job.key.D);
      } catch (const std::invalid_argument&) {
        break;
      }
      sysgo::graph::Digraph g;
      {
        const Span s(kTopologyBuild);
        g = sysgo::topology::make_family(job.key.family, job.key.d,
                                         job.key.D, limits.seed);
      }
      r.n = g.vertex_count();
      // The evaluator is left at the library default, as the CLI leaves it.
      sysgo::synth::SynthOptions so;
      so.mode = job.key.mode;
      so.objective.max_rounds = limits.simulate_max_rounds;
      so.restarts = limits.synth_restarts;
      so.iterations = limits.synth_iterations;
      so.time_budget_ms = limits.synth_time_budget_ms;
      so.threads = limits.synth_threads;
      so.seed = limits.seed;
      const Span s(kSynthSynthesize);
      const auto sr = sysgo::synth::synthesize(g, so);
      r.s = sr.schedule.period_length();
      r.rounds = sr.objective.rounds;
      r.objective = sr.objective.score();
      r.restarts = sr.restarts_run;
      r.accepted = sr.moves_accepted;
      break;
    }
  }
  out.record = r;
  return out;
}

// ---------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
      continue;
    }
    out.push_back(c);
  }
  return out;
}

int run(const Args& args) {
  const std::int64_t t0 = now_ns();
  const std::vector<engine::SweepJob> jobs = args.spec.expand();
  const engine::ExecutionLimits& limits = args.spec.limits;
  std::vector<std::string> rows(jobs.size());
  std::vector<std::string> errors(jobs.size());
  std::vector<KernelWork> work(jobs.size());
  std::vector<char> simulated(jobs.size(), 0);
  std::vector<int> member_n(jobs.size(), 0);
  ArtifactCache cache;
  std::atomic<std::int64_t> executed{0};
  std::unique_ptr<sysgo::store::ResultStore> store;
  {
    const Span run_span(kRun);
    if (!args.store_path.empty()) {
      const Span s(kStoreLoad);
      store = std::make_unique<sysgo::store::ResultStore>(args.store_path);
    }
    const auto body = [&](std::size_t i) {
      Lane& lane = this_lane();
      lane.cell = static_cast<std::int64_t>(i);
      const Span job_span(kJob);
      const engine::SweepJob& job = jobs[i];
      try {
        std::optional<engine::SweepRecord> record;
        std::optional<sysgo::store::StoreKey> key;
        if (store != nullptr && args.resume) {
          const Span s(kStoreLookup);
          key = sysgo::store::make_store_key(job, limits);
          record = store->lookup(*key);
        }
        if (!record) {
          const std::int64_t start = now_ns();
          JobOutcome out = execute(job, limits, cache);
          out.record->millis = static_cast<double>(now_ns() - start) / 1e6;
          record = out.record;
          executed.fetch_add(1, std::memory_order_relaxed);
          work[i] = out.work;
          simulated[i] = out.simulated ? 1 : 0;
          if (store != nullptr) {
            const Span s(kStoreInsert);
            if (!key) key = sysgo::store::make_store_key(job, limits);
            (void)store->insert(*key, *record);
          }
        }
        member_n[i] = record->n;
        const Span s(kIoEmit);
        rows[i] = sysgo::io::sweep_csv_row(*record);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
      lane.cell = -1;
    };
    if (args.threads <= 1) {
      for (std::size_t i = 0; i < jobs.size(); ++i) body(i);
    } else {
      sysgo::util::ThreadPool pool(args.threads - 1);
      pool.run_indexed(jobs.size(), body);
    }
  }
  const std::int64_t t1 = now_ns();
  sysgo::obs::write_metrics_file(args.metrics_path);

  {
    std::ofstream rec(args.records_path);
    rec << sysgo::io::sweep_csv_header();
    for (const std::string& row : rows) rec << row;
  }

  std::ofstream out(args.spans_path);
  out << std::fixed << std::setprecision(3);
  out << "{\"wall_us\": " << static_cast<double>(t1 - t0) / 1e3
      << ", \"lanes\": " << args.threads << ", \"jobs\": " << jobs.size()
      << ", \"executed\": " << executed.load()
      << ", \"cache_hits\": " << cache.hits()
      << ", \"cache_misses\": " << cache.misses();
  out << ", \"errors\": [";
  bool first = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (errors[i].empty()) continue;
    out << (first ? "" : ", ") << "[" << i << ", \"" << json_escape(errors[i])
        << "\"]";
    first = false;
  }
  out << "],\n \"span_names\": [";
  for (int k = 0; k < kSpanNameCount; ++k)
    out << (k ? ", " : "") << '"' << kSpanNames[k] << '"';
  // [name, start_us, end_us, parent, cell]; parent indexes this array.
  out << "],\n \"spans\": [";
  first = true;
  int offset = 0;
  for (const auto& lane : g_lanes) {
    for (const SpanRec& s : lane->spans) {
      out << (first ? "\n  " : ",\n  ") << "[" << s.name << ", "
          << static_cast<double>(s.start_ns) / 1e3 << ", "
          << static_cast<double>(s.end_ns) / 1e3 << ", "
          << (s.parent < 0 ? -1 : s.parent + offset) << ", " << s.cell << "]";
      first = false;
    }
    offset += static_cast<int>(lane->spans.size());
  }
  // [cell, family, d, D, mode, n, rounds, row_ops, bytes] per simulate cell.
  out << "],\n \"simulated\": [";
  first = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!simulated[i]) continue;
    const engine::ScenarioKey& k = jobs[i].key;
    out << (first ? "\n  " : ",\n  ") << "[" << i << ", \""
        << engine::family_token(k.family) << "\", " << k.d << ", " << k.D
        << ", \"" << engine::mode_name(k.mode) << "\", " << member_n[i] << ", "
        << work[i].rounds << ", " << work[i].row_ops << ", " << work[i].bytes
        << "]";
    first = false;
  }
  out << "]}\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 2;
  }
}
