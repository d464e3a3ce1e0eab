// sysgo command-line interface.
//
//   sysgo bound <s|inf> [half|full]       general coefficient e(s)
//   sysgo table <fig4|fig5|fig6|fig8>     reproduce a paper table (CSV)
//   sysgo sweep [grid flags]              parallel scenario sweep (CSV/JSON)
//   sysgo solve [grid flags]              exact gossip/broadcast optima
//   sysgo synth [grid flags]              heuristic schedule synthesis
//   sysgo store merge|stats|compact       persistent result-store tooling
//   sysgo audit <schedule-file>           certify a lower bound
//   sysgo simulate <schedule-file> [max]  measured gossip time
//   sysgo topology <name> <d> <D>         emit a network as sysgo-digraph
//   sysgo kernels [--have K]              SIMD row-kernel dispatch report
//   sysgo metrics dump                    render the obs metric catalog
//   sysgo trace report <PATH>             analyze a saved span trace
//   sysgo bench compare BASE CUR          gate on benchmark regressions
//   sysgo bench list|context              snapshot / host introspection
//
// sweep, solve and synth parse through one flag table (kGridFlags), where
// each flag names the commands that accept it; a small descriptor per
// command holds its default grid, its --d/--D ranges and the --max-rounds
// target.  `sysgo` without arguments lists the flags.
//
// Schedule files use the io/protocol_text format ("sysgo-schedule v1").
// All numeric flags go through util/parse: garbage ("--threads 4x"),
// overflow, and zero/negative values are rejected at parse time with the
// offending flag and value named.  List flags (--d, --D, --periods) check
// both ends of every lo:hi range, and lo <= hi, before expanding it;
// floating-point flags must be finite.  A stray positional argument prints
// usage and exits 2 instead of being ignored.
#include <atomic>
#include <cmath>
#include <cstdio>
#if !defined(_WIN32)
#include <unistd.h>  // isatty: --progress suppresses \r off a TTY
#endif
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "io/csv.hpp"
#include "io/graph_text.hpp"
#include "io/protocol_text.hpp"
#include "io/sweep_io.hpp"
#include "obs/bench_compare.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "obs/wall_timer.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/kernels.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"
#include "util/fs.hpp"
#include "util/parse.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sysgo bound <s|inf> [half|full]\n"
               "  sysgo table <fig4|fig5|fig6|fig8>\n"
               "  sysgo sweep|solve|synth [grid flags] [command flags]\n"
               "    grid flags (all three commands):\n"
               "      --families f1,f2,..  bf wbf-dir wbf db-dir db kautz-dir "
               "kautz cycle\n"
               "                     complete hypercube ccc se knodel rr gnp\n"
               "      --d LIST  --D LIST  (LIST: comma-separated values and "
               "lo:hi ranges)\n"
               "      --modes half,full  --threads N  --max-rounds M  "
               "--format csv|json\n"
               "      --seed S       seeds rr/gnp members and synthesis; "
               "echoed in the output\n"
               "                     header\n"
               "      --no-cache     build each job's artifacts afresh (no "
               "shared artifact cache)\n"
               "      --store PATH   write finished records to a persistent "
               "result store\n"
               "      --resume       skip records already in the store "
               "(byte-identical output)\n"
               "      --shard i/m    run shard i of m (disjoint round-robin "
               "partition)\n"
               "      --metrics PATH write an obs snapshot at exit (JSON, or "
               "CSV for *.csv)\n"
               "      --progress     throttled stderr heartbeat: done/total, "
               "ETA, cache hit rate\n"
               "      --trace PATH   record a span timeline: Chrome "
               "trace-event JSON for *.json\n"
               "                     (chrome://tracing / Perfetto), binary "
               "flight bytes otherwise\n"
               "      --perf         collect perf_event counters (cycles, "
               "IPC, cache misses)\n"
               "                     into --metrics rollups and --trace span "
               "args; no-op\n"
               "                     where counters are unavailable\n"
               "  sysgo sweep [grid flags] [--tasks bound,diameter,simulate,"
               "audit,separator,\n"
               "              solve-gossip,solve-broadcast] "
               "[--periods 3:8,inf] [--round-threads N]\n"
               "      parallel scenario sweep; d in 2..64, D in 1..30\n"
               "      (default: the paper's seven, d=2, bound at s=3..8;\n"
               "       --round-threads N>1 runs the simulator's column "
               "slices\n"
               "       on the process-wide pool — results are identical "
               "for any N)\n"
               "  sysgo solve [grid flags] [--problems gossip,broadcast] "
               "[--solver-threads N]\n"
               "              [--max-states S]\n"
               "      exact optima via the symmetry-reduced search (n <= 12); "
               "d in 1..64,\n"
               "      D in 1..30 (default: cycle, D=4:9, both modes, both "
               "problems)\n"
               "  sysgo synth [grid flags] [--restarts K] [--iterations N] "
               "[--time-budget MS]\n"
               "              [--synth-threads N]\n"
               "      multi-start annealing schedule synthesis (src/synth/); "
               "d in 1..64,\n"
               "      D in 1..4096 (default: db,kautz, d=2, D=3:5, half "
               "duplex)\n"
               "  sysgo store merge --out OUT IN1 [IN2 ...]\n"
               "      union shard stores into OUT; conflicting records for "
               "the same key\n"
               "      are reported and fail the merge\n"
               "  sysgo store stats <PATH>\n"
               "  sysgo store compact <PATH>\n"
               "  sysgo audit <schedule-file>\n"
               "  sysgo simulate <schedule-file> [max-rounds]\n"
               "  sysgo topology <family> <d> <D>\n"
               "  sysgo kernels [--have scalar|avx2|avx512]\n"
               "      report the SIMD row-kernel dispatch (compiled / "
               "supported / active,\n"
               "      honoring SYSGO_FORCE_KERNEL); --have K exits 0 iff "
               "kernel K is\n"
               "      runnable on this host (CI matrix gate)\n"
               "  sysgo metrics dump [--format json|csv]\n"
               "      render the metric catalog (zeros in a fresh process) — "
               "the --metrics schema\n"
               "  sysgo trace report <PATH> [--top K]\n"
               "      analyze a --trace file (JSON or flight binary): "
               "critical path,\n"
               "      per-worker utilization, span-duration top-K, per-stage "
               "breakdown\n"
               "  sysgo bench compare <BASELINE.json> <CURRENT.json> "
               "[--threshold PCT]\n"
               "                      [--counters] "
               "[--allow-context-mismatch]\n"
               "      diff two BENCH_*.json snapshots; exit 1 when a median "
               "real time\n"
               "      regresses more than PCT%% (default 10; --counters also "
               "gates rate\n"
               "      counters).  Refuses kernel/build/num_cpus mismatches "
               "unless overridden\n"
               "  sysgo bench list <SNAPSHOT.json>\n"
               "      one line per benchmark: median, p90, reps\n"
               "  sysgo bench context\n"
               "      the context a bench run would record on this host "
               "(cpus, kernel,\n"
               "      build type, git sha, perf availability)\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Checked parse of a scalar numeric flag, range-validated against the
/// util::cli_flag_range table.
int flag_int(const std::string& flag, const std::string& value) {
  if (const auto range = sysgo::util::cli_flag_range(flag))
    return sysgo::util::parse_int_in(value, flag, *range);
  return sysgo::util::parse_int(value, flag);
}

long long flag_i64(const std::string& flag, const std::string& value) {
  if (const auto range = sysgo::util::cli_flag_range(flag))
    return sysgo::util::parse_i64_in(value, flag, *range);
  return sysgo::util::parse_i64(value, flag);
}

int cmd_bound(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  const int s = std::strcmp(argv[0], "inf") == 0
                    ? sysgo::core::kUnboundedPeriod
                    : sysgo::util::parse_int_in(argv[0], "<s>", {3, 1 << 30});
  const bool full = argc == 2 && std::strcmp(argv[1], "full") == 0;
  if (argc == 2 && !full && std::strcmp(argv[1], "half") != 0) return usage();
  const auto duplex =
      full ? sysgo::core::Duplex::kFull : sysgo::core::Duplex::kHalf;
  const double lam = sysgo::core::lambda_star(s, duplex);
  std::printf("s=%s duplex=%s lambda*=%.9f e(s)=%.6f\n", argv[0],
              duplex == sysgo::core::Duplex::kFull ? "full" : "half", lam,
              sysgo::core::e_coefficient(lam));
  return 0;
}

int cmd_table(int argc, char** argv) {
  if (argc != 1) return usage();
  const std::string which = argv[0];
  std::string csv;
  if (which == "fig4") csv = sysgo::io::fig4_csv();
  else if (which == "fig5") csv = sysgo::io::fig5_csv();
  else if (which == "fig6") csv = sysgo::io::fig6_csv();
  else if (which == "fig8") csv = sysgo::io::fig8_csv();
  else return usage();
  std::fputs(csv.c_str(), stdout);
  return 0;
}

// --------------------------------------------------------------- sweep

/// Split "a,b,c" into tokens; each token may be a "lo:hi" inclusive range.
std::vector<std::string> split_list(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(arg.substr(start));
      break;
    }
    out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Parse "a,b,lo:hi,.." into values in `range` ("inf" too when allow_inf).
/// Both endpoints of a "lo:hi" token are range-checked, and lo <= hi
/// required, before anything is expanded: a huge or reversed range fails
/// at once instead of allocating first or yielding an empty grid.
std::vector<int> parse_int_list(const std::string& arg, const std::string& flag,
                                sysgo::util::IntRange range,
                                bool allow_inf = false) {
  const auto checked = [&](const std::string& tok) {
    const int v = sysgo::util::parse_int(tok, flag);
    if (v < range.lo || v > range.hi)
      throw std::invalid_argument(
          flag + " values must be in [" + std::to_string(range.lo) + ", " +
          std::to_string(range.hi) + "]" + (allow_inf ? " or inf" : "") +
          ", got '" + tok + "'");
    return v;
  };
  std::vector<int> out;
  for (const std::string& tok : split_list(arg)) {
    if (allow_inf && tok == "inf") {
      out.push_back(sysgo::core::kUnboundedPeriod);
      continue;
    }
    const std::size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      out.push_back(checked(tok));
      continue;
    }
    const int lo = checked(tok.substr(0, colon));
    const int hi = checked(tok.substr(colon + 1));
    if (lo > hi)
      throw std::invalid_argument(flag + ": empty range '" + tok + "'");
    // A long long counter: hi may be INT_MAX.
    for (long long v = lo; v <= hi; ++v) out.push_back(static_cast<int>(v));
  }
  return out;
}

/// Flushes per-job output lines in deterministic (index) order as jobs
/// finish, so a threaded sweep streams exactly what a serial one would.
class OrderedEmitter {
 public:
  void emit(std::size_t index, std::string line) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[index] = std::move(line);
    while (!pending_.empty() && pending_.begin()->first == next_) {
      std::fputs(pending_.begin()->second.c_str(), stdout);
      std::fflush(stdout);
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

 private:
  std::mutex mutex_;
  std::map<std::size_t, std::string> pending_;
  std::size_t next_ = 0;
};

/// Output/persistence configuration shared by sweep/solve/synth.
struct StreamConfig {
  bool json = false;
  std::string store_path;  // --store
  bool resume = false;     // --resume (requires --store)
  sysgo::util::ShardSpec shard{};  // --shard i/m (1/1 = whole grid)
  std::string metrics_path;  // --metrics: obs snapshot written at exit
  bool progress = false;     // --progress: stderr heartbeat
  std::string trace_path;    // --trace: span trace written at exit
  bool perf = false;         // --perf: perf_event counter collection
};

/// Throttled stderr heartbeat (--progress): done/total, percentage, elapsed
/// and estimated remaining wall-clock, plus the artifact-cache hit rate so
/// far.  tick() runs inside on_record callbacks — possibly concurrently —
/// and prints at most every ~500 ms (the final record always prints).
///
/// On a TTY intermediate lines rewrite in place with '\r'; anywhere else
/// (CI logs, redirects) every line is newline-terminated.  finish() always
/// prints a final newline-terminated 100% summary.
class ProgressMeter {
 public:
  explicit ProgressMeter(std::size_t total)
      : total_(total), tty_(stderr_is_tty()) {}

  /// The runner is constructed after the callbacks are wired; attach()
  /// before run_jobs so ticks can read its cache stats.
  void attach(const sysgo::engine::SweepRunner* runner) { runner_ = runner; }

  void tick() {
    const std::size_t done =
        done_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(mutex_);
    const double ms = timer_.millis();
    if (done < total_ && ms - last_print_ms_ < 500.0) return;
    // Off a TTY every line is permanent; finish() owns the 100% summary.
    if (done == total_ && !tty_) return;
    last_print_ms_ = ms;
    print_line(done, ms, /*final=*/false);
  }

  /// Unconditional completion summary (and the '\n' that closes a TTY's
  /// rewritten line).  Call once, after the run.
  void finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    print_line(done_.load(std::memory_order_relaxed), timer_.millis(),
               /*final=*/true);
  }

 private:
  static bool stderr_is_tty() {
#if defined(_WIN32)
    return false;
#else
    return isatty(fileno(stderr)) != 0;
#endif
  }

  void print_line(std::size_t done, double ms, bool final) {
    const double pct =
        total_ > 0 ? 100.0 * static_cast<double>(done) /
                         static_cast<double>(total_)
                   : 100.0;
    const double eta_s =
        done > 0 ? ms / 1000.0 / static_cast<double>(done) *
                       static_cast<double>(total_ - done)
                 : 0.0;
    double hit_pct = 0.0;
    if (runner_ != nullptr) {
      const auto cs = runner_->cache_stats();
      if (cs.hits + cs.misses > 0)
        hit_pct = 100.0 * static_cast<double>(cs.hits) /
                  static_cast<double>(cs.hits + cs.misses);
    }
    // Trailing spaces on the TTY rewrite path cover a shrinking line.
    std::fprintf(stderr,
                 "%sprogress: %zu/%zu (%.0f%%) elapsed=%.1fs eta=%.1fs "
                 "cache-hit=%.0f%%%s",
                 tty_ ? "\r" : "", done, total_, pct, ms / 1000.0, eta_s,
                 hit_pct, tty_ && !final ? "   " : "\n");
  }

  const std::size_t total_;
  const bool tty_;
  const sysgo::engine::SweepRunner* runner_ = nullptr;
  std::atomic<std::size_t> done_{0};
  std::mutex mutex_;
  sysgo::obs::WallTimer timer_;
  double last_print_ms_ = -1e9;  // first record always prints
};

/// Expand, shard, execute and stream a spec: CSV rows or JSON records
/// flushed in deterministic order as jobs finish (identical output for any
/// thread count), followed by cache/store stats on stderr.  The run's
/// effective seed is echoed so randomized runs (random families, synthesis)
/// can be replayed: CSV gets a "# seed=N" header comment (the parser skips
/// '#' lines), JSON — whose document is a bare array — gets a stderr line.
/// With a store attached, finished records are written back; with --resume,
/// present records are emitted from the store (stored wall-clock included,
/// so a warm re-run is byte-identical) without executing anything.
int stream_spec(const sysgo::engine::ScenarioSpec& spec,
                sysgo::engine::SweepOptions opts, const StreamConfig& cfg) {
  namespace engine = sysgo::engine;
  if (cfg.resume && cfg.store_path.empty())
    throw std::invalid_argument("--resume requires --store");
  auto jobs = spec.expand();
  if (cfg.shard.count > 1) jobs = engine::shard_jobs(jobs, cfg.shard);
  std::unique_ptr<sysgo::store::ResultStore> store;
  if (!cfg.store_path.empty()) {
    store = std::make_unique<sysgo::store::ResultStore>(cfg.store_path);
    opts.store = store.get();
    opts.resume = cfg.resume;
  }
  OrderedEmitter emitter;
  ProgressMeter meter(jobs.size());
  if (cfg.perf) sysgo::obs::perf::set_enabled(true);
  if (!cfg.trace_path.empty()) {
    // Recording starts here, so the trace covers exactly this run; the
    // caller's lane is "main" (workers name theirs on startup).
    sysgo::obs::trace::set_this_lane_name("main");
    sysgo::obs::trace::set_enabled(true);
  }
  if (cfg.json) {
    std::fprintf(stderr, "seed: %llu\n",
                 static_cast<unsigned long long>(spec.limits.seed));
    std::fputs("[\n", stdout);
    opts.on_record = [&](std::size_t i, const engine::SweepRecord& r) {
      emitter.emit(i, "  " + sysgo::io::sweep_json_record(r) +
                          (i + 1 < jobs.size() ? ",\n" : "\n"));
      if (cfg.progress) meter.tick();
    };
  } else {
    std::fprintf(stdout, "# seed=%llu\n",
                 static_cast<unsigned long long>(spec.limits.seed));
    std::fputs(sysgo::io::sweep_csv_header().c_str(), stdout);
    opts.on_record = [&](std::size_t i, const engine::SweepRecord& r) {
      emitter.emit(i, sysgo::io::sweep_csv_row(r));
      if (cfg.progress) meter.tick();
    };
  }
  engine::SweepRunner runner(opts);
  meter.attach(&runner);
  const auto records = runner.run_jobs(jobs, spec.limits);
  if (cfg.progress) meter.finish();
  if (!cfg.trace_path.empty()) {
    sysgo::obs::trace::set_enabled(false);
    sysgo::obs::trace::write_trace_file(cfg.trace_path);
    std::fprintf(stderr, "trace: wrote %s\n", cfg.trace_path.c_str());
  }
  if (cfg.json) std::fputs("]\n", stdout);
  const auto stats = runner.cache_stats();
  const double hit_pct =
      stats.hits + stats.misses > 0
          ? 100.0 * static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses)
          : 0.0;
  std::fprintf(stderr,
               "sweep: %zu records, cache %zu hits / %zu misses "
               "(%.1f%% hit rate)\n",
               records.size(), stats.hits, stats.misses, hit_pct);
  // The snapshot is written even when conflicts fail the run below — a
  // diverging campaign is exactly when the metrics are worth reading.
  if (!cfg.metrics_path.empty()) {
    // End-of-run resource gauges (RSS high-watermark, fault and context-
    // switch totals) ride along in the same snapshot.
    sysgo::obs::resource::update_resource_gauges();
    sysgo::obs::write_metrics_file(cfg.metrics_path);
  }
  if (store != nullptr) {
    const auto rs = runner.run_stats();
    std::fprintf(stderr,
                 "store: hits=%zu executed=%zu conflicts=%zu "
                 "(%zu records in %s)\n",
                 rs.store_hits, rs.executed, rs.store_conflicts, store->size(),
                 store->path().c_str());
    if (rs.store_conflicts > 0) return 1;
  }
  return 0;
}

// ----------------------------------------------------------- grid commands
//
// sweep, solve and synth are one command with three descriptors: each
// parses its flags through kGridFlags and hands the grid to stream_spec.

namespace engine = sysgo::engine;
using engine::Task;

/// What differs between the grid commands.
struct GridCommand {
  const char* name;  // "sweep" | "solve" | "synth"
  unsigned bit;      // this command's bit in GridFlag::commands
  engine::ScenarioSpec defaults;
  sysgo::util::IntRange degrees;     // --d
  sysgo::util::IntRange dimensions;  // --D
  int engine::ExecutionLimits::*max_rounds;  // --max-rounds target
};

constexpr unsigned kSweep = 1;
constexpr unsigned kSolve = 2;
constexpr unsigned kSynth = 4;
constexpr unsigned kAllGrid = kSweep | kSolve | kSynth;

/// The state one grid command line builds.
struct GridArgs {
  const GridCommand& cmd;
  engine::ScenarioSpec spec;
  engine::SweepOptions opts;
  StreamConfig cfg;
};

/// One flag occurrence: its name and value ("" for flags without one).
struct Arg {
  const std::string& flag;
  const std::string& value;
};

/// One grid flag: the commands accepting it and how it applies.
struct GridFlag {
  const char* name;
  unsigned commands;
  bool takes_value;
  void (*apply)(GridArgs& a, const Arg& x);
};

/// Map each token of a comma-separated list through `parse`.
template <typename Parse>
auto parse_tokens(const std::string& arg, Parse parse) {
  std::vector<decltype(parse(arg))> out;
  for (const std::string& tok : split_list(arg)) out.push_back(parse(tok));
  return out;
}

Task parse_problem(const std::string& tok) {
  if (tok == "gossip") return Task::kSolveGossip;
  if (tok == "broadcast") return Task::kSolveBroadcast;
  throw std::invalid_argument("unknown problem: " + tok);
}

constexpr GridFlag kGridFlags[] = {
    {"--families", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.families = parse_tokens(x.value, engine::parse_family_token);
     }},
    {"--d", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.degrees = parse_int_list(x.value, x.flag, a.cmd.degrees);
     }},
    {"--D", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.dimensions = parse_int_list(x.value, x.flag, a.cmd.dimensions);
     }},
    {"--modes", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.modes = parse_tokens(x.value, engine::parse_mode_name);
     }},
    {"--threads", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.opts.threads = static_cast<unsigned>(flag_int(x.flag, x.value));
     }},
    {"--max-rounds", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.*a.cmd.max_rounds = flag_int(x.flag, x.value);
     }},
    {"--seed", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.seed = sysgo::util::parse_u64(x.value, x.flag);
     }},
    {"--format", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       if (x.value == "json") a.cfg.json = true;
       else if (x.value != "csv")
         throw std::invalid_argument("unknown format: " + x.value);
     }},
    {"--no-cache", kAllGrid, false,
     [](GridArgs& a, const Arg&) { a.opts.use_cache = false; }},
    {"--store", kAllGrid, true,
     [](GridArgs& a, const Arg& x) { a.cfg.store_path = x.value; }},
    {"--resume", kAllGrid, false,
     [](GridArgs& a, const Arg&) { a.cfg.resume = true; }},
    {"--shard", kAllGrid, true,
     [](GridArgs& a, const Arg& x) {
       a.cfg.shard = sysgo::util::parse_shard(x.value);
     }},
    {"--metrics", kAllGrid, true,
     [](GridArgs& a, const Arg& x) { a.cfg.metrics_path = x.value; }},
    {"--progress", kAllGrid, false,
     [](GridArgs& a, const Arg&) { a.cfg.progress = true; }},
    {"--trace", kAllGrid, true,
     [](GridArgs& a, const Arg& x) { a.cfg.trace_path = x.value; }},
    {"--perf", kAllGrid, false,
     [](GridArgs& a, const Arg&) { a.cfg.perf = true; }},
    // sweep only.
    {"--tasks", kSweep, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.tasks = parse_tokens(x.value, engine::parse_task_name);
     }},
    {"--periods", kSweep, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.periods =
           parse_int_list(x.value, x.flag, {3, std::numeric_limits<int>::max()},
                          /*allow_inf=*/true);
     }},
    // A toggle, not a degree: any N > 1 runs the simulator's column slices
    // in parallel on the process-wide pool at its lane count (results are identical for any value; see
    // ExecutionLimits::simulate_parallel_rounds).
    {"--round-threads", kSweep, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.simulate_parallel_rounds = flag_int(x.flag, x.value) > 1;
     }},
    // solve only.
    {"--problems", kSolve, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.tasks = parse_tokens(x.value, parse_problem);
     }},
    {"--solver-threads", kSolve, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.solve_threads =
           static_cast<unsigned>(flag_int(x.flag, x.value));
     }},
    {"--max-states", kSolve, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.solve_max_states =
           static_cast<std::size_t>(flag_i64(x.flag, x.value));
     }},
    // synth only.
    {"--restarts", kSynth, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.synth_restarts = flag_int(x.flag, x.value);
     }},
    {"--iterations", kSynth, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.synth_iterations = flag_int(x.flag, x.value);
     }},
    {"--time-budget", kSynth, true,
     [](GridArgs& a, const Arg& x) {
       const double ms = sysgo::util::parse_double(x.value, x.flag);
       if (!std::isfinite(ms) || ms < 0.0)
         throw std::invalid_argument(x.flag + " must be finite and >= 0");
       a.spec.limits.synth_time_budget_ms = ms;
     }},
    {"--synth-threads", kSynth, true,
     [](GridArgs& a, const Arg& x) {
       a.spec.limits.synth_threads =
           static_cast<unsigned>(flag_int(x.flag, x.value));
     }},
};

/// A command's default grid; every grid command defaults to d = 2.
engine::ScenarioSpec grid_defaults(
    std::vector<sysgo::topology::Family> families, std::vector<int> dimensions,
    std::vector<sysgo::protocol::Mode> modes, std::vector<Task> tasks,
    std::vector<int> periods = {}) {
  engine::ScenarioSpec spec;
  spec.families = std::move(families);
  spec.degrees = {2};
  spec.dimensions = std::move(dimensions);
  spec.modes = std::move(modes);
  spec.tasks = std::move(tasks);
  spec.periods = std::move(periods);
  return spec;
}

/// The descriptor of grid command `name`, or nullptr.
const GridCommand* find_grid_command(const std::string& name) {
  using sysgo::protocol::Mode;
  using sysgo::topology::Family;
  static const GridCommand kCommands[] = {
      // d >= 2: d = 1 reaches a bound cell that throws and aborts the sweep.
      {"sweep", kSweep,
       grid_defaults(engine::all_families(), {}, {Mode::kHalfDuplex},
                     {Task::kBound}, {3, 4, 5, 6, 7, 8}),
       {2, 64}, {1, 30}, &engine::ExecutionLimits::simulate_max_rounds},
      // d = 1 is a valid Knödel delta.
      {"solve", kSolve,
       grid_defaults({Family::kCycle}, {4, 5, 6, 7, 8, 9},
                     {Mode::kHalfDuplex, Mode::kFullDuplex},
                     {Task::kSolveGossip, Task::kSolveBroadcast}),
       {1, 64}, {1, 30}, &engine::ExecutionLimits::solve_max_rounds},
      // D up to 4096: for the linear-n families (rr, gnp) D *is* n; the
      // exponential families are still guarded by their topology builders
      // (hypercube D <= 24).
      {"synth", kSynth,
       grid_defaults({Family::kDeBruijn, Family::kKautz}, {3, 4, 5},
                     {Mode::kHalfDuplex}, {Task::kSynthesize}),
       {1, 64}, {1, 4096}, &engine::ExecutionLimits::simulate_max_rounds},
  };
  for (const GridCommand& c : kCommands)
    if (name == c.name) return &c;
  return nullptr;
}

int cmd_grid(const GridCommand& cmd, int argc, char** argv) {
  GridArgs a{cmd, cmd.defaults, {}, {}};
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const GridFlag* row = nullptr;
    for (const GridFlag& f : kGridFlags)
      if (flag == f.name && (f.commands & cmd.bit) != 0) {
        row = &f;
        break;
      }
    if (row == nullptr) {
      std::fprintf(stderr, "unknown %s flag: %s\n", cmd.name, flag.c_str());
      return usage();
    }
    if (row->takes_value && i + 1 >= argc)
      throw std::invalid_argument("missing value for " + flag);
    const std::string value = row->takes_value ? argv[++i] : "";
    try {
      row->apply(a, {flag, value});
    } catch (const std::invalid_argument& e) {
      // The checked parsers name the flag already; wrap only messages that
      // do not, so every error reports the offending flag.
      const std::string what = e.what();
      if (what.find(flag) == std::string::npos)
        throw std::invalid_argument("bad value for " + flag + ": " + what);
      throw;
    }
  }
  if (a.spec.dimensions.empty()) {
    for (const Task t : a.spec.tasks)
      if (engine::task_needs_dimension(t))
        throw std::invalid_argument("task '" + engine::task_name(t) +
                                    "' needs concrete dimensions: pass --D");
  }
  return stream_spec(a.spec, a.opts, a.cfg);
}

// --------------------------------------------------------------- store

int cmd_store(int argc, char** argv) {
  namespace store = sysgo::store;
  // ResultStore creates missing files (the right behavior under --store);
  // the store tooling instead fails loudly on a typo'd path — silently
  // merging a nonexistent shard would drop its records from the campaign.
  const auto require_exists = [](const std::string& path) {
    if (!sysgo::util::file_exists(path))
      throw std::runtime_error("no such store: " + path);
  };
  if (argc < 1) return usage();
  const std::string verb = argv[0];
  if (verb == "stats") {
    if (argc != 2) return usage();
    require_exists(argv[1]);
    store::ResultStore s(argv[1]);
    std::printf("store: %zu records in %s\n", s.size(), s.path().c_str());
    return 0;
  }
  if (verb == "compact") {
    if (argc != 2) return usage();
    require_exists(argv[1]);
    store::ResultStore s(argv[1]);
    s.compact();
    std::printf("store: compacted %zu records in %s\n", s.size(),
                s.path().c_str());
    return 0;
  }
  if (verb == "merge") {
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--out") {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for --out");
        out_path = argv[++i];
      } else {
        inputs.push_back(arg);
      }
    }
    if (out_path.empty() || inputs.empty()) return usage();
    for (const std::string& in_path : inputs) require_exists(in_path);
    store::ResultStore out(out_path);
    std::size_t conflicts = 0;
    for (const std::string& in_path : inputs) {
      const store::ResultStore in(in_path);
      const auto stats = out.merge_from(in);
      std::fprintf(stderr,
                   "merge %s: %zu inserted, %zu duplicates, %zu conflicts\n",
                   in_path.c_str(), stats.inserted, stats.duplicates,
                   stats.conflicts.size());
      for (const std::string& key : stats.conflicts)
        std::fprintf(stderr, "  conflict: %s\n", key.c_str());
      conflicts += stats.conflicts.size();
    }
    // Deterministic merged bytes for any input order.
    out.compact();
    std::printf("store: %zu records in %s\n", out.size(), out.path().c_str());
    return conflicts == 0 ? 0 : 1;
  }
  return usage();
}

/// Parse a schedule file and check that every round is a matching of its
/// mode; false (after printing the reason) when it is not.
bool load_valid_schedule(const char* path,
                         sysgo::protocol::SystolicSchedule& sched) {
  sched = sysgo::io::parse_schedule(read_file(path));
  const auto valid = sysgo::protocol::validate_structure(sched);
  if (!valid.ok)
    std::fprintf(stderr, "invalid schedule: %s\n", valid.message.c_str());
  return valid.ok;
}

int cmd_audit(int argc, char** argv) {
  if (argc != 1) return usage();
  sysgo::protocol::SystolicSchedule sched;
  if (!load_valid_schedule(argv[0], sched)) return 1;
  const auto res = sysgo::core::audit_schedule(sched);
  std::printf("n=%d period=%d lambda*=%.6f e=%.4f certified-rounds>=%d "
              "worst-vertex=%d\n",
              sched.n, sched.period_length(), res.lambda_star, res.e_coeff,
              res.round_lower_bound, res.worst_vertex);
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  sysgo::protocol::SystolicSchedule sched;
  if (!load_valid_schedule(argv[0], sched)) return 1;
  const int max_rounds =
      argc >= 2
          ? sysgo::util::parse_int_in(argv[1], "max-rounds", {1, 1 << 30})
          : 1 << 20;
  const int t = sysgo::simulator::gossip_time(sched, max_rounds);
  if (t < 0) {
    std::printf("gossip incomplete after %d rounds\n", max_rounds);
    return 1;
  }
  std::printf("gossip complete after %d rounds\n", t);
  return 0;
}

// -------------------------------------------------------------- metrics

/// `sysgo metrics dump [--format json|csv]`: render the registry snapshot.
/// In a fresh process every counter and histogram is zero, but the full
/// metric catalog is present (every instrumented TU registers its names
/// eagerly) — the quick way to see what --metrics will produce and to
/// smoke-test the schema.  The proc.* resource gauges are sampled live so
/// the dump doubles as a quick `where is my memory` probe.
int cmd_metrics(int argc, char** argv) {
  if (argc < 1 || std::strcmp(argv[0], "dump") != 0) return usage();
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--format") {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --format");
      const std::string fmt = argv[++i];
      if (fmt == "csv") csv = true;
      else if (fmt != "json")
        throw std::invalid_argument("unknown format: " + fmt);
    } else {
      std::fprintf(stderr, "unknown metrics flag: %s\n", flag.c_str());
      return usage();
    }
  }
  sysgo::obs::resource::update_resource_gauges();
  const auto snap = sysgo::obs::snapshot();
  std::fputs(
      (csv ? sysgo::obs::to_csv(snap) : sysgo::obs::to_json(snap)).c_str(),
      stdout);
  return 0;
}

// ---------------------------------------------------------------- bench

/// `sysgo bench compare|list|context`: the benchmark-regression harness.
/// compare diffs two BENCH_*.json snapshots (written by the bench/ binaries
/// via bench_json.hpp) and exits non-zero on a regression beyond the
/// threshold — the CI gate.  list/context are introspection helpers.
int cmd_bench(int argc, char** argv) {
  namespace bench = sysgo::obs::bench;
  if (argc < 1) return usage();
  const std::string verb = argv[0];
  if (verb == "context") {
    if (argc != 1) return usage();
    std::fputs(bench::render_context(bench::local_context()).c_str(), stdout);
    return 0;
  }
  if (verb == "list") {
    if (argc != 2) return usage();
    const auto snap = bench::parse_snapshot(read_file(argv[1]));
    std::fputs(bench::render_list(snap).c_str(), stdout);
    return 0;
  }
  if (verb != "compare" || argc < 3) return usage();
  const std::string base_path = argv[1];
  const std::string cur_path = argv[2];
  bench::CompareOptions opts;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--threshold") {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --threshold");
      opts.threshold_pct = sysgo::util::parse_double(argv[++i], flag);
      if (!std::isfinite(opts.threshold_pct) || opts.threshold_pct <= 0.0)
        throw std::invalid_argument("--threshold must be finite and > 0");
    } else if (flag == "--counters") {
      opts.counters = true;
    } else if (flag == "--allow-context-mismatch") {
      opts.allow_context_mismatch = true;
    } else {
      std::fprintf(stderr, "unknown bench flag: %s\n", flag.c_str());
      return usage();
    }
  }
  const auto baseline = bench::parse_snapshot(read_file(base_path));
  const auto current = bench::parse_snapshot(read_file(cur_path));
  const auto report = bench::compare(baseline, current, opts);
  std::printf("bench compare: %s (baseline) vs %s (current)\n",
              base_path.c_str(), cur_path.c_str());
  std::fputs(bench::render_report(report, opts).c_str(), stdout);
  return report.ok() ? 0 : 1;
}

// ---------------------------------------------------------------- trace

/// `sysgo trace report <PATH> [--top K]`: parse a saved trace (Chrome JSON
/// or flight binary, auto-detected) and print the derived tables — critical
/// path, per-worker utilization, top-K spans, per-stage breakdown.
int cmd_trace(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[0], "report") != 0) return usage();
  const std::string path = argv[1];
  sysgo::obs::trace::ReportOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--top") {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --top");
      opts.top_k = static_cast<std::size_t>(
          sysgo::util::parse_int_in(argv[++i], flag, {1, 1 << 20}));
    } else {
      std::fprintf(stderr, "unknown trace flag: %s\n", flag.c_str());
      return usage();
    }
  }
  std::ifstream in(path, std::ios::binary);  // flight bytes are binary
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto dump = sysgo::obs::trace::parse_trace(buf.str());
  const auto report = sysgo::obs::trace::analyze(dump, opts);
  std::fputs(sysgo::obs::trace::report_text(report).c_str(), stdout);
  return 0;
}

int cmd_kernels(int argc, char** argv) {
  using sysgo::simulator::KernelKind;
  const auto parse_kind = [](const std::string& name) {
    for (int k = 0; k < sysgo::simulator::kKernelKindCount; ++k)
      if (name == sysgo::simulator::kernel_name(static_cast<KernelKind>(k)))
        return static_cast<KernelKind>(k);
    throw std::invalid_argument("unknown kernel: " + name +
                                " (expected scalar, avx2, or avx512)");
  };
  if (argc >= 1 && std::strcmp(argv[0], "--have") == 0) {
    if (argc != 2) return usage();
    // Quiet gate for scripting: exit 0 iff the kernel can actually run
    // here (compiled in AND the CPU has the ISA).
    return sysgo::simulator::kernel_supported(parse_kind(argv[1])) ? 0 : 1;
  }
  if (argc != 0) return usage();
  const KernelKind active = sysgo::simulator::active_kernel();
  std::printf("kernel,compiled,supported,active\n");
  for (int k = 0; k < sysgo::simulator::kKernelKindCount; ++k) {
    const auto kind = static_cast<KernelKind>(k);
    std::printf("%s,%d,%d,%d\n", sysgo::simulator::kernel_name(kind),
                sysgo::simulator::kernel_compiled(kind) ? 1 : 0,
                sysgo::simulator::kernel_supported(kind) ? 1 : 0,
                kind == active ? 1 : 0);
  }
  return 0;
}

int cmd_topology(int argc, char** argv) {
  if (argc != 3) return usage();
  const int d = sysgo::util::parse_int_in(argv[1], "<d>", {1, 1 << 20});
  const int D = sysgo::util::parse_int_in(argv[2], "<D>", {1, 1 << 20});
  sysgo::topology::Family f;
  try {
    f = sysgo::engine::parse_family_token(argv[0]);
  } catch (const std::invalid_argument&) {
    return usage();
  }
  const auto g = sysgo::topology::make_family(f, d, D);
  std::fputs(sysgo::io::serialize(g).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "bound") return cmd_bound(argc - 2, argv + 2);
    if (cmd == "table") return cmd_table(argc - 2, argv + 2);
    if (const GridCommand* grid = find_grid_command(cmd))
      return cmd_grid(*grid, argc - 2, argv + 2);
    if (cmd == "store") return cmd_store(argc - 2, argv + 2);
    if (cmd == "audit") return cmd_audit(argc - 2, argv + 2);
    if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (cmd == "topology") return cmd_topology(argc - 2, argv + 2);
    if (cmd == "kernels") return cmd_kernels(argc - 2, argv + 2);
    if (cmd == "metrics") return cmd_metrics(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    if (cmd == "bench") return cmd_bench(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
