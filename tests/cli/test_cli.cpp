// Contract suite for the sysgo binary: each grid command's flag set and
// --d/--D bounds, the named-flag error messages, the inputs rejected before
// any work starts (unexpanded range checks, non-finite floats, stray
// arguments), the "# seed=" + CSV header of one tiny grid per command, and
// the schedule-file commands' input checks.
//
// SYSGO_CLI_PATH is the built binary (see the root CMakeLists.txt).  Grids
// that only need to be *accepted* run as an empty shard, so nothing
// executes.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/sweep_io.hpp"

namespace {

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "sysgo_cli_" + std::to_string(getpid()) + "_" +
         name;
}

/// Run `sysgo args`; `env` (e.g. "VAR=value") prefixes the command line.
CliResult sysgo(const std::string& args, const std::string& env = "") {
  const std::string out = scratch("stdout");
  const std::string err = scratch("stderr");
  const std::string cmd = env + " '" + SYSGO_CLI_PATH + "' " + args + " >'" +
                          out + "' 2>'" + err + "'";
  const int status = std::system(cmd.c_str());
  CliResult r;
  if (WIFEXITED(status)) r.code = WEXITSTATUS(status);
  r.out = slurp(out);
  r.err = slurp(err);
  std::remove(out.c_str());
  std::remove(err.c_str());
  return r;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// One job per grid, so shard 2/2 is empty: the command line is parsed and
// validated, and nothing runs.
const std::string kSweepJob = "sweep --families db --tasks bound --periods 3";
const std::string kSolveJob =
    "solve --families cycle --D 4 --modes half --problems gossip";
const std::string kSynthJob = "synth --families db --D 3";
const std::string kEmpty = " --shard 2/2";

void expect_accepted(const std::string& args) {
  const CliResult r = sysgo(args);
  EXPECT_EQ(r.code, 0) << args << "\n" << r.err;
}

void expect_rejected(const std::string& args, const std::string& message,
                     int code = 1) {
  const CliResult r = sysgo(args);
  EXPECT_EQ(r.code, code) << args;
  EXPECT_TRUE(contains(r.err, message))
      << args << "\nwanted: " << message << "\nstderr: " << r.err;
  EXPECT_EQ(r.out, "") << args;
}

TEST(Cli, EachGridCommandAcceptsItsFullFlagSet) {
  const std::string store = scratch("store");
  const std::string shared =
      " --d 2 --modes half --threads 1 --max-rounds 64 --seed 3"
      " --format csv --no-cache --store '" + store + "' --resume" +
      " --metrics '" + scratch("metrics.json") + "' --progress --trace '" +
      scratch("trace.bin") + "' --perf" + kEmpty;
  expect_accepted(kSweepJob + shared + " --round-threads 2");
  expect_accepted(kSolveJob + shared +
                  " --solver-threads 2 --max-states 1000");
  expect_accepted(kSynthJob + shared +
                  " --restarts 2 --iterations 10 --time-budget 5"
                  " --synth-threads 2");
  for (const char* f : {"store", "metrics.json", "trace.bin"})
    std::remove(scratch(f).c_str());
}

TEST(Cli, CommandSpecificFlagsAreRejectedElsewhere) {
  expect_rejected("synth --periods 3", "unknown synth flag: --periods", 2);
  expect_rejected("solve --tasks bound", "unknown solve flag: --tasks", 2);
  expect_rejected("sweep --problems gossip",
                  "unknown sweep flag: --problems", 2);
  expect_rejected("sweep --restarts 2", "unknown sweep flag: --restarts", 2);
  expect_rejected("solve --round-threads 2",
                  "unknown solve flag: --round-threads", 2);
  expect_rejected("synth --max-states 9", "unknown synth flag: --max-states",
                  2);
  expect_rejected("sweep --bogus", "unknown sweep flag: --bogus", 2);
}

TEST(Cli, DegreeAndDimensionBoundsPerCommand) {
  // sweep: d in [2, 64], D in [1, 30].
  expect_accepted(kSweepJob + " --d 2" + kEmpty);
  expect_accepted(kSweepJob + " --d 64" + kEmpty);
  expect_rejected(kSweepJob + " --d 1", "--d values must be in [2, 64]");
  expect_rejected(kSweepJob + " --d 65", "--d values must be in [2, 64]");
  expect_accepted(kSweepJob + " --D 1" + kEmpty);
  expect_accepted(kSweepJob + " --D 30" + kEmpty);
  expect_rejected(kSweepJob + " --D 0", "--D values must be in [1, 30]");
  expect_rejected(kSweepJob + " --D 31", "--D values must be in [1, 30]");
  // solve: d in [1, 64], D in [1, 30].
  expect_accepted(kSolveJob + " --d 1" + kEmpty);
  expect_accepted(kSolveJob + " --d 64" + kEmpty);
  expect_rejected(kSolveJob + " --d 0", "--d values must be in [1, 64]");
  expect_rejected(kSolveJob + " --d 65", "--d values must be in [1, 64]");
  expect_accepted(kSolveJob + " --D 1" + kEmpty);
  expect_accepted(kSolveJob + " --D 30" + kEmpty);
  expect_rejected(kSolveJob + " --D 0", "--D values must be in [1, 30]");
  expect_rejected(kSolveJob + " --D 31", "--D values must be in [1, 30]");
  // synth: d in [1, 64], D in [1, 4096].
  expect_accepted(kSynthJob + " --d 1" + kEmpty);
  expect_accepted(kSynthJob + " --d 64" + kEmpty);
  expect_rejected(kSynthJob + " --d 0", "--d values must be in [1, 64]");
  expect_rejected(kSynthJob + " --d 65", "--d values must be in [1, 64]");
  expect_accepted(kSynthJob + " --D 1" + kEmpty);
  expect_accepted(kSynthJob + " --D 4096" + kEmpty);
  expect_rejected(kSynthJob + " --D 0", "--D values must be in [1, 4096]");
  expect_rejected(kSynthJob + " --D 4097", "--D values must be in [1, 4096]");
}

// The CI step "Bad flag values are rejected with named flags".
TEST(Cli, BadFlagValuesNameTheFlag) {
  expect_rejected("sweep --threads 4x", "--threads");
  expect_rejected("sweep --threads 0", "must be in");
  expect_rejected("synth --restarts -5 --D 3", "--restarts");
  expect_rejected("sweep --shard 0/2", "--shard");
  expect_rejected("sweep --families", "missing value for --families");
  expect_rejected("sweep --format xml", "bad value for --format");
  expect_rejected("solve --problems foo", "bad value for --problems");
}

TEST(Cli, RangeListsAreCheckedBeforeExpansion) {
  // Rejected up front: no 30M-entry list is built first.
  expect_rejected("sweep --D 1:30000000", "--D values must be in [1, 30]");
  expect_rejected("synth --D 1:2147483647", "--D values must be in [1, 4096]");
  // A reversed range is an error, not an empty grid.
  expect_rejected("sweep --families db --D 3 --d 3:2 --tasks simulate",
                  "--d: empty range '3:2'");
  expect_rejected("solve --D 5:4", "--D: empty range '5:4'");
  expect_rejected(kSweepJob + " --periods 8:3", "--periods: empty range");
  expect_rejected(kSweepJob + " --periods 2:5",
                  "--periods values must be in [3, 2147483647] or inf");
  // hi = INT_MAX expands without overflowing the loop counter.
  expect_accepted("sweep --families db --tasks bound"
                  " --periods 2147483646:2147483647,inf --shard 4/4");
}

TEST(Cli, NonFiniteFloatFlagsAreRejected) {
  for (const char* v : {"nan", "inf", "-inf"}) {
    expect_rejected(kSynthJob + " --time-budget " + v,
                    "--time-budget must be finite");
    // The threshold is checked before either snapshot is read.
    expect_rejected(std::string("bench compare a.json b.json --threshold ") +
                        v,
                    "--threshold must be finite");
  }
  expect_rejected(kSynthJob + " --time-budget -1",
                  "--time-budget must be finite and >= 0");
}

TEST(Cli, StrayArgumentsPrintUsage) {
  for (const char* args :
       {"bound 3 fuul", "bound 3 half extra", "table fig4 junk", "table",
        "audit sched.txt extra", "simulate sched.txt 10 extra",
        "topology db 2 3 extra", "kernels --have scalar extra"}) {
    const CliResult r = sysgo(args);
    EXPECT_EQ(r.code, 2) << args;
    EXPECT_TRUE(contains(r.err, "usage:")) << args;
    EXPECT_EQ(r.out, "") << args;
  }
  EXPECT_EQ(sysgo("bound 3 full").code, 0);
  EXPECT_EQ(sysgo("bound 3 half").code, 0);
  EXPECT_EQ(sysgo("kernels --have scalar").code, 0);
}

// The paper tables come from `sysgo table`; `sweep` has no figure names.
TEST(Cli, SweepFigureNamesAreUnknownFlags) {
  for (const char* args : {"sweep fig5", "sweep fig6"}) {
    const CliResult r = sysgo(args);
    EXPECT_EQ(r.code, 2) << args;
    EXPECT_TRUE(contains(r.err, "unknown sweep flag: fig")) << args;
    EXPECT_TRUE(contains(r.err, "usage:")) << args;
    EXPECT_EQ(r.out, "") << args;
  }
}

TEST(Cli, TaskNeedingDimensionsWithoutDIsRejected) {
  expect_rejected("sweep --families db --tasks simulate",
                  "task 'simulate' needs concrete dimensions: pass --D");
}

// Each command's stdout opens with the seed comment and the CSV header.
TEST(Cli, TinyGridsPrintSeedAndCsvHeader) {
  const std::string header = "# seed=7\n" + sysgo::io::sweep_csv_header();
  for (const std::string& args :
       {std::string("sweep --families cycle --D 4 --tasks simulate,audit"),
        std::string("solve --families cycle --D 4 --modes half"),
        std::string("synth --families cycle --D 4 --restarts 1 "
                    "--iterations 20")}) {
    const CliResult r = sysgo(args + " --seed 7");
    ASSERT_EQ(r.code, 0) << args << "\n" << r.err;
    EXPECT_EQ(r.out.substr(0, header.size()), header) << args;
    EXPECT_GT(r.out.size(), header.size()) << args;
  }
}

// --max-states bounds both searches: each stops at its batch barrier and
// reports budget = 1 with no round count.
TEST(Cli, SolveStateBudgetStopsGossipAndBroadcast) {
  const CliResult r = sysgo(
      "solve --families cycle --D 9 --modes half --problems gossip,broadcast"
      " --max-states 2");
  ASSERT_EQ(r.code, 0) << r.err;
  const auto records = sysgo::io::parse_sweep_csv(r.out);
  ASSERT_EQ(records.size(), 2u) << r.out;
  for (const auto& rec : records) {
    EXPECT_EQ(rec.budget, 1) << r.out;
    EXPECT_EQ(rec.rounds, -1) << r.out;
  }
}

/// Write a schedule file into the test's scratch space; returns its path.
std::string schedule_file(const std::string& name, const std::string& body) {
  const std::string path = scratch(name);
  std::ofstream(path) << body;
  return path;
}

// A round that is not a matching is an invalid schedule for simulate, as it
// is for audit; it is never executed in arc order.
TEST(Cli, SimulateRejectsRoundsThatAreNotMatchings) {
  const std::string path = schedule_file(
      "chain.txt",
      "sysgo-schedule v1\nn 4 mode half period 2\n"
      "round 1: 0>1 1>2\nround 2: 2>3 3>0\n");
  for (const std::string cmd : {"simulate", "audit"})
    expect_rejected(cmd + " '" + path + "'", "invalid schedule: ");
  std::remove(path.c_str());
}

// A bad kernel override is an error message, not an abort, on every path
// that simulates.
TEST(Cli, SimulateReportsAnUnknownForcedKernel) {
  const std::string path = schedule_file(
      "cycle.txt",
      "sysgo-schedule v1\nn 4 mode full period 2\n"
      "round 1: 0>1 1>0 2>3 3>2\nround 2: 1>2 2>1 3>0 0>3\n");
  const CliResult ok = sysgo("simulate '" + path + "'");
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_EQ(ok.out, "gossip complete after 2 rounds\n");
  const CliResult bad =
      sysgo("simulate '" + path + "'", "SYSGO_FORCE_KERNEL=bogus");
  EXPECT_EQ(bad.code, 1) << bad.err;
  EXPECT_TRUE(contains(
      bad.err, "error: SYSGO_FORCE_KERNEL: unknown kernel 'bogus'"))
      << bad.err;
  EXPECT_EQ(bad.out, "");
  std::remove(path.c_str());
}


// A bound cell at a huge period is answered in milliseconds: the delay sums
// stop once their terms vanish.  The two records are the plain loop's.
TEST(Cli, BoundAtHugePeriodIsFastAndUnchanged) {
  const auto start = std::chrono::steady_clock::now();
  const CliResult r = sysgo(
      "sweep --families db --d 2 --D 3 --modes half,full --tasks bound"
      " --periods 20000000");
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_LT(took.count(), 20.0);
  std::istringstream lines(r.out);
  std::vector<std::string> records;
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("db,", 0) == 0)
      records.push_back(line.substr(0, line.rfind(',')));  // drop millis
  const std::string tail = ",-1,-1,-1,-1,-1,-1,-1,-1,-1,-1";
  EXPECT_EQ(records,
            (std::vector<std::string>{
                "db,2,0,half,bound,20000000,0,1,1,1.5876307466808308,"
                "0.4765419035297368" + tail,
                "db,2,0,full,bound,20000000,0,1,1,1.2938153733404159,"
                "0.22709219458976954" + tail}));
}

}  // namespace
