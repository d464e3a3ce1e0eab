#!/usr/bin/env python3
"""sysgo benchmark: end-to-end CLI workloads, and a traced per-layer split.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, untraced

Run from anywhere inside a source checkout; the program is built from that
checkout's sources into .bench_build/ at its root (the first run builds).

--trace 0 times the real `sysgo` CLI as child processes, with tracing and
--metrics off, for about --seconds, and reports the end-to-end metrics as
medians over the passes made, wall and CPU time scaled by a host-speed
probe (calib.cpp) timed between the passes.  --trace 1 reports the
per-layer metrics: it runs the workload through the untraced CLI (the
tracing-overhead baseline),
then once through perfbench_layers, which records spans around each module
call, outside the program, and snapshots the program's own obs counters.
Both modes check every record with the oracle (oracle.py) and
print one JSON result as the last line of standard output.  A per-layer
metric whose layer does not run on the workload reads -1 ("not collected"),
never 0.  See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
from workloads import WORKLOADS, Grid  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
SYSGO = CMAKE_DIR / "sysgo" / "sysgo"
LAYERS = CMAKE_DIR / "perfbench_layers"
PROBE = CMAKE_DIR / "perfbench_calib"

# An empty shard: job j runs in shard (j mod M) + 1, so shard M of M holds
# no job of any grid with fewer than M jobs.
EMPTY_SHARD = "1000000/1000000"
SETUP_REPS = 60  # about this many set-up runs per run, spread over its passes
NOT_COLLECTED = -1
SEED_STRIDE = 10007
MAX_MEMBER_LINES = 12
# Host-speed normalization (calib.cpp): a pass's times are scaled by
# PROBE_REF_S over the mean probe rep around it, so they read as seconds on
# a host where one probe rep takes PROBE_REF_S.  Probes take about
# PROBE_SHARE of a run.
PROBE_REF_S = 0.3
PROBE_SHARE = 0.2


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k of a run.  Synth and rr/gnp work depends on the seed,
    so a run spreads its passes over several instances: pass 0 gets --seed
    itself, pass k gets seed + k * SEED_STRIDE."""
    return seed + k * SEED_STRIDE


def fail(msg: str, code: int = 1) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------------ build

def build(targets: list[str]) -> None:
    """Configure once, then bring the targets up to date (quiet on success)."""
    for need in ("CMakeLists.txt", "src", "tools/sysgo_cli.cpp"):
        if not (ROOT / need).exists():
            fail(f"{ROOT / need} not found: run inside a sysgo source checkout",
                 2)
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", "-DSYSGO_BENCH=OFF",
                      "-DSYSGO_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j",
                  str(os.cpu_count() or 1), "--target"] + targets)
    with open(log, "a", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                tail = log.read_text(encoding="utf-8").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


# -------------------------------------------------------------- processes

class Pass:
    """One run of a workload's commands, in order, as child processes."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.scale = 1.0  # PROBE_REF_S / probe time around the pass
        self.peak_rss_kb = 0
        self.outputs: list[str] = []
        self.returncodes: list[int] = []


def spawn_all(argvs: list[list[str]], work: Path) -> Pass:
    """Run argvs one after another; wall time spans the first spawn to the
    last exit, and rusage comes from wait4 of each child."""
    p = Pass()
    files = []
    t0 = time.perf_counter()
    for i, argv in enumerate(argvs):
        out_path = work / f"out{i}.csv"
        with open(out_path, "wb") as out, open(work / f"err{i}.txt", "wb") as err:
            child = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work)
            _, status, ru = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        p.returncodes.append(child.returncode)
        p.cpu_s += ru.ru_utime + ru.ru_stime
        p.peak_rss_kb = max(p.peak_rss_kb, ru.ru_maxrss)
        files.append(out_path)
    p.wall_s = time.perf_counter() - t0
    p.outputs = [f.read_text(encoding="utf-8") for f in files]
    return p


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_argvs(grids: list[Grid], seed: int, store: Path,
              extra: list[str] | None = None) -> list[list[str]]:
    return [[str(SYSGO)] + g.cli_args(seed, str(store)) + (extra or [])
            for g in grids]


def probe(reps: int, work: Path) -> float:
    """Mean seconds of one host-speed probe rep, over `reps` reps."""
    out = subprocess.run([str(PROBE), str(reps)], cwd=work, capture_output=True,
                         text=True, check=False)
    times = [float(t) for t in out.stdout.split()]
    if out.returncode != 0 or len(times) != reps:
        fail(f"host-speed probe failed (exit {out.returncode})")
    return statistics.fmean(times)


def check_pass(reference: dict, workload: str, p: Pass) -> oracle.CheckResult:
    total = oracle.CheckResult()
    for i, text in enumerate(p.outputs):
        total.add(oracle.check(reference, workload, i, text))
    return total


def setup_run(grids: list[Grid], seed: int, store: Path, work: Path) -> float:
    """Wall time of the workload's commands on an empty shard."""
    s = spawn_all(cli_argvs(grids, seed, store, ["--shard", EMPTY_SHARD]), work)
    if any(s.returncodes) or any(oracle.parse_csv(o) for o in s.outputs):
        fail(f"empty-shard set-up run failed: {s.returncodes}")
    return s.wall_s


def timed_passes(workload: str, seed: int, budget_s: float, store: Path,
                 work: Path, reference: dict, vary_seed: bool,
                 setup: list[float] | None = None
                 ) -> tuple[list[Pass], oracle.CheckResult]:
    """Passes on a fresh store while at least half of one more fits in
    budget_s (at least one), each checked by the oracle.  A host-speed probe
    runs before the first pass and after each one; a pass's scale comes from
    the mean of the probes on either side of it.  With `setup`, set-up runs
    follow each pass's probe, so that their median spans the whole run
    (the host's speed drifts within seconds); campaign's store is then
    populated by the pass, so its load is part of the set-up."""
    grids = WORKLOADS[workload]
    passes: list[Pass] = []
    checked = oracle.CheckResult()
    start = time.perf_counter()
    before = probe(1, work)
    while True:
        fresh_dir(store.parent)
        k_seed = pass_seed(seed, len(passes)) if vary_seed else seed
        p = spawn_all(cli_argvs(grids, k_seed, store), work)
        typical = statistics.median([q.wall_s for q in passes] + [p.wall_s])
        reps = max(1, round(PROBE_SHARE * typical / before))
        after = probe(reps, work)
        p.scale = PROBE_REF_S / ((before + after) / 2)
        before = after
        if setup is not None:
            reps = min(SETUP_REPS,
                       max(1, round(SETUP_REPS * typical / budget_s)))
            setup += [setup_run(grids, seed, store, work) for _ in range(reps)]
        checked.add(check_pass(reference, workload, p))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + typical * (1 + PROBE_SHARE) / 2 > budget_s:
            return passes, checked


# ------------------------------------------------------------ end to end

def run_e2e(workload: str, seed: int, seconds: float,
            reference: dict) -> tuple[dict, oracle.CheckResult, list[str]]:
    grids = WORKLOADS[workload]
    work = fresh_dir(BUILD_DIR / "work" / workload)
    store = work / "store" / "S"
    # Untimed warm-up: one empty-shard pass pages the binary in.
    store.parent.mkdir()
    spawn_all(cli_argvs(grids, seed, store, ["--shard", EMPTY_SHARD]), work)

    start = time.perf_counter()
    setup: list[float] = []
    passes, checked = timed_passes(workload, seed, seconds, store, work,
                                   reference, vary_seed=True, setup=setup)
    elapsed = time.perf_counter() - start

    walls = [p.wall_s * p.scale for p in passes]
    cpus = [p.cpu_s * p.scale for p in passes]
    rounds = checked.rounds_total / len(passes)  # mean over the passes' seeds
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_kb for p in passes) / 1024,
                        "MB"),
        "cell_ok_frac": (1.0 - checked.failed / checked.attempted, "ratio"),
        "rounds_total": (rounds, "rounds"),
    }
    lines = [f"{workload}: {len(passes)} passes in {elapsed:.1f} s "
             f"(seeds {seed} + k*{SEED_STRIDE}), {len(setup)} set-up runs"]
    samples = {"wall_s": walls, "setup_s": setup, "cpu_s": cpus}
    for name, (value, unit) in metrics.items():
        line = f"  {name:<14} {value:.6g} {unit}"
        if name in samples:
            xs = samples[name]
            line += (f"  (median of {len(xs)}; min {min(xs):.6g}, "
                     f"max {max(xs):.6g})")
        lines.append(line)
    raw = [p.wall_s for p in passes]
    host = PROBE_REF_S / statistics.median(p.scale for p in passes)
    lines.append(f"  wall_s and cpu_s are host-speed normalized; raw wall median "
                 f"{statistics.median(raw):.6g} s (min {min(raw):.6g}, max "
                 f"{max(raw):.6g}), host {host:.4g} s per probe rep "
                 f"(reference {PROBE_REF_S} s)")
    lines.append(f"  cells: {checked.attempted} attempted, {checked.failed} failed "
                 f"({checked.missing} missing), exit codes "
                 f"{sorted(set(rc for p in passes for rc in p.returncodes))}")
    return metrics, checked, lines


# ---------------------------------------------------------------- traced

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its children cover (µs).

    Root spans other than the command's `run` span (jobs on pool workers)
    are children of `run`.  Children of one parent may overlap when they
    ran on different lanes, so their intervals are merged first."""
    children: dict[int, list[int]] = {}
    run = next(i for i, s in enumerate(spans) if s[3] == -1)
    for i, s in enumerate(spans):
        parent = s[3] if s[3] != -1 or i == run else run
        if i != run:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, []), key=lambda k: spans[k][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def read_snapshot(path: Path) -> dict[str, float]:
    """Counters and histogram sums of one --metrics snapshot, by name."""
    data = json.loads(path.read_text(encoding="utf-8"))
    flat: dict[str, float] = {}
    for name, value in data.get("counters", {}).items():
        flat[name] = value
    for name, h in data.get("histograms", {}).items():
        flat[name + ".sum_us"] = h.get("sum_us", 0)
        flat[name + ".count"] = h.get("count", 0)
    return flat


def host_cache_bytes(level: str) -> int:
    """LEVEL2/LEVEL3 cache size from getconf, 0 when unknown."""
    try:
        out = subprocess.run(["getconf", f"{level}_CACHE_SIZE"],
                             capture_output=True, text=True, check=False)
        return int(out.stdout.strip() or 0)
    except (OSError, ValueError):
        return 0


def run_traced(workload: str, seed: int, seconds: float,
               reference: dict) -> tuple[dict, oracle.CheckResult, list[str]]:
    grids = WORKLOADS[workload]
    work = fresh_dir(BUILD_DIR / "work" / workload)
    store = work / "store" / "S"

    # 1. Untraced CLI passes at the traced run's seed: the overhead baseline.
    untraced, checked = timed_passes(workload, seed, seconds / 3, store, work,
                                     reference, vary_seed=False)
    untraced_wall = statistics.median(p.wall_s for p in untraced)

    # 2. The traced run through the span tracer, which also snapshots the
    #    program's obs registry.
    fresh_dir(store.parent)
    commands = []
    counters: dict[str, float] = {}
    traced_wall = 0.0
    tracer_only_findings: list[str] = []
    solve_states = 0
    for i, g in enumerate(grids):
        spans_path, rec_path = work / f"spans{i}.json", work / f"records{i}.csv"
        argv = ([str(LAYERS)] + g.tracer_args(seed, str(store))
                + ["--spans", str(spans_path), "--records", str(rec_path),
                   "--metrics", str(work / f"metrics{i}.json")])
        t0 = time.perf_counter()
        rc = subprocess.run(argv, cwd=work, check=False).returncode
        traced_wall += time.perf_counter() - t0
        if rc != 0:
            fail(f"perfbench_layers exited {rc}: {' '.join(argv)}")
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        data["argv"] = argv
        for name, value in read_snapshot(work / f"metrics{i}.json").items():
            counters[name] = counters.get(name, 0) + value
        commands.append(data)
        records = rec_path.read_text(encoding="utf-8")
        # The tracer must compute what the program computed; cells the program
        # never emitted (it stops at the first job that throws) are checked
        # too, and reported, but they are not the program's output.
        mismatches, tracer_only = oracle.mirror_problems(untraced[0].outputs[i],
                                                         records)
        checked.problems += mismatches
        tracer_only_findings += [
            p for p in oracle.check(reference, workload, i, records).problems
            if p.split(":")[0] in tracer_only]
        solve_states += sum(int(r["states"]) for r in oracle.parse_csv(records)
                            if r["task"].startswith("solve-"))

    per_layer, lines, trace = layer_metrics(commands, counters, grids,
                                         solve_states)
    per_layer["trace.total_s"] = (traced_wall, "s")
    per_layer["trace.untraced_wall_s"] = (untraced_wall, "s")
    per_layer["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    trace.update(workload=workload, seed=seed, untraced_wall_s=untraced_wall,
                 traced_total_s=traced_wall)
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(trace), encoding="utf-8")

    header = [f"{workload}: traced run, seed {seed}; untraced wall "
              f"{untraced_wall:.4f} s (median of {len(untraced)}), traced "
              f"{traced_wall:.4f} s; spans in {trace_path}"]
    for name, (value, unit) in per_layer.items():
        shown = "n/c" if value == NOT_COLLECTED else f"{value:.6g} {unit}"
        header.append(f"  {name:<28} {shown}")
    if tracer_only_findings:
        header.append(f"  oracle findings on {len(tracer_only_findings)} cells only "
                      "the tracer emitted (absent from the program's output, "
                      "so not counted):")
        header += [f"    {p}" for p in sorted(set(tracer_only_findings))]
    return per_layer, checked, header + lines


def layer_metrics(commands: list[dict], counters: dict[str, float],
                  grids: list[Grid],
                  solve_states: int) -> tuple[dict, list[str], dict]:
    self_us: dict[str, float] = {}
    count: dict[str, int] = {}
    job_us = 0.0
    lane_wall_us = 0.0
    simulated = []
    trace_commands = []
    for ci, cmd in enumerate(commands):
        names = cmd["span_names"]
        spans = cmd["spans"]
        selfs = self_times(spans)
        for s, st in zip(spans, selfs):
            name = names[s[0]]
            self_us[name] = self_us.get(name, 0.0) + st
            count[name] = count.get(name, 0) + 1
            if name == "engine.job":
                job_us += s[2] - s[1]
            elif name == "run":
                lane_wall_us += cmd["lanes"] * (s[2] - s[1])
        simulated += cmd["simulated"]
        trace_commands.append({
            "argv": cmd["argv"], "wall_us": cmd["wall_us"],
            "lanes": cmd["lanes"], "errors": cmd["errors"],
            "spans": [{"id": i, "name": names[s[0]], "start_us": s[1],
                       "end_us": s[2], "parent": s[3],
                       "cell": f"{ci}.{s[4]}" if s[4] >= 0 else None,
                       "self_us": round(st, 3)}
                      for i, (s, st) in enumerate(zip(spans, selfs))]})

    def span_s(name: str) -> float:
        return self_us[name] / 1e6 if count.get(name) else NOT_COLLECTED

    def span_n(name: str) -> float:
        return count.get(name, 0) if count.get(name) else NOT_COLLECTED

    def counter(name: str, layer_span: str | None) -> float:
        if layer_span is not None and not count.get(layer_span):
            return NOT_COLLECTED
        return counters.get(name, NOT_COLLECTED)

    def ratio(num: float, den: float) -> float:
        if NOT_COLLECTED in (num, den) or den == 0:
            return NOT_COLLECTED
        return num / den

    def share(a: float, b: float) -> float:
        return NOT_COLLECTED if NOT_COLLECTED in (a, b) else ratio(a, a + b)

    def secs(us: float) -> float:
        return NOT_COLLECTED if us == NOT_COLLECTED else us / 1e6

    sim = count.get("simulator.gossip", 0) > 0
    rounds = sum(m[6] for m in simulated)
    row_ops = sum(m[7] for m in simulated)
    sim_bytes = sum(m[8] for m in simulated)
    ws_max = max((m[5] * m[5] / 8 for m in simulated), default=0)

    m = {}
    m["topology.build_s"] = (span_s("topology.build"), "s")
    m["topology.builds"] = (span_n("topology.build"), "count")
    m["protocol.color_s"] = (span_s("protocol.color"), "s")
    m["protocol.compile_s"] = (span_s("protocol.compile"), "s")
    m["protocol.compiles"] = (span_n("protocol.compile"), "count")
    m["simulator.gossip_s"] = (span_s("simulator.gossip"), "s")
    m["simulator.rounds"] = (rounds if sim else NOT_COLLECTED, "rounds")
    m["simulator.row_ops"] = (row_ops if sim else NOT_COLLECTED, "count")
    m["simulator.bytes_computed"] = (sim_bytes if sim else NOT_COLLECTED, "B")
    m["simulator.working_set_max_mb"] = (ws_max / 2**20 if sim else NOT_COLLECTED,
                                         "MB")
    m["core.audit_s"] = (span_s("core.audit"), "s")
    m["core.audits"] = (span_n("core.audit"), "count")
    m["core.bound_s"] = (span_s("core.bound"), "s")
    m["separator.verify_s"] = (span_s("separator.verify"), "s")
    solve_s = span_s("search.solve")
    discovered = counter("search.states_discovered", "search.solve")
    deduped = counter("search.states_deduped", "search.solve")
    m["search.solve_s"] = (solve_s, "s")
    states = solve_states if count.get("search.solve") else NOT_COLLECTED
    m["search.states"] = (states, "count")
    m["search.states_per_s"] = (ratio(states, solve_s), "1/s")
    m["search.layers"] = (counter("search.layers", "search.solve"), "count")
    m["search.new_state_ratio"] = (share(discovered, deduped), "ratio")
    restart_s = secs(counter("synth.restart.micros.sum_us", "synth.synthesize"))
    synthesize_s = span_s("synth.synthesize")
    moves = counter("synth.moves_proposed", "synth.synthesize")
    accepted = counter("synth.moves_accepted", "synth.synthesize")
    replayed = counter("synth.replayed_rounds", "synth.synthesize")
    replay_total = counter("synth.replay_total_rounds", "synth.synthesize")
    m["synth.synthesize_s"] = (synthesize_s, "s")
    m["synth.restart_s"] = (restart_s, "s")
    # Restarts run one after another at one synth thread, so what the
    # synthesize span holds beyond them is the warm start and bookkeeping.
    m["synth.warmstart_s"] = (
        synthesize_s - restart_s
        if NOT_COLLECTED not in (synthesize_s, restart_s) else NOT_COLLECTED, "s")
    m["synth.moves"] = (moves, "count")
    m["synth.moves_per_s"] = (ratio(moves, synthesize_s), "1/s")
    m["synth.accept_ratio"] = (ratio(accepted, moves), "ratio")
    m["synth.replay_ratio"] = (ratio(replayed, replay_total), "ratio")
    hits = counter("store.lookup.hits", "store.load")
    misses = counter("store.lookup.misses", "store.load")
    m["store.load_s"] = (span_s("store.load"), "s")
    m["store.insert_s"] = (span_s("store.insert"), "s")
    m["store.lookup_s"] = (span_s("store.lookup"), "s")
    m["store.hit_ratio"] = (share(hits, misses), "ratio")
    m["store.bytes_written"] = (counter("store.log_bytes_written", "store.load"),
                                "B")
    m["io.emit_s"] = (span_s("io.emit"), "s")
    cache_hits = sum(c["cache_hits"] for c in commands)
    cache_misses = sum(c["cache_misses"] for c in commands)
    m["engine.jobs"] = (sum(c["executed"] for c in commands), "count")
    m["engine.job_self_s"] = (span_s("engine.job"), "s")
    m["engine.cache_hit_ratio"] = (share(cache_hits, cache_misses), "ratio")
    pooled = any(g.threads > 1 for g in grids)
    m["pool.idle_s"] = (secs(counter("pool.worker_idle_micros", None))
                        if pooled else NOT_COLLECTED, "s")
    m["pool.steals"] = (counter("pool.tasks_stolen", None) if pooled
                        else NOT_COLLECTED, "count")
    m["pool.busy_frac"] = (ratio(job_us, lane_wall_us), "ratio")

    lines = []
    l2, l3 = host_cache_bytes("LEVEL2"), host_cache_bytes("LEVEL3")
    if simulated:
        lines.append(f"  simulator working sets (n^2/8; host L2 {l2 / 2**20:.3g} MB, "
                     f"L3 {l3 / 2**20:.3g} MB; row_ops and bytes are computed, "
                     "not measured):")
        members = sorted({(m[5], m[1], m[2], m[3]) for m in simulated})
        for n, fam, d, D in members[-MAX_MEMBER_LINES:]:
            ws = n * n / 8
            where = ("L2" if l2 and ws <= l2 else "L3" if l3 and ws <= l3
                     else "neither L2 nor L3")
            lines.append(f"    {fam}({d},{D}) n={n}: {ws / 2**20:.4g} MB, "
                         f"fits {where}")
        if len(members) > MAX_MEMBER_LINES:
            lines.append(f"    ({len(members) - MAX_MEMBER_LINES} smaller members "
                         "omitted; all are in the trace file)")
    trace = {"commands": trace_commands, "counters": counters,
             "simulated": [dict(zip(("cell", "family", "d", "D", "mode", "n",
                                     "rounds", "row_ops", "bytes_computed"), s))
                           for s in simulated],
             "host": {"l2_bytes": l2, "l3_bytes": l3},
             "per_layer": {k: (None if v == NOT_COLLECTED else v)
                           for k, (v, _) in m.items()}}
    return m, lines, trace


# ------------------------------------------------------------------ main

def result_line(metrics: dict, checked: oracle.CheckResult) -> str:
    return json.dumps({
        "correct": checked.correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build(["sysgo_cli", "perfbench_calib"]
          + (["perfbench_layers"] if args.trace else []))
    reference = oracle.load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        runner = run_traced if args.trace else run_e2e
        metrics, checked, lines = runner(name, args.seed, args.seconds,
                                         reference)
        print("\n".join(lines))
        for problem in checked.problems[:20]:
            print(f"  oracle: {problem}")
        print(result_line(metrics, checked), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
