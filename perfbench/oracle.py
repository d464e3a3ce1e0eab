"""Correctness oracle behind `cell_ok_frac`, and the tool that made its reference.

Every workload command is a grid of cells; a cell is one record keyed by
(family, d, D, mode, task, requested period).  reference.json lists, per
workload command, every cell the grid expands to, and for each cell one of:

  ok      a deterministic cell that finished: every result field must match
          the reference except `millis`, and except `states` on solve cells
          (a better search may explore fewer states for the same optimum).
          Integers match exactly, reals to a relative 1e-9.
  error   a deterministic cell whose job threw when the reference was made
          (odd-n Knodel members).  Missing counts as failed; a record that
          comes back later (a per-cell failure record) counts as passed.
  seeded  a cell whose value depends on --seed: rr/gnp simulate and audit
          cells, and every synth cell.  These are checked against the bound
          lattice instead of a value, so any seed needs no new reference:
            audit rounds <= simulate rounds of the same member, and
            max(diameter, ceil(log2 n)) <= synth rounds <= rounds of the
            edge-coloring schedule, simulated.
          rr/gnp bound, diameter and separator cells are sentinel records
          that never read the seed, so they are pinned like deterministic
          cells.

A cell that is missing from the output, or fails its check, counts as
failed.  The CLI stops emitting at the first job that throws, so every
cell after it is missing; those cells are counted, not hidden.

Make the reference (seed 7) with the CLI the benchmark builds:

    python3 perfbench/oracle.py --sysgo .bench_build/cmake/sysgo/sysgo

It must come from the commit that defines the benchmark; remaking it on a
later commit would make the oracle accept whatever that commit computes.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import D_INDEPENDENT_TASKS, WORKLOADS, Grid, expand_list

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 7
SEEDED_FAMILIES = ("rr", "gnp")
ROUND_TASKS = ("simulate", "audit", "solve-gossip", "solve-broadcast", "synth")
REL_TOL = 1e-9


def parse_csv(text: str) -> list[dict[str, str]]:
    """Records of a sweep CSV; '#' comment lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def cell_key(row: dict[str, str]) -> str:
    period = row.get("s", "") if row.get("task") == "bound" else ""
    return ",".join((row.get("family", ""), row.get("d", ""), row.get("D", ""),
                     row.get("mode", ""), row.get("task", ""), period))


def member_key(row: dict[str, str]) -> str:
    return ",".join((row["family"], row["d"], row["D"], row["mode"]))


def is_seeded(family: str, task: str) -> bool:
    return task == "synth" or (family in SEEDED_FAMILIES
                               and task in ("simulate", "audit"))


def _ignored_fields(task: str) -> set[str]:
    return {"millis", "states"} if task.startswith("solve-") else {"millis"}


def _same_value(expected: str, got: str) -> bool:
    if expected == got:
        return True
    try:
        e, g = float(expected), float(got)
    except ValueError:
        return False
    return math.isclose(e, g, rel_tol=REL_TOL, abs_tol=1e-12)


def _int(row: dict[str, str], field: str) -> int | None:
    try:
        return int(row[field])
    except (KeyError, ValueError):
        return None


@dataclasses.dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    missing: int = 0
    rounds_total: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        """No emitted record is wrong; missing cells are failures only."""
        return not self.problems

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.missing += other.missing
        self.rounds_total += other.rounds_total
        self.problems += other.problems


def _check_lattice(row: dict[str, str], rows: dict[str, dict[str, str]],
                   members: dict[str, dict]) -> str | None:
    """Why a seeded record is out of the bound lattice, or None."""
    task = row["task"]
    rounds = _int(row, "rounds")
    if rounds is None:
        return "unreadable rounds"
    if task == "synth":
        m = members.get(member_key(row))
        if m is None:
            return "no reference member"
        if _int(row, "n") != m["n"]:
            return f"n={row.get('n')} but the member has n={m['n']}"
        lower = max(m["diameter"], math.ceil(math.log2(m["n"])))
        if not lower <= rounds <= m["coloring_rounds"]:
            return (f"synth rounds {rounds} outside "
                    f"[{lower}, {m['coloring_rounds']}]")
        return None
    partner_task = "simulate" if task == "audit" else "audit"
    partner = rows.get(cell_key({**row, "task": partner_task}))
    if partner is None:
        return None  # the partner cell is counted on its own
    audit, simulate = (row, partner) if task == "audit" else (partner, row)
    a, s = _int(audit, "rounds"), _int(simulate, "rounds")
    if a is None or s is None:
        return "unreadable rounds"
    if s >= 0 and a > s:
        return f"audit bound {a} > simulated rounds {s}"
    return None


def check(reference: dict, workload: str, command: int,
          csv_text: str) -> CheckResult:
    """Check one command's CSV output against the reference."""
    fields = reference["fields"]
    cells = reference["cells"]
    expected = reference["workloads"][workload][command]
    members = reference["members"]
    res = CheckResult(attempted=len(expected))
    rows: dict[str, dict[str, str]] = {}
    for row in parse_csv(csv_text):
        key = cell_key(row)
        if key in rows:
            res.problems.append(f"duplicate record {key}")
        rows[key] = row
    for key in rows.keys() - set(expected):
        res.problems.append(f"unexpected record {key}")
    for key in expected:
        row = rows.get(key)
        if row is None:
            res.failed += 1
            res.missing += 1
            continue
        cell = cells[key]
        status = cell["status"]
        why = None
        if status == "ok":
            ignored = _ignored_fields(row["task"])
            for name, value in zip(fields, cell["row"]):
                if name in ignored:
                    continue
                if not _same_value(value, row.get(name, "")):
                    why = f"{name}={row.get(name)!r}, reference {value!r}"
                    break
        elif status == "seeded":
            why = _check_lattice(row, rows, members)
        if why is not None:
            res.failed += 1
            res.problems.append(f"{key}: {why}")
            continue
        if row["task"] in ROUND_TASKS and (status == "ok"
                                           or row["task"] == "synth"):
            res.rounds_total += max(_int(row, "rounds") or 0, 0)
    return res


def mirror_problems(program_csv: str,
                    traced_csv: str) -> tuple[list[str], set[str]]:
    """Cells the program and the span tracer both emitted with different
    values (millis aside), and the keys only the tracer emitted."""
    program = {cell_key(r): r for r in parse_csv(program_csv)}
    tracer = {cell_key(r): r for r in parse_csv(traced_csv)}
    problems = []
    for key in program.keys() & tracer.keys():
        a, b = program[key], tracer[key]
        diff = [f for f in a if f != "millis" and a[f] != b.get(f)]
        if diff:
            problems.append(f"{key}: tracer differs from the program in {diff}")
    return problems, tracer.keys() - program.keys()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


# ------------------------------------------------------------ making it

def _run(sysgo: str, args: list[str]) -> tuple[int, str, str]:
    p = subprocess.run([sysgo] + args, capture_output=True, text=True,
                       check=False)
    return p.returncode, p.stdout, p.stderr.strip()


def _leaf_key(grid: Grid) -> str:
    task = grid.tasks
    D = "0" if task in D_INDEPENDENT_TASKS else grid.D
    period = ""
    if task == "bound":
        period = "-1" if grid.periods == "inf" else grid.periods
    return ",".join((grid.families, grid.d, D, grid.modes, task, period))


def _axis_values(grid: Grid, axis: str) -> list[str]:
    if axis == "periods" and "bound" not in grid.tasks.split(","):
        return []
    return expand_list(getattr(grid, axis)) if getattr(grid, axis) else []


def _collect(sysgo: str, grid: Grid, seed: int, fields: list[str],
             cells: dict) -> list[str]:
    """Keys of the grid's cells, recording each cell in `cells`.

    A grid whose run fails is split along its first multi-valued axis until
    the failing cells stand alone."""
    rc, out, err = _run(sysgo, grid.cli_args(seed))
    if rc == 0:
        keys = []
        for row in parse_csv(out):
            key = cell_key(row)
            keys.append(key)
            if is_seeded(row["family"], row["task"]):
                cells[key] = {"status": "seeded"}
            else:
                cells[key] = {"status": "ok",
                              "row": [row[f] for f in fields]}
        return keys
    for axis in ("families", "d", "D", "modes", "tasks", "periods"):
        values = _axis_values(grid, axis)
        if len(values) > 1:
            keys: list[str] = []
            for v in values:
                for key in _collect(sysgo, dataclasses.replace(grid, **{axis: v}),
                                    seed, fields, cells):
                    if key not in keys:
                        keys.append(key)
            return keys
    key = _leaf_key(grid)
    seeded = is_seeded(grid.families, grid.tasks)
    cells[key] = ({"status": "seeded"} if seeded
                  else {"status": "error", "error": err.splitlines()[-1]})
    return [key]


def _diameter(sysgo: str, family: str, d: str, D: str, undirected: bool) -> int:
    rc, out, err = _run(sysgo, ["topology", family, d, D])
    if rc != 0:
        raise RuntimeError(err)
    adj: dict[int, set[int]] = collections.defaultdict(set)
    n = 0
    for line in out.splitlines():
        parts = line.split()
        if parts[:1] == ["n"]:
            n = int(parts[1])
        elif parts[:1] == ["arc"]:
            u, v = int(parts[1]), int(parts[2])
            adj[u].add(v)
            if undirected:
                adj[v].add(u)
    diameter = 0
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < n:
            raise RuntimeError(f"{family} {d} {D} is not strongly connected")
        diameter = max(diameter, max(dist.values()))
    return diameter


def make_reference(sysgo: str, seed: int) -> dict:
    rc, out, err = _run(sysgo, ["sweep", "--families", "db", "--d", "2",
                                "--D", "3", "--tasks", "simulate"])
    if rc != 0:
        raise RuntimeError(err)
    fields = next(ln for ln in out.splitlines()
                  if ln and not ln.startswith("#")).split(",")
    cells: dict[str, dict] = {}
    workloads = {}
    for name, grids in WORKLOADS.items():
        workloads[name] = [
            _collect(sysgo, dataclasses.replace(g, store=""), seed, fields,
                     cells) for g in grids]
    members = {}
    for key, cell in cells.items():
        family, d, D, mode, task, _ = key.split(",")
        if task != "synth":
            continue
        rc, out, err = _run(sysgo, ["sweep", "--families", family, "--d", d,
                                    "--D", D, "--modes", mode, "--tasks",
                                    "simulate", "--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(err)
        (row,) = parse_csv(out)
        members[",".join((family, d, D, mode))] = {
            "n": int(row["n"]),
            "coloring_rounds": int(row["rounds"]),
            "diameter": _diameter(sysgo, family, d, D, mode == "full"),
        }
    return {"seed": seed, "fields": fields, "workloads": workloads,
            "members": members, "cells": cells}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sysgo", required=True, help="path of the sysgo CLI")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    args = ap.parse_args()
    ref = make_reference(args.sysgo, args.seed)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, separators=(",", ":"))
        f.write("\n")
    counts = collections.Counter(c["status"] for c in ref["cells"].values())
    print(f"wrote {REFERENCE_PATH.name}: {dict(counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
