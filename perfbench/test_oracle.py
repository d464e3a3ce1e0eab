"""Self-tests of the benchmark's oracle and span arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: records are made from reference.json itself.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402
import run  # noqa: E402

REF = oracle.load_reference()
FIELDS = REF["fields"]


def reference_csv(workload: str, command: int, edit=None, drop=()) -> str:
    """The command's CSV as the reference recorded it (ok cells only),
    with `edit(key, row)` applied and the keys in `drop` left out."""
    lines = ["# seed=7", ",".join(FIELDS)]
    for key in REF["workloads"][workload][command]:
        cell = REF["cells"][key]
        if cell["status"] != "ok" or key in drop:
            continue
        row = dict(zip(FIELDS, cell["row"]))
        if edit is not None:
            edit(key, row)
        lines.append(",".join(row[f] for f in FIELDS))
    return "\n".join(lines) + "\n"


def synth_csv(command: int, rounds_of) -> str:
    """synth-anneal records of one command whose rounds are rounds_of(member)."""
    lines = [",".join(FIELDS)]
    for key in REF["workloads"]["synth-anneal"][command]:
        family, d, D, mode, task, _ = key.split(",")
        m = REF["members"][",".join((family, d, D, mode))]
        row = {f: "-1" for f in FIELDS}
        row.update(family=family, d=d, D=D, mode=mode, task=task,
                   n=str(m["n"]), rounds=str(rounds_of(m)), millis="1.0")
        lines.append(",".join(row[f] for f in FIELDS))
    return "\n".join(lines) + "\n"


class ReferenceCells(unittest.TestCase):
    def test_reference_records_pass(self):
        res = oracle.check(REF, "sweep-large", 0, reference_csv("sweep-large", 0))
        self.assertTrue(res.correct, res.problems)
        self.assertEqual((res.attempted, res.failed), (24, 0))
        self.assertGreater(res.rounds_total, 0)

    def test_millis_and_solve_states_may_change(self):
        def edit(_, row):
            row["millis"] = "123.5"
            row["states"] = "1"
        res = oracle.check(REF, "solve-exact", 0,
                           reference_csv("solve-exact", 0, edit))
        self.assertTrue(res.correct, res.problems)
        self.assertEqual(res.failed, 0)

    def test_perturbed_record_is_flagged(self):
        target = REF["workloads"]["sweep-large"][0][0]

        def edit(key, row):
            if key == target:
                row["rounds"] = str(int(row["rounds"]) + 1)
        res = oracle.check(REF, "sweep-large", 0,
                           reference_csv("sweep-large", 0, edit))
        self.assertFalse(res.correct)
        self.assertEqual(res.failed, 1)
        self.assertIn(target, res.problems[0])

    def test_perturbed_real_is_flagged_beyond_tolerance(self):
        target = next(k for k in REF["workloads"]["sweep-large"][0]
                      if k.split(",")[4] == "audit")

        def nudge(scale):
            def edit(key, row):
                if key == target:
                    row["lambda"] = repr(float(row["lambda"]) * scale)
            return oracle.check(REF, "sweep-large", 0,
                                reference_csv("sweep-large", 0, edit))
        self.assertTrue(nudge(1 + 1e-12).correct)
        self.assertFalse(nudge(1 + 1e-6).correct)

    def test_missing_record_is_counted_not_hidden(self):
        target = REF["workloads"]["sweep-large"][1][3]
        res = oracle.check(REF, "sweep-large", 1,
                           reference_csv("sweep-large", 1, drop={target}))
        self.assertTrue(res.correct)  # nothing emitted is wrong ...
        self.assertEqual((res.failed, res.missing), (1, 1))  # ... one is gone

    def test_unexpected_record_is_flagged(self):
        text = reference_csv("solve-exact", 0)
        extra = text.splitlines()[-1].replace("cycle,2,7", "cycle,2,9", 1)
        res = oracle.check(REF, "solve-exact", 0, text + extra + "\n")
        self.assertFalse(res.correct)

    def test_campaign_baseline_counts_the_cells_the_cli_drops(self):
        cold = REF["workloads"]["campaign"][0]
        first_knodel = next(i for i, k in enumerate(cold)
                            if REF["cells"][k]["status"] == "error")
        kept = set(cold[:first_knodel])
        res = oracle.check(REF, "campaign", 0, reference_csv(
            "campaign", 0, drop=set(cold) - kept))
        self.assertTrue(res.correct)
        self.assertEqual(res.failed, len(cold) - first_knodel)


def check_synth(rounds_of) -> oracle.CheckResult:
    """Every synth-anneal command checked, with rounds = rounds_of(member)."""
    total = oracle.CheckResult()
    for i in range(len(REF["workloads"]["synth-anneal"])):
        total.add(oracle.check(REF, "synth-anneal", i, synth_csv(i, rounds_of)))
    return total


class Lattice(unittest.TestCase):
    def test_coloring_rounds_are_in_the_lattice(self):
        res = check_synth(lambda m: m["coloring_rounds"])
        self.assertTrue(res.correct, res.problems)
        self.assertEqual((res.attempted, res.failed), (12, 0))

    def test_synth_worse_than_coloring_is_rejected(self):
        res = check_synth(lambda m: m["coloring_rounds"] + 1)
        self.assertFalse(res.correct)
        self.assertEqual(res.failed, 12)

    def test_synth_below_the_lower_bound_is_rejected(self):
        res = check_synth(lambda m: m["diameter"] - 1)
        self.assertFalse(res.correct)
        self.assertEqual(res.failed, 12)

    def test_audit_above_simulate_is_rejected_on_seeded_members(self):
        header = ",".join(FIELDS)

        def row(task, rounds):
            r = {f: "-1" for f in FIELDS}
            r.update(family="rr", d="2", D="5", mode="half", task=task, n="5",
                     rounds=str(rounds), millis="1")
            return ",".join(r[f] for f in FIELDS)
        key_sim = "rr,2,5,half,simulate,"
        cmd = next(i for i, keys in enumerate(REF["workloads"]["campaign"])
                   if key_sim in keys)
        ok = oracle.check(REF, "campaign", cmd, "\n".join(
            [header, row("simulate", 4), row("audit", 3)]))
        bad = oracle.check(REF, "campaign", cmd, "\n".join(
            [header, row("simulate", 4), row("audit", 5)]))
        self.assertTrue(ok.correct)
        self.assertFalse(bad.correct)


class Mirror(unittest.TestCase):
    def test_tracer_mismatch_and_tracer_only_cells(self):
        text = reference_csv("sweep-large", 0)
        lines = text.splitlines()
        program = "\n".join(lines[:-1])  # the program stopped one cell early
        tracer = text.replace(",76,", ",77,", 1)
        problems, only = oracle.mirror_problems(program, tracer)
        self.assertEqual(len(problems), 1)
        self.assertEqual(only, {oracle.cell_key(oracle.parse_csv(
            "\n".join([lines[1], lines[-1]]))[0])})


class SelfTimes(unittest.TestCase):
    def test_nested_and_parallel_children(self):
        # [name, start, end, parent, cell]: run 0..100 with two jobs on two
        # lanes (10..60 and 30..90, overlapping), the first with a child.
        spans = [[0, 0, 100, -1, -1], [2, 10, 60, 0, 0], [6, 20, 50, 1, 0],
                 [2, 30, 90, -1, 1]]
        self.assertEqual(run.self_times(spans), [20, 20, 30, 60])


if __name__ == "__main__":
    unittest.main()
