"""The benchmark's workloads: each is a list of `sysgo` command grids.

A Grid is one `sysgo sweep|solve|synth` invocation written as its grid
axes, so the same grid can be handed to the real CLI (end-to-end runs), to
the per-layer span tracer (traced runs) and split cell by cell when the
reference records are made (oracle.py).  Lists use the CLI's syntax:
comma-separated values, "lo:hi" ranges and "inf" periods.
"""

from __future__ import annotations

import dataclasses
import itertools

# Tasks emitted once per (family, d, mode) with D = 0 (engine::task_needs_dimension).
D_INDEPENDENT_TASKS = ("bound", "diameter")

# synth-anneal runs one `synth` command per member and mode, command j at
# seed + SYNTH_SEED_STEP * j.  Every cell of one command draws its restarts
# from the same seeded streams, and a stream's cost varies a lot, so one
# command for all twelve cells made 16 streams per pass and a pass time
# that varied by 1.7x with the seed; twelve commands make 12 * restarts.
# SYNTH_RESTARTS halves the CLI default (16) so that a run holds twice as
# many passes: the pass time wanders by ±20% with the host, and three
# passes per run left a median too unsteady.
SYNTH_SEED_STEP = 101
SYNTH_RESTARTS = 8

CAMPAIGN_FAMILIES = ("bf,wbf-dir,wbf,db-dir,db,kautz-dir,kautz,cycle,complete,"
                     "hypercube,ccc,se,knodel,rr,gnp")


@dataclasses.dataclass(frozen=True)
class Grid:
    command: str  # sweep | solve | synth
    families: str
    d: str
    D: str
    modes: str
    tasks: str  # engine task tokens; solve maps them to --problems
    periods: str = ""
    threads: int = 1
    store: str = ""  # "" | "cold" (--store) | "resume" (--store --resume)
    seed_offset: int = 0  # added to the pass's seed
    restarts: int = 0  # synth --restarts; 0 keeps the CLI default (16)

    def _common(self, seed: int, store_path: str | None) -> list[str]:
        args = ["--families", self.families, "--d", self.d, "--D", self.D,
                "--modes", self.modes]
        if self.periods:
            args += ["--periods", self.periods]
        args += ["--threads", str(self.threads),
                 "--seed", str(seed + self.seed_offset)]
        if self.restarts:
            args += ["--restarts", str(self.restarts)]
        if self.store:
            args += ["--store", store_path]
            if self.store == "resume":
                args.append("--resume")
        return args

    def cli_args(self, seed: int, store_path: str | None = None) -> list[str]:
        """Arguments after the `sysgo` program name."""
        args = [self.command] + self._common(seed, store_path)
        if self.command == "sweep":
            args += ["--tasks", self.tasks]
        elif self.command == "solve":
            problems = [t.removeprefix("solve-") for t in self.tasks.split(",")]
            args += ["--problems", ",".join(problems)]
        return args

    def tracer_args(self, seed: int, store_path: str | None = None) -> list[str]:
        """Arguments of perfbench_layers for the same grid."""
        return self._common(seed, store_path) + ["--tasks", self.tasks]


WORKLOADS: dict[str, list[Grid]] = {
    # simulator row kernels and the core Theorem 4.1 audit; knowledge
    # matrices from inside L2 (n=4096) to most of L3 (n=24576).
    "sweep-large": [
        Grid("sweep", "db,kautz", "2", "12:14", "half,full", "simulate,audit"),
        Grid("sweep", "bf,wbf", "2", "8:10", "half,full", "simulate,audit"),
    ],
    # synth draft moves and objective evaluation on L1/L2-sized matrices;
    # the only workload on the incremental-evaluation path.
    "synth-anneal": [
        Grid("synth", family, "2", D, mode, "synth",
             seed_offset=SYNTH_SEED_STEP * j, restarts=SYNTH_RESTARTS)
        for j, (family, D, mode) in enumerate(itertools.product(
            ("db", "kautz", "hypercube"), ("5", "6"), ("half", "full")))
    ],
    # search canonicalization and state sets (C7 half-duplex gossip:
    # 220 k canonical states).  C8 (2.53 M states, 12-17 s) is left out: a
    # run would hold one or two of its passes, too few to be steady.
    "solve-exact": [
        Grid("solve", "cycle", "2", "4:7", "half,full",
             "solve-gossip,solve-broadcast"),
    ],
    # many small mixed cells on two lanes: engine dispatch, artifact cache,
    # thread pool, store written then read, CSV emission, separator BFS and
    # the core bound code.  Knodel/rr/gnp members that throw stay in.
    "campaign": [
        Grid("sweep", CAMPAIGN_FAMILIES, "2,3", "3:5", "half,full",
             "bound,diameter,simulate,audit,separator", "3:8,inf", 2, "cold"),
        Grid("sweep", CAMPAIGN_FAMILIES, "2,3", "3:6", "half,full",
             "bound,diameter,simulate,audit,separator", "3:8,inf", 2,
             "resume"),
    ],
}


def expand_list(text: str) -> list[str]:
    """Values of a CLI list: "3:5,inf" -> ["3", "4", "5", "inf"]."""
    out: list[str] = []
    for tok in text.split(","):
        if ":" in tok:
            lo, hi = tok.split(":")
            out += [str(v) for v in range(int(lo), int(hi) + 1)]
        else:
            out.append(tok)
    return out
