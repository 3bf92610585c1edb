"""Paired comparison of two source trees on the benchmark.

    python -m bench compare --src PARENT/src --src CHANGE/src
                            [--workload W ...] [--pairs N]

Runs ``--pairs`` (at least 10) parent/change pairs per workload with
identical benchmark code and settings -- this checkout's ``bench/``
against each tree's ``src/`` (e.g. a ``git worktree`` of the parent
commit), at ``BENCHMARK.json``'s run length -- alternating which side
runs first, one seed per pair.  For every workload and end-to-end metric
it prints each side's median and quartiles, the change's win fraction,
and a verdict:

* ``gain`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither) and the medians differ by more than the
  parent's interquartile range, in the metric's better direction, with
  no more failed operations than the parent;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- anything else: no gain may be claimed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.run import OUT, ROOT, declaration
from bench.workloads import WORKLOADS

WIN_SHARE = 0.9
MIN_PAIRS = 10
#: Pair i runs seed FIRST_SEED + i: clear of the held-out seed 1 and of
#: the seeds a change is developed against.
FIRST_SEED = 100


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            parent_failed: int = 0, change_failed: int = 0) -> tuple[str, float]:
    """Classify one metric from paired runs; returns (verdict, win share)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    improvement = sign * (c_med - p_med)
    if (len(parent) >= MIN_PAIRS and share >= WIN_SHARE and improvement > p_q3 - p_q1
            and change_failed <= parent_failed):
        return "gain", share
    if -improvement > bound * abs(p_med):
        return "regressed", share
    return "unresolved", share


def run_side(src: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "-m", "bench", "run", "--workload", workload,
           "--seed", str(seed), "--src", str(src)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} on {src} failed:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="source tree: give twice, parent first, then change")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice: the parent tree, then the change")
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    sides = [p.resolve() for p in args.src]
    metrics = declaration()["end_to_end"]
    workloads = args.workload or list(WORKLOADS)

    runs: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for workload in workloads:
            for side in order:
                runs[workload][side].append(
                    run_side(sides[side], workload, FIRST_SEED + i)
                )

    table = []
    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>5}  verdict")
    for workload in workloads:
        parent_runs, change_runs = runs[workload]
        failed = [sum(r["failed"] for r in side) for side in (parent_runs, change_runs)]
        for spec in metrics:
            name = spec["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            result, share = verdict(parent, change, spec["better"], spec["bound"], *failed)
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{workload:<12} {name:<12} {pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}] "
                  f"{cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {share:>5.2f}  {result}")
            table.append({"workload": workload, "metric": name, "verdict": result,
                          "wins": share, "parent": parent, "change": change,
                          "ops_failed": failed})
        print(f"{workload:<12} ops_failed   parent {failed[0]}  change {failed[1]}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"sources": [str(s) for s in sides], "rows": table}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
