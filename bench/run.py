"""Run the benchmark and print every metric by name with its unit.

    python3 -m bench run [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--src PATH]

Each workload runs in fresh worker processes (:mod:`bench.worker`): two
that only set up, then one that sets up, measures for ``--seconds`` and
checks the program's outputs; the median of the three set-ups, timed
from process start to ready and scaled by the host's speed just after
(:mod:`bench.hostspeed`), is ``setup_s``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; untraced runs report the end-to-end metrics
declared in ``BENCHMARK.json``, traced runs the per-layer ones.  Every
run also writes a results JSON under ``.bench_out/results`` stamped with
the commit, dirty flag, core count, Python and numpy versions and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from bench import hostspeed
from bench.trace import format_table
from bench.workloads import WORKLOADS
from bench.worker import READY, REFERENCE, RESULT

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: A run must finish inside this many seconds, set-up included.
RUN_DEADLINE_S = 170.0
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: One thread per numeric library: load comes from the workload's own
#: threads, and a BLAS pool would add scheduler noise on a small box.
SINGLE_THREADED = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


def declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_state() -> tuple[str, bool | None]:
    """``(commit, dirty)`` of the checkout, or ``("unknown", None)``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown", None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


class WorkerError(RuntimeError):
    pass


def run_worker(
    args: list[str], src: Path, deadline: float
) -> tuple[float, list[float], dict | None]:
    """Run one worker; returns (seconds from start to ready, the reference
    kernel's times just after, result or None).

    A worker that overruns the deadline is killed; a process it started
    reads end-of-file on its pipe from the worker and exits.  The worker
    stays in this process's group, so stopping the benchmark stops it.
    """
    env = {**os.environ, **SINGLE_THREADED, "PYTHONPATH": str(src)}
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    ready_s = None
    reference: list[float] = []
    result = None
    try:
        for line in proc.stdout:
            if line.startswith(READY) and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith(REFERENCE):
                reference = json.loads(line[len(REFERENCE):])
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stdout.write(line)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready_s is None or not reference:
        raise WorkerError(f"worker {' '.join(args[:2])} exited with status {code}")
    return ready_s, reference, result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 src: Path, deadline: float, stamp: str) -> dict:
    """Set up, measure and check one workload; returns its results record."""
    OUT.joinpath("work").mkdir(parents=True, exist_ok=True)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    base = f"{stamp}-{name}-seed{seed}" + ("-trace" if trace else "")
    common = ["--workload", name, "--seed", str(seed)]
    setup_samples = []
    setup_speeds = []
    for _ in range(0 if trace else SETUPS - 1):
        workdir = tempfile.mkdtemp(dir=OUT / "work")
        try:
            ready_s, reference, _ = run_worker(
                [*common, "--workdir", workdir, "--setup-only"], src, deadline
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setup_samples.append(ready_s)
        setup_speeds.append(hostspeed.speed(reference))
    workdir = tempfile.mkdtemp(dir=OUT / "work")
    extra = ["--chrome-trace", str(results_dir / f"{base}.chrome.json")] if trace else []
    try:
        ready_s, reference, result = run_worker(
            [*common, "--workdir", workdir, "--seconds", str(seconds),
             "--trace", str(int(trace)), *extra],
            src, deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        raise WorkerError(f"worker for {name} printed no result")
    setup_samples.append(ready_s)
    setup_speeds.append(hostspeed.speed(reference))
    if not trace:
        # Each set-up scaled by the host's speed just after it, as the
        # timed loop's metrics are (bench.hostspeed).
        result["metrics"]["setup_s"] = statistics.median(
            s * v for s, v in zip(setup_samples, setup_speeds)
        )
        result["extras"]["setup_s.raw"] = {
            "value": statistics.median(setup_samples), "unit": "s"
        }
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        setup_samples_s=setup_samples, setup_host_speeds=setup_speeds,
        results_file=str(results_dir / f"{base}.json"),
    )
    return result


def report(result: dict, declared: list[dict]) -> dict[str, dict]:
    """Print one workload's metrics; returns them with their units."""
    measured = result["metrics"]
    # A layer the workload never calls has no spans: zero self time.
    values = {spec["name"]: measured.get(spec["name"], 0.0) for spec in declared}
    units = {spec["name"]: spec["unit"] for spec in declared}
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  trace {int(result['trace'])}")
    # Per-layer self times are per operation; show each as a share of
    # the traced wall per operation.
    ops = measured.get("trace.ops", 0)
    print(format_table(values, units, measured["trace.wall_s"] / ops if ops else 0.0))
    for name, extra in result["extras"].items():
        print(f"  {name:<34} {extra['value']:>16.6g} {extra['unit']}  (not gated)")
    print(f"  {'ops':<34} {result['attempted']:>16d}")
    print(f"  {'ops_failed':<34} {result['failed']:>16d}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="measure per-layer metrics instead (traced run)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree of the program under test (default: ./src)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {src} (expected repro/ there)", file=sys.stderr)
        return 2
    spec = declaration()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    commit, dirty = git_state()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  src, deadline, stamp)
        except WorkerError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        metrics = report(result, declared)
        record = {
            **result,
            "metrics": metrics,
            "all_metrics": result["metrics"],
            "commit": commit,
            "dirty": dirty,
            "nproc": os.cpu_count(),
        }
        with open(result["results_file"], "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        summary["correct"] = summary["correct"] and result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if args.workload:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
