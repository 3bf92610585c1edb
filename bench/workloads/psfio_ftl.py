"""psfio-ftl: DUT-side energy per IO through the FTL policies.

Each operation runs the benchmark's own job file (format, two-pass
precondition, 3 s of steady-state 4 KiB random writes at queue depth 4
that may stop early, 64 KiB random reads, on a 64 MiB drive) through
``run_jobfile`` for the page and group mapping policies.  The FTL layer
does most of the work; device simulation does little.

The drive is 64 MiB because one operation must be short next to a run:
on a 2-vCPU host the same job file takes about 1.8 s at 64 MiB and about
8 s at 96 MiB.  The drive seed is fixed rather than drawn from the
workload seed: the host cost of the same job varies by about 25% between
drive seeds (the random write stream decides how much garbage
collection the group policy does), which would swamp any bound.  The
FTL-side statistics are simulated and deterministic, so the oracle pins
them in ``psfio_pins.json``: exactly, except the steady-state slope, a
least-squares fit held to rounding; energy per IO goes through the
simulated sensor and is held to 1%, so sensor simulation changes stay
legal.  Regenerate the pins (only for a change that means to alter the
drive model) with::

    PYTHONPATH=src python -m bench.workloads.psfio_ftl --write-pins
"""

from __future__ import annotations

import json
import math
import os
import sys

from bench.workloads.common import TRACED, Context, Workload
from repro.common.units import MIB
from repro.core.setup import SimulatedSetup
from repro.dut.ssd import SsdSpec
from repro.storage import jobfile

HERE = os.path.dirname(os.path.abspath(__file__))
JOBFILE = os.path.join(HERE, "psfio.fio")
PINS = os.path.join(HERE, "psfio_pins.json")
POLICIES = "page,group"
DRIVE_BYTES = 64 * MIB
DRIVE_SEED = 0
EXACT_FIELDS = ("write_amplification", "map_bytes", "total_ios", "lookup_ops", "runtime_s")
JOULES_PER_IO_TOLERANCE = 0.01
#: The steady-state slope is a least-squares fit: pinned to rounding.
SS_VALUE_TOLERANCE = 1e-9


def run() -> dict:
    return jobfile.run_jobfile(
        JOBFILE, ftl=POLICIES, ssd_spec=SsdSpec(logical_bytes=DRIVE_BYTES), seed=DRIVE_SEED
    )


def pinned_stats(report: dict) -> dict:
    """The statistics the oracle compares, per policy and job."""
    stats = {}
    for policy, outcomes in report["policies"].items():
        for outcome in outcomes:
            steady = outcome["steady_state"] or {}
            entry = {field: outcome[field] for field in EXACT_FIELDS}
            entry["joules_per_io"] = outcome["joules_per_io"]
            entry["ss_stopped_at_s"] = steady.get("stopped_at_s")
            entry["ss_value"] = steady.get("value")
            stats[f"{policy}/{outcome['name']}"] = entry
    return stats


def compare_stats(got: dict, pinned: dict) -> list[str]:
    """Mismatches between a run's statistics and the pinned ones."""
    problems = []
    if set(got) != set(pinned):
        return [f"jobs {sorted(got)} differ from pinned {sorted(pinned)}"]
    for job, want in pinned.items():
        have = got[job]
        for field in (*EXACT_FIELDS, "ss_stopped_at_s"):
            if have[field] != want[field]:
                problems.append(f"{job}: {field} {have[field]!r} != pinned {want[field]!r}")
        for field, tolerance in (("ss_value", SS_VALUE_TOLERANCE),
                                 ("joules_per_io", JOULES_PER_IO_TOLERANCE)):
            a, b = have[field], want[field]
            close = a is not None and b and math.isclose(a, b, rel_tol=tolerance)
            if not (a == b or close):
                problems.append(f"{job}: {field} {a!r} not within {tolerance:g} of pinned {b!r}")
    return problems


class PsfioFtl(Workload):
    def setup(self) -> None:
        with open(PINS) as f:
            self.pinned = json.load(f)
        self.traced_report: dict = {}
        # Every run_jobfile call builds and calibrates this same bench;
        # building one now finishes the sensor stack's lazy set-up, which
        # a user pays once per process, not per job file.
        SimulatedSetup(["pcie_slot_3v3"], seed=DRIVE_SEED, direct=True).close()

    def step(self, ctx: Context) -> bool:
        with ctx.op() as op:
            report = run()
        ios = sum(o["total_ios"] for outcomes in report["policies"].values() for o in outcomes)
        ctx.rate(ios, op.seconds)
        ctx.latency(op.seconds)
        problems = compare_stats(pinned_stats(report), self.pinned)
        ctx.check(not problems, "; ".join(problems[:3]))
        if ctx.phase == TRACED:
            self.traced_report = report
        return True

    def layer_counters(self) -> dict[str, float]:
        counters = {}
        for policy, outcomes in self.traced_report.get("policies", {}).items():
            writes = next(o for o in outcomes if o["name"] == "steady-writes")
            counters[f"ftl.{policy}.write_amplification"] = writes["write_amplification"]
        return counters


def write_pins() -> None:
    with open(PINS, "w") as f:
        json.dump(pinned_stats(run()), f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pins"]:
        sys.exit("usage: python -m bench.workloads.psfio_ftl --write-pins")
    write_pins()
