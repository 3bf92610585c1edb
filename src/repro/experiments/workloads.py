"""Campaign experiment wrapping the psfio declarative workload runner.

One cell = one fio-style job (pattern x block size x queue depth x read
mix) against one FTL mapping policy on a freshly formatted, optionally
preconditioned drive, measured end-to-end through the simulated
PowerSensor3 — the same path the ``psfio`` CLI takes, expressed as a
registry experiment so campaign plans can sweep the whole grid.

The single result row is the scoreboard: bandwidth, PS3 watts, **joules
per IO** (the figure of merit of the extended Fig. 12 study), write
amplification and mapping-table footprint.
"""

from __future__ import annotations

from repro.campaign import registry
from repro.campaign.registry import Param
from repro.dut.ssd import SsdSpec
from repro.experiments.common import ExperimentResult
from repro.ftl import FTL_POLICIES
from repro.storage.jobfile import JobRunner, parse_jobfile

#: MiB in bytes (the drive capacity axis is expressed in MiB).
MIB = 1 << 20


def run(
    rw: str,
    bs: str,
    iodepth: int,
    rwmixread: int,
    ftl: str,
    runtime_s: float,
    capacity_mib: int,
    precondition: float,
    seed: int,
    registry=None,
) -> ExperimentResult:
    """Run one job cell; the job file text is generated, then reparsed.

    Going through :func:`repro.storage.jobfile.parse_jobfile` keeps this
    experiment honest to the psfio grammar — a cell is exactly the job
    file a user could write by hand.
    """
    jobtext = "\n".join(
        [
            f"[{rw}]",
            f"rw={rw}",
            f"bs={bs}",
            f"iodepth={iodepth}",
            f"rwmixread={rwmixread}",
            f"runtime={runtime_s:g}",
            "pre_format=1",
            f"precondition={precondition:g}",
        ]
    )
    runner = JobRunner(
        parse_jobfile(jobtext),
        ftl=ftl,
        ssd_spec=SsdSpec(logical_bytes=capacity_mib * MIB),
        seed=seed,
        registry=registry,
    )
    outcome = runner.run()[0]

    result = ExperimentResult(name=f"Workload {rw} bs={bs} qd={iodepth} ({ftl})")
    result.rows.append(
        {
            "workload": outcome.name,
            "ftl": outcome.policy,
            "bandwidth [MB/s]": outcome.bandwidth_mean_bps / 1e6,
            "bandwidth CV": outcome.bandwidth_cv,
            "IOPS": outcome.iops_mean,
            "PS3 power [W]": outcome.power_mean_w,
            "J/IO [uJ]": outcome.joules_per_io * 1e6,
            "WA": outcome.write_amplification,
            "map [KiB]": outcome.map_bytes / 1024,
            "lookups": outcome.lookup_ops,
        }
    )
    if outcome.latency_percentiles_us:
        for quantile, value in sorted(outcome.latency_percentiles_us.items()):
            result.rows[0][f"p{quantile} [us]"] = value
    result.notes.append(
        f"capacity={capacity_mib} MiB precondition={precondition:g} passes "
        f"runtime={runtime_s:g}s seed={seed}"
    )
    return result


registry.register(
    "workload",
    section="psfio workload",
    runner=run,
    params=(
        Param(
            "rw",
            "str",
            default="randwrite",
            choices=("read", "write", "randread", "randwrite", "rw", "randrw"),
        ),
        Param("bs", "str", default="4k"),
        Param("iodepth", "int", default=1),
        Param("rwmixread", "int", default=50),
        Param("ftl", "str", default="page", choices=tuple(sorted(FTL_POLICIES))),
        Param("runtime_s", "float", default=2.0, full=20.0),
        Param("capacity_mib", "int", default=64, full=512),
        Param("precondition", "float", default=0.5),
        Param("seed", "int", default=21),
    ),
    accepts_registry=True,
    help="one psfio job x FTL policy, PS3-measured (J/IO scoreboard)",
)


def main() -> None:
    registry.print_paper_scale("workload")


if __name__ == "__main__":
    main()
