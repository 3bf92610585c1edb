"""Fig. 12: SSD power and bandwidth under fio workloads.

Panel (a): 10-second random-read jobs at request sizes from 1 KiB to
4096 KiB — bandwidth and power both rise with request size until the
device saturates.  Panel (b): a long random-write workload after
formatting and sequential preconditioning — garbage collection makes
bandwidth highly variable while power climbs to ~5 W at the first
bandwidth descent and stays stable, confirming bandwidth is not an
indicator of power.

Every point is measured through the simulated PowerSensor3 (3.3 V slot
module via the modified riser, as in the paper's Fig. 11 setup).

Scale: the simulated drive is capacity-scaled (DESIGN.md); the write
experiment reaches the steady state the paper needs >20 minutes for in a
proportionally shorter simulated time.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import GIB
from repro.core.setup import SimulatedSetup
from repro.dut.ssd import Ssd, SsdSpec
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult
from repro.storage.engine import IoEngine
from repro.storage.fio import FioJob
from repro.storage.jobfile import JobRunner, measure_trace

#: Format and one sequential 128k preconditioning pass, as the paper
#: prepares the drive before its write study.
PREP_JOB = FioJob(rw="write", runtime_s=0, pre_format=True, precondition_passes=1.0)
READ_SIZES = ("1k", "4k", "16k", "64k", "128k", "256k", "512k", "1m", "2m", "4m")
#: The mapping policies the FTL comparison runs, in row order.
COMPARED_POLICIES = ("page", "group", "compressed", "hybrid")


def run(
    logical_bytes: int,
    read_runtime_s: float,
    write_runtime_s: float,
    seed: int,
) -> ExperimentResult:
    result = ExperimentResult(name="Fig. 12: SSD power and bandwidth (fio)")
    ssd = Ssd(SsdSpec(logical_bytes=logical_bytes), seed=seed)
    engine = IoEngine(ssd, seed=seed)
    setup = SimulatedSetup(
        ["pcie_slot_3v3"], seed=seed, direct=True, calibration_samples=32 * 1024
    )

    # Panel (a): random-read request-size sweep.
    read_bw, read_power = [], []
    for size in READ_SIZES:
        job = FioJob(rw="randread", bs=size, iodepth=4, runtime_s=read_runtime_s)
        outcome = engine.run(job)
        measured = measure_trace(
            setup, outcome.power_trace(volts=3.3), read_runtime_s
        )
        read_bw.append(outcome.mean_bandwidth)
        read_power.append(measured)
        result.rows.append(
            {
                "panel": "a",
                "workload": f"randread {size}",
                "bandwidth [MB/s]": outcome.mean_bandwidth / 1e6,
                "PS3 power [W]": measured,
            }
        )
    result.series["read/request_bytes"] = np.array(
        [FioJob(rw="randread", bs=s).block_bytes for s in READ_SIZES]
    )
    result.series["read/bandwidth_bps"] = np.array(read_bw)
    result.series["read/power_w"] = np.array(read_power)

    # Panel (b): format, precondition sequentially, then sustained random
    # 4 KiB writes to steady state.
    engine.run(PREP_JOB)
    outcome = engine.run(
        FioJob(rw="randwrite", bs="4k", iodepth=4, runtime_s=write_runtime_s,
               stonewall=True)
    )
    measured = measure_trace(setup, outcome.power_trace(volts=3.3), write_runtime_s)
    setup.close()

    bw_1s, pw_1s = outcome.per_second()
    n_seconds = bw_1s.size
    result.series["write/time_s"] = np.arange(1, n_seconds + 1, dtype=float)
    result.series["write/bandwidth_bps"] = bw_1s
    result.series["write/power_w"] = pw_1s

    steady = slice(n_seconds // 3, None)
    result.rows.extend(
        [
            {
                "panel": "b",
                "workload": "randwrite 4k (initial)",
                "bandwidth [MB/s]": float(bw_1s[0] / 1e6),
                "PS3 power [W]": float(pw_1s[0]),
            },
            {
                "panel": "b",
                "workload": "randwrite 4k (steady mean)",
                "bandwidth [MB/s]": float(bw_1s[steady].mean() / 1e6),
                "PS3 power [W]": float(pw_1s[steady].mean()),
            },
            {
                "panel": "b",
                "workload": "randwrite 4k (steady CV)",
                "bandwidth [MB/s]": float(
                    bw_1s[steady].std() / max(bw_1s[steady].mean(), 1e-9)
                ),
                "PS3 power [W]": float(pw_1s[steady].std() / pw_1s[steady].mean()),
            },
        ]
    )
    result.rows.append(
        {
            "panel": "b",
            "workload": "whole-run PS3 mean",
            "bandwidth [MB/s]": float(outcome.mean_bandwidth / 1e6),
            "PS3 power [W]": measured,
        }
    )
    result.notes.extend(
        [
            "panel b: bandwidth coefficient-of-variation vs power CV shows "
            "bandwidth varies strongly while power is stable (~5 W)",
            f"random-write job's write amplification: "
            f"{outcome.counters.write_amplification:.2f}",
        ]
    )
    return result


def run_ftl_comparison(
    logical_bytes: int, write_runtime_s: float, seed: int
) -> ExperimentResult:
    """Extended Fig. 12b: the write study swept across FTL policies.

    Each policy runs the same psfio job list on an identical drive:
    format and one sequential preconditioning pass, then a stonewalled
    sustained random 4 KiB write job.  The simulated PowerSensor3
    measures the write job, and each row reads that job's outcome:
    **energy per IO** alongside bandwidth variability, write
    amplification and mapping-table footprint — the trade-off axes a
    mapping scheme moves.
    """
    result = ExperimentResult(name="Fig. 12 (extended): energy per IO by FTL policy")
    spec = SsdSpec(logical_bytes=logical_bytes)
    jobs = [
        PREP_JOB,
        FioJob(rw="randwrite", bs="4k", iodepth=4, runtime_s=write_runtime_s,
               stonewall=True),
    ]
    for policy in COMPARED_POLICIES:
        _, outcome = JobRunner(
            jobs, ftl=policy, ssd_spec=spec, seed=seed, keep_intervals=True
        ).run()
        bw = np.array([s.bandwidth_bps for s in outcome.intervals])
        steady = bw[bw.size // 3 :]
        result.rows.append(
            {
                "ftl": policy,
                "bandwidth [MB/s]": outcome.bandwidth_mean_bps / 1e6,
                "bandwidth CV": float(steady.std() / max(steady.mean(), 1e-9)),
                "PS3 power [W]": outcome.power_mean_w,
                "J/IO [uJ]": outcome.joules_per_io * 1e6,
                "WA": outcome.write_amplification,  # the write job alone
                "map [KiB]": outcome.map_bytes / 1024,
            }
        )
        result.series[f"{policy}/bandwidth_bps"] = bw
        result.series[f"{policy}/power_w"] = np.array(
            [s.power_watts for s in outcome.intervals]
        )
        result.series[f"{policy}/joules_per_io"] = np.array([outcome.joules_per_io])
        result.series[f"{policy}/map_bytes"] = np.array([float(outcome.map_bytes)])
    result.notes.append(
        "power is pinned near the saturated TLC level for every policy; what "
        "a mapping scheme changes is the host-visible share of that work — "
        "so energy per host IO tracks write amplification, while the "
        "mapping-table footprint moves the other way"
    )
    return result


registry.register(
    "fig12",
    section="Fig. 12",
    runner=run,
    params=(
        Param("logical_bytes", "int", default=2 * GIB, full=8 * GIB),
        Param("read_runtime_s", "float", default=3.0, full=10.0),
        Param("write_runtime_s", "float", default=40.0, full=120.0),
        Param("seed", "int", default=9),
    ),
    report_index=9,
    series=True,
    help="SSD power/bandwidth under fio workloads",
)

registry.register(
    "fig12_ftl",
    section="Fig. 12 (FTL comparison)",
    runner=run_ftl_comparison,
    params=(
        Param("logical_bytes", "int", default=GIB // 2),
        Param("write_runtime_s", "float", default=20.0),
        Param("seed", "int", default=9),
    ),
    series=True,
    help="energy per IO across the four FTL mapping policies",
)


def main() -> None:
    registry.print_paper_scale("fig12", "fig12_ftl")


if __name__ == "__main__":
    main()
