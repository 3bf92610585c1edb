"""fio-grade declarative job files and the energy-aware workload runner.

The paper drives its Fig. 12 SSD study with hand-built fio invocations;
this module makes the whole study *declarative*, in the spirit of PMT's
goal of energy as a first-class scriptable measurement target.  A job
file is fio's INI dialect::

    [global]
    bs=4k
    iodepth=4
    runtime=10

    [precondition]
    rw=write
    bs=128k
    precondition=1.0
    pre_format=1

    [steady-writes]
    stonewall
    rw=randwrite
    ss=iops_slope:0.3%
    ss_dur=5
    runtime=40

    [size-sweep]
    stonewall
    rw=randread
    bs=4k,64k,1m
    iodepth=1,8

Each section expands into :class:`~repro.storage.fio.FioJob` instances,
the same job type Fig. 12 builds in code, and every job runs through
:meth:`~repro.storage.engine.IoEngine.run`.  Supported semantics:

* ``[global]`` defaults merged into every job section;
* **grids** — comma-separated ``rw``/``bs``/``iodepth``/``rwmixread``
  values expand into the cartesian product of jobs
  (``name[bs=64k/iodepth=8]``);
* ``stonewall`` — fio runs sections concurrently unless stonewalled; the
  simulated drive is a single device, so *all* jobs serialise in file
  order and ``stonewall`` additionally drains the SLC cache
  (:meth:`~repro.dut.ssd.Ssd.idle_flush`), marking a fresh stage
  boundary exactly where fio would barrier;
* ``pre_format`` / ``precondition=<passes>`` — NVMe format and the
  paper's sequential preconditioning
  (:func:`repro.storage.engine.precondition`) before the job body; a job
  may be *only* preconditioning (``runtime=0``);
* ``ss=`` — fio steady-state detection: ``iops_slope:0.3%`` /
  ``bw_slope:…`` terminate when the least-squares slope of the rolling
  ``ss_dur``-second window of 1-second means falls under the threshold
  (as a fraction of the window mean per second); ``iops:…`` / ``bw:…``
  use fio's max-deviation-from-mean criterion.  ``ss_ramp`` excludes
  warm-up seconds.  ``runtime`` stays the hard cap;
* ``ioengine`` / ``direct`` — accepted for fio compatibility, no effect.

A malformed value (``iodepth=four``, ``runtime=ten``) is a
:class:`~repro.common.errors.ConfigurationError` naming the job and key.

Every job is measured through the simulated PowerSensor3 bench (3.3 V
slot rail, as in the paper's Fig. 11 riser setup): each outcome reports
bandwidth, latency percentiles, PS3 watts, and **joules per IO** — the
figure of merit the FTL comparison sweeps.
"""

from __future__ import annotations

import configparser
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.errors import ConfigurationError
from repro.common.grid import expand_grid
from repro.core.setup import SimulatedSetup
from repro.dut.base import TraceRail
from repro.dut.ssd import Ssd, SsdSpec
from repro.ftl import FTL_POLICIES
from repro.storage.engine import TICK_S, IntervalSample, IoEngine, JobResult
from repro.storage.fio import FioJob, SteadyState

#: Keys whose comma-separated values expand into a parameter grid.
GRID_KEYS = ("rw", "bs", "iodepth", "rwmixread")

_KNOWN_KEYS = {
    "name", "rw", "bs", "iodepth", "rwmixread", "runtime", "stonewall",
    "pre_format", "precondition", "precondition_bs", "ss", "ss_dur",
    "ss_ramp",
    # Accepted for fio compatibility; the simulated drive has one engine.
    "ioengine", "direct",
}


def _number(
    section: str, key: str, text: Any, kind: Callable[[Any], float] = float
) -> Any:
    """``text`` as a finite ``kind``; a malformed value names job and key."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    expected = "an integer" if kind is int else "a number"
    raise ConfigurationError(f"job [{section}]: {key}={text!r} is not {expected}")


def _flag(options: dict, key: str) -> bool:
    if key not in options:
        return False
    text = options[key]
    if text is None:  # bare key, fio style: `stonewall`
        return True
    return text.strip().lower() not in ("0", "false", "no", "")


def parse_jobfile(text: str) -> list[FioJob]:
    """Parse a job file's text into expanded :class:`FioJob` instances.

    Unknown keys are rejected — a silently ignored ``iodpeth=32`` is a
    measurement error waiting to be published.
    """
    parser = configparser.ConfigParser(
        allow_no_value=True, delimiters=("=",), interpolation=None
    )
    parser.optionxform = str.lower  # type: ignore[assignment]
    try:
        parser.read_string(text)
    except configparser.Error as error:
        raise ConfigurationError(f"cannot parse job file: {error}") from error
    sections = [s for s in parser.sections() if s.lower() != "global"]
    if not sections:
        raise ConfigurationError("job file defines no job sections")
    defaults = dict(parser["global"]) if parser.has_section("global") else {}

    jobs: list[FioJob] = []
    for section in sections:
        options = {**defaults, **dict(parser[section])}
        unknown = set(options) - _KNOWN_KEYS
        if unknown:
            raise ConfigurationError(
                f"job [{section}]: unknown key(s) {sorted(unknown)}"
            )
        jobs.extend(_expand_section(section, options))
    return jobs


def load_jobfile(path: str | Path) -> list[FioJob]:
    return parse_jobfile(Path(path).read_text())


def _expand_section(section: str, options: dict) -> list[FioJob]:
    if "rw" not in options or options["rw"] is None:
        raise ConfigurationError(f"job [{section}] is missing rw=")
    # Only grid keys with more than one value mark the job name; single
    # values stay implicit (the report records them anyway).
    cells = expand_grid(
        options.get("name") or section,
        {key: options[key] for key in GRID_KEYS if options.get(key) is not None},
        lambda raw: [v.strip() for v in raw.split(",") if v.strip()],
        f"job [{section}]",
    )

    runtime = (options.get("runtime") or "10").strip().lower()
    runtime = _number(section, "runtime", runtime[:-1] if runtime.endswith("s") else runtime)
    passes = _number(section, "precondition", options.get("precondition") or 0.0)
    steady = None
    if "ss" in options:
        window_s = _number(section, "ss_dur", options.get("ss_dur") or 4.0)
        ramp_s = _number(section, "ss_ramp", options.get("ss_ramp") or 0.0)
        try:
            steady = SteadyState.parse(options["ss"] or "", window_s, ramp_s)
        except ConfigurationError as error:
            raise ConfigurationError(f"job [{section}]: {error}") from None
    return [
        FioJob(
            rw=chosen.get("rw", options["rw"]),
            bs=chosen.get("bs", options.get("bs") or "4k"),
            iodepth=_number(
                section, "iodepth", chosen.get("iodepth", options.get("iodepth") or 4), int
            ),
            rwmixread=_number(
                section, "rwmixread",
                chosen.get("rwmixread", options.get("rwmixread") or 50), int,
            ),
            runtime_s=runtime,
            name=name,
            stonewall=_flag(options, "stonewall"),
            pre_format=_flag(options, "pre_format"),
            precondition_passes=passes,
            precondition_bs=options.get("precondition_bs") or "128k",
            steady_state=steady,
        )
        for name, chosen in cells
    ]


# ---------------------------------------------------------------------- #
# Execution                                                              #
# ---------------------------------------------------------------------- #


@dataclass
class JobOutcome:
    """One job's measured result, JSON-ready."""

    name: str
    policy: str
    params: dict
    runtime_s: float
    bandwidth_mean_bps: float
    bandwidth_cv: float
    iops_mean: float
    total_ios: float
    power_mean_w: float
    energy_j: float
    joules_per_io: float
    write_amplification: float
    map_bytes: int
    lookup_ops: int
    latency_percentiles_us: dict[int, float] = field(default_factory=dict)
    steady_state: dict | None = None
    intervals: list[IntervalSample] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            k: v
            for k, v in self.__dict__.items()
            if k != "intervals"
        }
        out["latency_percentiles_us"] = {
            str(q): v for q, v in self.latency_percentiles_us.items()
        }
        return out


def measure_trace(setup: SimulatedSetup, trace, duration: float) -> float:
    """Mean watts of a rendered power trace through the PS3 bench."""
    rail = TraceRail(trace, offset=setup.ps.source.clock.now)
    setup.connect(0, rail)
    block = setup.ps.pump_seconds(duration)
    return float(block.pair_power(0).mean())


class JobRunner:
    """Run a job list against one FTL policy, each job PS3-measured.

    Each job runs through :meth:`~repro.storage.engine.IoEngine.run`,
    directives included; the runner measures the job body's power trace
    through the simulated PowerSensor3 and fills in the report row.
    """

    def __init__(
        self,
        jobs: list[FioJob],
        *,
        ftl: str = "page",
        ssd_spec: SsdSpec | None = None,
        seed: int = 0,
        volts: float = 3.3,
        registry=None,
        keep_intervals: bool = False,
    ) -> None:
        if not jobs:
            raise ConfigurationError("no jobs to run")
        self.jobs = jobs
        self.ftl = ftl
        self.ssd_spec = ssd_spec or SsdSpec()
        self.seed = seed
        self.volts = volts
        self.registry = registry
        self.keep_intervals = keep_intervals

    def run(self) -> list[JobOutcome]:
        ssd = Ssd(self.ssd_spec, seed=self.seed, ftl=self.ftl)
        engine = IoEngine(ssd, seed=self.seed)
        setup = SimulatedSetup(
            ["pcie_slot_3v3"],
            seed=self.seed,
            direct=True,
            calibration_samples=32 * 1024,
        )
        try:
            return [self._measure(engine.run(job), ssd, setup) for job in self.jobs]
        finally:
            setup.close()

    def _measure(
        self, result: JobResult, ssd: Ssd, setup: SimulatedSetup
    ) -> JobOutcome:
        job = result.job
        bw = result.bandwidth
        duration = len(result.intervals) * TICK_S
        total_ios = float(bw.sum() * TICK_S / job.block_bytes)
        watts = energy = joules_per_io = 0.0
        latencies: dict[int, float] = {}
        if result.intervals:
            watts = measure_trace(setup, result.power_trace(volts=self.volts), duration)
            energy = watts * duration
            joules_per_io = energy / total_ios if total_ios > 0 else float("inf")
            if job.read_fraction > 0:
                latencies = {
                    q: v * 1e6 for q, v in result.latency_percentiles().items()
                }
        outcome = JobOutcome(
            name=job.name,
            policy=ssd.ftl_name,
            params={
                "rw": job.rw,
                "bs": job.block_bytes,
                "iodepth": job.iodepth,
                "rwmixread": job.rwmixread,
                "runtime_s": job.runtime_s,
            },
            runtime_s=duration,
            bandwidth_mean_bps=result.mean_bandwidth,
            bandwidth_cv=(
                float(bw.std() / max(bw.mean(), 1e-12)) if result.intervals else 0.0
            ),
            iops_mean=result.mean_bandwidth / job.block_bytes,
            total_ios=total_ios,
            power_mean_w=watts,
            energy_j=energy,
            joules_per_io=joules_per_io,
            write_amplification=result.counters.write_amplification,
            map_bytes=ssd.map_bytes(),
            lookup_ops=result.counters.lookup_ops,
            latency_percentiles_us=latencies,
            steady_state=result.steady_state,
            intervals=result.intervals if self.keep_intervals else [],
        )
        if self.registry is not None:
            ssd.publish_metrics(self.registry)
            self.registry.counter(
                "jobfile_jobs_total", policy=ssd.ftl_name
            ).inc()
        return outcome


def run_jobfile(
    path: str | Path,
    *,
    ftl: str | list[str] = "page",
    ssd_spec: SsdSpec | None = None,
    seed: int = 0,
    volts: float = 3.3,
    registry=None,
) -> dict:
    """Run a job file against one or more FTL policies; returns the report.

    ``ftl`` may be a policy name, a list of names, or ``"all"``.
    """
    jobs = load_jobfile(path)
    policies = _resolve_policies(ftl)
    report = {
        "jobfile": str(path),
        "seed": seed,
        "volts": volts,
        "policies": {},
    }
    for policy in policies:
        runner = JobRunner(
            jobs,
            ftl=policy,
            ssd_spec=ssd_spec,
            seed=seed,
            volts=volts,
            registry=registry,
        )
        report["policies"][policy] = [o.to_dict() for o in runner.run()]
    return report


def _resolve_policies(ftl: str | list[str]) -> list[str]:
    if isinstance(ftl, str):
        names = (
            sorted(FTL_POLICIES)
            if ftl == "all"
            else [f.strip() for f in ftl.split(",") if f.strip()]
        )
    else:
        names = list(ftl)
    if not names:
        raise ConfigurationError("no FTL policies selected")
    for name in names:
        if name not in FTL_POLICIES:
            raise ConfigurationError(
                f"unknown FTL policy {name!r}; expected one of "
                f"{sorted(FTL_POLICIES)} or 'all'"
            )
    return names


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
