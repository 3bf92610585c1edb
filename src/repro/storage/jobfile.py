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

Supported semantics:

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
  paper's sequential preconditioning (reusing
  :func:`repro.storage.engine.precondition`) before the job body; a job
  may be *only* preconditioning (``runtime=0``);
* ``ss=`` — fio steady-state detection: ``iops_slope:0.3%`` /
  ``bw_slope:…`` terminate when the least-squares slope of the rolling
  ``ss_dur``-second window of 1-second means falls under the threshold
  (as a fraction of the window mean per second); ``iops:…`` / ``bw:…``
  use fio's max-deviation-from-mean criterion.  ``ss_ramp`` excludes
  warm-up seconds.  ``runtime`` stays the hard cap.

Every job is measured through the simulated PowerSensor3 bench (3.3 V
slot rail, as in the paper's Fig. 11 riser setup): each outcome reports
bandwidth, latency percentiles, PS3 watts, and **joules per IO** — the
figure of merit the FTL comparison sweeps.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.grid import expand_grid
from repro.core.setup import SimulatedSetup
from repro.dut.base import TraceRail
from repro.dut.ssd import Ssd, SsdSpec
from repro.ftl import FTL_POLICIES
from repro.storage.engine import IntervalSample, IoEngine, JobResult, JobStepper, precondition
from repro.storage.fio import FioJob

#: Keys whose comma-separated values expand into a parameter grid.
GRID_KEYS = ("rw", "bs", "iodepth", "rwmixread")

#: Steady-state metrics and criteria (fio's ``steadystate=`` grammar).
SS_METRICS = ("iops", "bw")


@dataclass(frozen=True)
class SteadyState:
    """A parsed ``ss=`` criterion: terminate when attained."""

    metric: str  # "iops" | "bw"
    mode: str  # "slope" | "dev"
    threshold: float  # fraction of the window mean
    window_s: float = 4.0  # ss_dur
    ramp_s: float = 0.0  # ss_ramp

    @classmethod
    def parse(
        cls, text: str, window_s: float = 4.0, ramp_s: float = 0.0
    ) -> SteadyState:
        """Parse ``iops_slope:0.3%`` / ``bw:5%`` style criteria."""
        head, sep, value = text.strip().partition(":")
        if not sep or not value:
            raise ConfigurationError(
                f"steady-state spec {text!r} must be metric:threshold"
            )
        metric, _, mode = head.partition("_")
        mode = mode or "dev"
        if metric not in SS_METRICS or mode not in ("slope", "dev"):
            raise ConfigurationError(
                f"steady-state metric {head!r} must be one of "
                "iops, bw, iops_slope, bw_slope"
            )
        value = value.strip()
        if not value.endswith("%"):
            raise ConfigurationError(
                f"steady-state threshold {value!r} must be a percentage"
            )
        threshold = float(value[:-1]) / 100.0
        if threshold <= 0:
            raise ConfigurationError("steady-state threshold must be positive")
        if window_s <= 0:
            raise ConfigurationError("ss_dur must be positive")
        return cls(
            metric=metric,
            mode=mode,
            threshold=threshold,
            window_s=window_s,
            ramp_s=max(ramp_s, 0.0),
        )

    @property
    def criterion(self) -> str:
        mode = f"_{self.mode}" if self.mode == "slope" else ""
        return f"{self.metric}{mode}:{self.threshold * 100:g}%"

    def check(self, window: np.ndarray) -> tuple[bool, float]:
        """Evaluate one rolling window of per-second means.

        Returns ``(attained, value)`` where ``value`` is the measured
        slope (fraction of mean per second) or max deviation (fraction
        of mean), mirroring what fio prints as ``iops slope``/``mean
        dev``.
        """
        mean = float(window.mean())
        if mean <= 0.0:
            return False, float("inf")
        if self.mode == "slope":
            x = np.arange(window.size, dtype=float)
            slope = float(np.polyfit(x, window, 1)[0])
            value = abs(slope) / mean
        else:
            value = float(np.abs(window - mean).max()) / mean
        return value <= self.threshold, value


@dataclass(frozen=True)
class JobSpec:
    """One expanded job: the fio knobs plus runner directives."""

    job: FioJob
    stonewall: bool = False
    pre_format: bool = False
    precondition_passes: float = 0.0
    precondition_bs: str = "128k"
    steady_state: SteadyState | None = None
    #: Runtime 0 is legal for pure preconditioning stages.
    runtime_s: float = 0.0

    @property
    def name(self) -> str:
        return self.job.name


def _parse_runtime(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("s"):
        text = text[:-1]
    runtime = float(text)
    if runtime < 0:
        raise ConfigurationError("runtime must be >= 0")
    return runtime


def _parse_flag(text: str | None) -> bool:
    if text is None:  # bare key, fio style: `stonewall`
        return True
    return text.strip().lower() not in ("0", "false", "no", "")


_KNOWN_KEYS = {
    "name", "rw", "bs", "iodepth", "rwmixread", "runtime", "ioengine",
    "direct", "stonewall", "pre_format", "precondition", "precondition_bs",
    "ss", "ss_dur", "ss_ramp",
}


def parse_jobfile(text: str) -> list[JobSpec]:
    """Parse a job file's text into expanded :class:`JobSpec` instances.

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

    specs: list[JobSpec] = []
    for section in sections:
        options = {**defaults, **dict(parser[section])}
        unknown = set(options) - _KNOWN_KEYS
        if unknown:
            raise ConfigurationError(
                f"job [{section}]: unknown key(s) {sorted(unknown)}"
            )
        specs.extend(_expand_section(section, options))
    return specs


def load_jobfile(path: str | Path) -> list[JobSpec]:
    return parse_jobfile(Path(path).read_text())


def _expand_section(section: str, options: dict) -> list[JobSpec]:
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

    stonewall = _parse_flag(options["stonewall"]) if "stonewall" in options else False
    pre_format = _parse_flag(options["pre_format"]) if "pre_format" in options else False
    passes = float(options.get("precondition") or 0.0)
    if passes < 0:
        raise ConfigurationError(f"job [{section}]: precondition must be >= 0")
    runtime = _parse_runtime(options.get("runtime") or "10")
    if runtime == 0 and passes == 0 and not pre_format:
        raise ConfigurationError(
            f"job [{section}]: runtime=0 needs pre_format or precondition"
        )
    steady = None
    if "ss" in options:
        steady = SteadyState.parse(
            options["ss"],
            window_s=float(options.get("ss_dur") or 4.0),
            ramp_s=float(options.get("ss_ramp") or 0.0),
        )

    specs = []
    for name, chosen in cells:
        job = FioJob(
            rw=chosen.get("rw", options["rw"]),
            bs=chosen.get("bs", options.get("bs") or "4k"),
            iodepth=int(chosen.get("iodepth", options.get("iodepth") or 4)),
            rwmixread=int(chosen.get("rwmixread", options.get("rwmixread") or 50)),
            runtime_s=max(runtime, 1e-9),
            ioengine=options.get("ioengine") or "io_uring",
            direct=_parse_flag(options["direct"]) if "direct" in options else True,
            name=name,
        )
        specs.append(
            JobSpec(
                job=job,
                stonewall=stonewall,
                pre_format=pre_format,
                precondition_passes=passes,
                precondition_bs=options.get("precondition_bs") or "128k",
                steady_state=steady,
                runtime_s=runtime,
            )
        )
    return specs


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
    """Execute a parsed job list against one FTL policy, PS3-measured."""

    def __init__(
        self,
        specs: list[JobSpec],
        *,
        ftl: str = "page",
        ftl_options: dict | None = None,
        ssd_spec: SsdSpec | None = None,
        seed: int = 0,
        volts: float = 3.3,
        registry=None,
        keep_intervals: bool = False,
    ) -> None:
        if not specs:
            raise ConfigurationError("no jobs to run")
        self.specs = specs
        self.ftl = ftl
        self.ftl_options = ftl_options
        self.ssd_spec = ssd_spec or SsdSpec()
        self.seed = seed
        self.volts = volts
        self.registry = registry
        self.keep_intervals = keep_intervals

    def run(self) -> list[JobOutcome]:
        ssd = Ssd(self.ssd_spec, seed=self.seed, ftl=self.ftl,
                  ftl_options=self.ftl_options)
        engine = IoEngine(ssd, seed=self.seed)
        setup = SimulatedSetup(
            ["pcie_slot_3v3"],
            seed=self.seed,
            direct=True,
            calibration_samples=32 * 1024,
        )
        try:
            return [
                self._run_one(spec, ssd, engine, setup) for spec in self.specs
            ]
        finally:
            setup.close()

    def _run_one(
        self, spec: JobSpec, ssd: Ssd, engine: IoEngine, setup: SimulatedSetup
    ) -> JobOutcome:
        if spec.stonewall:
            ssd.idle_flush()
        if spec.pre_format:
            ssd.format()
        if spec.precondition_passes > 0:
            precondition(
                ssd, engine, bs=spec.precondition_bs,
                passes=spec.precondition_passes,
            )

        counters_before = (
            ssd.counters.host_pages_written,
            ssd.counters.internal_pages_written,
            ssd.counters.lookup_ops,
        )
        stepper = engine.stepper(spec.job)
        intervals, steady = self._tick_until_done(spec, stepper)
        host, internal, lookups = (
            ssd.counters.host_pages_written - counters_before[0],
            ssd.counters.internal_pages_written - counters_before[1],
            ssd.counters.lookup_ops - counters_before[2],
        )

        job = spec.job
        result_bw = np.array([s.bandwidth_bps for s in intervals])
        duration = len(intervals) * engine.tick_s
        total_ios = float(result_bw.sum() * engine.tick_s / job.block_bytes)
        outcome = JobOutcome(
            name=job.name,
            policy=ssd.ftl_name,
            params={
                "rw": job.rw,
                "bs": job.block_bytes,
                "iodepth": job.iodepth,
                "rwmixread": job.rwmixread,
                "runtime_s": spec.runtime_s,
            },
            runtime_s=duration,
            bandwidth_mean_bps=float(result_bw.mean()) if intervals else 0.0,
            bandwidth_cv=(
                float(result_bw.std() / max(result_bw.mean(), 1e-12))
                if intervals
                else 0.0
            ),
            iops_mean=(
                float(result_bw.mean()) / job.block_bytes if intervals else 0.0
            ),
            total_ios=total_ios,
            power_mean_w=0.0,
            energy_j=0.0,
            joules_per_io=0.0,
            write_amplification=(
                (host + internal) / host if host else 1.0
            ),
            map_bytes=ssd.map_bytes(),
            lookup_ops=int(lookups),
            steady_state=steady,
            intervals=list(intervals) if self.keep_intervals else [],
        )

        if intervals:
            result = JobResult(job=job, intervals=list(intervals))
            watts = measure_trace(
                setup, result.power_trace(volts=self.volts), duration
            )
            outcome.power_mean_w = watts
            outcome.energy_j = watts * duration
            outcome.joules_per_io = (
                outcome.energy_j / total_ios if total_ios > 0 else float("inf")
            )
            if job.read_fraction > 0:
                lat = stepper.read_latencies()
                outcome.latency_percentiles_us = {
                    q: float(np.percentile(lat, q) * 1e6) for q in (50, 95, 99)
                }
        if self.registry is not None:
            ssd.publish_metrics(self.registry)
            self.registry.counter(
                "jobfile_jobs_total", policy=ssd.ftl_name
            ).inc()
        return outcome

    def _tick_until_done(
        self, spec: JobSpec, stepper: JobStepper
    ) -> tuple[list[IntervalSample], dict | None]:
        """Tick the job body, checking steady state at 1-second boundaries."""
        if spec.runtime_s <= 0:
            return [], None
        tick_s = stepper.engine.tick_s
        ticks_per_s = max(int(round(1.0 / tick_s)), 1)
        n_ticks = max(int(round(spec.runtime_s / tick_s)), 1)
        intervals: list[IntervalSample] = []
        ss = spec.steady_state
        steady: dict | None = None
        if ss is not None:
            steady = {
                "criterion": ss.criterion,
                "window_s": ss.window_s,
                "ramp_s": ss.ramp_s,
                "attained": False,
                "value": None,
                "stopped_at_s": None,
            }
        per_second: list[float] = []
        for k in range(n_ticks):
            intervals.append(stepper.tick())
            if ss is None or (k + 1) % ticks_per_s:
                continue
            second = intervals[-ticks_per_s:]
            if ss.metric == "bw":
                per_second.append(
                    float(np.mean([s.bandwidth_bps for s in second]))
                )
            else:
                per_second.append(float(np.mean([s.iops for s in second])))
            elapsed = len(per_second)
            window = int(round(ss.window_s))
            if elapsed <= ss.ramp_s or elapsed - ss.ramp_s < window:
                continue
            attained, value = ss.check(np.array(per_second[-window:]))
            steady["value"] = value  # type: ignore[index]
            if attained:
                steady["attained"] = True  # type: ignore[index]
                steady["stopped_at_s"] = elapsed  # type: ignore[index]
                break
        return intervals, steady


def run_jobfile(
    path: str | Path,
    *,
    ftl: str | list[str] = "page",
    ssd_spec: SsdSpec | None = None,
    seed: int = 0,
    volts: float = 3.3,
    registry=None,
    keep_intervals: bool = False,
) -> dict:
    """Run a job file against one or more FTL policies; returns the report.

    ``ftl`` may be a policy name, a list of names, or ``"all"``.
    """
    specs = load_jobfile(path)
    policies = _resolve_policies(ftl)
    report = {
        "jobfile": str(path),
        "seed": seed,
        "volts": volts,
        "policies": {},
    }
    for policy in policies:
        runner = JobRunner(
            specs,
            ftl=policy,
            ssd_spec=ssd_spec,
            seed=seed,
            volts=volts,
            registry=registry,
            keep_intervals=keep_intervals,
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
