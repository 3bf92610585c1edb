"""The I/O engine: runs fio jobs against the simulated SSD.

:meth:`IoEngine.run` is the only way a job runs, for Fig. 12 and the
job-file runner (psfio) alike.  It carries out the job's directives —
the stonewall's idle flush, format, preconditioning — and then ticks
one :class:`JobStepper` until the runtime ends or the job's steady-state
criterion is attained.  A tick's reads follow the drive's steady-state
performance model and charge the FTL policy's mapping lookups; its
writes step the FTL, issuing as many page programs as the NAND backend
can absorb and recording the host-visible share — which is where
garbage-collection-induced bandwidth variability appears while power
stays pinned at the saturated level (Fig. 12b).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.common.errors import MeasurementError
from repro.common.rng import RngStream
from repro.dut.base import PowerTrace
from repro.dut.ssd import Ssd
from repro.ftl import FtlCounters
from repro.storage.fio import FioJob, parse_size

#: Simulated seconds per tick, the granularity of a job's interval log.
TICK_S = 0.05
_TICKS_PER_S = round(1.0 / TICK_S)


@dataclass
class IntervalSample:
    """Per-interval statistics, like fio's interval logs."""

    time_s: float
    bandwidth_bps: float
    iops: float
    power_watts: float
    write_amplification: float = 1.0
    #: Read/write split for mixed workloads (zero for pure patterns).
    read_bandwidth_bps: float = 0.0
    write_bandwidth_bps: float = 0.0


@dataclass
class JobResult:
    """Outcome of one fio job run."""

    job: FioJob
    intervals: list[IntervalSample] = field(default_factory=list)
    #: Per-request completion latencies (empty unless the job ticked reads).
    latencies_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: The ``ss=`` record: criterion, last value, whether and when attained.
    steady_state: dict | None = None
    #: FTL counter deltas over the job body, directives excluded.
    counters: FtlCounters = field(default_factory=FtlCounters)

    def latency_percentiles(self, quantiles=(50, 95, 99)) -> dict[int, float]:
        """fio-style completion-latency percentiles, in seconds."""
        if self.latencies_s.size == 0:
            raise MeasurementError("job recorded no per-request latencies")
        return {
            q: float(np.percentile(self.latencies_s, q)) for q in quantiles
        }

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time_s for s in self.intervals])

    @property
    def bandwidth(self) -> np.ndarray:
        return np.array([s.bandwidth_bps for s in self.intervals])

    @property
    def power(self) -> np.ndarray:
        return np.array([s.power_watts for s in self.intervals])

    @property
    def mean_bandwidth(self) -> float:
        return float(self.bandwidth.mean()) if self.intervals else 0.0

    @property
    def mean_power(self) -> float:
        return float(self.power.mean()) if self.intervals else 0.0

    def per_second(self) -> tuple[np.ndarray, np.ndarray]:
        """Bandwidth and power as 1-second means, as Fig. 12b plots them.

        A partial last second is dropped.
        """
        n = len(self.intervals) // _TICKS_PER_S * _TICKS_PER_S
        return (
            self.bandwidth[:n].reshape(-1, _TICKS_PER_S).mean(axis=1),
            self.power[:n].reshape(-1, _TICKS_PER_S).mean(axis=1),
        )

    def power_trace(self, volts: float = 12.0) -> PowerTrace:
        """Ground-truth rail trace for PowerSensor3 to measure."""
        return PowerTrace(
            times=self.times,
            volts=np.full(len(self.intervals), volts),
            amps=self.power / volts,
        )


class IoEngine:
    """Runs fio jobs against an :class:`~repro.dut.ssd.Ssd`."""

    def __init__(self, ssd: Ssd, seed: int = 0) -> None:
        self.ssd = ssd
        self.rng = RngStream(seed, "ioengine")

    def run(self, job: FioJob) -> JobResult:
        """Carry out ``job``'s directives, then tick its body to the end.

        The directives run in order: the stonewall's idle flush, format,
        preconditioning.  The body ticks until its runtime ends or its
        steady-state criterion, checked at each 1-second boundary, is
        attained; a runtime-0 prep job ticks and draws nothing.
        """
        ssd = self.ssd
        if job.stonewall:
            ssd.idle_flush()
        if job.pre_format:
            ssd.format()
        if job.precondition_passes > 0:
            precondition(ssd, bs=job.precondition_bs, passes=job.precondition_passes)
        # After the directives: format() replaces the counters.
        before = replace(ssd.counters)
        result = JobResult(job=job)
        if job.runtime_s > 0:
            stepper = JobStepper(self, job)
            result.intervals, result.steady_state = _tick_body(stepper)
            result.latencies_s = stepper.read_latencies()
        after = ssd.counters
        result.counters = FtlCounters(
            **{f.name: getattr(after, f.name) - getattr(before, f.name)
               for f in fields(FtlCounters)}
        )
        return result


def _tick_body(stepper: JobStepper) -> tuple[list[IntervalSample], dict | None]:
    """Tick a job body for its runtime, stopping early at steady state.

    Returns the intervals and, for a job with ``ss=``, its record.
    """
    ss = stepper.job.steady_state
    intervals: list[IntervalSample] = []
    per_second: list[float] = []
    attained = False
    value: float | None = None
    stopped_at_s: int | None = None
    for k in range(max(round(stepper.job.runtime_s / TICK_S), 1)):
        intervals.append(stepper.tick())
        if ss is None or (k + 1) % _TICKS_PER_S:
            continue
        second = intervals[-_TICKS_PER_S:]
        if ss.metric == "bw":
            per_second.append(float(np.mean([s.bandwidth_bps for s in second])))
        else:
            per_second.append(float(np.mean([s.iops for s in second])))
        elapsed = len(per_second)
        if elapsed <= ss.ramp_s or elapsed - ss.ramp_s < ss.window:
            continue
        attained, value = ss.check(np.array(per_second[-ss.window:]))
        if attained:
            stopped_at_s = elapsed
            break
    if ss is None:
        return intervals, None
    return intervals, {
        "criterion": ss.criterion,
        "window_s": ss.window_s,
        "ramp_s": ss.ramp_s,
        "attained": attained,
        "value": value,
        "stopped_at_s": stopped_at_s,
    }


class JobStepper:
    """Advance one fio job body through the FTL one tick at a time.

    :meth:`IoEngine.run` ticks one per job body.  Each :meth:`tick` runs
    :data:`TICK_S` of simulated workload and returns the interval
    sample; mapping-lookup overhead for the read share is charged to the
    FTL policy's ``lookup_ops`` counter as it happens.  The stepper owns
    the job's sequential-write cursor and the GC backlog carried from one
    tick's write window to the next.
    """

    def __init__(self, engine: IoEngine, job: FioJob) -> None:
        self.job = job
        self.ssd = engine.ssd
        self.rng = engine.rng
        self._pages_per_req = max(job.block_bytes // self.ssd.spec.page_bytes, 1)
        self._seq_cursor = 0
        self._backlog_pages = 0
        self._ticks = 0
        self._read_bw = 0.0
        self._read_power = 0.0
        if not job.is_write:
            self._read_bw = self.ssd.read_bandwidth(job.block_bytes, job.iodepth)
            self._read_power = self.ssd.read_power(self._read_bw, job.block_bytes)

    @property
    def time_s(self) -> float:
        return self._ticks * TICK_S

    def _account_read_lookups(self, read_bytes: float) -> None:
        pages = int(read_bytes / self.ssd.spec.page_bytes)
        if pages > 0:
            ftl = self.ssd.ftl
            ftl.counters.lookup_ops += ftl.lookup_cost(pages)

    def tick(self) -> IntervalSample:
        job = self.job
        spec = self.ssd.spec
        self._ticks += 1
        read_fraction = job.read_fraction
        write_fraction = 1.0 - read_fraction

        host_pages = internal_pages = 0
        busy = 0.0
        if write_fraction > 0:
            budget = self.ssd.write_budget_pages(TICK_S * write_fraction)
            host_pages, internal_pages = self._write(budget)
            busy = min(internal_pages / budget, 1.0)

        write_bw = host_pages * spec.page_bytes / TICK_S
        wa = (internal_pages + self._backlog_pages) / max(host_pages, 1)
        if read_fraction == 0.0:
            power = self.ssd.write_power(busy) + float(self.rng.normal(0.0, 0.03))
            return IntervalSample(
                time_s=self.time_s,
                bandwidth_bps=write_bw,
                iops=write_bw / job.block_bytes,
                power_watts=max(power, spec.idle_watts),
                write_amplification=wa,
                write_bandwidth_bps=write_bw,
            )

        read_bw = self._read_bw * read_fraction
        if write_fraction == 0.0:
            read_bw = max(
                self._read_bw + float(self.rng.normal(0.0, 0.015 * self._read_bw)),
                0.0,
            )
        self._account_read_lookups(read_bw * TICK_S)
        power = (
            read_fraction * self._read_power
            + write_fraction * self.ssd.write_power(busy)
            + float(self.rng.normal(0.0, 0.03 if job.is_mixed else 0.02))
        )
        total_bw = read_bw + write_bw
        return IntervalSample(
            time_s=self.time_s,
            bandwidth_bps=total_bw,
            iops=total_bw / job.block_bytes,
            power_watts=max(power, spec.idle_watts),
            write_amplification=wa,
            read_bandwidth_bps=read_bw if job.is_mixed else 0.0,
            write_bandwidth_bps=write_bw,
        )

    def _write(self, budget: int) -> tuple[int, int]:
        """One write window: returns ``(host_pages, internal_pages)``.

        ``internal_pages`` is capped at the window's NAND budget; the
        excess (GC bursts) carries over to the next window as backlog.
        """
        if self._backlog_pages >= budget:
            self._backlog_pages -= budget
            return 0, budget
        per_req = self._pages_per_req
        host_pages = 0
        internal_pages = self._backlog_pages
        while internal_pages < budget:
            chunk_pages = min(max((budget - internal_pages) // 2, per_req), 8192)
            chunk_pages = max(chunk_pages // per_req * per_req, per_req)
            lpns = self._pick_lpns(chunk_pages)
            relocated = self.ssd.write_pages(lpns)
            host_pages += lpns.size
            internal_pages += lpns.size + relocated
        self._backlog_pages = max(internal_pages - budget, 0)
        return host_pages, min(internal_pages, budget)

    def _pick_lpns(self, n_pages: int) -> np.ndarray:
        logical_pages = self.ssd.spec.logical_pages
        per_req = self._pages_per_req
        n_reqs = max(n_pages // per_req, 1)
        max_start = logical_pages - per_req
        if self.job.is_random:
            starts = self.rng.integers(0, max_start + 1, size=n_reqs)
        else:
            starts = (
                self._seq_cursor + np.arange(n_reqs, dtype=np.int64) * per_req
            ) % (max_start + 1)
            self._seq_cursor = int(
                (self._seq_cursor + n_reqs * per_req) % logical_pages
            )
        offsets = np.arange(per_req, dtype=np.int64)
        return (starts[:, None] + offsets[None, :]).reshape(-1)

    def read_latencies(self) -> np.ndarray:
        """Per-request completion latencies for the job's read share.

        Service time is the flash command overhead plus the transfer; queue
        wait grows with device utilisation (an M/D/1-style tail), which is
        what pushes p99 far above the median on a saturated drive.
        """
        if self.job.read_fraction == 0.0:
            return np.zeros(0)
        n_requests = 4096
        spec = self.ssd.spec
        service = spec.read_cmd_overhead_s + self.job.block_bytes / spec.nand_read_bw
        utilization = min(self._read_bw / spec.interface_bw, 0.98)
        mean_wait = service * utilization / max(1.0 - utilization, 0.02)
        waits = self.rng.exponential(max(mean_wait, 1e-9), size=n_requests)
        jitter = self.rng.normal(1.0, 0.03, size=n_requests)
        return service * np.clip(jitter, 0.8, 1.2) + waits


def precondition(ssd: Ssd, bs: str = "128k", passes: float = 1.0) -> None:
    """The paper's preconditioning: sequential writes across the LBA space.

    Runs sequential writes until ``passes`` times the logical capacity has
    been written, leaving the drive fully mapped.
    """
    spec = ssd.spec
    pages_total = int(spec.logical_pages * passes)
    pages_per_req = max(parse_size(bs) // spec.page_bytes, 1)
    cursor = 0
    chunk = 8192
    written = 0
    while written < pages_total:
        n = min(chunk, pages_total - written)
        n = max((n // pages_per_req) * pages_per_req, pages_per_req)
        lpns = (cursor + np.arange(n, dtype=np.int64)) % spec.logical_pages
        ssd.write_pages(lpns)
        cursor = int((cursor + n) % spec.logical_pages)
        written += n
