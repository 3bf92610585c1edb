"""The I/O engine: runs fio jobs against the simulated SSD.

Every job runs through one tick body, :meth:`JobStepper.tick`, whether
:meth:`IoEngine.run` runs it whole (Fig. 12) or the job-file runner
ticks it (psfio).  A tick's reads follow the drive's steady-state
performance model and charge the FTL policy's mapping lookups; its
writes step the FTL, issuing as many page programs as the NAND backend
can absorb and recording the host-visible share — which is where
garbage-collection-induced bandwidth variability appears while power
stays pinned at the saturated level (Fig. 12b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import MeasurementError
from repro.common.rng import RngStream
from repro.dut.base import PowerTrace
from repro.dut.ssd import Ssd
from repro.storage.fio import FioJob


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
    #: Per-request completion latencies (empty for a pure write job).
    latencies_s: np.ndarray = field(default_factory=lambda: np.zeros(0))

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

    def power_trace(self, volts: float = 12.0) -> PowerTrace:
        """Ground-truth rail trace for PowerSensor3 to measure."""
        return PowerTrace(
            times=self.times,
            volts=np.full(len(self.intervals), volts),
            amps=self.power / volts,
        )


class IoEngine:
    """Runs fio jobs against an :class:`~repro.dut.ssd.Ssd`."""

    def __init__(self, ssd: Ssd, seed: int = 0, tick_s: float = 0.05) -> None:
        self.ssd = ssd
        self.rng = RngStream(seed, "ioengine")
        self.tick_s = tick_s

    def run(self, job: FioJob) -> JobResult:
        """Run a whole job: tick one :class:`JobStepper` for its runtime."""
        stepper = self.stepper(job)
        n_ticks = max(int(round(job.runtime_s / self.tick_s)), 1)
        return JobResult(
            job=job,
            intervals=[stepper.tick() for _ in range(n_ticks)],
            latencies_s=stepper.read_latencies(),
        )

    def stepper(self, job: FioJob) -> JobStepper:
        """Tick-at-a-time execution of ``job``.

        :meth:`run` ticks one for the job's whole runtime; the job-file
        runner ticks one itself so it can check steady state and stop
        early between ticks.
        """
        return JobStepper(self, job)

    # ------------------------------------------------------------------ #
    # Reads: per-request latency model                                   #
    # ------------------------------------------------------------------ #

    def _read_latencies(
        self, job: FioJob, bandwidth: float, n_requests: int = 4096
    ) -> np.ndarray:
        """Per-request completion latencies for a job's random reads.

        Service time is the flash command overhead plus the transfer; queue
        wait grows with device utilisation (an M/D/1-style tail), which is
        what pushes p99 far above the median on a saturated drive.
        """
        spec = self.ssd.spec
        service = spec.read_cmd_overhead_s + job.block_bytes / spec.nand_read_bw
        utilization = min(bandwidth / spec.interface_bw, 0.98)
        mean_wait = service * utilization / max(1.0 - utilization, 0.02)
        waits = self.rng.exponential(max(mean_wait, 1e-9), size=n_requests)
        jitter = self.rng.normal(1.0, 0.03, size=n_requests)
        return service * np.clip(jitter, 0.8, 1.2) + waits

    # ------------------------------------------------------------------ #
    # Writes: FTL stepping                                               #
    # ------------------------------------------------------------------ #

    def _write_tick(
        self, job: FioJob, write_window_s: float, seq_cursor: int, backlog_pages: int
    ) -> tuple[int, int, int, int]:
        """One tick of the FTL write path.

        Returns ``(host_pages, internal_pages, seq_cursor, backlog_pages)``
        where ``internal_pages`` is capped at the window's NAND budget and
        the excess (GC bursts) carries over as backlog.
        """
        spec = self.ssd.spec
        pages_per_req = max(job.block_bytes // spec.page_bytes, 1)
        budget = self.ssd.write_budget_pages(write_window_s)
        host_pages = 0
        if backlog_pages >= budget:
            return 0, budget, seq_cursor, backlog_pages - budget
        internal_pages = backlog_pages
        backlog_pages = 0
        while internal_pages < budget:
            remaining = budget - internal_pages
            chunk_pages = min(max(remaining // 2, pages_per_req), 8192)
            chunk_pages = (chunk_pages // pages_per_req) * pages_per_req
            chunk_pages = max(chunk_pages, pages_per_req)
            lpns, seq_cursor = self._pick_lpns(job, chunk_pages, seq_cursor)
            relocated = self.ssd.write_pages(lpns)
            host_pages += lpns.size
            internal_pages += lpns.size + relocated
        if internal_pages > budget:
            backlog_pages = internal_pages - budget
            internal_pages = budget
        return host_pages, internal_pages, seq_cursor, backlog_pages

    def _pick_lpns(
        self, job: FioJob, n_pages: int, seq_cursor: int
    ) -> tuple[np.ndarray, int]:
        spec = self.ssd.spec
        pages_per_req = max(job.block_bytes // spec.page_bytes, 1)
        n_reqs = max(n_pages // pages_per_req, 1)
        if job.is_random:
            max_start = spec.logical_pages - pages_per_req
            starts = self.rng.integers(0, max_start + 1, size=n_reqs)
        else:
            starts = (
                seq_cursor + np.arange(n_reqs, dtype=np.int64) * pages_per_req
            ) % (spec.logical_pages - pages_per_req + 1)
            seq_cursor = int(
                (seq_cursor + n_reqs * pages_per_req) % spec.logical_pages
            )
        offsets = np.arange(pages_per_req, dtype=np.int64)
        lpns = (starts[:, None] + offsets[None, :]).reshape(-1)
        return lpns, seq_cursor


class JobStepper:
    """Advance one fio job through the FTL one tick at a time.

    Produced by :meth:`IoEngine.stepper`.  Each :meth:`tick` runs
    ``engine.tick_s`` of simulated workload and returns the interval
    sample; mapping-lookup overhead for the read share is charged to the
    FTL policy's ``lookup_ops`` counter as it happens.
    """

    def __init__(self, engine: IoEngine, job: FioJob) -> None:
        self.engine = engine
        self.job = job
        self.ssd = engine.ssd
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
        return self._ticks * self.engine.tick_s

    def _account_read_lookups(self, read_bytes: float) -> None:
        pages = int(read_bytes / self.ssd.spec.page_bytes)
        if pages > 0:
            ftl = self.ssd.ftl
            ftl.counters.lookup_ops += ftl.lookup_cost(pages)

    def tick(self) -> IntervalSample:
        engine = self.engine
        job = self.job
        spec = self.ssd.spec
        tick_s = engine.tick_s
        self._ticks += 1
        read_fraction = job.read_fraction
        write_fraction = 1.0 - read_fraction

        host_pages = internal_pages = 0
        busy = 0.0
        if write_fraction > 0:
            write_window = tick_s * write_fraction
            budget = self.ssd.write_budget_pages(write_window)
            host_pages, internal_pages, self._seq_cursor, self._backlog_pages = (
                engine._write_tick(
                    job, write_window, self._seq_cursor, self._backlog_pages
                )
            )
            busy = min(internal_pages / budget, 1.0)

        write_bw = host_pages * spec.page_bytes / tick_s
        wa = (internal_pages + self._backlog_pages) / max(host_pages, 1)
        if read_fraction == 0.0:
            power = self.ssd.write_power(busy) + float(
                engine.rng.normal(0.0, 0.03)
            )
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
                self._read_bw + float(engine.rng.normal(0.0, 0.015 * self._read_bw)),
                0.0,
            )
        self._account_read_lookups(read_bw * tick_s)
        power = (
            read_fraction * self._read_power
            + write_fraction * self.ssd.write_power(busy)
            + float(engine.rng.normal(0.0, 0.03 if job.is_mixed else 0.02))
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

    def read_latencies(self) -> np.ndarray:
        """Per-request completion latencies for the job's read share."""
        if self.job.read_fraction == 0.0:
            return np.zeros(0)
        return self.engine._read_latencies(self.job, self._read_bw)


def precondition(ssd: Ssd, engine: IoEngine, bs: str = "128k", passes: float = 1.0) -> None:
    """The paper's preconditioning: sequential writes across the LBA space.

    Runs sequential writes until ``passes`` times the logical capacity has
    been written, leaving the drive fully mapped.
    """
    spec = ssd.spec
    pages_total = int(spec.logical_pages * passes)
    pages_per_req = max(FioJob(rw="write", bs=bs).block_bytes // spec.page_bytes, 1)
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
