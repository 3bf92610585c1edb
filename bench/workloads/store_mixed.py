"""store-mixed: telemetry-store writes beside reads.

Each round ingests a seeded GPU-like two-pair power trace with noise into
a fresh ``TelemetryStore`` (default roll size) in 8192-row blocks,
running a live tail query after every eighth append; it then closes the
store, reopens it cold and runs seeded historical queries -- widths
log-uniform (stratified) from 10 ms to the whole recording, nine in ten
tiered to at most 1000 points, one in ten at full resolution over at
most a second.  Appends are timed with the live queries interleaved, so
a query-side gain that slows appends shows in the ingest rate.  No other
workload touches the store.

The recording is the benchmark's input, not the program's state: it is
generated one append block at a time from the seed and never held whole,
and it is built after set-up, so ``setup_s`` and ``peak_rss_mb`` are the
store's.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from bench.workloads.common import Context, Workload, gpu_schedule
from repro.core.sources import SampleBlock
from repro.store import TelemetryStore
from repro.store.format import DEFAULT_TIER_FACTORS

RATE = 20_000.0
APPEND_ROWS = 8192
#: Append blocks per round: 2**21 rows, 105 simulated seconds.
BLOCKS = 256
LIVE_EVERY = 8
LIVE_WINDOW_S = 10.0
MAX_POINTS = 1000
QUERIES = 1000
#: Queries per stratified block (and per latency window); divides ``QUERIES``.
QUERY_BLOCK = 100
FULL_RES_SHARE = 0.1
FULL_RES_MAX_S = 1.0
MIN_WIDTH_S = 0.01
COLUMNS = 4  # two pairs: amps, volts, amps, volts
PAIRS = ["gpu_12v", "gpu_3v3"]
MARKER_EVERY = 100_000
#: Rows per precomputed min/max chunk; divides ``APPEND_ROWS``.
ENVELOPE_CHUNK = 256


def row_time(i: int) -> float:
    """Time of row ``i``: the same double ``np.arange(n) * (1 / RATE)`` holds."""
    return i * (1.0 / RATE)


class Recording:
    """The seeded recording, generated one append block at a time.

    Each block is a pure function of the seed and its index, so the
    appends and the oracles regenerate rows instead of holding them; only
    the GPU trace, the marker rows and per-chunk min/max stay in memory.
    """

    def __init__(self, seed: int, blocks: int = BLOCKS) -> None:
        self.seed = seed
        self.rows = blocks * APPEND_ROWS
        span = self.rows / RATE
        trace = gpu_schedule(seed, span).render(t_end=span)
        self._trace_times, self._trace_watts = trace.times, trace.watts
        rng = np.random.default_rng([seed, 4])
        n_markers = max(self.rows // MARKER_EVERY, 1)
        self.marker_rows = np.unique(rng.integers(0, self.rows, size=n_markers))
        mins, maxs = [], []
        for lo in range(0, self.rows, APPEND_ROWS):
            chunks = self.block(lo)[1].reshape(-1, ENVELOPE_CHUNK, COLUMNS)
            mins.append(chunks.min(axis=1))
            maxs.append(chunks.max(axis=1))
        self.chunk_min = np.concatenate(mins)
        self.chunk_max = np.concatenate(maxs)

    def block(self, lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Times, ``(n, 4)`` values and markers of the block starting at row ``lo``."""
        hi = min(lo + APPEND_ROWS, self.rows)
        n = hi - lo
        rng = np.random.default_rng([self.seed, 4, lo // APPEND_ROWS])
        times = np.arange(lo, hi) * (1.0 / RATE)
        idx = np.clip(np.searchsorted(self._trace_times, times, side="right") - 1, 0, None)
        watts = self._trace_watts[idx]
        values = np.empty((n, COLUMNS))
        values[:, 0] = 0.96 * watts / 12.0 + rng.normal(0.0, 0.05, n)
        values[:, 1] = 12.0 + rng.normal(0.0, 0.01, n)
        values[:, 2] = 0.04 * watts / 3.3 + rng.normal(0.0, 0.01, n)
        values[:, 3] = 3.3 + rng.normal(0.0, 0.005, n)
        markers = np.zeros(n, dtype=bool)
        first, last = np.searchsorted(self.marker_rows, [lo, hi])
        markers[self.marker_rows[first:last] - lo] = True
        return times, values, markers

    def rows_between(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Times, values and markers of rows ``[lo, hi)``, ``hi > lo``."""
        start = lo - lo % APPEND_ROWS
        parts = [self.block(b) for b in range(start, hi, APPEND_ROWS)]
        times, values, markers = (np.concatenate(p)[lo - start:hi - start] for p in zip(*parts))
        return times, values, markers

    def index(self, t: float, side: str) -> int:
        """``np.searchsorted`` of ``t`` in the row times, without holding them."""
        def before(i: int) -> bool:  # row i sorts before t
            return row_time(i) < t if side == "left" else row_time(i) <= t

        i = min(max(int(t * RATE), 0), self.rows)
        while i > 0 and not before(i - 1):
            i -= 1
        while i < self.rows and before(i):
            i += 1
        return i

    def rows_in(self, t0: float, t1: float) -> tuple[int, int]:
        return self.index(t0, "left"), self.index(t1, "right")

    def envelope_within(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Min/max over the whole chunks inside rows ``[lo, hi)``, if any."""
        c = ENVELOPE_CHUNK
        first, last = -(-lo // c), hi // c
        if first >= last:
            return None
        return self.chunk_min[first:last].min(axis=0), self.chunk_max[first:last].max(axis=0)

    def envelope_around(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Min/max over the chunks that cover rows ``[lo, hi)``, ``hi > lo``."""
        c = ENVELOPE_CHUNK
        first, last = lo // c, -(-hi // c)
        return self.chunk_min[first:last].min(axis=0), self.chunk_max[first:last].max(axis=0)


def plan_queries(
    seed: int, span: float, count: int = QUERIES
) -> list[tuple[float, float, int | None]]:
    """Seeded historical queries as ``(t0, t1, max_points)``.

    Widths are log-uniform, drawn stratified: each block of
    ``QUERY_BLOCK`` consecutive queries takes one width from every equal
    slice of the log range, jittered and shuffled by the seed.  So every
    block, and every seed, asks for the same mix of small and large
    ranges, and each block's median latency measures the same thing;
    the seed places them.
    """
    rng = np.random.default_rng([seed, 5])
    lo, hi = np.log(MIN_WIDTH_S), np.log(span)
    strata = np.concatenate([
        rng.permutation((np.arange(QUERY_BLOCK) + rng.random(QUERY_BLOCK)) / QUERY_BLOCK)
        for _ in range(count // QUERY_BLOCK)
    ])
    widths = np.exp(lo + (hi - lo) * strata)
    full_every = round(1 / FULL_RES_SHARE)
    queries = []
    for i, width in enumerate(widths):
        max_points: int | None = MAX_POINTS
        if i % full_every == 0:
            width = min(width, FULL_RES_MAX_S)
            max_points = None
        t0 = float(rng.uniform(0.0, span - width))
        queries.append((t0, t0 + float(width), max_points))
    return queries


class StoreMixed(Workload):
    # One ingest rate per round; one latency median per block of queries.
    LATENCY_WINDOW = QUERY_BLOCK

    def setup(self) -> None:
        self.enabled = np.zeros(8, dtype=bool)
        self.enabled[:COLUMNS] = True
        self.path = os.path.join(self.workdir, "store")

    def prepare(self) -> None:
        self.recording = Recording(self.seed)
        self.queries = plan_queries(self.seed, self.recording.rows / RATE)

    def block(self, lo: int) -> SampleBlock:
        times, columns, markers = self.recording.block(lo)
        values = np.zeros((len(times), 8))
        values[:, :COLUMNS] = columns
        return SampleBlock(times=times, values=values, markers=markers, enabled=self.enabled)

    def step(self, ctx: Context) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        with ctx.op() as op:
            store = TelemetryStore(self.path, sample_rate=RATE, pair_names=PAIRS)
        ingest_s = op.seconds
        rows = self.recording.rows
        for k, lo in enumerate(range(0, rows, APPEND_ROWS)):
            block = self.block(lo)
            with ctx.op() as op:
                store.append(block)
            ingest_s += op.seconds
            ctx.probe()
            if (k + 1) % LIVE_EVERY == 0:
                t_new = float(block.times[-1])
                with ctx.op() as op:
                    result = store.query(t_new - LIVE_WINDOW_S, t_new, max_points=MAX_POINTS)
                ingest_s += op.seconds
                self.check_live(ctx, result, t_new - LIVE_WINDOW_S, block)
        with ctx.op() as op:
            store.close()
        ingest_s += op.seconds
        ctx.rate(rows, ingest_s)

        with ctx.op():
            store = TelemetryStore(self.path)
        try:
            for t0, t1, max_points in self.queries:
                with ctx.op() as op:
                    result = store.query(t0, t1, max_points=max_points)
                ctx.latency(op.seconds)
                ctx.probe()
                if max_points is None:
                    self.check_full(ctx, result, t0, t1)
                else:
                    self.check_tiered(ctx, result, t0, t1, max_points)
        finally:
            store.close()
        shutil.rmtree(self.path, ignore_errors=True)
        return True

    # ------------------------------------------------------------------ #
    # Oracles                                                            #
    # ------------------------------------------------------------------ #

    def check_live(self, ctx: Context, result, t0: float, block: SampleBlock) -> bool:
        """A tail query counts every row in range and its last bucket holds the newest."""
        t_new = float(block.times[-1])
        lo, hi = self.recording.rows_in(t0, t_new)
        newest_values = block.values[-1, :COLUMNS]
        ok = (
            result.n_source == hi - lo
            and 0 < len(result) <= MAX_POINTS
            and bool(np.all(result.vmin[-1, :COLUMNS] <= newest_values))
            and bool(np.all(newest_values <= result.vmax[-1, :COLUMNS]))
        )
        return ctx.check(ok, f"live query at t={t_new:.6f} missed the newest row")

    def exact_rows(self, result, lo: int, hi: int) -> bool:
        """``result`` holds rows ``[lo, hi)`` of the recording bit for bit."""
        times, values, markers = self.recording.rows_between(lo, hi)
        return (
            result.factor == 1
            and len(result) == hi - lo
            and np.array_equal(result.times, times)
            and np.array_equal(result.values[:, :COLUMNS], values)
            and not result.values[:, COLUMNS:].any()
            and np.array_equal(result.markers, markers)
        )

    def check_full(self, ctx: Context, result, t0: float, t1: float) -> bool:
        """Full resolution returns the appended rows bit for bit."""
        ok = self.exact_rows(result, *self.recording.rows_in(t0, t1))
        return ctx.check(ok, f"full-resolution query [{t0:.6f}, {t1:.6f}] differs")

    def check_tiered(
        self, ctx: Context, result, t0: float, t1: float, max_points: int
    ) -> bool:
        """Tiered rows fit the budget and their envelope brackets the raw data.

        A range that fits the budget comes back raw and must equal the
        appended rows.  Otherwise tier buckets straddling the range ends
        are kept or dropped by their mean time, so the result's envelope
        must contain the raw min/max of the range shrunk by the coarsest
        tier's bucket and lie within that of the range grown by it --
        taken over whole envelope chunks, shrinking or growing further to
        their edges.  (The result's ``factor`` also counts the final
        re-bucketing, which drops nothing.)
        """
        rec = self.recording
        lo, hi = rec.rows_in(t0, t1)
        where = f"tiered query [{t0:.6f}, {t1:.6f}]"
        if not (0 < len(result) <= max_points and result.n_source == hi - lo):
            return ctx.check(
                False,
                f"{where}: {len(result)} rows for {result.n_source} source rows, "
                f"expected <= {max_points} for {hi - lo}",
            )
        if result.factor == 1:
            return ctx.check(self.exact_rows(result, lo, hi), f"{where}: raw rows differ")
        margin = max(DEFAULT_TIER_FACTORS) / RATE
        got_min = result.vmin[:, :COLUMNS].min(axis=0)
        got_max = result.vmax[:, :COLUMNS].max(axis=0)
        ok = True
        inner = rec.envelope_within(*rec.rows_in(t0 + margin, t1 - margin))
        if inner is not None:
            ok = bool(np.all(got_min <= inner[0]) and np.all(got_max >= inner[1]))
        outer_min, outer_max = rec.envelope_around(*rec.rows_in(t0 - margin, t1 + margin))
        ok = ok and bool(np.all(got_min >= outer_min) and np.all(got_max <= outer_max))
        return ctx.check(ok, f"{where}: envelope is wrong")
