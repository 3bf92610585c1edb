"""The columnar telemetry store: append, seal, query, retain, recover.

:class:`TelemetryStore` owns a directory of sealed segments (see
:mod:`repro.store.format`) plus at most one active journal.  Samples
append to the journal file and to :class:`_Journal`, which holds the
journal's rows in memory as one segment: row arrays, plus each
downsampling tier's buckets, built once as their rows arrive.  Once
``roll_samples`` rows accumulate the journal seals into an immutable
segment with those tiers and a CRC footer.  Queries read the journal
as they read a sealed segment, from the coarsest tier that still
satisfies ``max_points`` — a zoomed-out view over a
hundred-million-sample store reads kilobytes, not gigabytes — so an
answer does not depend on whether its rows have sealed, and exact
(tier 1) queries reproduce the appended rows bit-for-bit.

Opening a store *is* crash recovery: sealed segments that fail their
CRC are quarantined (renamed ``*.quarantine``) rather than served or
deleted, and a leftover journal is salvaged chunk-by-chunk and sealed,
so a crashed writer loses at most the damaged tail of its last file.
Every recovery action increments ``store_segments_recovered_total`` —
the store never crashes on damage and never silently returns corrupt
rows.

Retention prunes whole sealed segments, oldest first, by age
(``retention_seconds`` behind the newest sample) or by byte budget
(``retention_bytes`` across sealed files).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.common.errors import ConfigurationError, StoreError
from repro.core.sources import SampleBlock
from repro.hardware.eeprom import SENSORS
from repro.observability import MetricsRegistry, Tracer
from repro.store.format import (
    DEFAULT_TIER_FACTORS,
    SealedSegment,
    Tier,
    compute_tier,
    encode_journal_chunk,
    encode_journal_header,
    encode_segment,
    read_journal,
)

_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.seg$")
_JOURNAL_RE = re.compile(r"^seg-(\d{6})\.jrnl$")


@dataclass
class StoreQueryResult:
    """One answered time-range query.

    ``values`` is the full ``(k, SENSORS)`` matrix (unstored columns are
    zero); at ``factor == 1`` the rows are exact samples and ``vmin is
    vmax is values``.  At coarser factors each row is a bucket of about
    ``factor`` raw samples: ``values`` carries bucket means, ``vmin`` /
    ``vmax`` the envelope, ``markers`` the bucket's any-marker flag and
    ``times`` the bucket mean time.  ``n_source`` counts the raw samples
    the result covers.
    """

    times: np.ndarray
    values: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    markers: np.ndarray
    enabled: np.ndarray
    factor: int
    n_source: int

    def __len__(self) -> int:
        return int(self.times.size)

    def total_power(self) -> np.ndarray:
        """Mean total power per row (exact at factor 1)."""
        return (self.values[:, 0::2] * self.values[:, 1::2]).sum(axis=1)


class _Rows:
    """Arrays that share a row count and grow geometrically as rows arrive.

    The arrays are times, ``matrices`` ``(rows, n_cols)`` value matrices
    and marker flags, the layout of raw rows and of :data:`Tier`.  Rows
    below ``n`` are never written again, so a view of them stays valid.
    """

    def __init__(self, n_cols: int, matrices: int) -> None:
        self.n = 0
        self._arrays: list[np.ndarray] = [
            np.empty(0),
            *(np.empty((0, n_cols)) for _ in range(matrices)),
            np.empty(0, dtype=bool),
        ]

    def extend(self, *parts: np.ndarray) -> None:
        """Append rows, one part per array and each part as long."""
        stop = self.n + len(parts[0])
        if stop > len(self._arrays[0]):
            capacity = max(stop, 2 * len(self._arrays[0]))
            grown = []
            for array in self._arrays:
                bigger = np.empty((capacity, *array.shape[1:]), dtype=array.dtype)
                bigger[: self.n] = array[: self.n]
                grown.append(bigger)
            self._arrays = grown
        for array, part in zip(self._arrays, parts, strict=True):
            array[self.n : stop] = part
        self.n = stop

    def view(self, lo: int = 0, hi: int | None = None) -> list[np.ndarray]:
        """Every array's rows ``[lo, hi)`` (to ``n`` by default), as views."""
        return [array[lo : self.n if hi is None else hi] for array in self._arrays]


class _Journal:
    """The active journal: its file, and its rows as one in-memory segment.

    Each coarse tier's complete buckets are computed once, by
    :func:`compute_tier` over exactly their rows on the bucket grid the
    sealed segment will have, so they are bit-identical to the sealed
    tier; the partial last bucket is computed on the first read after
    an append.  The read interface is :class:`SealedSegment`'s, so a
    query reads the journal as it reads a sealed segment, and a seal
    encodes the rows and buckets held here.
    """

    def __init__(
        self, directory: Path, index: int, header: dict, tier_factors: tuple[int, ...]
    ) -> None:
        self.path = directory / f"seg-{index:06d}.jrnl"
        self.index = index
        self.columns: list[int] = [int(c) for c in header["columns"]]
        self.enabled = np.asarray(header["enabled"], dtype=bool)
        self.sample_rate = float(header["sample_rate"])
        self.device: str | None = header["device"]
        self.pair_names: list[str] = list(header["pair_names"])
        self.n = 0
        self._rows = _Rows(len(self.columns), 1)
        self._buckets = {f: _Rows(len(self.columns), 3) for f in tier_factors}
        self._tiers: dict[int, Tier] = {}  # whole tiers read since the last append
        self._file: BinaryIO | None = None

    @classmethod
    def create(
        cls, directory: Path, index: int, header: dict, tier_factors: tuple[int, ...]
    ) -> _Journal:
        """A new, empty journal file."""
        journal = cls(directory, index, header, tier_factors)
        journal._file = open(journal.path, "wb")
        journal._file.write(encode_journal_header(header))
        journal._file.flush()
        return journal

    def append(self, times: np.ndarray, values: np.ndarray, markers: np.ndarray) -> None:
        """Write one chunk to the journal file, then hold its rows."""
        assert self._file is not None, "a salvaged journal is read-only"
        self._file.write(encode_journal_chunk(times, values, markers))
        self._file.flush()
        self.extend(times, values, markers)

    def extend(self, times: np.ndarray, values: np.ndarray, markers: np.ndarray) -> None:
        """Hold rows and compute every bucket they complete."""
        self._rows.extend(times, values, markers)
        self.n = self._rows.n
        self._tiers = {}
        for factor, buckets in self._buckets.items():
            lo, hi = buckets.n * factor, self.n - self.n % factor
            if hi > lo:
                rows = self._rows.view(lo, hi)
                buckets.extend(*compute_tier(rows[0], rows[1], rows[2], factor))

    def close(self) -> None:
        """Close the journal file (the rows stay readable)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def rows(self) -> list[np.ndarray]:
        """Views of every row held: times, ``(n, n_cols)`` values, markers."""
        return self._rows.view()

    def tier(self, factor: int) -> Tier:
        """Every bucket of a coarse tier, a partial last one included."""
        if factor not in self._tiers:
            complete = self._buckets[factor]
            arrays = complete.view()
            start = complete.n * factor
            if start < self.n:
                rows = self._rows.view(start)
                partial = compute_tier(rows[0], rows[1], rows[2], factor)
                arrays = [np.concatenate(pair) for pair in zip(arrays, partial, strict=True)]
            t, mins, means, maxs, flags = arrays
            self._tiers[factor] = (t, mins, means, maxs, flags)
        return self._tiers[factor]

    def tiers(self) -> dict[int, Tier]:
        return {factor: self.tier(factor) for factor in self._buckets}

    # The read interface of SealedSegment.

    @property
    def tier_factors(self) -> list[int]:
        return [1, *self._buckets]

    @property
    def t0(self) -> float:
        return float(self.times()[0])

    @property
    def t1(self) -> float:
        return float(self.times()[-1])

    def times(self, factor: int = 1) -> np.ndarray:
        return self.rows()[0] if factor == 1 else self.tier(factor)[0]

    def search(self, t: float, side: str = "left", factor: int = 1) -> int:
        return int(np.searchsorted(self.times(factor), t, side=side))

    def read_raw(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``[lo, hi)``: (times, values ``(k, n_cols)``, markers), copied."""
        times, values, markers = (array.copy() for array in self._rows.view(lo, hi))
        return times, values, markers

    def read_tier(self, factor: int, lo: int = 0, hi: int | None = None) -> Tier:
        """Buckets ``[lo, hi)`` of a coarse tier: (times, min, mean, max, markers)."""
        t, mins, means, maxs, flags = (array[lo:hi].copy() for array in self.tier(factor))
        return t, mins, means, maxs, flags


class TelemetryStore:
    """An append-only segment store for one device's sample stream."""

    def __init__(
        self,
        path: str | Path,
        *,
        roll_samples: int = 1_000_000,
        tier_factors: tuple[int, ...] | None = None,
        retention_seconds: float | None = None,
        retention_bytes: int | None = None,
        device: str | None = None,
        sample_rate: float = 0.0,
        pair_names: list[str] | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if roll_samples < 1:
            raise ConfigurationError(f"roll_samples must be >= 1, got {roll_samples}")
        # None: a new store takes the default tiers, a reopened one those
        # of its newest segment.
        factors = tuple(
            int(f) for f in (DEFAULT_TIER_FACTORS if tier_factors is None else tier_factors)
        )
        if any(f < 2 for f in factors) or list(factors) != sorted(set(factors)):
            raise ConfigurationError(
                f"tier factors must be distinct, ascending and >= 2, got {tier_factors}"
            )
        self.path = Path(path)
        self.roll_samples = int(roll_samples)
        self.tier_factors = factors
        self.retention_seconds = retention_seconds
        self.retention_bytes = retention_bytes
        self.device = device
        self.sample_rate = float(sample_rate)
        self.pair_names = list(pair_names or [])
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        labels = {"device": device} if device else {}
        self._appended_counter = self.registry.counter(
            "store_samples_appended_total",
            help="samples appended to the telemetry store",
            **labels,
        )
        self._sealed_counter = self.registry.counter(
            "store_segments_sealed_total",
            help="journals sealed into immutable segments",
            **labels,
        )
        self._recovered_counter = self.registry.counter(
            "store_segments_recovered_total",
            help="open-time recovery actions (quarantined segments, salvaged "
            "or quarantined journals)",
            **labels,
        )
        self._pruned_counter = self.registry.counter(
            "store_segments_pruned_total",
            help="sealed segments removed by retention",
            **labels,
        )
        self._queries_counter = self.registry.counter(
            "store_queries_total", help="time-range queries answered", **labels
        )
        self._bytes_gauge = self.registry.gauge(
            "store_bytes", help="bytes held in sealed segments", **labels
        )
        self._labels = labels

        self.segments: list[SealedSegment] = []
        self._closed = False
        self._journal: _Journal | None = None

        self.path.mkdir(parents=True, exist_ok=True)
        self._recover(adopt_tiers=tier_factors is None)
        if self.segments:
            # A reopened store adopts the identity it was recorded with.
            newest = self.segments[-1]
            if not self.sample_rate:
                self.sample_rate = float(newest.sample_rate)
            if not self.pair_names:
                self.pair_names = list(newest.pair_names)
            if self.device is None:
                self.device = newest.device
        self._update_bytes_gauge()

    # ------------------------------------------------------------------ #
    # Recovery                                                           #
    # ------------------------------------------------------------------ #

    def _recover(self, adopt_tiers: bool) -> None:
        """Open every sealed segment; salvage and seal any leftover journal.

        With ``adopt_tiers`` the store first takes the newest segment's
        coarse tier factors, so its queries find those tiers and a
        salvaged journal seals with them too.
        """
        sealed: list[tuple[int, Path]] = []
        journals: list[tuple[int, Path]] = []
        for entry in sorted(self.path.iterdir()):
            if entry.name.endswith(".seg.tmp"):
                entry.unlink(missing_ok=True)  # a seal that never published
                continue
            match = _SEGMENT_RE.match(entry.name)
            if match:
                sealed.append((int(match.group(1)), entry))
                continue
            match = _JOURNAL_RE.match(entry.name)
            if match:
                journals.append((int(match.group(1)), entry))
        sealed_indices = set()
        for index, path in sealed:
            try:
                self.segments.append(SealedSegment(path))
                sealed_indices.add(index)
            except StoreError:
                self._quarantine(path)
        if adopt_tiers and self.segments:
            self.tier_factors = tuple(self.segments[-1].tier_factors[1:])
        for index, path in journals:
            if index in sealed_indices:
                # The seal published but the crash beat the journal
                # unlink: the segment already holds these rows.
                path.unlink(missing_ok=True)
                continue
            header, times, values, markers, damaged = read_journal(path)
            if damaged:
                self._recovered_counter.inc()
            if header is None:
                self._quarantine(path, count=False)
                continue
            if times.size:
                identity = {
                    "enabled": [False] * SENSORS,
                    "sample_rate": self.sample_rate,
                    "device": self.device,
                    "pair_names": self.pair_names,
                }
                journal = _Journal(self.path, index, {**identity, **header}, self.tier_factors)
                journal.extend(times, values, markers)
                self._seal(journal)
            if damaged:
                self._quarantine(path, count=False)
            else:
                path.unlink(missing_ok=True)

    def _quarantine(self, path: Path, count: bool = True) -> None:
        """Set a damaged file aside (never delete: it may still be studied)."""
        target = path.with_name(path.name + ".quarantine")
        serial = 0
        while target.exists():
            serial += 1
            target = path.with_name(f"{path.name}.quarantine{serial}")
        path.rename(target)
        if count:
            self._recovered_counter.inc()

    def _quarantine_open(self, seg: SealedSegment) -> None:
        """Quarantine a segment whose data failed its read-time CRC."""
        seg.close()
        if seg in self.segments:
            self.segments.remove(seg)
        self._quarantine(seg.path)
        self._update_bytes_gauge()

    def _write_sealed(self, index: int, image: bytes | bytearray) -> SealedSegment:
        """Atomically publish a segment image as ``seg-NNNNNN.seg``."""
        final = self.path / f"seg-{index:06d}.seg"
        tmp = final.with_suffix(".seg.tmp")
        with open(tmp, "wb") as f:
            f.write(image)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        return SealedSegment(final)

    def _next_index(self) -> int:
        used = [-1]
        for seg in self.segments:
            match = _SEGMENT_RE.match(seg.path.name)
            if match:
                used.append(int(match.group(1)))
        return max(used) + 1

    # ------------------------------------------------------------------ #
    # Appending and sealing                                              #
    # ------------------------------------------------------------------ #

    def append(self, block: SampleBlock) -> None:
        """Append one sample block; rolls the segment at ``roll_samples``."""
        if self._closed:
            raise StoreError(f"store {self.path} is closed")
        n = len(block)
        if n == 0:
            return
        enabled = np.asarray(block.enabled, dtype=bool)
        if self._journal is not None and not np.array_equal(enabled, self._journal.enabled):
            self.seal()  # the column set changed: segments are homogeneous
        if self._journal is None:
            self._journal = self._open_journal(enabled)
        journal = self._journal
        journal.append(block.times, block.values[:, journal.columns], block.markers)
        self._appended_counter.inc(n)
        if journal.n >= self.roll_samples:
            self.seal()

    def _open_journal(self, enabled: np.ndarray) -> _Journal:
        index = self._next_index()
        header = {
            "version": 1,
            "columns": [int(c) for c in np.flatnonzero(enabled)],
            "enabled": [bool(e) for e in enabled],
            "sample_rate": self.sample_rate,
            "device": self.device,
            "pair_names": self.pair_names,
        }
        return _Journal.create(self.path, index, header, self.tier_factors)

    def seal(self) -> SealedSegment | None:
        """Seal the active journal into an immutable segment (if non-empty).

        The journal's file and rows are dropped only once the segment is
        published: if the seal fails (a full disk, say), they stay, and
        the next append or :meth:`close` seals again.
        """
        journal = self._journal
        if journal is None:
            return None
        segment = self._seal(journal) if journal.n else None
        journal.close()
        journal.path.unlink(missing_ok=True)
        self._journal = None
        if segment is None:
            return None
        self._sealed_counter.inc()
        self._apply_retention()
        self._update_bytes_gauge()
        return segment

    def _seal(self, journal: _Journal) -> SealedSegment:
        """Publish a journal's rows and tiers as its segment (seal and salvage)."""
        with self.tracer.span("store_seal", **self._labels):
            times, values, markers = journal.rows()
            image = encode_segment(
                times,
                values,
                markers,
                journal.tiers(),
                columns=journal.columns,
                enabled=journal.enabled,
                sample_rate=journal.sample_rate,
                device=journal.device,
                pair_names=journal.pair_names,
            )
            segment = self._write_sealed(journal.index, image)
        self.segments.append(segment)
        return segment

    def abandon(self) -> None:
        """Drop in-memory state without sealing, as a crashed writer would.

        The active journal file stays on disk exactly as written — the
        crash-recovery tests reopen (and damage) it from here.
        """
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        self._close_segments()
        self._closed = True

    # ------------------------------------------------------------------ #
    # Retention                                                          #
    # ------------------------------------------------------------------ #

    def _apply_retention(self) -> None:
        """Prune after a seal (the journal is empty, the newest row sealed)."""
        if self.retention_seconds is not None and self.segments:
            cutoff = max(seg.t1 for seg in self.segments) - float(self.retention_seconds)
            while self.segments and self.segments[0].t1 < cutoff:
                self._prune(self.segments.pop(0))
        if self.retention_bytes is not None:
            while (
                len(self.segments) > 1
                and sum(seg.nbytes for seg in self.segments) > self.retention_bytes
            ):
                self._prune(self.segments.pop(0))

    def _prune(self, segment: SealedSegment) -> None:
        segment.close()
        segment.path.unlink(missing_ok=True)
        self._pruned_counter.inc()

    def _update_bytes_gauge(self) -> None:
        self._bytes_gauge.set(sum(seg.nbytes for seg in self.segments))

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def _parts(self) -> list[SealedSegment | _Journal]:
        """The sealed segments, then the journal if it holds rows."""
        parts: list[SealedSegment | _Journal] = list(self.segments)
        if self._journal is not None and self._journal.n:
            parts.append(self._journal)
        return parts

    @property
    def sample_count(self) -> int:
        """Raw samples currently held (sealed segments + active journal)."""
        return sum(part.n for part in self._parts())

    @property
    def nbytes(self) -> int:
        """Bytes held in sealed segments."""
        return sum(seg.nbytes for seg in self.segments)

    def time_range(self) -> tuple[float, float] | None:
        """The ``(t0, t1)`` span currently held, or None when empty."""
        parts = self._parts()
        if not parts:
            return None
        return min(part.t0 for part in parts), max(part.t1 for part in parts)

    def query(
        self,
        t0: float | None = None,
        t1: float | None = None,
        max_points: int | None = None,
    ) -> StoreQueryResult:
        """Rows (or bucket envelopes) covering ``[t0, t1]``.

        ``max_points=None`` returns every raw sample in range, exactly
        as appended.  Otherwise the coarsest pre-computed tier that
        still resolves the range into at most ``max_points`` rows is
        read (raw if the range is small enough), with a final bucketing
        pass guaranteeing the bound.  Tier selection is approximate at
        bucket granularity: a coarse bucket straddling ``t0``/``t1`` is
        included when its mean time falls inside the range.  The
        journal is read through the same tiers as the sealed segments,
        so the answer is the same before and after its rows seal; only
        the newest bucket changes while rows still arrive into it.
        """
        if max_points is not None and max_points < 1:
            raise ConfigurationError(f"max_points must be >= 1, got {max_points}")
        lo_t = float("-inf") if t0 is None else float(t0)
        hi_t = float("inf") if t1 is None else float(t1)
        self._queries_counter.inc()

        spans: list[tuple[SealedSegment | _Journal, int, int]] = []
        n_source = 0
        for part in self._parts():
            if part.t1 < lo_t or part.t0 > hi_t:
                continue
            lo = part.search(lo_t, "left")
            hi = part.search(hi_t, "right")
            if hi > lo:
                spans.append((part, lo, hi))
                n_source += hi - lo

        factor = 1
        if max_points is not None and n_source > max_points:
            for candidate in self.tier_factors:
                factor = candidate
                if -(-n_source // candidate) <= max_points:
                    break

        with self.tracer.span("store_query", factor=str(factor), **self._labels):
            result, dropped = self._gather(spans, lo_t, hi_t, factor)
        if max_points is not None and len(result) > max_points:
            result = _coarsen(result, -(-len(result) // max_points))
        result.n_source = n_source - dropped
        return result

    def _gather(
        self,
        spans: list[tuple[SealedSegment | _Journal, int, int]],
        lo_t: float,
        hi_t: float,
        factor: int,
    ) -> tuple[StoreQueryResult, int]:
        """Read the planned spans; returns (result, rows dropped to damage).

        Tier data is CRC-verified on first read: a segment whose mapped
        bytes fail the check contributes nothing, is quarantined on the
        spot, and its rows are subtracted from the caller's ``n_source``
        — damage costs the damaged segment, never a corrupt row.
        """
        times_parts: list[np.ndarray] = []
        mean_parts: list[np.ndarray] = []
        min_parts: list[np.ndarray] = []
        max_parts: list[np.ndarray] = []
        marker_parts: list[np.ndarray] = []
        enabled = np.zeros(SENSORS, dtype=bool)
        used_tier = False  # a raw-only gather reports factor 1 honestly
        damaged: list[SealedSegment] = []
        dropped = 0

        def dense(cols: list[int], matrix: np.ndarray) -> np.ndarray:
            out = np.zeros((matrix.shape[0], SENSORS))
            if cols:
                out[:, cols] = matrix
            return out

        for seg, raw_lo, raw_hi in spans:
            try:
                if factor == 1 or factor not in seg.tier_factors:
                    t, v, m = seg.read_raw(raw_lo, raw_hi)
                    d = dense(seg.columns, v)
                    vmin_d = vmean_d = vmax_d = d
                else:
                    lo = seg.search(lo_t, "left", factor)
                    hi = seg.search(hi_t, "right", factor)
                    t, vmin, vmean, vmax, m = seg.read_tier(factor, lo, hi)
                    vmin_d = dense(seg.columns, vmin)
                    vmean_d = dense(seg.columns, vmean)
                    vmax_d = dense(seg.columns, vmax)
            except StoreError:
                if not isinstance(seg, SealedSegment):
                    raise  # only a sealed segment's mapped bytes are checked
                damaged.append(seg)
                dropped += raw_hi - raw_lo
                continue
            used_tier = used_tier or vmin_d is not vmean_d
            enabled |= seg.enabled
            times_parts.append(t)
            mean_parts.append(vmean_d)
            min_parts.append(vmin_d)
            max_parts.append(vmax_d)
            marker_parts.append(m)
        for seg in damaged:
            self._quarantine_open(seg)

        if not times_parts:
            empty = np.zeros((0, SENSORS))
            return (
                StoreQueryResult(
                    times=np.zeros(0),
                    values=empty,
                    vmin=empty,
                    vmax=empty,
                    markers=np.zeros(0, dtype=bool),
                    enabled=enabled,
                    factor=1,
                    n_source=0,
                ),
                dropped,
            )
        concat = np.concatenate
        values = concat(mean_parts) if len(mean_parts) > 1 else mean_parts[0]
        if not used_tier:
            factor = 1  # everything came back as raw rows
        if factor == 1:
            vmin = vmax = values
        else:
            vmin = concat(min_parts) if len(min_parts) > 1 else min_parts[0]
            vmax = concat(max_parts) if len(max_parts) > 1 else max_parts[0]
        return (
            StoreQueryResult(
                times=concat(times_parts) if len(times_parts) > 1 else times_parts[0],
                values=values,
                vmin=vmin,
                vmax=vmax,
                markers=(
                    concat(marker_parts) if len(marker_parts) > 1 else marker_parts[0]
                ),
                enabled=enabled,
                factor=factor,
                n_source=0,
            ),
            dropped,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Seal any active journal and release every mapping."""
        if self._closed:
            return
        self.seal()
        self._close_segments()
        self._closed = True

    def _close_segments(self) -> None:
        for seg in self.segments:
            seg.close()
        self.segments = []

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _coarsen(result: StoreQueryResult, group: int) -> StoreQueryResult:
    """Re-bucket a gathered result by ``group`` rows to enforce max_points.

    Envelope containment is preserved exactly (min of mins, max of
    maxs); the re-bucketed mean is the equal-weight mean of the source
    rows' means, which is exact at factor 1 and approximate (partial
    final buckets weigh the same as full ones) on already-coarse rows.
    """
    n = len(result)
    edges = np.arange(0, n, group, dtype=np.int64)
    counts = np.diff(np.append(edges, n)).astype(float)
    return StoreQueryResult(
        times=np.add.reduceat(result.times, edges) / counts,
        values=np.add.reduceat(result.values, edges, axis=0) / counts[:, None],
        vmin=np.minimum.reduceat(result.vmin, edges, axis=0),
        vmax=np.maximum.reduceat(result.vmax, edges, axis=0),
        markers=np.maximum.reduceat(
            result.markers.astype(np.uint8), edges
        ).astype(bool),
        enabled=result.enabled,
        factor=result.factor * group,
        n_source=result.n_source,
    )
