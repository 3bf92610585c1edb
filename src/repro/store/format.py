"""On-disk formats of the columnar telemetry store.

Two file kinds live in a store directory (see ``docs/storage.md`` for
the byte-level diagrams):

* **Sealed segments** (``seg-NNNNNN.seg``) — immutable, memory-mapped
  query files.  After an 8-byte magic comes one contiguous little-endian
  ``f8`` array per column per tier (times, then each stored sensor
  column, then packed marker bits), a JSON *meta* block holding every
  array's byte offset plus the segment's time index (``t0``/``t1``),
  and a fixed footer: ``meta_len (u32) | crc32 (u32) | b"PSS1"``.  The
  footer CRC covers the meta block, so opening a segment is O(meta) no
  matter how many samples it holds; each tier's byte region carries its
  own CRC *in* the meta, verified the first time that tier is read —
  a query checksums exactly the bytes it serves, and corrupt data is
  detected before a single damaged row can escape.  Tier 1 is the raw
  samples; coarser tiers carry per-bucket min/mean/max envelopes (and
  bucket mean times / any-marker bits) computed once at seal time.

* **The active journal** (``seg-NNNNNN.jrnl``) — the append-only
  write-ahead file of the segment currently being filled.  A CRC'd JSON
  header (columns, device, rate) is followed by self-delimiting chunks,
  each ``n_rows (u32) | crc32 (u32) | payload``.  Recovery walks the
  chunks and keeps the longest valid prefix: a crash (or a fuzzer)
  truncating or flipping bits in the tail loses at most the damaged
  chunks, never the samples before them, and never yields corrupt rows.

Everything here is pure encode/decode; policy (rolling, retention,
quarantine) lives in :mod:`repro.store.store`.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.common.errors import StoreError
from repro.hardware.eeprom import SENSORS

FORMAT_VERSION = 2
SEGMENT_MAGIC = b"PSSTSEG1"
SEGMENT_TAIL = b"PSS1"
JOURNAL_MAGIC = b"PSSTJRN1"

#: Downsampling factors computed at seal time (tier 1, the raw samples,
#: is always present).  Two coarse tiers keep any zoom level within a
#: 64x read amplification of the ideal row count.
DEFAULT_TIER_FACTORS = (64, 4096)

_FOOTER = struct.Struct("<II")  # meta length, CRC-32 of the meta block
_JHEAD = struct.Struct("<II")  # header JSON length, CRC-32 of the header JSON
_JCHUNK = struct.Struct("<II")  # chunk row count, CRC-32 of the chunk payload
_F8 = np.dtype("<f8")


def _align(n: int) -> int:
    return (n + 7) & ~7


def _packed_len(rows: int) -> int:
    return (rows + 7) // 8


class _Layout:
    """Accumulates array blobs and records their 8-aligned offsets."""

    def __init__(self, base: int) -> None:
        self.parts: list[bytes] = []
        self.offset = base

    def put(self, data: bytes) -> int:
        at = self.offset
        self.parts.append(data)
        self.offset += len(data)
        pad = _align(self.offset) - self.offset
        if pad:
            self.parts.append(b"\x00" * pad)
            self.offset += pad
        return at


def compute_tier(
    times: np.ndarray, values: np.ndarray, markers: np.ndarray, factor: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Downsample raw rows into ``factor``-sized buckets.

    Returns ``(times, mins, means, maxs, markers)``: bucket mean times,
    per-column min/mean/max over each bucket (``values`` is ``(n,
    n_cols)``), and the bucket's any-marker flag.  The final bucket may
    be partial; its statistics cover only the rows it holds.
    """
    n = times.size
    edges = np.arange(0, n, factor, dtype=np.int64)
    counts = np.diff(np.append(edges, n)).astype(float)
    t_mean = np.add.reduceat(times, edges) / counts
    mins = np.minimum.reduceat(values, edges, axis=0)
    means = np.add.reduceat(values, edges, axis=0) / counts[:, None]
    maxs = np.maximum.reduceat(values, edges, axis=0)
    any_marker = np.maximum.reduceat(markers.astype(np.uint8), edges).astype(bool)
    return t_mean, mins, means, maxs, any_marker


def encode_segment(
    times: np.ndarray,
    values: np.ndarray,
    markers: np.ndarray,
    *,
    columns: list[int],
    enabled: np.ndarray,
    tier_factors: tuple[int, ...] = DEFAULT_TIER_FACTORS,
    sample_rate: float = 0.0,
    device: str | None = None,
    pair_names: list[str] | None = None,
) -> bytes:
    """Encode raw rows into one sealed segment file image.

    ``values`` is ``(n, len(columns))``: only the stored sensor columns,
    in ``columns`` order (the query layer reconstructs the full sensor
    width with zeros for the rest).
    """
    n = int(times.size)
    if n == 0:
        raise StoreError("cannot seal an empty segment")
    if values.shape != (n, len(columns)):
        raise StoreError(
            f"values shape {values.shape} does not match {n} rows x "
            f"{len(columns)} columns"
        )
    layout = _Layout(len(SEGMENT_MAGIC))
    tiers_meta: list[dict] = []

    def put_cols(matrix: np.ndarray) -> list[int]:
        return [
            layout.put(np.ascontiguousarray(matrix[:, j], dtype=_F8).tobytes())
            for j in range(matrix.shape[1])
        ]

    def seal_region(tier: dict, start: int, first_part: int) -> dict:
        # Each tier's contiguous byte region carries its own CRC so a
        # reader verifies only the tiers it actually serves from.
        tier["start"] = start
        tier["end"] = layout.offset
        tier["crc"] = zlib.crc32(b"".join(layout.parts[first_part:])) & 0xFFFFFFFF
        return tier

    start, first = layout.offset, len(layout.parts)
    tiers_meta.append(
        seal_region(
            {
                "factor": 1,
                "n": n,
                "times": layout.put(np.ascontiguousarray(times, dtype=_F8).tobytes()),
                "values": put_cols(values),
                "markers": layout.put(
                    np.packbits(np.asarray(markers, dtype=bool)).tobytes()
                ),
            },
            start,
            first,
        )
    )
    for factor in tier_factors:
        t_mean, mins, means, maxs, any_marker = compute_tier(
            times, values, markers, factor
        )
        start, first = layout.offset, len(layout.parts)
        tiers_meta.append(
            seal_region(
                {
                    "factor": int(factor),
                    "n": int(t_mean.size),
                    "times": layout.put(
                        np.ascontiguousarray(t_mean, dtype=_F8).tobytes()
                    ),
                    "min": put_cols(mins),
                    "mean": put_cols(means),
                    "max": put_cols(maxs),
                    "markers": layout.put(np.packbits(any_marker).tobytes()),
                },
                start,
                first,
            )
        )

    meta = {
        "version": FORMAT_VERSION,
        "n": n,
        "t0": float(times[0]),
        "t1": float(times[-1]),
        "sample_rate": float(sample_rate),
        "device": device,
        "pair_names": list(pair_names or []),
        "enabled": [bool(e) for e in np.asarray(enabled, dtype=bool)],
        "columns": [int(c) for c in columns],
        "tiers": tiers_meta,
    }
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    body = b"".join([SEGMENT_MAGIC, *layout.parts, meta_bytes])
    crc = zlib.crc32(meta_bytes + struct.pack("<I", len(meta_bytes))) & 0xFFFFFFFF
    return body + _FOOTER.pack(len(meta_bytes), crc) + SEGMENT_TAIL


class SealedSegment:
    """A memory-mapped sealed segment with lazily CRC-verified tiers.

    Opening validates the structure (magic, tail, footer, the meta CRC
    and every array offset) in O(meta); each tier's data region is
    verified against its own CRC the first time it is read, so a tiered
    query over a multi-hundred-megabyte segment touches — and checksums
    — only the bytes of the coarse tier it serves.  A read from a
    damaged region raises :class:`StoreError` before any row escapes.
    Column arrays are exposed as zero-copy views into the mapping;
    callers must copy any slice that outlives :meth:`close`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = open(self.path, "rb")
        try:
            import mmap

            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as error:  # zero-byte or unmappable file
            self._file.close()
            raise StoreError(f"segment {self.path} cannot be mapped: {error}") from error
        try:
            self.meta = self._validate()
        except StoreError:
            self.close()
            raise
        self.n = int(self.meta["n"])
        self.t0 = float(self.meta["t0"])
        self.t1 = float(self.meta["t1"])
        self.columns: list[int] = [int(c) for c in self.meta["columns"]]
        self.enabled = np.asarray(self.meta["enabled"], dtype=bool)
        self.sample_rate = float(self.meta.get("sample_rate", 0.0))
        self.device = self.meta.get("device")
        self.pair_names: list[str] = list(self.meta.get("pair_names", []))
        self._tiers = {int(t["factor"]): t for t in self.meta["tiers"]}
        self._verified: set[int] = set()

    def _validate(self) -> dict:
        mm = self._mm
        size = len(mm)
        floor = len(SEGMENT_MAGIC) + _FOOTER.size + len(SEGMENT_TAIL)
        if size < floor:
            raise StoreError(f"segment {self.path} is truncated ({size} bytes)")
        if mm[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            raise StoreError(f"segment {self.path} has a bad magic")
        if mm[size - len(SEGMENT_TAIL) :] != SEGMENT_TAIL:
            raise StoreError(f"segment {self.path} has a bad tail magic")
        meta_len, crc = _FOOTER.unpack_from(mm, size - floor + len(SEGMENT_MAGIC))
        meta_start = size - floor + len(SEGMENT_MAGIC) - meta_len
        if meta_len <= 0 or meta_start < len(SEGMENT_MAGIC):
            raise StoreError(f"segment {self.path} has an implausible meta length")
        meta_bytes = bytes(mm[meta_start : meta_start + meta_len])
        covered = meta_bytes + struct.pack("<I", meta_len)
        if zlib.crc32(covered) & 0xFFFFFFFF != crc:
            raise StoreError(f"segment {self.path} failed its meta CRC check")
        try:
            meta = json.loads(meta_bytes)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise StoreError(f"segment {self.path} has unreadable meta: {error}") from error
        if meta.get("version") != FORMAT_VERSION:
            raise StoreError(
                f"segment {self.path} has format version {meta.get('version')!r}, "
                f"expected {FORMAT_VERSION}"
            )
        # The meta CRC proves the index is intact; the offset bounds
        # prove it was written for a file of this size, not grafted from
        # another.  Tier data is CRC-verified lazily, on first read.
        for tier in meta.get("tiers", []):
            rows = int(tier["n"])
            offsets = [tier["times"], tier["markers"]]
            for key in ("values", "min", "mean", "max"):
                offsets.extend(tier.get(key, []))
            for off in offsets:
                if not len(SEGMENT_MAGIC) <= int(off) <= meta_start:
                    raise StoreError(
                        f"segment {self.path} has an out-of-range array offset"
                    )
            if int(tier["times"]) + 8 * rows > meta_start:
                raise StoreError(f"segment {self.path} has an oversized tier")
            region_ok = (
                len(SEGMENT_MAGIC) <= int(tier.get("start", -1))
                and int(tier["start"]) <= int(tier.get("end", -1))
                and int(tier["end"]) <= meta_start
                and isinstance(tier.get("crc"), int)
            )
            if not region_ok:
                raise StoreError(f"segment {self.path} has a malformed tier region")
        return meta

    @property
    def nbytes(self) -> int:
        return len(self._mm)

    @property
    def tier_factors(self) -> list[int]:
        return sorted(self._tiers)

    def _f8(self, offset: int, count: int) -> np.ndarray:
        return np.frombuffer(self._mm, dtype=_F8, count=count, offset=int(offset))

    def _bits(self, offset: int, total: int, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return np.zeros(0, dtype=bool)
        b0, b1 = lo // 8, _packed_len(hi)
        raw = np.frombuffer(self._mm, dtype=np.uint8, count=b1 - b0, offset=int(offset) + b0)
        return np.unpackbits(raw)[lo - 8 * b0 : hi - 8 * b0].astype(bool)

    def times(self, factor: int = 1) -> np.ndarray:
        tier = self._tiers[factor]
        return self._f8(tier["times"], tier["n"])

    def search(self, t: float, side: str = "left", factor: int = 1) -> int:
        return int(np.searchsorted(self.times(factor), t, side=side))

    def tier_region(self, factor: int) -> tuple[int, int]:
        """The tier's contiguous byte range ``[start, end)`` in the file."""
        tier = self._tiers[factor]
        return int(tier["start"]), int(tier["end"])

    def verify_tier(self, factor: int) -> None:
        """Check a tier's region CRC (once; later calls are free).

        Raises :class:`StoreError` on a mismatch.  Reads call this
        before returning any data, so corruption in the mapped file is
        detected before a single damaged row escapes.
        """
        if factor in self._verified:
            return
        tier = self._tiers[factor]
        region = memoryview(self._mm)[int(tier["start"]) : int(tier["end"])]
        try:
            ok = zlib.crc32(region) & 0xFFFFFFFF == int(tier["crc"])
        finally:
            region.release()  # a live export would make mmap.close() raise
        if not ok:
            raise StoreError(
                f"segment {self.path} failed the tier {factor} data CRC check"
            )
        self._verified.add(factor)

    def read_raw(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``[lo, hi)`` of tier 1: (times, values ``(k, n_cols)``, markers)."""
        self.verify_tier(1)
        tier = self._tiers[1]
        k = max(hi - lo, 0)
        values = np.empty((k, len(self.columns)))
        for j, off in enumerate(tier["values"]):
            values[:, j] = self._f8(off + 8 * lo, k)
        return (
            self._f8(tier["times"] + 8 * lo, k).copy(),
            values,
            self._bits(tier["markers"], tier["n"], lo, hi),
        )

    def read_tier(
        self, factor: int, lo: int = 0, hi: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Buckets ``[lo, hi)`` of a coarse tier: (times, min, mean, max, markers)."""
        self.verify_tier(factor)
        tier = self._tiers[factor]
        if hi is None:
            hi = int(tier["n"])
        k = max(hi - lo, 0)

        def cols(key: str) -> np.ndarray:
            out = np.empty((k, len(self.columns)))
            for j, off in enumerate(tier[key]):
                out[:, j] = self._f8(off + 8 * lo, k)
            return out

        return (
            self._f8(tier["times"] + 8 * lo, k).copy(),
            cols("min"),
            cols("mean"),
            cols("max"),
            self._bits(tier["markers"], tier["n"], lo, hi),
        )

    def close(self) -> None:
        if not self._mm.closed:
            self._mm.close()
        if not self._file.closed:
            self._file.close()


# --------------------------------------------------------------------- #
# The active journal                                                    #
# --------------------------------------------------------------------- #


def encode_journal_header(header: dict) -> bytes:
    """The journal preamble: magic, then a CRC'd JSON header."""
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return JOURNAL_MAGIC + _JHEAD.pack(len(payload), zlib.crc32(payload)) + payload


def encode_journal_chunk(
    times: np.ndarray, values: np.ndarray, markers: np.ndarray
) -> bytes:
    """One self-delimiting chunk: row count, payload CRC, then the rows.

    The payload is row-major (times, then the ``(n, n_cols)`` value
    matrix, then packed marker bits) — a write-ahead layout optimised
    for appending whole blocks, not for querying; seal time transposes
    into the columnar segment form.
    """
    n = int(times.size)
    payload = b"".join(
        (
            np.ascontiguousarray(times, dtype=_F8).tobytes(),
            np.ascontiguousarray(values, dtype=_F8).tobytes(),
            np.packbits(np.asarray(markers, dtype=bool)).tobytes(),
        )
    )
    return _JCHUNK.pack(n, zlib.crc32(payload)) + payload


def read_journal(
    path: str | Path,
) -> tuple[dict | None, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Recover a journal: the longest valid prefix of its chunks.

    Returns ``(header, times, values, markers, damaged)``.  ``header``
    is ``None`` when the preamble itself is unreadable (nothing can be
    salvaged); ``damaged`` is True whenever any byte of the file had to
    be discarded — a truncated or bit-flipped tail, a trailing partial
    chunk, or garbage after the last valid chunk.
    """
    raw = Path(path).read_bytes()
    empty = (np.zeros(0), np.zeros((0, 0)), np.zeros(0, dtype=bool))
    base = len(JOURNAL_MAGIC) + _JHEAD.size
    if len(raw) < base or raw[: len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        return (None, *empty, True)
    hlen, hcrc = _JHEAD.unpack_from(raw, len(JOURNAL_MAGIC))
    if hlen <= 0 or base + hlen > len(raw):
        return (None, *empty, True)
    hbytes = raw[base : base + hlen]
    if zlib.crc32(hbytes) != hcrc:
        return (None, *empty, True)
    try:
        header = json.loads(hbytes)
        columns = [int(c) for c in header["columns"]]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError):
        return (None, *empty, True)

    n_cols = len(columns)
    times_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    marker_parts: list[np.ndarray] = []
    offset = base + hlen
    damaged = False
    while offset < len(raw):
        if offset + _JCHUNK.size > len(raw):
            damaged = True
            break
        rows, crc = _JCHUNK.unpack_from(raw, offset)
        payload_len = 8 * rows * (1 + n_cols) + _packed_len(rows)
        start = offset + _JCHUNK.size
        if rows == 0 or start + payload_len > len(raw):
            damaged = True
            break
        payload = raw[start : start + payload_len]
        if zlib.crc32(payload) != crc:
            damaged = True
            break
        times_parts.append(np.frombuffer(payload, dtype=_F8, count=rows))
        value_parts.append(
            np.frombuffer(payload, dtype=_F8, count=rows * n_cols, offset=8 * rows)
            .reshape(rows, n_cols)
            .copy()
        )
        marker_parts.append(
            np.unpackbits(
                np.frombuffer(payload, dtype=np.uint8, offset=8 * rows * (1 + n_cols)),
                count=rows,
            ).astype(bool)
        )
        offset = start + payload_len
    if not times_parts:
        return (header, np.zeros(0), np.zeros((0, n_cols)), empty[2], damaged)
    return (
        header,
        np.concatenate(times_parts),
        np.vstack(value_parts),
        np.concatenate(marker_parts),
        damaged,
    )
