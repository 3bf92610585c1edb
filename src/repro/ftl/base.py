"""The FTL strategy interface.

The mapping logic that used to live inside :class:`repro.dut.ssd.Ssd`
is a *policy*: how logical pages map to physical ones decides the
mapping-table footprint, the lookup overhead, and — through merges and
garbage collection — the write amplification that shapes the Fig. 12b
bandwidth variability.  :class:`FtlPolicy` owns the canonical page-level
state (L2P/P2L arrays, per-block valid counts, the free-block pool and
the greedy GC loop) so every policy shares one set of structural
invariants and produces identical *host-visible* contents; subclasses
specialise three axes:

* **host-write expansion** (:meth:`_host_write`) — e.g. group mapping
  rewrites whole groups, paying partial-page merges;
* **GC relocation order** (:meth:`_gc_live_order`) — e.g. the
  run-length-compressed policy relocates in LPN order to preserve runs;
* **accounting** (:meth:`map_bytes`, :meth:`lookup_cost`) — what the
  mapping structure would cost in DRAM and per-translation work.

The canonical arrays are the simulation's ground truth for *placement*;
``map_bytes()`` reports what the policy's own representation of that
placement would occupy, computed honestly from the current mapping (a
run that fragments costs more entries; a group that no longer sits
contiguously pays overflow entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, MeasurementError

INVALID = np.int64(-1)

#: Bytes per entry of the flat page-level L2P table (32-bit PPN).
PAGE_ENTRY_BYTES = 4
#: Bytes per run-length extent: (lpn_start, ppn_start, length).
RUN_ENTRY_BYTES = 12
#: Bytes per group base entry (base PPN + state bits).
GROUP_ENTRY_BYTES = 4
#: Bytes per delta-journal entry (page index in group + signed delta).
DELTA_ENTRY_BYTES = 3


@dataclass
class FtlCounters:
    """Cumulative FTL activity counters.

    ``merge_pages_relocated`` are internal rewrites a policy pays to keep
    its mapping representable (group merges, journal compaction); they
    are distinct from GC relocations but count toward write
    amplification exactly the same — the NAND backend cannot tell them
    apart.
    """

    host_pages_written: int = 0
    gc_pages_relocated: int = 0
    merge_pages_relocated: int = 0
    blocks_erased: int = 0
    gc_runs: int = 0
    #: Modelled map-translation operations (reads through the policy).
    lookup_ops: int = 0

    @property
    def internal_pages_written(self) -> int:
        return self.gc_pages_relocated + self.merge_pages_relocated

    @property
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return (
            self.host_pages_written + self.internal_pages_written
        ) / self.host_pages_written


class FtlPolicy:
    """Abstract mapping strategy over the shared flash geometry."""

    #: Registry key and metrics label; subclasses override.
    name = "abstract"

    def __init__(self, spec) -> None:
        self.spec = spec
        self.counters = FtlCounters()
        self._format()

    # ------------------------------------------------------------------ #
    # Canonical FTL state                                                #
    # ------------------------------------------------------------------ #

    def _format(self) -> None:
        spec = self.spec
        n_blocks = spec.n_blocks
        ppb = spec.pages_per_block
        # GC starts below the low free-block watermark and runs up to the
        # high one; the spec is frozen, so both are fixed here.
        self._gc_low = max(int(n_blocks * spec.gc_low_watermark), 2)
        self._gc_high = max(int(n_blocks * spec.gc_high_watermark), self._gc_low)
        # Logical -> physical page number; physical -> logical (INVALID = free/stale).
        self.l2p = np.full(spec.logical_pages, INVALID, dtype=np.int64)
        self.p2l = np.full(n_blocks * ppb, INVALID, dtype=np.int64)
        self.valid_count = np.zeros(n_blocks, dtype=np.int64)
        self.block_state = np.zeros(n_blocks, dtype=np.int8)  # 0 free, 1 open, 2 full
        # Added to valid_count for the GC victim search: 0 for a full
        # block, pages_per_block for a free or open one.
        self._gc_penalty = np.full(n_blocks, ppb, dtype=np.int64)
        self._free_blocks = list(range(n_blocks - 1, 0, -1))
        self._active_block = 0
        self.block_state[0] = 1
        self._write_ptr = 0
        self._in_gc = False
        self.counters = FtlCounters()

    def format(self) -> None:
        """NVMe format: drop all mappings and reset the counters."""
        self._format()

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    @property
    def mapped_pages(self) -> int:
        return int(np.count_nonzero(self.l2p != INVALID))

    def check_invariants(self) -> None:
        """Structural FTL invariants, shared by every policy."""
        spec = self.spec
        if int(self.valid_count.sum()) != self.mapped_pages:
            raise MeasurementError("valid-page accounting out of sync with L2P")
        if np.any(self.valid_count < 0) or np.any(
            self.valid_count > spec.pages_per_block
        ):
            raise MeasurementError("per-block valid count out of range")
        mapped = self.l2p[self.l2p != INVALID]
        if mapped.size != np.unique(mapped).size:
            raise MeasurementError("two logical pages map to one physical page")
        back = self.p2l[mapped]
        expect = np.flatnonzero(self.l2p != INVALID)
        if not np.array_equal(np.sort(back), np.sort(expect)):
            raise MeasurementError("P2L back-pointers inconsistent with L2P")
        programmed = self.p2l.reshape(spec.n_blocks, spec.pages_per_block) != INVALID
        if int(np.count_nonzero(programmed)) != mapped.size:
            raise MeasurementError("P2L holds back-pointers beyond the mapped pages")
        if not np.array_equal(programmed.sum(axis=1), self.valid_count):
            raise MeasurementError("per-block valid count disagrees with P2L")
        free = np.asarray(self._free_blocks, dtype=np.int64)
        if np.unique(free).size != free.size:
            raise MeasurementError("a block sits in the free pool twice")
        if np.count_nonzero(self.block_state == 0) != free.size:
            raise MeasurementError("the free pool is not the set of free blocks")
        if (
            np.any(self.block_state[free] != 0)
            or np.any(self.valid_count[free] != 0)
            or np.any(programmed[free])
        ):
            raise MeasurementError("a free block is not erased")
        if not np.array_equal(
            np.flatnonzero(self.block_state == 1), [self._active_block]
        ):
            raise MeasurementError("the active block is not the one open block")
        if np.any(programmed[self._active_block, self._write_ptr :]):
            raise MeasurementError("the active block is programmed past its write pointer")
        full_key = np.where(self.block_state == 2, 0, spec.pages_per_block)
        if not np.array_equal(self._gc_penalty, full_key):
            raise MeasurementError("the GC victim key disagrees with the block states")
        if self.map_bytes() < 0:
            raise MeasurementError("mapping-table footprint went negative")

    # ------------------------------------------------------------------ #
    # Host-facing operations                                             #
    # ------------------------------------------------------------------ #

    def write_pages(self, lpns: np.ndarray) -> int:
        """Program logical pages (host write); returns internal page
        programs incurred (GC relocations plus policy merges).

        Duplicate LPNs within one call are allowed; later entries win,
        exactly as sequential writes to the same sector would.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        if lpns.size == 0:
            return 0
        if np.any((lpns < 0) | (lpns >= self.spec.logical_pages)):
            raise MeasurementError("LPN out of logical range")
        before = self.counters.internal_pages_written
        self._host_write(lpns)
        self.counters.host_pages_written += int(lpns.size)
        return self.counters.internal_pages_written - before

    def trim(self, lpns: np.ndarray) -> int:
        """NVMe Deallocate (TRIM): drop mappings; returns pages deallocated."""
        lpns = _sorted_unique(np.asarray(lpns, dtype=np.int64))
        if lpns.size == 0:
            return 0
        if np.any((lpns < 0) | (lpns >= self.spec.logical_pages)):
            raise MeasurementError("LPN out of logical range")
        phys = self.l2p[lpns]
        live = phys != INVALID
        if not np.any(live):
            return 0
        live_phys = phys[live]
        self.p2l[live_phys] = INVALID
        np.subtract.at(
            self.valid_count, live_phys // self.spec.pages_per_block, 1
        )
        self.l2p[lpns[live]] = INVALID
        return int(np.count_nonzero(live))

    def translate(self, lpns: np.ndarray) -> np.ndarray:
        """L2P lookup for a read, with lookup-overhead accounting.

        Returns the physical page numbers (INVALID for unmapped pages)
        and charges the policy's modelled per-page translation cost to
        ``counters.lookup_ops``.
        """
        lpns = np.asarray(lpns, dtype=np.int64)
        if lpns.size and np.any((lpns < 0) | (lpns >= self.spec.logical_pages)):
            raise MeasurementError("LPN out of logical range")
        self.counters.lookup_ops += self.lookup_cost(int(lpns.size))
        return self.l2p[lpns]

    # ------------------------------------------------------------------ #
    # Policy hooks                                                       #
    # ------------------------------------------------------------------ #

    def _host_write(self, lpns: np.ndarray) -> None:
        """Default: program exactly the host pages (pure page mapping)."""
        self._program(lpns)

    def _gc_live_order(self, live_lpns: np.ndarray) -> np.ndarray:
        """Order in which GC relocates a victim's live pages.

        The default preserves physical scan order — the pre-refactor
        behaviour, pinned bit-identical for the page policy.
        """
        return live_lpns

    def map_bytes(self) -> int:
        """Current DRAM footprint of the policy's mapping structure."""
        raise NotImplementedError

    def lookup_cost(self, n_pages: int) -> int:
        """Modelled translation operations for an ``n_pages`` read."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared program / GC machinery                                      #
    # ------------------------------------------------------------------ #

    def _program(self, lpns: np.ndarray) -> None:
        ppb = self.spec.pages_per_block
        offset = 0
        while offset < lpns.size:
            room = ppb - self._write_ptr
            if room == 0:
                self._open_new_block()
                continue
            chunk = lpns[offset : offset + room]
            self._program_into_active(chunk)
            offset += chunk.size

    def _program_into_active(self, lpns: np.ndarray) -> None:
        n = lpns.size
        active = self._active_block
        start = active * self.spec.pages_per_block + self._write_ptr
        stop = start + n
        positions = np.arange(start, stop, dtype=np.int64)
        if self._in_gc:
            # A GC relocation: distinct LPNs whose only copies lay in the
            # victim, erased before its survivors were handed here, so
            # there is no old copy to invalidate and no duplicate to go
            # stale.
            self.p2l[start:stop] = lpns
            self.l2p[lpns] = positions
            self.valid_count[active] += n
            self._write_ptr += n
            return
        old = self.l2p[lpns]
        self.p2l[start:stop] = lpns
        self.l2p[lpns] = positions  # duplicate lpns: numpy keeps the last write
        # Last occurrence of each lpn wins: the earlier positions of a
        # repeated lpn no longer hold its mapping.
        stale = self.l2p[lpns] != positions
        live = old != INVALID
        if stale.any():
            self.p2l[start:stop][stale] = INVALID
            # A repeated lpn repeats its old page; invalidate it once.
            live &= ~stale
        if live.any():
            # Old copies lie behind the write pointer, never in this chunk.
            old = old[live]
            self.p2l[old] = INVALID
            np.subtract.at(self.valid_count, old // self.spec.pages_per_block, 1)
        self.valid_count[active] += n - int(np.count_nonzero(stale))
        self._write_ptr += n

    def _open_new_block(self) -> None:
        full = self._active_block
        self.block_state[full] = 2
        self._gc_penalty[full] = 0
        if not self._free_blocks and not self._collect_one():
            raise MeasurementError("FTL ran out of free blocks (GC starvation)")
        self._active_block = self._free_blocks.pop()
        self.block_state[self._active_block] = 1
        self._write_ptr = 0
        self._maybe_collect()

    def _maybe_collect(self) -> None:
        # Relocations already run under an outer collection loop.
        if self._in_gc or len(self._free_blocks) >= self._gc_low:
            return
        while len(self._free_blocks) < self._gc_high and self._collect_one():
            pass

    def _collect_one(self) -> bool:
        """Greedy GC: relocate the fullest-of-stale block; returns success."""
        ppb = self.spec.pages_per_block
        # Only a full block keys below pages_per_block, so the first
        # minimum is the lowest-numbered full block with the fewest valid
        # pages, and a minimum of pages_per_block or more means no full
        # block holds a stale page.
        key = self.valid_count + self._gc_penalty
        victim = int(key.argmin())
        if key[victim] >= ppb:
            return False  # nothing reclaimable anywhere
        block = self.p2l[victim * ppb : (victim + 1) * ppb]
        live_lpns = block[block != INVALID]
        # Erase first (the mappings move, so clear victim bookkeeping), then
        # re-program the survivors through the normal write path.
        block.fill(INVALID)
        self.valid_count[victim] = 0
        self.block_state[victim] = 0
        self._gc_penalty[victim] = ppb
        self._free_blocks.insert(0, victim)
        self.counters.blocks_erased += 1
        self.counters.gc_runs += 1
        if live_lpns.size:
            live_lpns = self._gc_live_order(live_lpns)
            # Their L2P entries point into the erased block until _program
            # maps them again; nothing reads them in between.
            was_in_gc = self._in_gc
            self._in_gc = True
            try:
                self._program(live_lpns)
            finally:
                self._in_gc = was_in_gc
            self.counters.gc_pages_relocated += int(live_lpns.size)
        return True


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, by sort and compare.

    numpy 2's ``np.unique`` hashes integer input, which costs several
    times a sort on the LPN batches of the write and trim paths.
    """
    out = np.sort(values, axis=None)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _require_group_pages(spec, group_pages: int) -> int:
    """Validate a group size against the flash geometry."""
    group_pages = int(group_pages)
    if group_pages < 2:
        raise ConfigurationError("group_pages must be >= 2")
    if spec.pages_per_block % group_pages != 0:
        raise ConfigurationError(
            f"group_pages={group_pages} must divide "
            f"pages_per_block={spec.pages_per_block}"
        )
    return group_pages
