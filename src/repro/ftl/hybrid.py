"""Hybrid page/group FTL with a delta-encoded journal.

Pages map at page granularity (host writes land wherever the write
pointer sits, like the page policy), but the *representation* is
hierarchical: one base PPN per fixed-size group plus a journal of
per-page deltas for pages that deviate from ``base + offset``.  Semi-
sequential traffic (small gaps, short strides) keeps deltas sparse and
the map tiny; scattered overwrites grow the journal.  When a group's
journal exceeds ``compact_threshold`` deviating pages, the policy
rewrites the group's live pages contiguously — journal *compaction* —
paying internal writes to reset its deltas to zero.

Compaction is the hybrid's merge traffic: cheaper than the group
policy's every-write merges (it amortises over many writes) but not
free like the page policy, landing its write amplification between the
two.
"""

from __future__ import annotations

import numpy as np

from repro.ftl.base import (
    DELTA_ENTRY_BYTES,
    GROUP_ENTRY_BYTES,
    INVALID,
    FtlPolicy,
    _require_group_pages,
    _sorted_unique,
)


class HybridDeltaFtl(FtlPolicy):
    """Page map plus delta-encoded journal with threshold compaction."""

    name = "hybrid"

    def __init__(
        self, spec, group_pages: int = 16, compact_threshold: int | None = None
    ) -> None:
        self.group_pages = _require_group_pages(spec, group_pages)
        if compact_threshold is None:
            compact_threshold = self.group_pages // 2
        if not 1 <= compact_threshold <= self.group_pages:
            raise ValueError("compact_threshold must be in 1..group_pages")
        self.compact_threshold = int(compact_threshold)
        super().__init__(spec)

    @property
    def n_groups(self) -> int:
        return -(-self.spec.logical_pages // self.group_pages)

    def _group_members(self, grp: int) -> np.ndarray:
        base = grp * self.group_pages
        return np.arange(
            base,
            min(base + self.group_pages, self.spec.logical_pages),
            dtype=np.int64,
        )

    def _group_deltas(self, members: np.ndarray) -> int:
        """Pages of one group whose PPN deviates from base + offset.

        The base is anchored at the group's first mapped page, as the
        journal would store it; unmapped pages carry no delta entry.
        """
        phys = self.l2p[members]
        mapped = phys != INVALID
        if not np.any(mapped):
            return 0
        offsets = members - members[0]
        implied = phys - offsets
        base = implied[mapped][0]
        return int(np.count_nonzero(mapped & (implied != base)))

    def _host_write(self, lpns: np.ndarray) -> None:
        self._program(lpns)
        # Threshold compaction on the groups this write touched.  A
        # compaction's own programs never re-enter here (only host writes
        # do), so one pass over the touched set terminates.
        for grp in _sorted_unique(lpns // self.group_pages):
            members = self._group_members(int(grp))
            if self._group_deltas(members) < self.compact_threshold:
                continue
            live = members[self.l2p[members] != INVALID]
            self._program(live)
            self.counters.merge_pages_relocated += int(live.size)

    def _gc_live_order(self, live_lpns: np.ndarray) -> np.ndarray:
        # LPN order lays groups back down with zero deltas.
        return np.sort(live_lpns)

    def _journal_entries(self) -> int:
        g = self.group_pages
        n = self.n_groups * g
        padded = np.full(n, INVALID, dtype=np.int64)
        padded[: self.spec.logical_pages] = self.l2p
        grid = padded.reshape(self.n_groups, g)
        mapped = grid != INVALID
        implied = np.where(mapped, grid - np.arange(g, dtype=np.int64)[None, :], 0)
        # Base per group = implied PPN of the first mapped page.
        first = np.argmax(mapped, axis=1)
        base = implied[np.arange(self.n_groups), first]
        deltas = mapped & (implied != base[:, None])
        # Groups with no mapped page contribute nothing (argmax returned 0).
        deltas[~mapped.any(axis=1)] = False
        return int(np.count_nonzero(deltas))

    def map_bytes(self) -> int:
        return (
            self.n_groups * GROUP_ENTRY_BYTES
            + self._journal_entries() * DELTA_ENTRY_BYTES
        )

    def lookup_cost(self, n_pages: int) -> int:
        # Base-table index plus a journal probe per page.
        return 2 * n_pages
