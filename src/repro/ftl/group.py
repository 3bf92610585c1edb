"""GFTL-style group mapping: coarse entries, partial-page merge traffic.

The map stores one base entry per *group* of consecutive logical pages
plus a per-group validity bitmap — orders of magnitude smaller than a
page table.  The price is that a group must live contiguously in flash:
a host write that touches only part of a group forces the policy to
read-modify-write the group's remaining live pages alongside it (a
partial-page merge).  Random small writes therefore pay up to
``group_pages``x write amplification before GC even starts, while
sequential group-aligned writes pay nothing — the classic coarse-mapping
trade-off the JNU FTL study measures.

Placement contiguity is best-effort at erase-block boundaries: a group
whose rewrite straddles blocks (or whose pages GC scattered) cannot be
expressed as base+offset and falls back to per-page *overflow* entries,
which :meth:`map_bytes` charges honestly.
"""

from __future__ import annotations

import numpy as np

from repro.ftl.base import (
    GROUP_ENTRY_BYTES,
    INVALID,
    PAGE_ENTRY_BYTES,
    FtlPolicy,
    _require_group_pages,
    _sorted_unique,
)


class GroupMapFtl(FtlPolicy):
    """Block-group mapping with partial-page merges."""

    name = "group"

    def __init__(self, spec, group_pages: int = 16) -> None:
        self.group_pages = _require_group_pages(spec, group_pages)
        super().__init__(spec)

    @property
    def n_groups(self) -> int:
        return -(-self.spec.logical_pages // self.group_pages)

    def _host_write(self, lpns: np.ndarray) -> None:
        # Rewrite every touched group's surviving contents contiguously, in
        # group order: the host's new pages plus the untouched live pages
        # each group must drag along (the merge).  One pass programs them
        # all, exactly as a group-by-group walk would: the groups are
        # disjoint, and GC moves live pages but never unmaps one, so the
        # live mask taken up front is the one each group would see.
        g = self.group_pages
        host = _sorted_unique(lpns)
        groups = _sorted_unique(host // g)
        members = (groups[:, None] * g + np.arange(g, dtype=np.int64)).ravel()
        members = members[members < self.spec.logical_pages]
        host_mask = np.zeros(members.size, dtype=bool)
        host_mask[np.searchsorted(members, host)] = True
        merge_mask = (self.l2p[members] != INVALID) & ~host_mask
        self._program(members[host_mask | merge_mask])
        self.counters.merge_pages_relocated += int(np.count_nonzero(merge_mask))

    def _gc_live_order(self, live_lpns: np.ndarray) -> np.ndarray:
        # Relocate in LPN order so a victim's groups land contiguously
        # again instead of in historical-write order.
        return np.sort(live_lpns)

    def _contiguous_groups(self) -> np.ndarray:
        """Boolean mask per group: representable as base + offset?"""
        g = self.group_pages
        n = self.n_groups * g
        padded = np.full(n, INVALID, dtype=np.int64)
        padded[: self.spec.logical_pages] = self.l2p
        grid = padded.reshape(self.n_groups, g)
        offsets = np.arange(g, dtype=np.int64)[None, :]
        mapped = grid != INVALID
        # Base PPN implied by each mapped page; a contiguous group has one
        # distinct implied base across its mapped pages.
        implied = np.where(mapped, grid - offsets, INVALID)
        lo = np.where(mapped, implied, np.iinfo(np.int64).max).min(axis=1)
        hi = implied.max(axis=1)
        has_mapped = mapped.any(axis=1)
        return has_mapped & (lo == hi)

    def map_bytes(self) -> int:
        bitmap_bytes = -(-self.group_pages // 8)
        table = self.n_groups * (GROUP_ENTRY_BYTES + bitmap_bytes)
        contiguous = self._contiguous_groups()
        g = self.group_pages
        n = self.n_groups * g
        padded = np.full(n, INVALID, dtype=np.int64)
        padded[: self.spec.logical_pages] = self.l2p
        mapped = (padded != INVALID).reshape(self.n_groups, g)
        overflow_pages = int(mapped[~contiguous].sum())
        return table + overflow_pages * PAGE_ENTRY_BYTES

    def lookup_cost(self, n_pages: int) -> int:
        # Group entry + bitmap probe per page.
        return 2 * n_pages
