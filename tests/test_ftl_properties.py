"""Property-based FTL tests: invariants and cross-policy equivalence.

Hypothesis drives randomized write / overwrite / trim / format sequences
through all four mapping policies at once.  After every step each policy
must satisfy its structural invariants, and at the end all policies must
agree with a trivial reference model (a dict of mapped logical pages) —
the host sees the same logical contents no matter the mapping scheme;
only write amplification and table footprint differ.

The group policy programs a host write in one pass over all the groups
it touches; an oracle subclass keeps the group-by-group walk, and every
batch must leave both in the same state.

The shared program / GC loop pays a fixed handful of NumPy calls per
programmed chunk and per erased block; the chunk-wise code it replaced
survives here as an oracle mixin, and every policy must leave the same
state as its oracle twin after every batch, on drives whose garbage
collection frees one block per trigger and on one that frees several.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import MeasurementError
from repro.common.units import KIB, MIB
from repro.dut.ssd import Ssd, SsdSpec
from repro.ftl import FTL_POLICIES, INVALID, FtlPolicy, GroupMapFtl
from repro.ftl.base import _sorted_unique

SPEC = SsdSpec(logical_bytes=8 * MIB)
N_PAGES = SPEC.logical_pages

#: One FTL operation: (op, seed-ish payload).
_ops = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(0, 2**32 - 1),
        st.integers(1, 1024),
    ),
    st.tuples(
        st.just("seq_write"),
        st.integers(0, N_PAGES - 1),
        st.integers(1, 512),
    ),
    st.tuples(
        st.just("trim"),
        st.integers(0, 2**32 - 1),
        st.integers(1, 512),
    ),
    st.tuples(st.just("format"), st.just(0), st.just(0)),
)


def _lpns_for(op: str, seed: int, count: int, n_pages: int = N_PAGES) -> np.ndarray:
    if op == "seq_write":  # wraps past the last page
        return (seed + np.arange(count, dtype=np.int64)) % n_pages
    rng = np.random.default_rng(seed)
    lpns = rng.integers(0, n_pages, size=count, dtype=np.int64)
    if op == "dup_write":  # every LPN several times, interleaved
        lpns = rng.permutation(np.repeat(lpns, 4))
    return lpns


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(_ops, min_size=1, max_size=12))
def test_policies_hold_invariants_and_agree(ops):
    ssds = {name: Ssd(SPEC, ftl=name) for name in FTL_POLICIES}
    model: set[int] = set()

    for op, seed, count in ops:
        if op == "format":
            for ssd in ssds.values():
                ssd.format()
                ssd.check_invariants()
            model.clear()
            continue
        lpns = _lpns_for(op, seed, count)
        if op == "trim":
            dropped = {ssd.trim(lpns) for ssd in ssds.values()}
            assert len(dropped) == 1, "policies disagree on pages trimmed"
            model -= set(lpns.tolist())
        else:
            for ssd in ssds.values():
                ssd.write_pages(lpns)
            model |= set(lpns.tolist())
        for ssd in ssds.values():
            ssd.check_invariants()

    reference = np.zeros(N_PAGES, dtype=bool)
    reference[list(model)] = True
    for name, ssd in ssds.items():
        mapped = ssd.l2p >= 0
        assert np.array_equal(mapped, reference), (
            f"{name}: host-visible contents diverged from the model"
        )
        assert ssd.mapped_pages == len(model)
        # Every mapped page reads back to itself through P2L.
        lpns = np.flatnonzero(mapped)
        assert np.array_equal(ssd.p2l[ssd.l2p[lpns]], lpns), name
        assert ssd.map_bytes() >= 0
        # Policy-specific WA may differ, but never below 1 once pages landed.
        if ssd.counters.host_pages_written:
            assert ssd.counters.write_amplification >= 1.0, name


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2048),
)
def test_duplicate_lpns_last_write_wins(seed, n):
    """Duplicates in one call behave like sequential rewrites everywhere."""
    rng = np.random.default_rng(seed)
    lpns = rng.integers(0, N_PAGES, size=n, dtype=np.int64)
    unique = np.unique(lpns)
    for name in FTL_POLICIES:
        ssd = Ssd(SPEC, ftl=name)
        ssd.write_pages(lpns)
        ssd.check_invariants()
        assert ssd.mapped_pages == unique.size, name
        assert np.array_equal(np.flatnonzero(ssd.l2p >= 0), unique), name


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.integers(-64, 64), max_size=300),
    rows=st.sampled_from([1, 2, 3]),
)
def test_sorted_unique_matches_np_unique(values, rows):
    """The write and trim paths' unique is ``np.unique``, array and dtype."""
    array = np.asarray(values, dtype=np.int64)
    array = array[: array.size - array.size % rows].reshape(rows, -1)
    got = _sorted_unique(array)
    want = np.unique(array)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("policy", sorted(FTL_POLICIES))
def test_sustained_churn_survives_gc_pressure(policy):
    """Writes well past the drive capacity force GC through every policy."""
    ssd = Ssd(SPEC, ftl=policy)
    rng = np.random.default_rng(11)
    ssd.write_pages(np.arange(N_PAGES, dtype=np.int64))
    for _ in range(30):
        ssd.write_pages(rng.integers(0, N_PAGES, size=2048, dtype=np.int64))
        ssd.check_invariants()
    assert ssd.counters.blocks_erased > 0
    assert ssd.counters.write_amplification >= 1.0
    assert ssd.mapped_pages == N_PAGES


# ---------------------------------------------------------------------- #
# The group policy's one-pass write against a group-by-group oracle      #
# ---------------------------------------------------------------------- #

#: 2053 logical pages: the last group is partial for every group size.
ORACLE_SPEC = SsdSpec(logical_bytes=8 * MIB + 20 * KIB)
ORACLE_PAGES = ORACLE_SPEC.logical_pages


class LoopGroupMapFtl(GroupMapFtl):
    """The group policy writing one touched group at a time."""

    def _host_write(self, lpns: np.ndarray) -> None:
        g = self.group_pages
        host_set = np.unique(lpns)
        for grp in np.unique(host_set // g):
            base = int(grp) * g
            members = np.arange(
                base, min(base + g, self.spec.logical_pages), dtype=np.int64
            )
            host_mask = np.isin(members, host_set)
            merge_mask = (self.l2p[members] != INVALID) & ~host_mask
            self._program(members[host_mask | merge_mask])
            self.counters.merge_pages_relocated += int(
                np.count_nonzero(merge_mask)
            )


_oracle_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 2**32 - 1), st.integers(1, 1024)),
    st.tuples(st.just("dup_write"), st.integers(0, 2**32 - 1), st.integers(1, 64)),
    st.tuples(
        st.just("seq_write"), st.integers(0, ORACLE_PAGES - 1), st.integers(1, 512)
    ),
    st.tuples(st.just("trim"), st.integers(0, 2**32 - 1), st.integers(1, 512)),
)


def _assert_same_state(fast: FtlPolicy, slow: FtlPolicy) -> None:
    assert fast.counters == slow.counters
    for name in ("l2p", "p2l", "valid_count", "block_state"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert fast._free_blocks == slow._free_blocks
    assert fast._active_block == slow._active_block
    assert fast._write_ptr == slow._write_ptr
    assert fast.map_bytes() == slow.map_bytes()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    group_pages=st.sampled_from([2, 4, 8, 16, 32]),
    ops=st.lists(_oracle_ops, min_size=1, max_size=8),
    churn_seed=st.integers(0, 2**32 - 1),
)
def test_group_write_matches_group_by_group_oracle(group_pages, ops, churn_seed):
    fast = GroupMapFtl(ORACLE_SPEC, group_pages)
    slow = LoopGroupMapFtl(ORACLE_SPEC, group_pages)
    for ftl in (fast, slow):
        ftl.write_pages(np.arange(ORACLE_PAGES, dtype=np.int64))
    _assert_same_state(fast, slow)
    assert fast.counters.gc_runs == 0  # a full drive, with two free blocks
    # The drawn batches, then enough random writes that GC must run
    # under the merges.
    batches = [(op, _lpns_for(op, seed, count, ORACLE_PAGES)) for op, seed, count in ops]
    churn = np.random.default_rng(churn_seed).integers(0, ORACLE_PAGES, size=2048)
    batches.append(("write", churn))
    for op, lpns in batches:
        if op == "trim":
            assert fast.trim(lpns) == slow.trim(lpns)
        else:
            assert fast.write_pages(lpns) == slow.write_pages(lpns)
        _assert_same_state(fast, slow)
    assert fast.counters.gc_runs > 0
    fast.check_invariants()


# ---------------------------------------------------------------------- #
# The shared program / GC loop against the chunk-wise oracle             #
# ---------------------------------------------------------------------- #


class ChunkwiseOracle:
    """The program / GC loop as it stood before its per-block cost was cut.

    Mixed in ahead of a policy class, it replaces the shared machinery
    with the chunk-wise original: an ``arange`` and fancy indexing per
    victim, a full ``block_state`` scan per collection, watermarks
    rebuilt per call, and every relocation through the host-write
    bookkeeping.
    """

    def _program(self, lpns: np.ndarray) -> None:
        spec = self.spec
        offset = 0
        while offset < lpns.size:
            room = spec.pages_per_block - self._write_ptr
            if room == 0:
                self._open_new_block()
                continue
            chunk = lpns[offset : offset + room]
            self._program_into_active(chunk)
            offset += chunk.size

    def _program_into_active(self, lpns: np.ndarray) -> None:
        spec = self.spec
        # Invalidate prior versions.  A repeated LPN in one chunk repeats
        # its old physical page, which must be invalidated exactly once;
        # distinct LPNs map to distinct pages, so deduplicating the live
        # old positions suffices.  GC relocations have none: their old
        # copies are already unmapped.
        old = self.l2p[lpns]
        live = old != INVALID
        if np.any(live):
            old_pos = np.unique(old[live])
            self.p2l[old_pos] = INVALID
            np.subtract.at(self.valid_count, old_pos // spec.pages_per_block, 1)
        start = self._active_block * spec.pages_per_block + self._write_ptr
        positions = start + np.arange(lpns.size, dtype=np.int64)
        # Last occurrence of each lpn wins.
        self.p2l[positions] = lpns
        self.l2p[lpns] = positions  # duplicate lpns: numpy keeps the last write
        # Stale duplicates inside this chunk: positions whose back-pointer
        # no longer points at them.
        stale = self.l2p[self.p2l[positions]] != positions
        if np.any(stale):
            self.p2l[positions[stale]] = INVALID
        self.valid_count[self._active_block] += int(np.count_nonzero(~stale))
        self._write_ptr += int(lpns.size)

    def _open_new_block(self) -> None:
        self.block_state[self._active_block] = 2  # full
        if not self._free_blocks and not self._collect_one():
            raise MeasurementError("FTL ran out of free blocks (GC starvation)")
        self._active_block = self._free_blocks.pop()
        self.block_state[self._active_block] = 1
        self._write_ptr = 0
        self._maybe_collect()

    def _maybe_collect(self) -> None:
        if self._in_gc:
            return  # relocations already run under an outer collection loop
        low = max(int(self.spec.n_blocks * self.spec.gc_low_watermark), 2)
        if len(self._free_blocks) >= low:
            return
        high = max(int(self.spec.n_blocks * self.spec.gc_high_watermark), low)
        while len(self._free_blocks) < high:
            if not self._collect_one():
                break

    def _collect_one(self) -> bool:
        """Greedy GC: relocate the fullest-of-stale block; returns success."""
        spec = self.spec
        candidates = np.flatnonzero(self.block_state == 2)
        if candidates.size == 0:
            return False
        victim = int(candidates[np.argmin(self.valid_count[candidates])])
        if self.valid_count[victim] >= spec.pages_per_block:
            return False  # nothing reclaimable anywhere
        start = victim * spec.pages_per_block
        phys = np.arange(start, start + spec.pages_per_block, dtype=np.int64)
        live_lpns = self.p2l[phys]
        live_lpns = live_lpns[live_lpns != INVALID]
        # Erase first (the mappings move, so clear victim bookkeeping), then
        # re-program the survivors through the normal write path.
        self.p2l[phys] = INVALID
        self.valid_count[victim] = 0
        self.block_state[victim] = 0
        self._free_blocks.insert(0, victim)
        self.counters.blocks_erased += 1
        self.counters.gc_runs += 1
        if live_lpns.size:
            live_lpns = self._gc_live_order(live_lpns)
            self.l2p[live_lpns] = INVALID  # re-mapped by _program below
            was_in_gc = self._in_gc
            self._in_gc = True
            try:
                self._program(live_lpns)
            finally:
                self._in_gc = was_in_gc
            self.counters.gc_pages_relocated += int(live_lpns.size)
        return True


#: Each policy's oracle twin: the policy's hooks over the chunk-wise loop.
CHUNKWISE_TWINS = {
    name: type(f"Chunkwise{cls.__name__}", (ChunkwiseOracle, cls), {})
    for name, cls in FTL_POLICIES.items()
}

#: 40 blocks of 64 pages: GC starts below 2 free blocks and runs until 6
#: are free, so one trigger collects several victims in a row.
BURST_SPEC = SsdSpec(
    logical_bytes=8 * MIB,
    pages_per_block=64,
    overprovision=0.25,
    gc_low_watermark=0.05,
    gc_high_watermark=0.15,
)


_chunkwise_ops = st.one_of(
    _oracle_ops, st.tuples(st.just("format"), st.just(0), st.just(0))
)


def test_oracle_drives_collect_one_and_several_victims_per_trigger():
    for spec, watermarks in ((SPEC, (2, 2)), (ORACLE_SPEC, (2, 2)), (BURST_SPEC, (2, 6))):
        ftl = FTL_POLICIES["page"](spec)
        assert (ftl._gc_low, ftl._gc_high) == watermarks


@pytest.mark.parametrize("policy", sorted(FTL_POLICIES))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=st.sampled_from([SPEC, ORACLE_SPEC, BURST_SPEC]),
    ops=st.lists(_chunkwise_ops, min_size=1, max_size=8),
    churn_seed=st.integers(0, 2**32 - 1),
)
def test_policy_matches_chunkwise_oracle(policy, spec, ops, churn_seed):
    fast = FTL_POLICIES[policy](spec)
    slow = CHUNKWISE_TWINS[policy](spec)
    n_pages = spec.logical_pages
    # A full drive first, the drawn batches, then a refill and enough
    # random writes that GC must run whatever the batches left.
    batches = [("write", np.arange(n_pages, dtype=np.int64))]
    batches += [(op, _lpns_for(op, seed, count, n_pages)) for op, seed, count in ops]
    rng = np.random.default_rng(churn_seed)
    batches.append(("write", rng.permutation(n_pages)))
    batches.append(("write", rng.integers(0, n_pages, size=n_pages)))
    for op, lpns in batches:
        if op == "format":
            fast.format()
            slow.format()
        elif op == "trim":
            assert fast.trim(lpns) == slow.trim(lpns)
        else:
            assert fast.write_pages(lpns) == slow.write_pages(lpns)
        _assert_same_state(fast, slow)
        fast.check_invariants()
    assert fast.counters.gc_runs > 0
