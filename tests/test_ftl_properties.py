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
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.units import KIB, MIB
from repro.dut.ssd import Ssd, SsdSpec
from repro.ftl import FTL_POLICIES, INVALID, GroupMapFtl

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


def _assert_same_state(fast: GroupMapFtl, slow: GroupMapFtl) -> None:
    assert fast.counters == slow.counters
    for name in ("l2p", "p2l", "valid_count", "block_state"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    assert fast._free_blocks == slow._free_blocks
    assert fast._active_block == slow._active_block
    assert fast._write_ptr == slow._write_ptr


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
