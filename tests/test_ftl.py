"""FTL strategy tests: the page- and group-map pins and per-policy behaviour."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, MeasurementError
from repro.common.units import MIB
from repro.dut.ssd import Ssd, SsdCounters, SsdSpec
from repro.ftl import (
    FTL_POLICIES,
    CompressedMapFtl,
    FtlCounters,
    GroupMapFtl,
    HybridDeltaFtl,
    PageMapFtl,
    create_ftl,
)
from repro.observability import MetricsRegistry
from repro.storage.engine import IoEngine
from repro.storage.fio import FioJob

DATA = Path(__file__).parent / "data"
PIN = json.loads((DATA / "ftl_page_pin.json").read_text())
GROUP_PIN = json.loads((DATA / "ftl_group_pin.json").read_text())


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def churn_workload(ftl: str) -> Ssd:
    """Fill a 64 MiB drive, then random overwrites, a trim and more writes."""
    ssd = Ssd(SsdSpec(logical_bytes=64 * MIB), seed=0, ftl=ftl)
    rng = np.random.default_rng(42)
    ssd.write_pages(np.arange(ssd.spec.logical_pages))
    for _ in range(25):
        ssd.write_pages(rng.integers(0, ssd.spec.logical_pages, 2048))
    ssd.trim(np.arange(0, ssd.spec.logical_pages, 7))
    for _ in range(10):
        ssd.write_pages(rng.integers(0, ssd.spec.logical_pages, 1024))
    return ssd


def engine_workload(ftl: str):
    """Precondition a 96 MiB drive, then fio write, read and mixed jobs.

    The preconditioning is a prep job and the write job is stonewalled,
    so the pins hold ``IoEngine.run``'s directive path.  Yields
    ``(name, ssd, outcome)`` after each job.
    """
    ssd = Ssd(SsdSpec(logical_bytes=96 * MIB), seed=9, ftl=ftl)
    engine = IoEngine(ssd, seed=9)
    engine.run(FioJob(rw="write", runtime_s=0, precondition_passes=1.0))
    jobs = (
        (
            "engine_write",
            FioJob(rw="randwrite", bs="4k", iodepth=4, runtime_s=6.0, stonewall=True),
        ),
        ("engine_read", FioJob(rw="randread", bs="64k", iodepth=4, runtime_s=1.0)),
        ("engine_mixed", FioJob(rw="randrw", bs="16k", rwmixread=70, runtime_s=1.0)),
    )
    for name, job in jobs:
        yield name, ssd, engine.run(job)


def ftl_state(ssd: Ssd) -> dict:
    """Hashes of the mapping arrays plus the counters and free pool."""
    c = ssd.counters
    return {
        "l2p_sha": _sha(ssd.l2p),
        "p2l_sha": _sha(ssd.p2l),
        "valid_count_sha": _sha(ssd.valid_count),
        "host_pages_written": c.host_pages_written,
        "gc_pages_relocated": c.gc_pages_relocated,
        "merge_pages_relocated": c.merge_pages_relocated,
        "blocks_erased": c.blocks_erased,
        "gc_runs": c.gc_runs,
        "lookup_ops": c.lookup_ops,
        "free_blocks": ssd.free_block_count,
        "mapped_pages": ssd.mapped_pages,
    }


def engine_states(ftl: str) -> dict:
    """Per engine job: the FTL state and the job's traces, hashed."""
    return {
        name: {
            **ftl_state(ssd),
            "bandwidth_sha": _sha(out.bandwidth),
            "power_sha": _sha(out.power),
        }
        for name, ssd, out in engine_workload(ftl)
    }


def small_spec(mib=16) -> SsdSpec:
    return SsdSpec(logical_bytes=mib * MIB)


# ---------------------------------------------------------------------- #
# The pin: ftl="page" is the pre-refactor Ssd, bit for bit               #
# ---------------------------------------------------------------------- #


class TestPageMapPin:
    """The default policy reproduces the pre-refactor state exactly.

    The fixture was generated from the tree *before* the strategy
    extraction; these hashes failing means the refactor changed
    behaviour, not just structure.  The read job's bandwidth and power
    hashes are the exception: they come from the job-file stepper, which
    draws a pure read's bandwidth and power noise per tick, interleaved.
    """

    def test_churn_workload_state_is_bit_identical(self):
        ssd = churn_workload("page")
        want = PIN["ftl"]
        assert _sha(ssd.l2p) == want["l2p_sha"]
        assert _sha(ssd.p2l) == want["p2l_sha"]
        assert _sha(ssd.valid_count) == want["valid_count_sha"]
        assert ssd.counters.host_pages_written == want["host_pages_written"]
        assert ssd.counters.gc_pages_relocated == want["gc_pages_relocated"]
        assert ssd.counters.blocks_erased == want["blocks_erased"]
        assert ssd.counters.gc_runs == want["gc_runs"]
        assert ssd.free_block_count == want["free_blocks"]
        assert ssd.mapped_pages == want["mapped_pages"]

    def test_engine_traces_are_bit_identical(self):
        for name, ssd, out in engine_workload("page"):
            want = PIN[name]
            assert _sha(out.bandwidth) == want["bandwidth_sha"], name
            assert _sha(out.power) == want["power_sha"], name
            if "latencies_sha" in want:
                assert _sha(out.latencies_s) == want["latencies_sha"], name
            if "wa" in want:
                assert out.mean_bandwidth == pytest.approx(want["mean_bandwidth"])
                assert ssd.counters.write_amplification == pytest.approx(want["wa"])


class TestGroupMapPin:
    """The group policy's state after the page pin's two workloads.

    ``data/ftl_group_pin.json`` was generated from the tree before the
    group policy's write path was vectorised; a mismatch means the
    vectorised path programs pages differently from the per-group loop.
    The read job's trace hashes and the read and mixed jobs'
    ``lookup_ops`` come from the job-file stepper, whose reads charge
    mapping lookups.
    """

    def test_churn_workload_state_is_bit_identical(self):
        assert ftl_state(churn_workload("group")) == GROUP_PIN["churn"]

    def test_engine_traces_are_bit_identical(self):
        for name, state in engine_states("group").items():
            assert state == GROUP_PIN[name], name


# ---------------------------------------------------------------------- #
# Registry / facade                                                      #
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_four_policies_registered(self):
        assert sorted(FTL_POLICIES) == ["compressed", "group", "hybrid", "page"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FTL policy"):
            create_ftl("dft", small_spec())
        with pytest.raises(ConfigurationError):
            Ssd(small_spec(), ftl="nope")

    def test_ssd_accepts_policy_instance(self):
        policy = GroupMapFtl(small_spec(), group_pages=8)
        ssd = Ssd(small_spec(), ftl=policy)
        assert ssd.ftl is policy
        assert ssd.ftl_name == "group"

    def test_group_pages_validation(self):
        with pytest.raises(ConfigurationError):
            GroupMapFtl(small_spec(), group_pages=1)
        with pytest.raises(ConfigurationError):
            # Must divide pages_per_block (512).
            HybridDeltaFtl(small_spec(), group_pages=7)

    def test_counters_alias_kept(self):
        assert SsdCounters is FtlCounters


# ---------------------------------------------------------------------- #
# Accounting: map footprint and lookup overhead                          #
# ---------------------------------------------------------------------- #


class TestAccounting:
    def test_page_map_bytes_constant(self):
        ftl = PageMapFtl(small_spec())
        empty = ftl.map_bytes()
        ftl.write_pages(np.arange(4096))
        assert ftl.map_bytes() == empty == small_spec().logical_pages * 4

    def test_compressed_map_grows_with_fragmentation(self):
        ftl = CompressedMapFtl(small_spec())
        ftl.write_pages(np.arange(ftl.spec.logical_pages))
        sequential = ftl.map_bytes()
        rng = np.random.default_rng(3)
        ftl.write_pages(rng.permutation(ftl.spec.logical_pages)[:2048])
        assert ftl.map_bytes() > sequential

    def test_group_and_hybrid_maps_beat_page_map(self):
        spec = small_spec()
        page = PageMapFtl(spec)
        lpns = np.arange(spec.logical_pages)
        for cls in (GroupMapFtl, HybridDeltaFtl):
            ftl = cls(spec)
            ftl.write_pages(lpns)
            assert ftl.map_bytes() < page.map_bytes()

    def test_translate_charges_lookup_cost(self):
        for name, per_page in (("page", 1), ("group", 2), ("hybrid", 2)):
            ssd = Ssd(small_spec(), ftl=name)
            ssd.write_pages(np.arange(128))
            before = ssd.counters.lookup_ops
            ppns = ssd.translate(np.arange(64))
            assert ssd.counters.lookup_ops - before == 64 * per_page
            assert np.all(ppns >= 0)

    def test_compressed_lookup_cost_is_logarithmic(self):
        ftl = CompressedMapFtl(small_spec())
        ftl.write_pages(np.arange(ftl.spec.logical_pages))
        runs = ftl.run_count()
        expected = max(int(np.ceil(np.log2(runs + 1))), 1)
        assert ftl.lookup_cost(10) == 10 * expected


# ---------------------------------------------------------------------- #
# Write expansion: merges and compaction                                 #
# ---------------------------------------------------------------------- #


class TestWriteExpansion:
    def test_group_partial_write_merges_live_pages(self):
        ftl = GroupMapFtl(small_spec(), group_pages=16)
        ftl.write_pages(np.arange(16))  # whole group: no merge
        assert ftl.counters.merge_pages_relocated == 0
        ftl.write_pages(np.arange(4))  # partial overwrite: 12 merged
        assert ftl.counters.merge_pages_relocated == 12

    def test_group_merge_counts_as_internal_traffic(self):
        ssd = Ssd(small_spec(), ftl="group", ftl_options={"group_pages": 16})
        ssd.write_pages(np.arange(16))
        internal = ssd.write_pages(np.arange(4))
        assert internal >= 12
        assert ssd.counters.write_amplification > 1.0

    def test_hybrid_compaction_threshold(self):
        spec = small_spec()
        quiet = HybridDeltaFtl(spec, group_pages=16, compact_threshold=16)
        eager = HybridDeltaFtl(spec, group_pages=16, compact_threshold=2)
        scattered = np.arange(0, 4096, 3)
        quiet.write_pages(scattered)
        eager.write_pages(scattered)
        assert quiet.counters.merge_pages_relocated == 0
        assert eager.counters.merge_pages_relocated > 0

    def test_page_policy_has_no_merge_traffic(self):
        ssd = Ssd(small_spec(), ftl="page")
        rng = np.random.default_rng(0)
        for _ in range(8):
            ssd.write_pages(rng.integers(0, ssd.spec.logical_pages, 4096))
        assert ssd.counters.merge_pages_relocated == 0


# ---------------------------------------------------------------------- #
# check_invariants catches each kind of corrupted state                  #
# ---------------------------------------------------------------------- #


def _full_block(ftl) -> int:
    return int(np.flatnonzero(ftl.block_state == 2)[0])


def _shift_valid_count(ftl) -> None:
    a, b = np.flatnonzero(ftl.block_state == 2)[:2]
    ftl.valid_count[a] -= 1
    ftl.valid_count[b] += 1


def _stray_back_pointer(ftl) -> None:
    ftl.p2l[ftl._free_blocks[0] * ftl.spec.pages_per_block] = 0


def _duplicate_free_block(ftl) -> None:
    ftl._free_blocks.append(ftl._free_blocks[0])


def _full_block_in_free_pool(ftl) -> None:
    ftl._free_blocks[0] = _full_block(ftl)


def _drop_free_block(ftl) -> None:
    ftl._free_blocks.pop(0)


def _second_open_block(ftl) -> None:
    ftl.block_state[_full_block(ftl)] = 1


def _rewind_write_pointer(ftl) -> None:
    ftl._write_ptr -= 1


def _stale_gc_key(ftl) -> None:
    ftl._gc_penalty[ftl._free_blocks[0]] = 0


@pytest.mark.parametrize(
    ("corrupt", "message"),
    [
        (_shift_valid_count, "per-block valid count disagrees"),
        (_stray_back_pointer, "beyond the mapped pages"),
        (_duplicate_free_block, "free pool twice"),
        (_full_block_in_free_pool, "free block is not erased"),
        (_drop_free_block, "free pool is not the set of free blocks"),
        (_second_open_block, "not the one open block"),
        (_rewind_write_pointer, "past its write pointer"),
        (_stale_gc_key, "GC victim key"),
    ],
)
def test_check_invariants_catches_corruption(corrupt, message):
    ftl = PageMapFtl(small_spec())
    rng = np.random.default_rng(5)
    ftl.write_pages(np.arange(ftl.spec.logical_pages))
    ftl.write_pages(rng.integers(0, ftl.spec.logical_pages, 3000))
    ftl.check_invariants()
    # Every corruption below needs these to hold.
    assert ftl.counters.gc_runs > 0 and ftl._free_blocks
    assert ftl._write_ptr > 0
    assert ftl.p2l[ftl._active_block * ftl.spec.pages_per_block + ftl._write_ptr - 1] >= 0
    corrupt(ftl)
    with pytest.raises(MeasurementError, match=message):
        ftl.check_invariants()


# ---------------------------------------------------------------------- #
# Shared behaviour across all policies                                   #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", sorted(FTL_POLICIES))
class TestAllPolicies:
    def test_write_trim_format_cycle(self, policy):
        ssd = Ssd(small_spec(), ftl=policy)
        ssd.write_pages(np.arange(1024))
        assert ssd.mapped_pages == 1024
        assert ssd.trim(np.arange(0, 1024, 2)) == 512
        assert ssd.mapped_pages == 512
        ssd.check_invariants()
        ssd.format()
        assert ssd.mapped_pages == 0
        assert ssd.map_bytes() >= 0
        ssd.check_invariants()

    def test_readback_after_churn(self, policy):
        ssd = Ssd(small_spec(), ftl=policy)
        rng = np.random.default_rng(7)
        for _ in range(6):
            ssd.write_pages(rng.integers(0, ssd.spec.logical_pages, 2048))
        lpns = np.flatnonzero(ssd.l2p >= 0)
        ppns = ssd.ftl.l2p[lpns]
        assert np.array_equal(ssd.p2l[ppns], lpns)
        ssd.check_invariants()

    def test_publish_metrics(self, policy):
        registry = MetricsRegistry()
        ssd = Ssd(small_spec(), ftl=policy)
        ssd.write_pages(np.arange(4096))
        ssd.translate(np.arange(16))
        ssd.publish_metrics(registry)
        host = registry.counter("ftl_host_pages_written_total", policy=policy)
        assert host.value == 4096
        assert registry.counter("ftl_lookup_ops_total", policy=policy).value > 0
        assert registry.gauge("ftl_map_bytes", policy=policy).value > 0
        # Publishing twice must not double-count (delta semantics).
        ssd.publish_metrics(registry)
        assert host.value == 4096
