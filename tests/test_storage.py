"""fio-style jobs and the I/O engine."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import KIB, MIB
from repro.dut.ssd import Ssd, SsdSpec
from repro.storage.engine import IoEngine, precondition
from repro.storage.fio import FioJob, parse_size


@pytest.mark.parametrize(
    "text,expected",
    [
        ("4k", 4 * KIB),
        ("4K", 4 * KIB),
        ("4kib", 4 * KIB),
        ("1m", MIB),
        ("2g", 2 * 1024 * MIB),
        ("512", 512),
        (4096, 4096),
        ("1.5k", 1536),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("bad", ["", "k4", "-1", "4x", 0, -5])
def test_parse_size_rejects(bad):
    with pytest.raises(ConfigurationError):
        parse_size(bad)


def test_job_validation():
    with pytest.raises(ConfigurationError):
        FioJob(rw="mixed")
    with pytest.raises(ConfigurationError):
        FioJob(rw="read", iodepth=0)
    with pytest.raises(ConfigurationError, match="runtime=0 needs"):
        FioJob(rw="read", runtime_s=0)
    with pytest.raises(ConfigurationError):
        FioJob(rw="read", bs="nope")
    with pytest.raises(ConfigurationError, match="runtime must be >= 0"):
        FioJob(rw="read", runtime_s=-1)
    # A pure prep job may have no body.
    assert FioJob(rw="write", runtime_s=0, pre_format=True).runtime_s == 0
    assert FioJob(rw="write", runtime_s=0, precondition_passes=0.5).runtime_s == 0
    with pytest.raises(ConfigurationError, match="precondition must be >= 0"):
        FioJob(rw="write", precondition_passes=-1)
    with pytest.raises(ConfigurationError):
        FioJob(rw="write", runtime_s=0, pre_format=True, precondition_bs="4q")


def test_job_properties():
    job = FioJob(rw="randwrite", bs="8k")
    assert job.is_write
    assert job.is_random
    assert job.block_bytes == 8192
    seq = FioJob(rw="read")
    assert not seq.is_write
    assert not seq.is_random


def make_engine(logical=64 * MIB, seed=0):
    ssd = Ssd(SsdSpec(logical_bytes=logical), seed=seed)
    return ssd, IoEngine(ssd, seed=seed)


def test_read_job_produces_intervals():
    _, engine = make_engine()
    result = engine.run(FioJob(rw="randread", bs="64k", runtime_s=1.0))
    assert len(result.intervals) == 20  # 50 ms ticks
    assert result.mean_bandwidth > 0
    assert result.mean_power > engine.ssd.spec.idle_watts


def test_read_bandwidth_ordering():
    _, engine = make_engine()
    small = engine.run(FioJob(rw="randread", bs="4k", runtime_s=0.5))
    large = engine.run(FioJob(rw="randread", bs="1m", runtime_s=0.5))
    assert large.mean_bandwidth > small.mean_bandwidth
    assert large.mean_power > small.mean_power


def test_write_job_steps_ftl():
    ssd, engine = make_engine()
    result = engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=0.5))
    assert ssd.counters.host_pages_written > 0
    assert result.mean_bandwidth > 0
    ssd.check_invariants()


def test_sequential_write_covers_lba_space_in_order():
    ssd, engine = make_engine()
    engine.run(FioJob(rw="write", bs="128k", runtime_s=0.2))
    mapped = np.flatnonzero(ssd.l2p != -1)
    assert mapped.size > 0
    assert mapped[0] == 0  # starts at LBA 0
    assert np.array_equal(mapped, np.arange(mapped.size))  # contiguous


def test_precondition_maps_whole_drive():
    ssd, _ = make_engine()
    precondition(ssd)
    assert ssd.mapped_pages == ssd.spec.logical_pages
    ssd.check_invariants()


def test_prep_job_runs_its_directives_and_draws_nothing():
    ssd, engine = make_engine()
    engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=0.2))
    state = engine.rng.generator.bit_generator.state
    result = engine.run(
        FioJob(rw="write", runtime_s=0, pre_format=True, precondition_passes=1.0)
    )
    assert result.intervals == [] and result.latencies_s.size == 0
    assert result.steady_state is None
    assert engine.rng.generator.bit_generator.state == state
    assert ssd.mapped_pages == ssd.spec.logical_pages
    # The counters restart at the format; the prep job's own writes are
    # not the job body's.
    assert ssd.counters.host_pages_written == ssd.spec.logical_pages
    assert result.counters.host_pages_written == 0


def test_job_result_counts_only_its_body():
    ssd, engine = make_engine(seed=3)
    engine.run(FioJob(rw="write", runtime_s=0, precondition_passes=1.0))
    before = ssd.counters.host_pages_written
    result = engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=0.5, stonewall=True))
    assert result.counters.host_pages_written == (
        ssd.counters.host_pages_written - before
    )
    assert result.counters.write_amplification >= 1.0
    bw_1s, pw_1s = engine.run(FioJob(rw="randread", runtime_s=2.5)).per_second()
    assert bw_1s.shape == pw_1s.shape == (2,)


def test_steady_write_power_stable_while_bandwidth_varies():
    """The Fig. 12b phenomenon, at test scale."""
    ssd, engine = make_engine(logical=128 * MIB, seed=1)
    precondition(ssd)
    ssd.idle_flush()
    result = engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=8.0))
    bw = result.bandwidth[40:]  # steady portion
    power = result.power[40:]
    assert bw.std() / bw.mean() > 0.10  # visibly variable bandwidth
    assert power.std() / power.mean() < 0.05  # stable power
    assert power.mean() == pytest.approx(5.0, abs=0.3)


def test_write_amplification_recorded_in_intervals():
    ssd, engine = make_engine(seed=2)
    precondition(ssd)
    result = engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=2.0))
    was = [s.write_amplification for s in result.intervals]
    assert max(was) > 1.0


def test_power_trace_export():
    _, engine = make_engine()
    result = engine.run(FioJob(rw="randread", bs="64k", runtime_s=0.5))
    trace = result.power_trace(volts=3.3)
    assert np.allclose(trace.volts, 3.3)
    assert trace.watts == pytest.approx(result.power, rel=1e-9)


def test_mixed_job_properties():
    job = FioJob(rw="randrw", rwmixread=70)
    assert job.is_mixed
    assert not job.is_write
    assert job.read_fraction == pytest.approx(0.7)
    assert FioJob(rw="randread").read_fraction == 1.0
    assert FioJob(rw="randwrite").read_fraction == 0.0
    with pytest.raises(ConfigurationError):
        FioJob(rw="randrw", rwmixread=101)


def test_mixed_job_splits_bandwidth():
    ssd, engine = make_engine(seed=5)
    precondition(ssd)
    result = engine.run(FioJob(rw="randrw", bs="4k", rwmixread=50, runtime_s=2.0))
    reads = np.array([s.read_bandwidth_bps for s in result.intervals])
    writes = np.array([s.write_bandwidth_bps for s in result.intervals])
    assert reads.mean() > 0
    assert writes.mean() > 0
    assert result.mean_bandwidth == pytest.approx(
        reads.mean() + writes.mean(), rel=0.01
    )
    ssd.check_invariants()


def test_mixed_read_share_scales_reads():
    ssd, engine = make_engine(seed=6)
    mostly_read = engine.run(FioJob(rw="randrw", bs="64k", rwmixread=90, runtime_s=1.0))
    mostly_write = engine.run(FioJob(rw="randrw", bs="64k", rwmixread=10, runtime_s=1.0))
    r90 = np.mean([s.read_bandwidth_bps for s in mostly_read.intervals])
    r10 = np.mean([s.read_bandwidth_bps for s in mostly_write.intervals])
    assert r90 > 5 * r10


def test_mixed_all_read_equals_pure_read_bandwidth():
    ssd, engine = make_engine(seed=7)
    mixed = engine.run(FioJob(rw="randrw", bs="64k", rwmixread=100, runtime_s=1.0))
    pure = engine.run(FioJob(rw="randread", bs="64k", runtime_s=1.0))
    assert mixed.mean_bandwidth == pytest.approx(pure.mean_bandwidth, rel=0.05)


def test_read_latency_percentiles():
    from repro.common.errors import MeasurementError

    _, engine = make_engine(seed=8)
    result = engine.run(FioJob(rw="randread", bs="4k", runtime_s=0.5))
    pct = result.latency_percentiles()
    assert 0 < pct[50] < pct[95] <= pct[99]
    # The median sits near the service time (~66 us for 4 KiB).
    assert pct[50] == pytest.approx(66e-6, rel=0.3)
    write_result = engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=0.2))
    with pytest.raises(MeasurementError):
        write_result.latency_percentiles()


def test_read_latency_tail_grows_when_saturated():
    _, engine = make_engine(seed=9)
    light = engine.run(FioJob(rw="randread", bs="4k", iodepth=1, runtime_s=0.2))
    saturated = engine.run(FioJob(rw="randread", bs="1m", iodepth=8, runtime_s=0.2))
    light_ratio = light.latency_percentiles()[99] / light.latency_percentiles()[50]
    sat_ratio = saturated.latency_percentiles()[99] / saturated.latency_percentiles()[50]
    assert sat_ratio > light_ratio
