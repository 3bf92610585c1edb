"""The columnar telemetry store: format, queries, recovery, serving.

Covers PR 8 end to end:

* property tests (hypothesis) — write→query round-trips are exact,
  range queries equal the brute-force mask, downsampling tiers are
  mutually consistent (coarse envelopes contain fine tiers);
* crash-recovery fuzzing — journals truncated or bit-flipped at
  arbitrary offsets recover the longest valid prefix, sealed segments
  with flipped bits are quarantined (never served, never deleted), and
  every recovery action is counted in ``store_segments_recovered_total``;
* the equivalence pin — a capture re-streamed through ``store://`` is
  sample-for-sample identical to the same capture through ``replay://``;
* the serving layer — psserve ``--record-store`` + HISTORY queries over
  a live socket;
* the :class:`DumpReader` error path now reporting line *and* offset.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import io
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConfigurationError,
    MeasurementError,
    ServerError,
    StoreError,
)
from repro.core.dump import DumpReader, DumpWriter
from repro.core.sources import SampleBlock, create_source
from repro.hardware.eeprom import SENSORS
from repro.observability import MetricsRegistry
from repro.server import PowerSensorServer, RemoteSampleSource
from repro.store import (
    DEFAULT_TIER_FACTORS,
    SealedSegment,
    StoreQueryResult,
    TelemetryStore,
    import_dump,
    tail_source,
)
from repro.store.format import compute_tier, encode_segment, read_journal
from repro.transport.faults import BitFlips
from tests.conftest import make_loaded_setup
from tests.test_fleet import record_tape

# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def synth_rows(n: int, seed: int = 0, t0: float = 0.0, rate: float = 1000.0):
    """Deterministic (times, values, markers) with two enabled pairs."""
    rng = np.random.default_rng(seed)
    times = t0 + (np.arange(n) + 1) / rate
    values = np.zeros((n, SENSORS))
    values[:, :4] = rng.normal(scale=5.0, size=(n, 4))
    markers = rng.random(n) < 0.05
    return times, values, markers


def enabled_mask(k: int = 4) -> np.ndarray:
    enabled = np.zeros(SENSORS, dtype=bool)
    enabled[:k] = True
    return enabled


def fill_store(
    store: TelemetryStore,
    n: int,
    seed: int = 0,
    block: int = 257,
    t0: float = 0.0,
):
    """Append ``n`` synthetic rows in uneven blocks; returns the rows."""
    times, values, markers = synth_rows(n, seed=seed, t0=t0)
    enabled = enabled_mask()
    for start in range(0, n, block):
        stop = min(start + block, n)
        store.append(
            SampleBlock(
                times=times[start:stop],
                values=values[start:stop],
                markers=markers[start:stop],
                enabled=enabled,
            )
        )
    return times, values, markers


def append_split(store: TelemetryStore, rows, cuts) -> None:
    """Append ``rows`` as blocks cut at the row indices ``cuts``."""
    times, values, markers = rows
    edges = [0, *sorted(set(cuts) - {0, len(times)}), len(times)]
    for start, stop in zip(edges[:-1], edges[1:]):
        store.append(
            SampleBlock(
                times=times[start:stop],
                values=values[start:stop],
                markers=markers[start:stop],
                enabled=enabled_mask(),
            )
        )


def assert_same_result(got: StoreQueryResult, expected: StoreQueryResult) -> None:
    """Every field equal: arrays bit for bit and of one dtype."""
    for field in dataclasses.fields(StoreQueryResult):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


# --------------------------------------------------------------------------- #
# Property tests: round-trip, range queries, tier consistency
# --------------------------------------------------------------------------- #


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 400),
    roll=st.integers(1, 150),
    seed=st.integers(0, 2**16),
)
def test_write_query_roundtrip_is_exact(tmp_path_factory, n, roll, seed):
    tmp = tmp_path_factory.mktemp("store")
    times, values, markers = synth_rows(n, seed=seed)
    enabled = enabled_mask()
    with TelemetryStore(tmp, roll_samples=roll, tier_factors=(4, 16)) as store:
        for start in range(0, n, 97):
            stop = min(start + 97, n)
            store.append(
                SampleBlock(
                    times=times[start:stop],
                    values=values[start:stop],
                    markers=markers[start:stop],
                    enabled=enabled,
                )
            )
        result = store.query(None, None, None)
        assert result.factor == 1
        assert np.array_equal(result.times, times)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.markers, markers)
        assert np.array_equal(result.enabled, enabled)
        assert result.n_source == n
    # Exactness survives the seal/reopen cycle (mmap-backed reads).
    with TelemetryStore(tmp) as reopened:
        again = reopened.query(None, None, None)
        assert np.array_equal(again.times, times)
        assert np.array_equal(again.values, values)
        assert np.array_equal(again.markers, markers)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(2, 500),
    seed=st.integers(0, 2**16),
    frac=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_range_query_equals_brute_force_mask(tmp_path_factory, n, seed, frac):
    tmp = tmp_path_factory.mktemp("store")
    with TelemetryStore(tmp, roll_samples=125, tier_factors=(4, 16)) as store:
        times, values, markers = fill_store(store, n, seed=seed, block=83)
        lo, hi = sorted(
            times[0] + f * (times[-1] - times[0]) for f in frac
        )
        result = store.query(lo, hi, None)
        mask = (times >= lo) & (times <= hi)
        assert np.array_equal(result.times, times[mask])
        assert np.array_equal(result.values, values[mask])
        assert np.array_equal(result.markers, markers[mask])
        assert result.n_source == int(mask.sum())
        # Half-open endpoints behave like searchsorted: a query starting
        # exactly on a sample includes it.
        full = store.query(times[0], times[-1], None)
        assert len(full) == n


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(32, 600), seed=st.integers(0, 2**16))
def test_tiers_are_mutually_consistent(tmp_path_factory, n, seed):
    """Coarse envelopes contain the fine tier (and the raw samples)."""
    tmp = tmp_path_factory.mktemp("store")
    with TelemetryStore(tmp, roll_samples=10**9, tier_factors=(4, 16)) as store:
        times, values, markers = fill_store(store, n, seed=seed)
        store.seal()
        seg = store.segments[0]
        assert seg.tier_factors == [1, 4, 16]
        for factor in (4, 16):
            t, vmin, vmean, vmax, m = seg.read_tier(factor)
            assert t.size == -(-n // factor)
            assert np.all(vmin <= vmean + 1e-12)
            assert np.all(vmean <= vmax + 1e-12)
            # Every raw sample lies inside its bucket's envelope.
            idx = np.arange(n) // factor
            cols = values[:, seg.columns]
            assert np.all(vmin[idx] <= cols + 1e-12)
            assert np.all(cols <= vmax[idx] + 1e-12)
            # A bucket flags a marker iff one of its samples marked.
            expect_m = np.zeros(t.size, dtype=bool)
            np.maximum.at(expect_m, idx, markers)
            assert np.array_equal(m, expect_m)
        # The 16x tier is exactly the 4x tier re-bucketed 4:1 in min/max.
        _, min4, _, max4, _ = seg.read_tier(4)
        _, min16, _, max16, _ = seg.read_tier(16)
        k4 = np.arange(min4.shape[0]) // 4
        got_min = np.full_like(min16, np.inf)
        got_max = np.full_like(max16, -np.inf)
        np.minimum.at(got_min, k4, min4)
        np.maximum.at(got_max, k4, max4)
        assert np.array_equal(got_min, min16)
        assert np.array_equal(got_max, max16)


FACTOR_SETS = st.sampled_from([(4, 16), (2, 8, 64), (3,), DEFAULT_TIER_FACTORS])


def draw_cuts(data, n: int) -> list[int]:
    """Draw the row indices at which ``n`` rows are cut into appends."""
    return data.draw(st.lists(st.integers(1, n), max_size=12), label="cuts")


def draw_queries(data, n: int) -> list[tuple]:
    """Draw 20 queries over ``synth_rows(n)``'s span."""
    span = n / 1000.0
    # A bound inside the data, outside it on either side, or open.
    bound = st.one_of(st.none(), st.floats(-0.5, 1.5).map(lambda f: f * span))
    return data.draw(
        st.lists(
            st.tuples(bound, bound, st.one_of(st.none(), st.integers(1, 500))),
            min_size=20,
            max_size=20,
        ),
        label="queries",
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 3000),
    roll=st.integers(1, 4000),
    factors=FACTOR_SETS,
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_query_answer_does_not_depend_on_the_seal(
    tmp_path_factory, n, roll, factors, seed, data
):
    """The journal answers through the tiers its segment will have."""
    cuts, queries = draw_cuts(data, n), draw_queries(data, n)
    tmp = tmp_path_factory.mktemp("store")
    with TelemetryStore(tmp, roll_samples=roll, tier_factors=factors) as store:
        append_split(store, synth_rows(n, seed=seed), cuts)
        before = [store.query(t0, t1, max_points) for t0, t1, max_points in queries]
        store.seal()
        after = [store.query(t0, t1, max_points) for t0, t1, max_points in queries]
    for got, expected in zip(after, before):
        assert_same_result(got, expected)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 3000),
    roll=st.integers(1, 1500),
    factors=FACTOR_SETS,
    seed=st.integers(0, 2**16),
    crash=st.booleans(),
    data=st.data(),
)
def test_each_sealed_segment_is_its_whole_segment_encoding(
    tmp_path_factory, n, roll, factors, seed, crash, data
):
    """A seal, or a reopen salvaging a crashed writer's journal, writes the
    bytes of ``encode_segment`` over the segment's rows with every tier
    computed over all of them at once."""
    cuts = draw_cuts(data, n)
    tmp = tmp_path_factory.mktemp("store")
    store = TelemetryStore(
        tmp,
        roll_samples=roll,
        tier_factors=factors,
        sample_rate=1000.0,
        device="oracle",
        pair_names=["a", "b"],
    )
    append_split(store, synth_rows(n, seed=seed), cuts)
    # A reopened store takes its newest segment's tiers, an empty one the defaults.
    expected = [1, *(factors if store.segments or not crash else DEFAULT_TIER_FACTORS)]
    if crash:
        store.abandon()
        TelemetryStore(tmp).close()  # recovery seals the journal
    else:
        store.close()
    paths = sorted(tmp.glob("*.seg"))
    assert paths
    for path in paths:
        seg = SealedSegment(path)
        try:
            times, values, markers = seg.read_raw(0, seg.n)
            image = encode_segment(
                times,
                values,
                markers,
                {f: compute_tier(times, values, markers, f) for f in seg.tier_factors[1:]},
                columns=seg.columns,
                enabled=seg.enabled,
                sample_rate=seg.sample_rate,
                device=seg.device,
                pair_names=seg.pair_names,
            )
            assert seg.tier_factors == expected
        finally:
            seg.close()
        assert path.read_bytes() == bytes(image)


#: ``data/store_segment_pin.json`` holds the SHA-256 of every file of
#: :func:`pinned_store_digests`' store at these tier settings.  It was
#: generated at commit 17a3169, when a seal still re-read its rows to
#: compute the tiers and joined the image from per-column byte strings.
PIN_CASES = {"default": {}, "factors_4_16": {"tier_factors": (4, 16)}}
PIN = json.loads((Path(__file__).parent / "data" / "store_segment_pin.json").read_text())


def pinned_store_digests(path: Path, **options) -> dict[str, str]:
    """A seeded store of 25,000 rows in uneven appends, rolled every 10,000."""
    n = 25_000
    rng = np.random.default_rng(32)
    cuts = np.cumsum(rng.integers(1, 3000, size=n)).tolist()
    with TelemetryStore(
        path,
        roll_samples=10_000,
        sample_rate=20_000.0,
        device="pin",
        pair_names=["p0", "p1"],
        **options,
    ) as store:
        append_split(store, synth_rows(n, seed=32, rate=20_000.0), [c for c in cuts if c < n])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_sealed_segments_match_the_pin(tmp_path, case):
    assert pinned_store_digests(tmp_path, **PIN_CASES[case]) == PIN[case]


def test_max_points_bound_always_holds(tmp_path):
    with TelemetryStore(tmp_path, roll_samples=1000, tier_factors=(8, 64)) as store:
        times, values, _ = fill_store(store, 5000, seed=1)
        for max_points in (1, 7, 100, 333, 5000, 10**6):
            result = store.query(None, None, max_points)
            assert 0 < len(result) <= max_points
            assert result.n_source == 5000
        tiered = store.query(None, None, 100)
        assert tiered.factor > 1
        # The bucket-mean envelope brackets the exact mean power.
        assert np.all(tiered.vmin <= tiered.values + 1e-12)
        assert np.all(tiered.values <= tiered.vmax + 1e-12)
        exact_mean = values[:, :4].mean(axis=0)
        assert np.all(tiered.vmin.min(axis=0)[:4] <= exact_mean + 1e-12)
        assert np.all(exact_mean <= tiered.vmax.max(axis=0)[:4] + 1e-12)


def test_query_on_empty_store_and_empty_window(tmp_path):
    with TelemetryStore(tmp_path) as store:
        empty = store.query(None, None, 100)
        assert len(empty) == 0 and empty.n_source == 0
        assert store.time_range() is None
        fill_store(store, 100, seed=2)
        outside = store.query(10_000.0, 20_000.0, None)
        assert len(outside) == 0 and outside.n_source == 0
        with pytest.raises(ConfigurationError, match="max_points"):
            store.query(None, None, 0)


def test_enabled_mask_change_rolls_the_segment(tmp_path):
    times, values, markers = synth_rows(40, seed=5)
    with TelemetryStore(tmp_path, roll_samples=10**9) as store:
        store.append(
            SampleBlock(
                times=times[:20],
                values=values[:20],
                markers=markers[:20],
                enabled=enabled_mask(4),
            )
        )
        store.append(
            SampleBlock(
                times=times[20:],
                values=values[20:],
                markers=markers[20:],
                enabled=enabled_mask(2),
            )
        )
        # The mask change sealed the first 20 rows into their own segment.
        assert len(store.segments) == 1
        assert store.segments[0].n == 20
        result = store.query(None, None, None)
        assert len(result) == 40
        assert np.array_equal(result.values[:, :2], values[:, :2])
        assert np.array_equal(result.values[20:, 2:4], np.zeros((20, 2)))


def test_retention_by_age_and_bytes(tmp_path):
    registry = MetricsRegistry()
    with TelemetryStore(
        tmp_path / "age",
        roll_samples=100,
        retention_seconds=0.2,
        registry=registry,
    ) as store:
        fill_store(store, 1000, seed=3, block=100)  # 1 s of data at 1 kHz
        assert store.segments, "retention must keep the newest data"
        oldest = min(seg.t0 for seg in store.segments)
        newest = max(seg.t1 for seg in store.segments)
        assert newest - oldest <= 0.35  # ~0.2 s budget + one 0.1 s segment
    assert registry.value("store_segments_pruned_total") > 0

    with TelemetryStore(
        tmp_path / "bytes", roll_samples=100, retention_bytes=1
    ) as store:
        fill_store(store, 1000, seed=3, block=100)
        assert len(store.segments) == 1  # never prunes the last segment


# --------------------------------------------------------------------------- #
# Crash recovery and file fuzzing
# --------------------------------------------------------------------------- #


def abandoned_store(path, n=450, roll=200, seed=9):
    """A store 'killed' mid-write: 2 sealed segments + a 50-row journal."""
    store = TelemetryStore(path, roll_samples=roll)
    rows = fill_store(store, n, seed=seed, block=50)
    store.abandon()
    return rows


def test_abandon_leaves_a_recoverable_journal(tmp_path):
    times, values, markers = abandoned_store(tmp_path)
    journals = list(tmp_path.glob("*.jrnl"))
    assert len(journals) == 1
    registry = MetricsRegistry()
    with TelemetryStore(tmp_path, registry=registry) as store:
        result = store.query(None, None, None)
        assert np.array_equal(result.times, times)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.markers, markers)
    # A clean journal salvages completely: not a recovery *event*.
    assert registry.value("store_segments_recovered_total") == 0
    assert not list(tmp_path.glob("*.jrnl"))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cut=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_truncated_journal_recovers_a_prefix(tmp_path_factory, cut, seed):
    tmp = tmp_path_factory.mktemp("store")
    times, _, _ = abandoned_store(tmp, seed=seed)
    (journal,) = tmp.glob("*.jrnl")
    raw = journal.read_bytes()
    journal.write_bytes(raw[: int(len(raw) * cut)])
    registry = MetricsRegistry()
    with TelemetryStore(tmp, registry=registry) as store:
        result = store.query(None, None, None)
        # Never corrupt rows: whatever survives is an exact prefix.
        assert len(result) >= 400  # the sealed segments are untouched
        assert np.array_equal(result.times, times[: len(result)])
    if cut < 1.0:
        assert registry.value("store_segments_recovered_total") >= 1
        # The damaged journal is quarantined for inspection, not deleted.
        assert list(tmp.glob("*.jrnl.quarantine*")) or not list(tmp.glob("*.jrnl"))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), rate=st.sampled_from([0.001, 0.01, 0.05]))
def test_bitflipped_journal_never_crashes_or_lies(tmp_path_factory, seed, rate):
    tmp = tmp_path_factory.mktemp("store")
    times, values, _ = abandoned_store(tmp, seed=seed)
    (journal,) = tmp.glob("*.jrnl")
    rng = np.random.default_rng(seed)
    journal.write_bytes(BitFlips(rate).transform(journal.read_bytes(), rng))
    with TelemetryStore(tmp) as store:  # must never raise
        result = store.query(None, None, None)
        k = len(result)
        assert k >= 400
        # Every surviving row is bit-identical to what was appended:
        # CRC-validated chunks either round-trip exactly or are dropped.
        assert np.array_equal(result.times, times[:k])
        assert np.array_equal(result.values, values[:k])


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16))
def test_bitflipped_segment_data_is_quarantined_not_served(tmp_path_factory, seed):
    """A flipped bit in a tier's data region is caught by the read-time
    CRC: the query drops the damaged segment, quarantines it, and never
    returns a corrupt row."""
    tmp = tmp_path_factory.mktemp("store")
    with TelemetryStore(tmp, roll_samples=150) as store:
        times, _, _ = fill_store(store, 450, seed=seed, block=150)
    segments = sorted(tmp.glob("*.seg"))
    assert len(segments) == 3
    victim = segments[1]
    probe = SealedSegment(victim)
    start, end = probe.tier_region(1)
    probe.close()
    rng = np.random.default_rng(seed)
    image = bytearray(victim.read_bytes())
    image[int(rng.integers(start, end))] ^= 1 << int(rng.integers(8))
    victim.write_bytes(bytes(image))
    registry = MetricsRegistry()
    with TelemetryStore(tmp, registry=registry) as store:
        assert len(store.segments) == 3  # the open is O(meta): no scan yet
        result = store.query(None, None, None)
        assert len(result) == 300
        assert result.n_source == 300
        survivors = np.concatenate([times[:150], times[300:]])
        assert np.array_equal(result.times, survivors)
        assert len(store.segments) == 2  # quarantined mid-query
    assert registry.value("store_segments_recovered_total") == 1
    assert len(list(tmp.glob("*.quarantine*"))) == 1
    assert not victim.exists()


def test_bitflipped_segment_meta_is_quarantined_at_open(tmp_path):
    with TelemetryStore(tmp_path, roll_samples=150) as store:
        times, _, _ = fill_store(store, 450, seed=2, block=150)
    segments = sorted(tmp_path.glob("*.seg"))
    victim = segments[1]
    probe = SealedSegment(victim)
    _, data_end = probe.tier_region(probe.tier_factors[-1])
    probe.close()
    image = bytearray(victim.read_bytes())
    image[data_end + 5] ^= 0x10  # inside the JSON meta block
    victim.write_bytes(bytes(image))
    registry = MetricsRegistry()
    with TelemetryStore(tmp_path, registry=registry) as store:
        assert len(store.segments) == 2  # structural damage: caught at open
        result = store.query(None, None, None)
        assert np.array_equal(
            result.times, np.concatenate([times[:150], times[300:]])
        )
    assert registry.value("store_segments_recovered_total") == 1
    assert len(list(tmp_path.glob("*.quarantine*"))) == 1


def test_truncated_segment_variants_are_all_rejected(tmp_path):
    with TelemetryStore(tmp_path, roll_samples=10**9) as store:
        fill_store(store, 64, seed=4)
        store.seal()
    (segment,) = tmp_path.glob("*.seg")
    image = segment.read_bytes()
    for broken in (b"", image[:7], image[:-1], image[: len(image) // 2], b"junk" * 8):
        segment.write_bytes(broken)
        with pytest.raises(StoreError):
            SealedSegment(segment)
    segment.write_bytes(image)
    seg = SealedSegment(segment)  # the pristine image still opens
    assert seg.n == 64
    seg.close()


def test_seal_tmp_leftover_is_cleaned_up(tmp_path):
    with TelemetryStore(tmp_path, roll_samples=10**9) as store:
        fill_store(store, 32, seed=6)
    (tmp_path / "seg-000099.seg.tmp").write_bytes(b"half-written seal")
    with TelemetryStore(tmp_path) as store:
        assert store.sample_count == 32
    assert not list(tmp_path.glob("*.seg.tmp"))


def test_crash_between_publish_and_unlink_does_not_duplicate(tmp_path):
    """A journal whose index already sealed is dropped, not double-counted."""
    with TelemetryStore(tmp_path, roll_samples=10**9) as store:
        times, _, _ = fill_store(store, 120, seed=7)
    # Recreate the journal the seal would have unlinked.
    from repro.store.format import encode_journal_chunk, encode_journal_header

    header = {
        "version": 1,
        "columns": [0, 1, 2, 3],
        "enabled": [True] * 4 + [False] * (SENSORS - 4),
        "sample_rate": 0.0,
        "device": None,
        "pair_names": [],
    }
    values = np.zeros((120, 4))
    with open(tmp_path / "seg-000000.jrnl", "wb") as f:
        f.write(encode_journal_header(header))
        f.write(encode_journal_chunk(times, values, np.zeros(120, dtype=bool)))
    with TelemetryStore(tmp_path) as store:
        assert store.sample_count == 120
        assert len(store.segments) == 1
    assert not list(tmp_path.glob("*.jrnl"))


def test_a_failed_seal_keeps_its_rows_and_seals_again(tmp_path, monkeypatch):
    """A seal that cannot publish (a full disk) drops nothing: the journal
    keeps its file and rows, and the next append or close() seals them."""
    write_sealed = TelemetryStore._write_sealed
    failures = [OSError(errno.ENOSPC, "No space left on device")]

    def flaky(self, index, image):
        if failures:
            raise failures.pop()
        return write_sealed(self, index, image)

    monkeypatch.setattr(TelemetryStore, "_write_sealed", flaky)
    times, values, markers = synth_rows(300, seed=17)
    store = TelemetryStore(tmp_path, roll_samples=100)
    failed = 0
    for start in range(0, 300, 50):
        try:
            fill = slice(start, start + 50)
            store.append(
                SampleBlock(
                    times=times[fill], values=values[fill], markers=markers[fill],
                    enabled=enabled_mask(),
                )
            )
        except OSError:
            failed += 1  # the caller carries on
    assert failed == 1 and store.sample_count == 300
    store.close()
    with TelemetryStore(tmp_path) as reopened:
        result = reopened.query(None, None, None)
    assert np.array_equal(result.times, times)
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.markers, markers)


def test_a_reopened_store_keeps_the_tiers_it_was_recorded_with(tmp_path):
    with TelemetryStore(tmp_path, roll_samples=250, tier_factors=(4, 16)) as store:
        fill_store(store, 1000, seed=19, block=125)
        before = store.query(None, None, 10)
    assert before.factor > 16  # tier-16 buckets, re-bucketed to fit 10 rows
    with TelemetryStore(tmp_path) as reopened:
        assert reopened.tier_factors == (4, 16)
        assert_same_result(reopened.query(None, None, 10), before)
        fill_store(reopened, 100, seed=20, t0=1.0)
        reopened.abandon()
    # A journal left by a crash seals with the recorded tiers too.
    with TelemetryStore(tmp_path) as salvaged:
        assert [seg.tier_factors for seg in salvaged.segments] == [[1, 4, 16]] * 5
    with TelemetryStore(tmp_path / "new") as empty:
        assert empty.tier_factors == DEFAULT_TIER_FACTORS


def test_journal_reader_reports_damage_flag(tmp_path):
    path = tmp_path / "x.jrnl"
    path.write_bytes(b"not a journal at all")
    header, times, values, markers, damaged = read_journal(path)
    assert header is None and damaged and times.size == 0


def test_append_to_closed_store_raises(tmp_path):
    store = TelemetryStore(tmp_path)
    store.close()
    times, values, markers = synth_rows(4)
    with pytest.raises(StoreError, match="closed"):
        store.append(
            SampleBlock(
                times=times, values=values, markers=markers, enabled=enabled_mask()
            )
        )
    store.close()  # idempotent


# --------------------------------------------------------------------------- #
# The equivalence pin: store:// vs replay:// on the same capture
# --------------------------------------------------------------------------- #


def test_store_restream_matches_replay_bit_for_bit(tmp_path):
    tape = tmp_path / "run.dump"
    record_tape(tape, n=1600, seed=3)
    store = import_dump(tape, tmp_path / "store")
    store.close()

    replay = create_source(f"replay://{tape}")
    restream = create_source(f"store://{tmp_path / 'store'}")
    try:
        assert restream.sample_rate == replay.sample_rate
        assert [c.pair_name for c in restream.configs] == [
            c.pair_name for c in replay.configs
        ]
        replay.start()
        restream.start()
        for _ in range(4):
            a = replay.read_block(400)
            b = restream.read_block(400)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.markers, b.markers)
            assert np.array_equal(a.enabled, b.enabled)
        assert replay.exhausted and restream.exhausted
        assert (
            replay.health.samples_decoded == restream.health.samples_decoded == 1600
        )
    finally:
        replay.close()
        restream.close()


def test_import_dump_preserves_markers_rate_names_energy(tmp_path):
    tape = io.StringIO()
    writer = DumpWriter(tape, ["cpu", "gpu"], 100.0)
    times = (np.arange(50) + 1) / 100.0
    volts = np.column_stack([np.full(50, 12.0), np.full(50, 5.0)])
    amps = np.column_stack([np.full(50, 2.0), np.full(50, 1.0)])
    writer.write_samples(times, volts, amps)
    writer.write_marker(0.25, "A")
    writer.write_marker(0.40, "B")
    writer.close()
    dump_path = tmp_path / "named.dump"
    dump_path.write_text(tape.getvalue())

    data = DumpReader.read(dump_path)
    with import_dump(dump_path, tmp_path / "store", device="bench") as store:
        assert store.sample_rate == 100.0
        assert store.pair_names == ["cpu", "gpu"]
        (seg,) = store.segments
        assert seg.sample_rate == 100.0 and seg.device == "bench"
        result = store.query(None, None, None)
        # amps on even columns, volts on odd — exactly the replay layout.
        assert np.allclose(result.values[:, 0], 2.0)
        assert np.allclose(result.values[:, 1], 12.0)
        assert np.allclose(result.values[:, 2], 1.0)
        assert np.allclose(result.values[:, 3], 5.0)
        # Markers land on the sample at/after their timestamp.
        marked = result.times[result.markers]
        assert np.allclose(marked, [0.25, 0.40])
        # Integrated energy matches the text-dump analysis path.
        power = result.total_power()
        assert np.trapezoid(power, result.times) == pytest.approx(
            data.energy(), rel=1e-9
        )


def test_store_source_window_speed_and_errors(tmp_path):
    with TelemetryStore(tmp_path, roll_samples=100) as store:
        times, values, _ = fill_store(store, 400, seed=11)
    src = create_source(f"store://{tmp_path}?t0=0.1005&t1=0.2&speed=2.0")
    try:
        assert src.sample_rate == pytest.approx(2000.0)  # 2x the inferred rate
        src.start()
        block = src.read_block(1000)
        mask = (times >= 0.1005) & (times <= 0.2)
        assert len(block) == int(mask.sum())
        assert np.array_equal(block.values, values[mask])
    finally:
        src.close()
    with pytest.raises(MeasurementError, match="holds no samples"):
        create_source(f"store://{tmp_path}?t0=900&t1=901")
    src = create_source(f"store://{tmp_path}")
    try:
        with pytest.raises(ServerError, match="read-only"):
            src.write_configs(list(src.configs))
    finally:
        src.close()


def test_tail_source_pulls_a_live_stream(tmp_path):
    setup = make_loaded_setup(direct=False, seed=5, calibration_samples=1024)
    try:
        with TelemetryStore(tmp_path, roll_samples=500) as store:
            taken = tail_source(setup.source, store, 1200, block_size=256)
            assert taken == 1200
            assert store.sample_count == 1200
    finally:
        setup.close()


def test_powersensor_record_roundtrip_is_exact(tmp_path):
    setup = make_loaded_setup(direct=False, seed=8, calibration_samples=1024)
    blocks = []
    try:
        setup.ps.record(str(tmp_path / "rec"))
        setup.ps.mark("X")
        for _ in range(3):
            blocks.append(setup.ps.pump(500))
    finally:
        setup.close()  # close() seals and closes the owned store
    times = np.concatenate([b.times for b in blocks])
    values = np.concatenate([b.values for b in blocks])
    markers = np.concatenate([b.markers for b in blocks])
    with TelemetryStore(tmp_path / "rec") as store:
        assert store.sample_rate == pytest.approx(20_000.0)
        assert store.pair_names == ["pcie_slot_12v"]
        result = store.query(None, None, None)
        assert np.array_equal(result.times, times)
        assert np.array_equal(result.values, values)
        assert np.array_equal(result.markers, markers)
        assert int(result.markers.sum()) == 1


# --------------------------------------------------------------------------- #
# Serving: psserve --record-store and HISTORY queries
# --------------------------------------------------------------------------- #


def test_server_records_and_serves_history(tmp_path):
    sock = tmp_path / "ps.sock"
    src = create_source("sim://pcie_slot_12v?seed=11&calibration_samples=1024")
    server = PowerSensorServer(
        src,
        f"unix:{sock}",
        record_store=str(tmp_path / "hist"),
        store_roll=4000,
        wait_clients=1,
        time_scale=0.0,
    )
    server.start()
    pump = threading.Thread(target=lambda: server.serve(duration=0.5))
    pump.start()
    try:
        rss = RemoteSampleSource(f"unix:{sock}")
        try:
            assert rss.link.hello["devices"]["device0"]["history"] is True
            rss.start()
            live = rss.read_block(2000)
            assert len(live) == 2000
            tiered = rss.query_history(max_points=300)
            assert 0 < len(tiered) <= 300
            assert tiered.n_source >= 2000
            assert np.all(tiered.vmin <= tiered.values + 1e-12)
            assert np.all(tiered.values <= tiered.vmax + 1e-12)
            exact = rss.query_history(t0=0.01, t1=0.02, max_points=10**6)
            assert exact.factor == 1
            assert np.all((exact.times >= 0.01) & (exact.times <= 0.02))
            # The historical rows are the very samples that were streamed.
            overlap = np.isin(np.round(exact.times, 9), np.round(live.times, 9))
            assert overlap.all()
        finally:
            rss.close()
        pump.join()
    finally:
        server.close()
        src.close()
    # The recording outlives the server and replays through store://.
    with TelemetryStore(tmp_path / "hist" / "device0") as store:
        assert store.sample_count == 10_000
    replayed = create_source(f"store://{tmp_path / 'hist' / 'device0'}")
    try:
        replayed.start()
        assert len(replayed.read_block(10_000)) == 10_000
    finally:
        replayed.close()


def test_history_without_record_store_is_a_clean_error(tmp_path):
    sock = tmp_path / "ps.sock"
    src = create_source("sim://pcie_slot_12v?seed=11&calibration_samples=1024")
    server = PowerSensorServer(src, f"unix:{sock}", time_scale=0.0)
    server.start()
    pump = threading.Thread(target=lambda: server.serve(duration=0.05))
    pump.start()
    try:
        rss = RemoteSampleSource(f"unix:{sock}")
        try:
            assert rss.link.hello["devices"]["device0"]["history"] is False
            with pytest.raises(ServerError, match="record-store"):
                rss.query_history()
        finally:
            rss.close()
        pump.join()
    finally:
        server.close()
        src.close()


def test_history_payloads_fuzz_cleanly():
    from repro.common.errors import ProtocolError
    from repro.server.wire import pack_history, unpack_history

    payload = pack_history(0, 4, 123, b"window-bytes", np.ones(8), np.ones(8))
    status, factor, n_source, window, vmin, vmax = unpack_history(payload)
    assert (status, factor, n_source, window) == (0, 4, 123, b"window-bytes")
    assert vmin.size == vmax.size == 8
    rng = np.random.default_rng(0)
    for _ in range(50):
        cut = int(rng.integers(0, len(payload)))
        try:
            unpack_history(payload[:cut])
        except ProtocolError:
            pass  # rejecting is fine; crashing or misparsing is not


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #


def test_store_metrics_and_spans(tmp_path):
    from repro.observability import Tracer

    registry = MetricsRegistry()
    tracer = Tracer(registry)
    with TelemetryStore(
        tmp_path, roll_samples=100, device="dev7", registry=registry, tracer=tracer
    ) as store:
        fill_store(store, 250, seed=1, block=50)
        store.query(None, None, 10)
    labels = {"device": "dev7"}
    assert registry.value("store_samples_appended_total", **labels) == 250
    # 50+100 rows seal, 50+100 seal again, and close() seals the last 50.
    assert registry.value("store_segments_sealed_total", **labels) == 3
    assert registry.value("store_queries_total", **labels) == 1
    assert registry.value("store_bytes", **labels) > 0
    span_names = {record.name for record in tracer.records()}
    assert {"store_seal", "store_query"} <= span_names


# --------------------------------------------------------------------------- #
# DumpReader error attribution (line number AND byte offset)
# --------------------------------------------------------------------------- #


def _grid_dump_with_bad_header_line() -> str:
    good = io.StringIO()
    writer = DumpWriter(good, ["p"], 100.0)
    writer.write_samples(
        (np.arange(4) + 1) / 100.0, np.full((4, 1), 12.0), np.full((4, 1), 2.0)
    )
    writer.close()
    text = good.getvalue()
    head, _, data = text.partition("\n# pairs: p\n")
    return head + "\n# pairs: p\nMoo\n" + data


def test_dump_error_reports_line_and_offset_grid_path():
    text = _grid_dump_with_bad_header_line()
    lineno = text.splitlines().index("Moo") + 1
    offset = text.index("Moo")
    with pytest.raises(ValueError) as err:
        DumpReader.read(io.StringIO(text))
    assert f"line {lineno}" in str(err.value)
    assert f"byte offset {offset}" in str(err.value)
    assert "'Moo'" in str(err.value)


def test_dump_error_reports_line_and_offset_general_path():
    # Ragged rows + a mid-file special force the general line scan.
    text = (
        "# sample_rate_hz: 100\n"
        "# pairs: p\n"
        "0.01 12.0 2.0\n"
        "0.02 12.25 2.125\n"
        "Moo\n"
        "0.03 12.0 2.0\n"
    )
    with pytest.raises(ValueError) as err:
        DumpReader.read(io.StringIO(text))
    assert "line 5" in str(err.value)
    assert f"byte offset {text.index('Moo')}" in str(err.value)


def test_dump_good_special_lines_still_parse(tmp_path):
    # The attribution fix must not disturb normal marker/header parsing.
    tape = tmp_path / "m.dump"
    good = io.StringIO()
    writer = DumpWriter(good, ["p"], 100.0)
    writer.write_samples(
        (np.arange(4) + 1) / 100.0, np.full((4, 1), 12.0), np.full((4, 1), 2.0)
    )
    writer.write_marker(0.02, "Z")
    writer.close()
    tape.write_text(good.getvalue())
    data = DumpReader.read(tape)
    assert data.sample_rate_hz == 100.0
    assert data.pair_names == ["p"]
    assert data.markers == [(0.02, "Z")]


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #


def test_psplot_renders_a_store(tmp_path, capsys):
    from repro.cli.psplot import main as psplot_main

    with TelemetryStore(tmp_path / "s", roll_samples=100) as store:
        fill_store(store, 400, seed=13)
    assert psplot_main([str(tmp_path / "s"), "--max-points", "50"]) == 0
    out = capsys.readouterr().out
    assert "covering 400 samples" in out
    assert "W |" in out  # the chart rendered
    assert psplot_main([f"store://{tmp_path / 's'}", "--t0", "0.2"]) == 0
    assert "covering" in capsys.readouterr().out


def test_psrun_record_store_flag(tmp_path):
    from repro.cli.psrun import main as psrun_main

    import sys

    code = psrun_main(
        [
            "--direct",
            "--modules",
            "pcie_slot_12v",
            "--dut",
            "load:4.0@12.0",
            "--time-scale",
            "50",
            "--record-store",
            str(tmp_path / "rec"),
            "--",
            sys.executable,
            "-c",
            "pass",
        ]
    )
    assert code == 0
    with TelemetryStore(tmp_path / "rec") as store:
        assert store.sample_count > 0


# --------------------------------------------------------------------------- #
# compute_tier unit pin
# --------------------------------------------------------------------------- #


def test_compute_tier_matches_brute_force():
    times, values, markers = synth_rows(101, seed=21)
    cols = values[:, :3]
    t, mins, means, maxs, any_m = compute_tier(times, cols, markers, 8)
    for b in range(t.size):
        lo, hi = 8 * b, min(8 * (b + 1), 101)
        assert t[b] == pytest.approx(times[lo:hi].mean())
        assert np.array_equal(mins[b], cols[lo:hi].min(axis=0))
        assert np.allclose(means[b], cols[lo:hi].mean(axis=0))
        assert np.array_equal(maxs[b], cols[lo:hi].max(axis=0))
        assert any_m[b] == markers[lo:hi].any()


def test_encode_segment_rejects_bad_shapes():
    times, values, markers = synth_rows(10)
    with pytest.raises(StoreError, match="empty"):
        encode_segment(
            np.zeros(0), np.zeros((0, 2)), np.zeros(0, dtype=bool), {},
            columns=[0, 1], enabled=enabled_mask(2),
        )
    tiers = {4: compute_tier(times, values[:, :3], markers, 4)}
    with pytest.raises(StoreError, match="shape"):
        encode_segment(
            times, values[:, :3], markers, tiers, columns=[0, 1], enabled=enabled_mask(2)
        )
