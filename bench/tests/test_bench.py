"""Tests of the benchmark itself: outputs, oracles, trace arithmetic, verdicts.

Run with ``python -m pytest bench/tests`` (outside the tier-1 suite).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from bench import compare, hostspeed
from bench.run import ROOT, declaration
from bench.trace import ROOT as ROOT_SPAN, Tracer, inclusive_time, self_times
from bench.workloads import WORKLOADS
from bench.workloads.common import UNTRACED, Context, check_energy, end_to_end

SMOKE_SECONDS = "1"


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.stdout.strip(), proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- #
# Each workload at smoke scale                                           #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seconds", SMOKE_SECONDS)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = declaration()["end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in declared}
    for spec in declared:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0
        line = next(l for l in proc.stdout.splitlines() if l.split()[:1] == [spec["name"]])
        assert line.split()[-1] == spec["unit"]
    assert any(l.split()[:1] == ["ops_failed"] for l in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_accounts_for_the_wall(workload):
    proc = run_bench("--workload", workload, "--seconds", SMOKE_SECONDS, "--trace")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {spec["name"] for spec in declaration()["per_layer"]}
    assert metrics["trace.ops"] >= 1 and metrics["trace.wall_s"] > 0
    # Self times are per operation: with bench.other_s they add up to the
    # traced wall per operation.
    wall = metrics["trace.wall_s"] / metrics["trace.ops"]
    assert abs(metrics["trace.self_sum_error_pct"]) <= 5.0
    assert metrics["bench.other_s"] <= 0.05 * wall
    selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(selfs + metrics["bench.other_s"] - wall) <= 0.05 * wall


def test_run_without_program_source_fails_without_a_result(tmp_path):
    proc = run_bench("--workload", "fleet-poll", "--src", str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------- #
# Oracles count corrupted outputs as failures                            #
# ---------------------------------------------------------------------- #


def test_end_to_end_takes_medians_over_windows():
    ctx = Context()
    ctx.phase = UNTRACED
    # Nine fast windows of two operations, three slowed ones, a short tail.
    for seconds in [0.01] * 18 + [0.03] * 6 + [0.01]:
        ctx.rate(10, seconds)
        ctx.latency(seconds)
    ctx.reference[UNTRACED] = [(0.0, hostspeed.REFERENCE_S)] * 3
    gated, extras = end_to_end(ctx, rate_window=2, latency_window=2)
    assert gated["work_per_s"] == pytest.approx(1000.0)
    assert gated["op_p50_ms"] == pytest.approx(10.0)
    assert extras["windows"]["value"] == 12  # the tail joined the last window
    assert extras["ops_timed"]["value"] == 25
    # The whole run's mean rate reads how much of it was slowed.
    assert 1.0 / ctx.seconds_per_work(UNTRACED) == pytest.approx(250 / 0.37)

    # On a host running at half its usual speed the reference kernel takes
    # twice as long; the same raw timings read twice as fast.
    ctx.reference[UNTRACED] = [(0.0, 2 * hostspeed.REFERENCE_S)] * 3
    gated, extras = end_to_end(ctx, rate_window=2, latency_window=2)
    assert gated["work_per_s"] == pytest.approx(2000.0)
    assert gated["op_p50_ms"] == pytest.approx(5.0)
    assert extras["work_per_s.raw"]["value"] == pytest.approx(1000.0)
    assert extras["host_speed"]["value"] == pytest.approx(0.5)


def test_end_to_end_scales_each_window_by_the_host_speed_around_it():
    ctx = Context()
    ctx.phase = UNTRACED
    # Four windows of one operation each; the host runs at half speed
    # during the last two, which take twice as long.
    ctx.reference[UNTRACED] = [
        (t, hostspeed.REFERENCE_S * (1 if t < 2.5 else 2)) for t in (0.5, 1.5, 2.5, 3.5)
    ]
    for end, seconds in zip((1.0, 2.0, 3.0, 4.0), (0.01, 0.01, 0.02, 0.02)):
        ctx.rates[UNTRACED].append((10.0, seconds))
        ctx.rate_ends[UNTRACED].append(end)
        ctx.latencies[UNTRACED].append(seconds)
        ctx.latency_ends[UNTRACED].append(end)
    gated, extras = end_to_end(ctx)
    assert gated["work_per_s"] == pytest.approx(1000.0)
    assert gated["op_p50_ms"] == pytest.approx(10.0)
    assert extras["op_p50_ms.raw"]["value"] == pytest.approx(15.0)


def test_energy_oracle_tolerance():
    ctx = Context()
    assert check_energy(ctx, 1.004, 1.0)
    assert not check_energy(ctx, 1.006, 1.0)
    assert (ctx.attempted, ctx.failed) == (2, 1)


def test_stream_gpu_dropped_sample_is_a_failure(tmp_path):
    from bench.workloads.stream_gpu import StreamGpu
    from repro.core.sources import SampleBlock

    workload = StreamGpu(0, str(tmp_path))
    workload.setup()
    try:
        ctx = Context()
        workload.step(ctx)
        assert ctx.failed == 0
        pump = workload.bench.ps.pump

        def drop_last(n):
            block = pump(n)
            return SampleBlock(block.times[:-1], block.values[:-1], block.markers[:-1],
                               block.enabled)

        workload.bench.ps.pump = drop_last
        workload.step(ctx)
        assert ctx.failed == 1
    finally:
        workload.close()


@pytest.fixture
def small_store(tmp_path):
    from bench.workloads import store_mixed
    from repro.store import TelemetryStore

    workload = store_mixed.StoreMixed(0, str(tmp_path))
    workload.setup()
    workload.recording = store_mixed.Recording(0, blocks=8)
    store = TelemetryStore(tmp_path / "store", roll_samples=20_000,
                           sample_rate=store_mixed.RATE)
    last = None
    for lo in range(0, workload.recording.rows, store_mixed.APPEND_ROWS):
        last = workload.block(lo)
        store.append(last)
    yield workload, store, last
    store.close()


def test_store_recording_regenerates_rows_and_searches_like_numpy():
    from bench.workloads import store_mixed

    rec = store_mixed.Recording(3, blocks=3)
    times, values, markers = (np.concatenate(p) for p in zip(
        *(rec.block(lo) for lo in range(0, rec.rows, store_mixed.APPEND_ROWS))))
    assert np.array_equal(times, np.arange(rec.rows) * (1.0 / store_mixed.RATE))
    lo, hi = 8000, 16500
    got = rec.rows_between(lo, hi)
    for part, whole in zip(got, (times, values, markers)):
        assert np.array_equal(part, whole[lo:hi])
    for t in (0.0, times[5], times[5] + 1e-9, times[-1], 0.4123456):
        for side in ("left", "right"):
            assert rec.index(t, side) == np.searchsorted(times, t, side=side)
    assert np.array_equal(rec.envelope_around(100, 700)[0], values[0:768].min(axis=0))
    assert np.array_equal(rec.envelope_within(100, 700)[1], values[256:512].max(axis=0))


def test_store_query_blocks_ask_for_the_same_mix():
    from bench.workloads import store_mixed as sm

    span = 100.0
    plan = sm.plan_queries(7, span)
    assert len(plan) == sm.QUERIES
    lo, hi = np.log(sm.MIN_WIDTH_S), np.log(span)
    for first in range(0, sm.QUERIES, sm.QUERY_BLOCK):
        block = plan[first:first + sm.QUERY_BLOCK]
        assert sum(max_points is None for _, _, max_points in block) == 10
        strata = [int((np.log(t1 - t0) - lo) / (hi - lo) * sm.QUERY_BLOCK)
                  for t0, t1, max_points in block if max_points is not None]
        assert len(set(strata)) == len(strata)  # one width per slice
        assert all(0.0 <= t0 < t1 <= span for t0, t1, _ in block)


def test_store_flipped_row_is_a_failure(small_store):
    workload, store, _ = small_store
    ctx = Context()
    result = store.query(0.5, 0.6)
    assert workload.check_full(ctx, result, 0.5, 0.6)
    bits = result.values.view(np.uint64)
    bits[3, 1] ^= np.uint64(1)
    assert not workload.check_full(ctx, result, 0.5, 0.6)
    assert ctx.failed == 1


def test_store_wrong_envelope_and_stale_tail_are_failures(small_store):
    workload, store, last = small_store
    ctx = Context()
    result = store.query(0.2, 2.9, max_points=100)
    assert result.factor > 1
    assert workload.check_tiered(ctx, result, 0.2, 2.9, 100)
    result.vmax[:, 0] -= 1.0
    assert not workload.check_tiered(ctx, result, 0.2, 2.9, 100)
    # A range within budget comes back raw and must equal the rows.
    raw = store.query(0.2, 0.21, max_points=1000)
    assert raw.factor == 1 and workload.check_tiered(ctx, raw, 0.2, 0.21, 1000)
    raw.values[0, 2] += 1e-9
    assert not workload.check_tiered(ctx, raw, 0.2, 0.21, 1000)

    t_new = float(last.times[-1])
    tail = store.query(t_new - 1.0, t_new, max_points=100)
    assert workload.check_live(ctx, tail, t_new - 1.0, last)
    stale = store.query(t_new - 1.0, t_new - 0.01, max_points=100)
    assert not workload.check_live(ctx, stale, t_new - 1.0, last)
    assert ctx.failed == 3


def test_psfio_perturbed_ftl_statistic_is_a_failure():
    from bench.workloads import psfio_ftl

    with open(psfio_ftl.PINS) as f:
        pinned = json.load(f)
    assert psfio_ftl.compare_stats(pinned, pinned) == []

    def perturbed(job, field, factor):
        got = json.loads(json.dumps(pinned))
        got[job][field] *= factor
        return psfio_ftl.compare_stats(got, pinned)

    assert perturbed("group/steady-writes", "write_amplification", 1 + 1e-12)
    assert perturbed("page/reads", "lookup_ops", 2)
    assert perturbed("page/steady-writes", "joules_per_io", 1.005) == []
    assert perturbed("page/steady-writes", "joules_per_io", 1.02)
    assert perturbed("page/steady-writes", "ss_stopped_at_s", 2)
    assert perturbed("group/steady-writes", "ss_value", 1 + 1e-6)


def test_serve_sequence_gap_is_a_failure():
    from dataclasses import asdict

    from bench.workloads.serve_mixed import CHUNK, check_session
    from repro.server.loadgen import ClientResult

    samples = 4 * CHUNK

    def clients(gaps=0):
        eos = {"samples_sent": samples, "frames_dropped": 0}
        return {
            device: [asdict(ClientResult(index=0, device=device, frames=4,
                                         seq_gaps=gaps if device == "live" else 0, eos=eos))]
            for device in ("live", "tape")
        }

    stats = {"devices": {"live": samples, "tape": samples}}
    ctx = Context()
    assert check_session(ctx, stats, clients(), samples, 8) == 8
    assert ctx.failed == 0
    check_session(ctx, stats, clients(gaps=1), samples, 8)
    assert ctx.failed == 1
    check_session(ctx, stats, clients(), samples, 7)
    assert ctx.failed == 2


# ---------------------------------------------------------------------- #
# Trace arithmetic                                                       #
# ---------------------------------------------------------------------- #


def test_self_times_of_nested_spans():
    records = [
        ("bench", 0.0, 10.0, -1),
        ("core.pump", 1.0, 5.0, 0),
        ("hardware.read_codes", 2.0, 3.0, 1),
        ("hardware.read_codes", 6.0, 8.0, 0),
        ("bench", 20.0, 21.0, -1),
    ]
    selfs, calls, wall = self_times(records)
    assert selfs == {"bench": 5.0, "core.pump": 3.0, "hardware.read_codes": 3.0}
    assert calls == {"bench": 2, "core.pump": 1, "hardware.read_codes": 2}
    assert wall == 11.0
    assert sum(selfs.values()) == wall


def test_inclusive_time_counts_only_outermost_spans():
    records = [
        ("bench", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("x", 2.0, 3.0, 1),
        ("x", 6.0, 7.0, 0),
    ]
    assert inclusive_time(records, "x") == 5.0


class _Layer:
    def work(self, n):
        return sum(range(n))


class _Sub(_Layer):
    pass


def test_tracer_nests_adopts_threads_and_unwraps():
    original = _Layer.__dict__["work"]
    tracer = Tracer()
    assert tracer.wrap(_Layer, "work", "layer.work")
    assert tracer.wrap(_Sub, "work", "sub.work")
    assert not tracer.wrap(_Layer, "missing", "x")
    tracer.active = True
    with tracer.span(ROOT_SPAN):
        _Layer().work(1000)
        thread = threading.Thread(target=_Sub().work, args=(1000,))
        thread.start()
        thread.join()
    tracer.active = False
    _Layer().work(10)  # inactive: not recorded
    records = tracer.records()
    names = [r[0] for r in records]
    assert names == [ROOT_SPAN, "layer.work", "sub.work", "layer.work"]
    # The thread's outer span is adopted by the main thread's open span.
    assert [r[3] for r in records] == [-1, 0, 0, 2]
    selfs, _, wall = self_times(records)
    assert sum(selfs.values()) == pytest.approx(wall)
    tracer.unwrap()
    assert _Layer.__dict__["work"] is original
    assert "work" not in _Sub.__dict__


# ---------------------------------------------------------------------- #
# compare.py verdicts                                                    #
# ---------------------------------------------------------------------- #


def test_verdict_gain_needs_wins_and_a_difference_beyond_the_parent_spread():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [p * 1.10 for p in parent]
    assert compare.verdict(parent, change, "higher", 0.1) == ("gain", 1.0)
    # Lower-is-better metrics flip the direction.
    assert compare.verdict(change, parent, "lower", 0.1)[0] == "gain"
    # Every pair won, but by less than the parent's interquartile range.
    assert compare.verdict(parent, [p + 0.5 for p in parent], "higher", 0.1)[0] == "unresolved"


def test_verdict_unresolved_and_regressed():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    noisy = [110.0, 90, 111, 89, 112, 91, 110, 90, 111, 92]
    verdict, share = compare.verdict(parent, noisy, "higher", 0.1)
    assert verdict == "unresolved" and share == 0.5
    assert compare.verdict(parent, [p * 0.85 for p in parent], "higher", 0.1)[0] == "regressed"
    slightly_worse = [p * 0.95 for p in parent]
    assert compare.verdict(parent, slightly_worse, "higher", 0.1)[0] == "unresolved"
    # A faster change that fails more operations claims no gain.
    faster = [p * 1.10 for p in parent]
    assert compare.verdict(parent, faster, "higher", 0.1, 0, 3)[0] == "unresolved"


def test_verdict_needs_ten_pairs():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99]
    change = [p * 1.10 for p in parent]
    # Nine pairs, every one won by far more than the parent's spread.
    assert compare.verdict(parent, change, "higher", 0.1) == ("unresolved", 1.0)
    assert compare.verdict([100.0], [200.0], "higher", 0.1)[0] == "unresolved"
    # Too few pairs still catches a regression.
    assert compare.verdict([100.0], [50.0], "higher", 0.1)[0] == "regressed"


def test_compare_rejects_fewer_than_ten_pairs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        compare.main(["--src", "a", "--src", "b", "--pairs", "9"])
    assert exit_info.value.code == 2
    assert "at least 10" in capsys.readouterr().err
