"""The streaming-report regression gate on synthetic reports."""

import importlib.util
from pathlib import Path

_GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "check_streaming_regression.py"
_spec = importlib.util.spec_from_file_location("check_streaming_regression", _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def report(**producer) -> dict:
    """A report whose fan-out anchor passes, with the given producer numbers."""
    point = {"n_clients": 64, "per_client_samples_per_s": 90_000, "encode_once": True}
    return {"server": {"scaling": {"drop_oldest": [point]}}, "producer": producer}


BASELINE = report(read_block_samples_per_s=7_000_000, sustained_samples_per_s=360_000)


def test_gate_passes_within_allowance():
    current = report(read_block_samples_per_s=6_000_000, sustained_samples_per_s=300_000)
    assert gate.check(BASELINE, current, max_regression=20.0) == []


def test_gate_fails_sustained_rate_regression():
    current = report(read_block_samples_per_s=7_000_000, sustained_samples_per_s=280_000)
    failures = gate.check(BASELINE, current, max_regression=20.0)
    assert len(failures) == 1
    assert failures[0].startswith("REGRESSION producer sustained rate: 280000/s")


def test_gate_fails_missing_sustained_rate():
    current = report(read_block_samples_per_s=7_000_000)
    failures = gate.check(BASELINE, current, max_regression=20.0)
    assert failures == ["current report has no producer.sustained_samples_per_s"]


def test_gate_skips_rates_the_baseline_lacks():
    baseline = report(read_block_samples_per_s=7_000_000)
    current = report(read_block_samples_per_s=7_000_000, sustained_samples_per_s=1)
    assert gate.check(baseline, current, max_regression=20.0) == []
