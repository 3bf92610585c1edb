"""Dump files: write, parse, integrate, markers."""

import io

import numpy as np
import pytest

from repro.common.errors import MeasurementError
from repro.core.dump import DumpData, DumpReader, DumpWriter
from repro.core.setup import SimulatedSetup
from repro.dut.rails import build_rail
from repro.server import PowerSensorServer
from repro.store import TelemetryStore
from tests.conftest import make_loaded_setup


def roundtrip(times, volts, amps, markers=()):
    buffer = io.StringIO()
    writer = DumpWriter(buffer, ["pair0"], 20_000.0)
    for t, char in markers:
        writer.write_marker(t, char)
    writer.write_samples(times, volts, amps)
    buffer.seek(0)
    return DumpReader.read(buffer)


def test_roundtrip_preserves_data():
    times = np.array([0.0, 5e-5, 1e-4])
    volts = np.full((3, 1), 12.0)
    amps = np.full((3, 1), 2.0)
    data = roundtrip(times, volts, amps)
    assert data.sample_rate_hz == 20_000.0
    assert data.pair_names == ["pair0"]
    assert np.allclose(data.times, times)
    assert np.allclose(data.volts, 12.0)
    assert np.allclose(data.amps, 2.0)


def test_total_power_column_recomputed():
    data = roundtrip(np.array([0.0, 1.0]), np.full((2, 1), 10.0), np.full((2, 1), 3.0))
    assert np.allclose(data.total_power, 30.0)


def test_markers_parse():
    data = roundtrip(
        np.array([0.0, 1.0]),
        np.ones((2, 1)),
        np.ones((2, 1)),
        markers=[(0.5, "A"), (0.7, "B")],
    )
    assert data.markers == [(0.5, "A"), (0.7, "B")]
    assert data.between_markers("A", "B") == (0.5, 0.7)


def test_between_markers_missing_raises():
    data = roundtrip(np.array([0.0, 1.0]), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(MeasurementError):
        data.between_markers("A", "B")


def test_energy_integration():
    times = np.linspace(0, 1, 101)
    volts = np.full((101, 1), 12.0)
    amps = np.full((101, 1), 1.0)
    data = roundtrip(times, volts, amps)
    assert data.energy() == pytest.approx(12.0, rel=1e-6)
    assert data.energy(start=0.25, stop=0.75) == pytest.approx(6.0, rel=0.05)


def test_energy_needs_two_samples():
    data = roundtrip(np.array([0.0, 1.0]), np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(MeasurementError):
        data.energy(start=10.0)


def test_powersensor_dump_end_to_end(tmp_path):
    setup = make_loaded_setup(amps=4.0)
    path = tmp_path / "capture.txt"
    setup.ps.dump(path)
    setup.ps.mark("S")
    setup.ps.pump(2000)
    setup.ps.mark("E")
    setup.ps.pump(2000)
    setup.ps.dump(None)  # close
    data = DumpReader.read(path)
    assert data.times.size == 4000
    assert [c for _, c in data.markers] == ["S", "E"]
    assert data.total_power.mean() == pytest.approx(48.0, rel=0.02)
    setup.close()


def test_dump_stop_allows_new_dump(tmp_path):
    setup = make_loaded_setup()
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    setup.ps.dump(first)
    setup.ps.pump(100)
    setup.ps.dump(second)
    setup.ps.pump(100)
    setup.ps.dump(None)
    assert DumpReader.read(first).times.size == 100
    assert DumpReader.read(second).times.size == 100
    setup.close()


def test_dumpdata_dataclass_direct():
    data = DumpData(
        sample_rate_hz=1.0,
        pair_names=["x"],
        times=np.array([0.0, 1.0]),
        volts=np.array([[1.0], [1.0]]),
        amps=np.array([[2.0], [2.0]]),
    )
    assert data.energy() == pytest.approx(2.0)


# --------------------------------------------------------------------- #
# Fast renderer / fast parser vs the general paths                      #
# --------------------------------------------------------------------- #


def _random_dump(seed, n=400, pairs=2, negatives=True):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(1e-5, 1e-4, size=n))
    volts = rng.uniform(0.0, 48.0, size=(n, pairs))
    amps = rng.uniform(-5.0 if negatives else 0.0, 20.0, size=(n, pairs))
    return times, volts, amps


def _write(times, volts, amps, markers=(), writer_patch=None):
    buffer = io.StringIO()
    writer = DumpWriter(buffer, [f"p{i}" for i in range(volts.shape[1])], 20_000.0)
    if writer_patch:
        writer_patch(writer)
    for t, char in markers:
        writer.write_marker(t, char)
    writer.write_samples(times, volts, amps)
    return buffer.getvalue()


def test_fast_and_slow_renderers_parse_identically(monkeypatch):
    """Byte layouts differ (the fast path pads columns) but every parsed
    value must be bit-identical between the two renderers."""
    times, volts, amps = _random_dump(0)
    fast = _write(times, volts, amps)
    monkeypatch.setattr(DumpWriter, "_render_block", staticmethod(lambda *a: None))
    slow = _write(times, volts, amps)
    assert fast != slow
    a = DumpReader.read(io.StringIO(fast))
    b = DumpReader.read(io.StringIO(slow))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.volts, b.volts)
    assert np.array_equal(a.amps, b.amps)


def test_parsed_values_equal_float_of_token():
    """The fixed-width parser must agree with ``float()`` on every token."""
    times, volts, amps = _random_dump(1, n=300)
    text = _write(times, volts, amps)
    data = DumpReader.read(io.StringIO(text))
    rows = [ln for ln in text.splitlines() if ln and ln[0] not in "#M"]
    for i, line in enumerate(rows):
        fields = line.split()
        assert data.times[i] == float(fields[0])
        for p in range(volts.shape[1]):
            assert data.volts[i, p] == float(fields[1 + 2 * p])
            assert data.amps[i, p] == float(fields[2 + 2 * p])


def test_negative_values_roundtrip_exactly():
    times = np.array([0.0, 5e-5, 1e-4, 1.5e-4])
    volts = np.array([[-12.0], [12.0], [-0.00001], [0.0]])
    amps = np.array([[-3.5], [3.5], [-120.25], [0.0]])
    data = DumpReader.read(io.StringIO(_write(times, volts, amps)))
    assert np.array_equal(data.volts, volts)
    assert np.array_equal(data.amps, amps)


def test_grid_and_general_parse_paths_agree():
    """A marker interleaved mid-data forces the general (line-scan) parse
    path; its samples must match the regular-grid fast path exactly."""
    times, volts, amps = _random_dump(2, n=200)
    plain = _write(times, volts, amps)
    buffer = io.StringIO()
    writer = DumpWriter(buffer, ["p0", "p1"], 20_000.0)
    writer.write_samples(times[:100], volts[:100], amps[:100])
    writer.write_marker(float(times[100]), "A")
    writer.write_samples(times[100:], volts[100:], amps[100:])
    mixed = buffer.getvalue()
    grid = DumpReader.read(io.StringIO(plain))
    general = DumpReader.read(io.StringIO(mixed))
    assert general.markers == [(float(f"{float(times[100]):.7f}"), "A")]
    assert np.array_equal(grid.times, general.times)
    assert np.array_equal(grid.volts, general.volts)
    assert np.array_equal(grid.amps, general.amps)


def test_nonfinite_values_use_slow_renderer_and_loadtxt():
    """inf/nan rows bypass both fast paths and still round-trip."""
    times = np.array([0.0, 5e-5, 1e-4])
    volts = np.array([[12.0], [np.inf], [12.0]])
    amps = np.array([[2.0], [2.0], [np.nan]])
    data = DumpReader.read(io.StringIO(_write(times, volts, amps)))
    assert data.volts[1, 0] == np.inf
    assert np.isnan(data.amps[2, 0])
    assert np.allclose(data.times, times)


def test_wide_fields_fall_back_to_loadtxt():
    """Times past the fixed parser's 18-digit budget still parse."""
    times = 1e12 + np.array([0.0, 1.0, 2.0])
    volts = np.full((3, 1), 1.5)
    amps = np.full((3, 1), 2.0)
    data = DumpReader.read(io.StringIO(_write(times, volts, amps)))
    assert np.array_equal(data.times, times)
    assert np.array_equal(data.volts, volts)


def test_aligned_exponent_notation_parses_via_fallback():
    """Hand-written dumps with exponent tokens defeat the fixed-width
    parser's layout check and land in the loadtxt fallback."""
    text = (
        "# PowerSensor3 dump\n"
        "# sample_rate_hz: 20000.0\n"
        "# pairs: p0\n"
        "# columns: time_s V I total_W\n"
        "0.0e0000 1.0e0000 2.0e0000 2.0e0000\n"
        "5.0e-005 3.0e0000 2.0e0000 6.0e0000\n"
    )
    data = DumpReader.read(io.StringIO(text))
    assert np.array_equal(data.times, [0.0, 5e-5])
    assert np.array_equal(data.volts[:, 0], [1.0, 3.0])


def test_malformed_tokens_raise():
    header = (
        "# PowerSensor3 dump\n# sample_rate_hz: 20000.0\n"
        "# pairs: p0\n# columns: time_s V I total_W\n"
    )
    for bad in (
        "0.000000 1-1.000 2.00000 2.00000\n",  # internal minus
        "0.000000 1 1.000 2.00000 2.00000\n",  # splits into too many tokens
    ):
        with pytest.raises(ValueError):
            DumpReader.read(io.StringIO(header + bad))


def test_dump_and_stores_record_the_same_pairs(tmp_path):
    """A pair is recorded when both its sensors are enabled, as its name or pairP."""
    setup = SimulatedSetup(
        ["pcie_slot_12v", "pcie8pin", "usbc"], seed=0, calibrate=False, direct=False
    )
    setup.connect(0, build_rail("load:2.0@12.0"))
    setup.connect(2, build_rail("load:1.0@5.0"))
    setup.ps.set_config(2, enabled=False)  # pair 1 keeps only its voltage sensor
    setup.ps.set_config(4, pair_name="")  # pair 2 is unnamed; slot 3 is empty
    setup.ps.dump(tmp_path / "run.dump")
    setup.ps.record(tmp_path / "store")
    block = setup.ps.pump(40)
    setup.ps.dump(None)
    setup.ps.record(None)
    server = PowerSensorServer(
        setup.source, f"unix:{tmp_path / 'ps.sock'}", record_store=str(tmp_path / "served")
    )
    served = [device.store.pair_names for device in server.devices.values()]
    server.close()
    setup.close()

    expected = ["pcie_slot_12v", "pair2"]
    data = DumpReader.read(tmp_path / "run.dump")
    assert data.pair_names == expected
    with TelemetryStore(tmp_path / "store") as store:
        assert store.pair_names == expected
    assert served == [expected]
    # The dump's columns are those two pairs' samples (to its 5 decimals).
    assert np.allclose(data.volts, block.values[:, [1, 5]], rtol=0, atol=1e-5)
    assert np.allclose(data.amps, block.values[:, [0, 4]], rtol=0, atol=1e-5)
