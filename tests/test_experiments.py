"""Experiment harness: each paper artifact regenerates with the right shape."""

import numpy as np
import pytest

from repro.common.units import GIB
from repro.experiments import fig4, fig5, fig7, fig8, fig10, fig12, stability, table1, table2
from repro.experiments.common import ExperimentResult, relative_delta


def test_result_table_rendering():
    result = ExperimentResult(name="x", rows=[{"a": 1.5, "b": "y"}], notes=["n"])
    text = result.table()
    assert "[x]" in text
    assert "1.5" in text
    assert "note: n" in text
    assert ExperimentResult(name="empty").table() == "[empty] (no rows)"


def test_relative_delta():
    assert relative_delta(110.0, 100.0) == pytest.approx(0.10)
    assert relative_delta(0.0, 0.0) == 0.0
    assert relative_delta(1.0, 0.0) == float("inf")


def test_table1_matches_paper_within_5_percent():
    result = table1.run()
    assert len(result.rows) == 4
    for row in result.rows:
        assert row["E_p [W]"] == pytest.approx(row["paper E_p"], rel=0.05)
        assert row["E_u [mV]"] == pytest.approx(row["paper E_u"], rel=0.05)
        assert row["E_i [A]"] == pytest.approx(row["paper E_i"], rel=0.05)


def test_table2_noise_floor_and_sqrt_n():
    result = table2.run(loads_a=(1.0,), n_samples=64 * 1024)
    rows = result.rows
    assert rows[0]["std [W]"] == pytest.approx(0.72, rel=0.1)
    for row in rows:
        assert row["std [W]"] == pytest.approx(row["paper std"], rel=0.15)
    # Monotone: lower rates are quieter.
    stds = [row["std [W]"] for row in rows]
    assert all(b < a for a, b in zip(stds, stds[1:]))


def test_fig4_envelope_ordering():
    result = fig4.run(n_samples=4096, step_a=5.0)
    rows = {row["sensor"]: row for row in result.rows}
    # 3.3 V sensor has the tightest envelope (paper: the most accurate).
    env_33 = rows["3.3 V (pcie_slot_3v3)"]["envelope max [W]"]
    env_12 = rows["12 V (pcie_slot_12v)"]["envelope max [W]"]
    assert env_33 < env_12
    for row in result.rows:
        # The mean error stays far inside the noise envelope.
        assert abs(row["max |mean err| [W]"]) < row["envelope max [W]"]


def test_fig4_mean_error_small_after_calibration():
    result = fig4.run(n_samples=8192, step_a=10.0)
    for row in result.rows:
        assert row["max |mean err| [W]"] < 1.5


def test_fig5_step_resolved_within_two_samples():
    result = fig5.run(cycles=3)
    row = result.rows[0]
    assert row["rise [samples]"] < 2.5
    assert row["low level [W]"] == pytest.approx(12.0 * 3.3, rel=0.1)
    assert row["high level [W]"] == pytest.approx(12.0 * 8.0, rel=0.1)
    assert "power_w" in result.series


def test_stability_fluctuation_matches_paper_band():
    result = stability.run(hours=50.0, window_samples=4096)
    row = result.rows[0]
    assert row["windows"] == 200
    assert row["mean fluct [W]"] < 0.2  # paper: +-0.09 W
    assert row["recalibration needed"] is False


def test_fig7_nvidia_shape():
    result = fig7.run("rtx4000ada")
    rows = {row["quantity"]: row["value"] for row in result.rows}
    assert abs(float(rows["PS3 kernel energy error"].strip("%+"))) < 1.0
    assert rows["inter-wave dips seen (PS3)"] == 7
    assert rows["inter-wave dips seen (NVML instantaneous)"] < 3
    assert rows["launch level [W]"] == pytest.approx(95, abs=5)
    assert rows["steady level [W]"] == pytest.approx(120, abs=5)


def test_fig7_amd_shape():
    result = fig7.run("w7700")
    rows = {row["quantity"]: row["value"] for row in result.rows}
    assert rows["ROCm SMI == AMD SMI"] is True
    assert abs(float(rows["AMD SMI energy error"].strip("%+-"))) < 2.0
    assert rows["launch level [W]"] == pytest.approx(150, abs=3)
    assert rows["steady level [W]"] == pytest.approx(150, abs=3)


def test_fig8_headline_numbers():
    result = fig8.run(ps3_verify_points=3)
    rows = {row["quantity"]: row for row in result.rows}
    assert rows["configurations"]["measured"] == 5120
    assert rows["fastest TFLOP/s"]["measured"] == pytest.approx(80.4, rel=0.05)
    assert rows["fastest TFLOP/J"]["measured"] == pytest.approx(0.83, rel=0.05)
    assert rows["most efficient TFLOP/J"]["measured"] == pytest.approx(
        0.935, rel=0.05
    )
    assert rows["speedup"]["measured"] == pytest.approx(3.25, rel=0.1)
    assert rows["PS3 vs oracle energy error"]["measured"] < 0.02
    # The figure's scatter: performance and efficiency are correlated.
    corr = np.corrcoef(result.series["tflops"], result.series["tflop_per_j"])[0, 1]
    assert corr > 0.5


def test_fig10_jetson_shape():
    result = fig10.run()
    rows = {row["quantity"]: row["value"] for row in result.rows}
    assert rows["configurations"] == 5120
    assert rows["fastest TFLOP/s"] < 80.4 / 2  # much slower than the RTX
    assert rows["most efficient TFLOP/J"] > rows["fastest TFLOP/J"]
    assert rows["carrier power invisible to built-in [W]"] == pytest.approx(
        4.8, abs=0.3
    )
    assert rows["sample workload energy, PS3 on USB-C [J]"] > rows[
        "same, built-in sensor [J]"
    ]


def test_fig12_read_panel_monotone():
    result = fig12.run(read_runtime_s=1.0, write_runtime_s=10.0)
    bw = result.series["read/bandwidth_bps"]
    power = result.series["read/power_w"]
    assert bw[0] < bw[-1]
    assert power[0] < power[-1] + 0.5
    assert bw[-1] == pytest.approx(3.4e9, rel=0.05)  # interface saturation


def test_fig12_write_panel_power_stable_bandwidth_not():
    result = fig12.run(read_runtime_s=0.5, write_runtime_s=20.0)
    rows = {row["workload"]: row for row in result.rows if row["panel"] == "b"}
    cv_row = rows["randwrite 4k (steady CV)"]
    assert cv_row["bandwidth [MB/s]"] > 0.08  # bandwidth variable
    assert cv_row["PS3 power [W]"] < 0.03  # power stable
    assert rows["randwrite 4k (steady mean)"]["PS3 power [W]"] == pytest.approx(
        5.0, abs=0.3
    )


def test_fig12_ftl_energy_per_io_and_map_size_across_policies():
    """Extended Fig. 12b at bench scale: what a mapping scheme moves."""
    result = fig12.run_ftl_comparison(
        logical_bytes=GIB // 2, write_runtime_s=10.0, seed=9
    )
    rows = {row["ftl"]: row for row in result.rows}
    assert set(rows) == {"page", "group", "compressed", "hybrid"}

    for name, row in rows.items():
        # Power stays pinned near the saturated TLC level for every
        # policy — the paper's stable-power observation is mapping-
        # scheme independent.
        assert row["PS3 power [W]"] == pytest.approx(5.0, abs=0.3), name
        assert row["J/IO [uJ]"] > 0
        assert row["WA"] >= 1.0

    # Energy per host IO tracks write amplification: the merge-heavy
    # group/hybrid schemes pay more joules per IO under random 4k...
    assert rows["group"]["J/IO [uJ]"] > rows["page"]["J/IO [uJ]"]
    assert rows["hybrid"]["J/IO [uJ]"] > rows["page"]["J/IO [uJ]"]
    # ...but hold far smaller mapping tables than the page map.
    assert rows["group"]["map [KiB]"] < rows["page"]["map [KiB]"] / 4
    assert rows["hybrid"]["map [KiB]"] < rows["page"]["map [KiB]"]
    # Over the random-write run, each policy's write amplification
    # relative to page's is its energy per IO relative to page's.
    for name in ("group", "compressed", "hybrid"):
        wa = rows[name]["WA"] / rows["page"]["WA"]
        per_io = rows[name]["J/IO [uJ]"] / rows["page"]["J/IO [uJ]"]
        assert wa / per_io == pytest.approx(1.0, abs=0.15), name
