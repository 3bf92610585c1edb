"""Every paper claim, asserted once on the result the reproduce-all report prints.

Each registered experiment runs once, at its registry defaults (the
bench scale ``python -m repro.experiments.report`` uses), through the
module-scoped ``result`` fixture; the tests below only read from it.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import registry
from repro.experiments.common import ExperimentResult, relative_delta


@pytest.fixture(scope="module")
def result():
    """``result(name)``: the named experiment at registry default scale."""
    results: dict[str, ExperimentResult] = {}

    def run(name: str) -> ExperimentResult:
        if name not in results:
            experiment = registry.get(name)
            results[name] = experiment.runner(**experiment.scaled_args(False))
        return results[name]

    return run


def by(rows, key):
    return {row[key]: row for row in rows}


def values(rows):
    return {row["quantity"]: row["value"] for row in rows}


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


def test_table1_matches_paper_within_5_percent(result):
    rows = result("table1").rows
    assert len(rows) == 4
    for row in rows:
        assert row["E_p [W]"] == pytest.approx(row["paper E_p"], rel=0.05)
        assert row["E_u [mV]"] == pytest.approx(row["paper E_u"], rel=0.05)
        assert row["E_i [A]"] == pytest.approx(row["paper E_i"], rel=0.05)


def test_table2_noise_floor_and_sqrt_n(result):
    rows = result("table2").rows
    for load in (0.5, 1.0):
        at_load = [row for row in rows if row["load [A]"] == load]
        assert at_load[0]["Fs [kHz]"] == 20.0
        assert at_load[0]["std [W]"] == pytest.approx(0.72, rel=0.1)
        for row in at_load:
            assert row["std [W]"] == pytest.approx(row["paper std"], rel=0.15)
        # Monotone: lower rates are quieter.
        stds = [row["std [W]"] for row in at_load]
        assert all(b < a for a, b in zip(stds, stds[1:]))


def experiments_md_section(title: str) -> str:
    """One ``## `` section of EXPERIMENTS.md, heading included."""
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    start = text.index(f"## {title}")
    end = text.find("\n## ", start)
    return text[start:end]


def test_experiments_md_table2_matches_a_paper_scale_run():
    """EXPERIMENTS.md's Table II rows are what the paper-scale run prints."""
    experiment = registry.get("table2")
    rows = experiment.runner(**experiment.scaled_args(True)).rows
    one_amp = {row["Fs [kHz]"]: row for row in rows if row["load [A]"] == 1.0}
    section = experiments_md_section("Table II")
    table = [line for line in section.splitlines() if re.match(r"\| [\d.]+ kHz \|", line)]
    assert len(table) == len(one_amp)
    for line in table:
        rate, _, std, _, peak_to_peak = (cell.strip() for cell in line.strip("|").split("|"))
        row = one_amp[float(rate.split()[0])]
        assert std == f"{row['std [W]']:.3f}", rate
        assert peak_to_peak == f"{row['p-p [W]']:.3f}", rate
    half_amp = by([row for row in rows if row["load [A]"] == 0.5], "Fs [kHz]")[20.0]
    low, high = re.search(r"20 kHz measure ([\d.]+) /\s*([\d.]+) W", section).groups()
    assert (low, high) == (f"{half_amp['min [W]']:.3f}", f"{half_amp['max [W]']:.3f}")


def test_fig4_envelope_ordering(result):
    rows = by(result("fig4").rows, "sensor")
    # 3.3 V sensor has the tightest envelope (paper: the most accurate).
    env_33 = rows["3.3 V (pcie_slot_3v3)"]["envelope max [W]"]
    env_12 = rows["12 V (pcie_slot_12v)"]["envelope max [W]"]
    assert env_33 < env_12
    for row in rows.values():
        # The mean error stays far inside the noise envelope.
        assert abs(row["max |mean err| [W]"]) < row["envelope max [W]"]


def test_fig4_mean_error_small_after_calibration(result):
    for row in result("fig4").rows:
        assert row["max |mean err| [W]"] < 1.5


def test_fig5_step_resolved_within_two_samples(result):
    fig5 = result("fig5")
    row = fig5.rows[0]
    # The step is resolved within ~2 sample intervals (50 us each).
    assert row["rise [samples]"] < 2.5
    assert row["low level [W]"] == pytest.approx(12.0 * 3.3, rel=0.1)
    assert row["high level [W]"] == pytest.approx(12.0 * 8.0, rel=0.1)
    assert "power_w" in fig5.series


def test_stability_fluctuation_matches_paper_band(result):
    row = result("stability").rows[0]
    assert row["windows"] == 200
    assert row["mean fluct [W]"] < 0.2  # paper: +-0.09 W
    assert row["recalibration needed"] is False


def test_fig7_nvidia_shape(result):
    rows = values(result("fig7a").rows)
    assert abs(float(rows["PS3 kernel energy error"].strip("%+-"))) < 1.0
    assert rows["inter-wave dips seen (PS3)"] == 7
    assert rows["inter-wave dips seen (NVML instantaneous)"] < 3
    assert rows["launch level [W]"] == pytest.approx(95, abs=5)
    assert rows["steady level [W]"] == pytest.approx(120, abs=5)


def test_fig7_amd_shape(result):
    rows = values(result("fig7b").rows)
    assert rows["ROCm SMI == AMD SMI"] is True
    assert abs(float(rows["AMD SMI energy error"].strip("%+-"))) < 2.0
    assert rows["launch level [W]"] == pytest.approx(150, abs=3)
    assert rows["steady level [W]"] == pytest.approx(150, abs=3)


def test_fig8_headline_numbers(result):
    fig8 = result("fig8")
    rows = {row["quantity"]: row["measured"] for row in fig8.rows}
    assert rows["configurations"] == 5120
    assert rows["fastest TFLOP/s"] == pytest.approx(80.4, rel=0.05)
    assert rows["fastest TFLOP/J"] == pytest.approx(0.83, rel=0.05)
    assert rows["most efficient TFLOP/J"] == pytest.approx(0.935, rel=0.05)
    assert rows["tuning time PS3 [s]"] == pytest.approx(2274.4, rel=0.10)
    assert rows["speedup"] == pytest.approx(3.25, rel=0.1)
    assert rows["PS3 vs oracle energy error"] < 0.02
    # The figure's scatter: performance and efficiency are correlated.
    corr = np.corrcoef(fig8.series["tflops"], fig8.series["tflop_per_j"])[0, 1]
    assert corr > 0.5


def test_fig10_jetson_shape(result):
    rows = values(result("fig10").rows)
    assert rows["configurations"] == 5120
    assert rows["fastest TFLOP/s"] < 40.0  # much slower than the RTX's 80.4
    assert rows["most efficient TFLOP/J"] > rows["fastest TFLOP/J"]
    # The built-in sensor misses the carrier board's draw entirely.
    assert rows["carrier power invisible to built-in [W]"] == pytest.approx(
        4.8, abs=0.3
    )
    assert rows["sample workload energy, PS3 on USB-C [J]"] > rows[
        "same, built-in sensor [J]"
    ]


def test_fig12_read_panel_monotone(result):
    fig12 = result("fig12")
    bw = fig12.series["read/bandwidth_bps"]
    power = fig12.series["read/power_w"]
    assert bw[0] < bw[-1]
    assert power[0] < power[-1]
    assert bw[-1] == pytest.approx(3.4e9, rel=0.05)  # interface saturation


def test_fig12_write_panel_power_stable_bandwidth_not(result):
    rows = by([row for row in result("fig12").rows if row["panel"] == "b"], "workload")
    cv_row = rows["randwrite 4k (steady CV)"]
    assert cv_row["bandwidth [MB/s]"] > 0.08  # bandwidth variable
    assert cv_row["PS3 power [W]"] < 0.03  # power stable
    assert rows["randwrite 4k (steady mean)"]["PS3 power [W]"] == pytest.approx(
        5.0, abs=0.3
    )


def test_fig12_ftl_energy_per_io_and_map_size_across_policies(result):
    """Extended Fig. 12b: what a mapping scheme moves."""
    rows = by(result("fig12_ftl").rows, "ftl")
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


# --------------------------------------------------------------------------
# Ablations: each design choice DESIGN.md calls out shows a measured effect.
# --------------------------------------------------------------------------


def test_ablation_noise_correlation(result):
    rows = by(result("ablation_noise").rows, "noise model")
    modelled = rows["correlated (23.4 kHz, as modelled)"]
    white = rows["white across sub-samples (1 MHz)"]
    assert modelled["reconciles Table II"]
    assert not white["reconciles Table II"]
    assert white["sigma @20 kHz [W]"] < modelled["sigma @20 kHz [W]"]


def test_ablation_averaging_factor(result):
    rows = by(result("ablation_averaging").rows, "averages")
    assert not rows[1]["fits USB 1.1"]  # raw scans overrun the link
    assert rows[6]["fits USB 1.1"]  # the paper's design point
    assert rows[6]["rate [kHz]"] == pytest.approx(20.0, rel=1e-3)
    # Averaging trades time resolution for noise monotonically.
    sigmas = [rows[k]["sigma [W]"] for k in (1, 2, 3, 6, 12, 24)]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def test_ablation_remote_sense(result):
    rows = by(result("ablation_remote_sense").rows, "sensing")
    assert abs(rows["remote (at DUT)"]["error [W]"]) < 0.3
    # Local sensing misattributes the cable's I^2*R (= 3.2 W at 8 A, 50 mOhm).
    assert rows["local (input port)"]["error [W]"] == pytest.approx(3.2, abs=0.4)


def test_ablation_ps2_vs_ps3(result):
    rows = by(result("ablation_ps2").rows, "quantity")
    shift = rows["2 mT field step shift [W]"]
    # The differential sensor rejects the fan's field step ~100x better.
    assert abs(shift["PowerSensor2"]) > 25 * abs(shift["PowerSensor3"])
    energy = rows["energy error [%]"]
    assert abs(energy["PowerSensor3"]) < abs(energy["PowerSensor2"])


def test_ablation_gc_hysteresis(result):
    rows = by(result("ablation_gc").rows, "gc policy")
    modelled = rows["hysteresis 1 % -> 3 % (as modelled)"]
    trickle = rows["trickle (collect-as-needed)"]
    assert modelled["bw CV"] > trickle["bw CV"]
    assert modelled["power CV"] < 0.02  # power stable under both policies
    assert trickle["power CV"] < 0.02


def test_ablation_search_strategies(result):
    rows = by(result("ablation_strategies").rows, "strategy")
    assert rows["brute force"]["fraction of optimum"] == 1.0
    # Guided search gets within 5 % of optimal on ~3 % of the evaluations.
    assert rows["hill climbing"]["fraction of optimum"] > 0.95
    assert rows["hill climbing"]["evaluations"] <= 150
    assert (
        rows["hill climbing"]["tuning time [s]"]
        < 0.35 * rows["brute force"]["tuning time [s]"]
    )
