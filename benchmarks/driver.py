"""Registry-driven factory behind the ``bench_*.py`` table/figure shims.

Each paper-artifact benchmark used to be a hand-written wrapper that
duplicated the experiment's bench-scale call; they are now one-line
shims over :func:`bench_test`.  The runner and its bench-scale keyword
overrides come from the experiment registry
(:mod:`repro.campaign.registry` — the same descriptors ``pscampaign``
and the reproduce-all report consume), and the acceptance checks live
in ``CHECKS`` below.

The shim file names and test function names are pinned: they are the
pytest-benchmark IDs that saved runs compare against, so the shims keep
the exact pre-refactor names.  This module deliberately does not match
the ``bench_*.py`` collection pattern — pytest only ever sees the shims.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import pytest

from repro.campaign import registry
from repro.experiments.common import ExperimentResult


def scaled_runner(name: str) -> Callable[[], ExperimentResult]:
    """The experiment's runner at bench scale.

    Registry defaults (bench-scale param values) with the experiment's
    ``bench`` overrides applied on top — exactly what the pre-refactor
    ``run_scaled`` helpers hard-coded.
    """
    experiment = registry.get(name)
    kwargs = {**experiment.scaled_args(False), **experiment.bench}
    return functools.partial(experiment.runner, **kwargs)


def bench_test(name: str, pedantic: bool = True):
    """Build one pytest-benchmark test for the named experiment.

    Assign the return value to the historical test function name::

        test_bench_fig4 = bench_test("fig4")

    ``pedantic=False`` lets the cheap constant-time experiments (Table I)
    run under the default timed loop instead of a single round.
    """
    experiment = registry.get(name)
    check = CHECKS[name]

    def test(benchmark, show):
        runner = scaled_runner(name)
        if pedantic:
            result = benchmark.pedantic(runner, rounds=1, iterations=1)
        else:
            result = benchmark(runner)
        show(result)
        check(result, benchmark)

    test.__name__ = f"test_bench_{name}"
    test.__doc__ = (
        f"{experiment.section}: {experiment.help}"
        if experiment.help
        else experiment.section
    )
    return test


# --------------------------------------------------------------------------
# Acceptance checks, one per experiment.  These are the assertion bodies the
# wrapper files used to carry; each receives the regenerated result and the
# benchmark fixture (for ``extra_info``).
# --------------------------------------------------------------------------


def _check_table1(result: ExperimentResult, benchmark) -> None:
    for row in result.rows:
        assert row["E_p [W]"] == pytest.approx(row["paper E_p"], rel=0.05)
    benchmark.extra_info["rows"] = len(result.rows)


def _check_table2(result: ExperimentResult, benchmark) -> None:
    for row in result.rows:
        assert row["std [W]"] == pytest.approx(row["paper std"], rel=0.15)
    at_20k = [r for r in result.rows if r["Fs [kHz]"] == 20.0]
    benchmark.extra_info["std_20khz_w"] = at_20k[0]["std [W]"]
    benchmark.extra_info["paper_std_20khz_w"] = 0.72


def _check_fig4(result: ExperimentResult, benchmark) -> None:
    rows = {row["sensor"]: row for row in result.rows}
    # The paper's headline observation: the 3.3 V sensor is the tightest.
    assert (
        rows["3.3 V (pcie_slot_3v3)"]["envelope max [W]"]
        < rows["12 V (pcie_slot_12v)"]["envelope max [W]"]
    )
    for row in result.rows:
        assert row["max |mean err| [W]"] < 1.5
    benchmark.extra_info["sensors"] = len(result.rows)


def _check_fig5(result: ExperimentResult, benchmark) -> None:
    row = result.rows[0]
    # The step is resolved within ~2 sample intervals (50 us each).
    assert row["rise [samples]"] < 2.5
    assert row["low level [W]"] == pytest.approx(39.6, rel=0.1)
    assert row["high level [W]"] == pytest.approx(96.0, rel=0.1)
    benchmark.extra_info["rise_us"] = row["rise 10-90% [us]"]


def _check_fig7a(result: ExperimentResult, benchmark) -> None:
    rows = {row["quantity"]: row["value"] for row in result.rows}
    assert rows["inter-wave dips seen (PS3)"] == 7
    assert rows["inter-wave dips seen (NVML instantaneous)"] < 3
    assert abs(float(rows["PS3 kernel energy error"].strip("%+-"))) < 1.0
    benchmark.extra_info["nvml_energy_error"] = rows[
        "NVML instantaneous energy error"
    ]


def _check_fig7b(result: ExperimentResult, benchmark) -> None:
    rows = {row["quantity"]: row["value"] for row in result.rows}
    assert rows["ROCm SMI == AMD SMI"] is True
    assert abs(float(rows["AMD SMI energy error"].strip("%+-"))) < 2.0
    benchmark.extra_info["amd_energy_error"] = rows["AMD SMI energy error"]


def _check_fig8(result: ExperimentResult, benchmark) -> None:
    rows = {row["quantity"]: row for row in result.rows}
    assert rows["configurations"]["measured"] == 5120
    assert rows["fastest TFLOP/s"]["measured"] == pytest.approx(80.4, rel=0.05)
    assert rows["most efficient TFLOP/J"]["measured"] == pytest.approx(
        0.935, rel=0.05
    )
    assert rows["tuning time PS3 [s]"]["measured"] == pytest.approx(2274.4, rel=0.10)
    assert rows["speedup"]["measured"] == pytest.approx(3.25, rel=0.10)
    benchmark.extra_info["speedup"] = rows["speedup"]["measured"]
    benchmark.extra_info["paper_speedup"] = 3.25


def _check_fig10(result: ExperimentResult, benchmark) -> None:
    rows = {row["quantity"]: row["value"] for row in result.rows}
    assert rows["configurations"] == 5120
    # Same qualitative behaviour as the RTX 4000 Ada, scaled down.
    assert rows["most efficient TFLOP/J"] > rows["fastest TFLOP/J"]
    assert rows["fastest TFLOP/s"] < 40.0
    # The built-in sensor misses the carrier board's draw entirely.
    assert rows["carrier power invisible to built-in [W]"] == pytest.approx(
        4.8, abs=0.3
    )
    benchmark.extra_info["fastest_tflops"] = rows["fastest TFLOP/s"]


def _check_fig12(result: ExperimentResult, benchmark) -> None:
    # Panel (a): bandwidth and power rise with request size, then saturate.
    bw = result.series["read/bandwidth_bps"]
    power = result.series["read/power_w"]
    assert bw[0] < bw[-1]
    assert power[0] < power[-1]
    assert bw[-1] == pytest.approx(3.4e9, rel=0.05)

    # Panel (b): bandwidth varies under GC while power is stable at ~5 W.
    rows = {row["workload"]: row for row in result.rows if row["panel"] == "b"}
    cv = rows["randwrite 4k (steady CV)"]
    assert cv["bandwidth [MB/s]"] > 0.08
    assert cv["PS3 power [W]"] < 0.03
    assert rows["randwrite 4k (steady mean)"]["PS3 power [W]"] == pytest.approx(
        5.0, abs=0.3
    )
    benchmark.extra_info["steady_bw_cv"] = cv["bandwidth [MB/s]"]
    benchmark.extra_info["steady_power_cv"] = cv["PS3 power [W]"]


def _check_stability(result: ExperimentResult, benchmark) -> None:
    row = result.rows[0]
    assert row["windows"] == 200
    assert row["mean fluct [W]"] < 0.2  # paper observed +-0.09 W
    assert row["recalibration needed"] is False
    benchmark.extra_info["mean_fluctuation_w"] = row["mean fluct [W]"]
    benchmark.extra_info["paper_fluctuation_w"] = 0.09


def _check_ablation_noise(result: ExperimentResult, benchmark) -> None:
    by_model = {row["noise model"]: row for row in result.rows}
    modelled = by_model["correlated (23.4 kHz, as modelled)"]
    white = by_model["white across sub-samples (1 MHz)"]
    assert modelled["reconciles Table II"]
    assert not white["reconciles Table II"]
    assert white["sigma @20 kHz [W]"] < modelled["sigma @20 kHz [W]"]


def _check_ablation_averaging(result: ExperimentResult, benchmark) -> None:
    rows = {row["averages"]: row for row in result.rows}
    assert not rows[1]["fits USB 1.1"]  # raw scans overrun the link
    assert rows[6]["fits USB 1.1"]  # the paper's design point
    assert rows[6]["rate [kHz]"] == pytest.approx(20.0, rel=1e-3)
    # Averaging trades time resolution for noise monotonically.
    sigmas = [rows[k]["sigma [W]"] for k in (1, 2, 3, 6, 12, 24)]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))


def _check_ablation_remote_sense(result: ExperimentResult, benchmark) -> None:
    by_mode = {row["sensing"]: row for row in result.rows}
    assert abs(by_mode["remote (at DUT)"]["error [W]"]) < 0.3
    # Local sensing misattributes the cable's I^2*R (= 3.2 W at 8 A, 50 mOhm).
    assert by_mode["local (input port)"]["error [W]"] == pytest.approx(3.2, abs=0.4)


def _check_ablation_ps2(result: ExperimentResult, benchmark) -> None:
    rows = {row["quantity"]: row for row in result.rows}
    shift = rows["2 mT field step shift [W]"]
    # The differential sensor rejects the fan's field step ~100x better.
    assert abs(shift["PowerSensor2"]) > 25 * abs(shift["PowerSensor3"])
    energy = rows["energy error [%]"]
    assert abs(energy["PowerSensor3"]) < abs(energy["PowerSensor2"])


def _check_ablation_gc(result: ExperimentResult, benchmark) -> None:
    by_policy = {row["gc policy"]: row for row in result.rows}
    modelled = by_policy["hysteresis 1 % -> 3 % (as modelled)"]
    trickle = by_policy["trickle (collect-as-needed)"]
    assert modelled["bw CV"] > trickle["bw CV"]
    assert modelled["power CV"] < 0.02  # power stable under both policies
    assert trickle["power CV"] < 0.02


def _check_ablation_strategies(result: ExperimentResult, benchmark) -> None:
    rows = {row["strategy"]: row for row in result.rows}
    assert rows["brute force"]["fraction of optimum"] == 1.0
    # Guided search gets within 5 % of optimal on ~3 % of the evaluations.
    assert rows["hill climbing"]["fraction of optimum"] > 0.95
    assert rows["hill climbing"]["evaluations"] <= 150
    assert (
        rows["hill climbing"]["tuning time [s]"]
        < 0.35 * rows["brute force"]["tuning time [s]"]
    )


CHECKS: dict[str, Callable[[ExperimentResult, object], None]] = {
    "table1": _check_table1,
    "table2": _check_table2,
    "fig4": _check_fig4,
    "fig5": _check_fig5,
    "fig7a": _check_fig7a,
    "fig7b": _check_fig7b,
    "fig8": _check_fig8,
    "fig10": _check_fig10,
    "fig12": _check_fig12,
    "stability": _check_stability,
    "ablation_noise": _check_ablation_noise,
    "ablation_averaging": _check_ablation_averaging,
    "ablation_remote_sense": _check_ablation_remote_sense,
    "ablation_ps2": _check_ablation_ps2,
    "ablation_gc": _check_ablation_gc,
    "ablation_strategies": _check_ablation_strategies,
}
