"""Fig. 8 + the 3.25x claim: auto-tuning the Tensor-Core Beamformer.

Tunes the 512-variant beamformer space across 10 locked clocks (5120
configurations, 7 trials each) on the RTX 4000 Ada model and reports:

* the performance/efficiency scatter and its Pareto front,
* the fastest configuration (paper: 80.4 TFLOP/s at 0.83 TFLOP/J),
* the most efficient one (paper: +12.7 % efficiency, -21.5 % speed),
* accounted tuning time with the PowerSensor3 strategy versus the
  on-board-sensor (NVML continuous-run) strategy — the 3.25x speedup
  (paper: 2274.4 s vs ~7394 s).

The full 5120-point sweep uses the noise-free oracle observer for energy
(the scatter and time accounting do not depend on sensor noise); a random
subsample is re-measured through the complete simulated PowerSensor3
pipeline to validate that the sensor agrees with the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import RngStream
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult, relative_delta
from repro.tuner.kernels import BEAMFORMER_TARGETS, TensorCoreBeamformer
from repro.tuner.observers import NvmlObserver, PowerSensorObserver
from repro.tuner.runner import BenchmarkRunner
from repro.tuner.tuning import tune
from repro.tuner.kernels import beamformer_search_space

PAPER = {
    "fastest_tflops": 80.4,
    "fastest_tflop_per_j": 0.83,
    "most_efficient_tflop_per_j": 0.935,  # 12.7 % above 0.83
    "most_efficient_tflops": 63.1,  # 21.5 % below 80.4
    "tuning_seconds_ps3": 2274.4,
    "tuning_seconds_onboard": 7394.0,
    "speedup": 3.25,
}


def run(seed: int, ps3_verify_points: int) -> ExperimentResult:
    result = ExperimentResult(name="Fig. 8: beamformer tuning (RTX 4000 Ada)")
    target = BEAMFORMER_TARGETS["rtx4000ada"]
    kernel = TensorCoreBeamformer(target)
    space = beamformer_search_space()

    tuning = tune(kernel, space, target.clocks_mhz, trials=7, seed=seed)
    summary = tuning.summary()
    nvml_seconds = (
        tuning.tuning_seconds
        + summary["configs"] * NvmlObserver().continuous_duration_s
    )
    speedup = nvml_seconds / tuning.tuning_seconds

    tflops = np.array([r.tflops for r in tuning.results])
    eff = np.array([r.tflop_per_joule for r in tuning.results])
    result.series["tflops"] = tflops
    result.series["tflop_per_j"] = eff
    pareto = tuning.pareto()
    result.series["pareto_tflops"] = np.array([r.tflops for r in pareto])
    result.series["pareto_tflop_per_j"] = np.array([r.tflop_per_joule for r in pareto])

    # Validate the sensor path: re-measure a subsample through the full
    # simulated PowerSensor3 pipeline and compare energies to the oracle.
    rng = RngStream(seed, "fig8/verify")
    observer = PowerSensorObserver(idle_watts=target.spec.idle_watts, seed=seed)
    runner = BenchmarkRunner(kernel=kernel, observer=observer, trials=7, seed=seed)
    picks = rng.generator.choice(len(tuning.results), size=ps3_verify_points, replace=False)
    errors = []
    for i in picks:
        reference = tuning.results[int(i)]
        measured = runner.run_config(reference.config, reference.clock_mhz)
        errors.append(abs(measured.mean_energy / reference.mean_energy - 1.0))
    ps3_energy_err = float(np.mean(errors))

    rows = [
        ("configurations", summary["configs"], 5120),
        ("fastest TFLOP/s", summary["fastest_tflops"], PAPER["fastest_tflops"]),
        ("fastest TFLOP/J", summary["fastest_tflop_per_j"], PAPER["fastest_tflop_per_j"]),
        (
            "most efficient TFLOP/J",
            summary["most_efficient_tflop_per_j"],
            PAPER["most_efficient_tflop_per_j"],
        ),
        (
            "most efficient TFLOP/s",
            summary["most_efficient_tflops"],
            PAPER["most_efficient_tflops"],
        ),
        ("efficiency gain", summary["efficiency_gain"], 0.127),
        ("slowdown", summary["slowdown"], 0.215),
        ("tuning time PS3 [s]", tuning.tuning_seconds, PAPER["tuning_seconds_ps3"]),
        ("tuning time on-board [s]", nvml_seconds, PAPER["tuning_seconds_onboard"]),
        ("speedup", speedup, PAPER["speedup"]),
    ]
    for name, measured, paper in rows:
        result.rows.append(
            {
                "quantity": name,
                "measured": float(measured),
                "paper": float(paper),
                "delta": f"{relative_delta(float(measured), float(paper)):+.1%}",
            }
        )
    result.rows.append(
        {
            "quantity": "PS3 vs oracle energy error",
            "measured": ps3_energy_err,
            "paper": 0.0,
            "delta": "n/a",
        }
    )
    result.notes.append(
        f"{ps3_verify_points} configurations re-measured through the full "
        "simulated sensor pipeline"
    )

    # The paper picked its 10 clocks with the model-steered narrowing of
    # [22]; confirm the reproduced method lands on the same range.
    from repro.tuner.clockmodel import dvfs_menu, narrow_clock_range

    reference = tuning.fastest.config
    recommendation = narrow_clock_range(
        kernel, reference, dvfs_menu(600.0, target.spec.boost_clock_mhz)
    )
    overlap = sum(
        1
        for f in recommendation.recommended_clocks_mhz
        if target.clocks_mhz[0] <= f <= target.clocks_mhz[-1]
    )
    result.notes.append(
        f"model-steered narrowing ([22]) recommends "
        f"{recommendation.recommended_clocks_mhz[0]:.0f}-"
        f"{recommendation.recommended_clocks_mhz[-1]:.0f} MHz; "
        f"{overlap}/10 clocks inside the paper's 1200-2100 MHz tuning range"
    )
    return result


registry.register(
    "fig8",
    section="Fig. 8",
    runner=run,
    params=(
        Param("seed", "int", default=7),
        Param("ps3_verify_points", "int", default=12),
    ),
    report_index=7,
    series=True,
    help="beamformer auto-tuning and the 3.25x tuning-time claim",
)


def main() -> None:
    registry.print_paper_scale("fig8")


if __name__ == "__main__":
    main()
