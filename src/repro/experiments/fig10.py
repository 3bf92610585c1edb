"""Fig. 10: the same beamformer tuning on the NVIDIA Jetson AGX Orin.

The paper repeats the Fig. 8 measurement on the Jetson devkit, powered
over USB-C through PowerSensor3, and notes the overall behaviour matches
the RTX 4000 Ada.  It also names the two advantages PowerSensor3 has over
the Jetson's built-in sensor: ~0.1 s time resolution, and module-only
coverage (the carrier board is invisible to it).  Both are quantified
here: a sample workload is measured through the USB-C PowerSensor3 bench
and through the built-in monitor, and the carrier-board power the
built-in sensor misses is reported.

The paper does not print numeric axes for Fig. 10; EXPERIMENTS.md records
the model-chosen operating points.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.energy import integrate_energy
from repro.common.rng import RngStream
from repro.core.setup import SimulatedSetup
from repro.dut.gpu import KernelLaunch
from repro.dut.jetson import JetsonAgxOrin
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult
from repro.tuner.kernels import BEAMFORMER_TARGETS, TensorCoreBeamformer
from repro.tuner.kernels import beamformer_search_space
from repro.tuner.observers import NvmlObserver
from repro.tuner.tuning import tune
from repro.vendor.jetson_ina import JetsonPowerMonitor


def run(seed: int) -> ExperimentResult:
    result = ExperimentResult(name="Fig. 10: beamformer tuning (Jetson AGX Orin)")
    target = BEAMFORMER_TARGETS["jetson_orin_gpu"]
    kernel = TensorCoreBeamformer(target)
    space = beamformer_search_space()

    tuning = tune(kernel, space, target.clocks_mhz, trials=7, seed=seed)
    summary = tuning.summary()
    nvml_seconds = (
        tuning.tuning_seconds
        + summary["configs"] * NvmlObserver().continuous_duration_s
    )
    result.series["tflops"] = np.array([r.tflops for r in tuning.results])
    result.series["tflop_per_j"] = np.array(
        [r.tflop_per_joule for r in tuning.results]
    )

    for name, value in [
        ("configurations", summary["configs"]),
        ("fastest TFLOP/s", summary["fastest_tflops"]),
        ("fastest TFLOP/J", summary["fastest_tflop_per_j"]),
        ("most efficient TFLOP/J", summary["most_efficient_tflop_per_j"]),
        ("most efficient TFLOP/s", summary["most_efficient_tflops"]),
        ("tuning time PS3 [s]", tuning.tuning_seconds),
        ("tuning time built-in [s]", nvml_seconds),
        ("speedup", nvml_seconds / tuning.tuning_seconds),
    ]:
        result.rows.append({"quantity": name, "value": float(value)})

    # Built-in sensor coverage: measure one workload both ways.
    jetson = JetsonAgxOrin(RngStream(seed, "fig10/jetson"))
    jetson.launch(KernelLaunch(start=0.5, duration=2.0, n_waves=8))
    module_trace, total_trace = jetson.render(t_end=3.5, dt=2e-4)

    setup = SimulatedSetup(["usbc"], seed=seed, direct=True, calibration_samples=32 * 1024)
    setup.connect(0, jetson.usb_c_rail(total_trace))
    block = setup.ps.pump_seconds(3.5)
    ps3_energy = integrate_energy(block.times, block.total_power())
    setup.close()

    monitor = JetsonPowerMonitor(module_trace, RngStream(seed, "fig10/ina"))
    builtin_energy = monitor.energy(0.0, 3.5)
    true_total = integrate_energy(total_trace.times, total_trace.watts)
    carrier_energy = true_total - integrate_energy(
        module_trace.times, module_trace.watts
    )
    result.rows.extend(
        [
            {"quantity": "sample workload energy, PS3 on USB-C [J]", "value": ps3_energy},
            {"quantity": "same, built-in sensor [J]", "value": builtin_energy},
            {
                "quantity": "carrier power invisible to built-in [W]",
                "value": carrier_energy / 3.5,
            },
            {
                "quantity": "built-in sensor update rate [Hz]",
                "value": 1.0 / 0.1,
            },
        ]
    )
    result.notes.append(
        "the built-in sensor misses the carrier board entirely and refreshes "
        "only every ~0.1 s; PowerSensor3 on the USB-C feed sees the whole device"
    )
    return result


registry.register(
    "fig10",
    section="Fig. 10",
    runner=run,
    params=(Param("seed", "int", default=8),),
    report_index=8,
    series=True,
    help="beamformer auto-tuning on the Jetson AGX Orin",
)


def main() -> None:
    registry.print_paper_scale("fig10")


if __name__ == "__main__":
    main()
