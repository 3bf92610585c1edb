"""Fig. 7: GPU synthetic workload — PowerSensor3 versus on-board sensors.

A synthetic fused-multiply-add workload runs for ~2 seconds after a brief
idle, executing thread-block waves along the grid's y-dimension.  The
experiment measures the three PCIe feeds with PowerSensor3 (3.3 V slot,
12 V slot, external 8-pin) and compares against:

* Fig. 7a (NVIDIA RTX 4000 Ada): NVML 'instantaneous' and 'average'
  readings — the instantaneous energy roughly agrees, but the 10 Hz
  refresh misses the inter-wave power dips and the averaged field is
  inadequate for kernel-level energy;
* Fig. 7b (AMD W7700): ROCm SMI and AMD SMI — different interfaces,
  identical data, both closely matching PowerSensor3.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.analysis.energy import detect_activity, extract_features, integrate_energy
from repro.common.rng import RngStream
from repro.core.setup import SimulatedSetup
from repro.dut.gpu import Gpu, KernelLaunch
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult, relative_delta
from repro.vendor.nvml import NvmlDevice
from repro.vendor.rocm_smi import AmdSmiDevice, RocmSmiDevice

IDLE_BEFORE_S = 0.5
KERNEL_S = 2.0
TAIL_S = 2.0
N_WAVES = 8


def _measure_ps3(gpu: Gpu, trace, seed: int):
    """Measure the three feeds with a 3-module PowerSensor3 bench."""
    setup = SimulatedSetup(
        ["pcie_slot_3v3", "pcie_slot_12v", "pcie8pin"],
        seed=seed,
        direct=True,
        calibration_samples=32 * 1024,
    )
    rails = gpu.rails(trace)
    setup.connect(0, rails["slot_3v3"])
    setup.connect(1, rails["slot_12v"])
    setup.connect(2, rails["ext_12v"])
    block = setup.ps.pump_seconds(trace.times[-1])
    times = block.times
    watts = block.total_power()
    setup.close()
    return times, watts


def run(gpu_key: str, seed: int, dt: float) -> ExperimentResult:
    is_amd = gpu_key == "w7700"
    panel = "7b (AMD W7700)" if is_amd else "7a (NVIDIA RTX 4000 Ada)"
    result = ExperimentResult(name=f"Fig. {panel}: PS3 vs on-board sensor")

    gpu = Gpu(gpu_key, RngStream(seed, f"fig7/{gpu_key}"))
    utilization = 1.0 if is_amd else 0.8  # FMA load pins the W7700 at its limit
    gpu.launch(
        KernelLaunch(
            start=IDLE_BEFORE_S,
            duration=KERNEL_S,
            n_waves=N_WAVES,
            utilization=utilization,
        )
    )
    t_end = IDLE_BEFORE_S + KERNEL_S + TAIL_S
    trace = gpu.render(t_end, dt=dt)

    ps3_times, ps3_watts = _measure_ps3(gpu, trace, seed)
    result.series["ps3/time_s"] = ps3_times
    result.series["ps3/watts"] = ps3_watts

    window = (trace.times >= IDLE_BEFORE_S) & (trace.times <= IDLE_BEFORE_S + KERNEL_S)
    true_energy = integrate_energy(trace.times[window], trace.watts[window])
    ps3_window = (ps3_times >= IDLE_BEFORE_S) & (ps3_times <= IDLE_BEFORE_S + KERNEL_S)
    ps3_energy = integrate_energy(ps3_times[ps3_window], ps3_watts[ps3_window])

    # Trace features PowerSensor3 resolves (the figure's annotations).
    activity = detect_activity(ps3_times, ps3_watts, min_duration=0.1)[0]
    features = extract_features(ps3_times, ps3_watts, activity)

    poll_times = np.arange(0.0, t_end, 0.01)
    rng = RngStream(seed, "fig7/vendor")
    if is_amd:
        rocm = RocmSmiDevice(trace, rng.child("rocm"))
        amd = AmdSmiDevice(rocm)
        rocm_series = rocm.average_socket_power(poll_times)
        amd_series = amd.socket_power_info(poll_times)["current_socket_power"]
        vendor_energy = rocm.energy(IDLE_BEFORE_S, IDLE_BEFORE_S + KERNEL_S)
        result.series["rocm/time_s"] = poll_times
        result.series["rocm/watts"] = rocm_series
        result.rows.append(
            {
                "quantity": "ROCm SMI == AMD SMI",
                "value": bool(np.array_equal(rocm_series, amd_series)),
                "paper": "identical results",
            }
        )
        vendor_name = "AMD SMI"
        vendor_dips = extract_features(
            poll_times, rocm_series, detect_activity(poll_times, rocm_series, min_duration=0.1)[0]
        ).n_dips
    else:
        nvml = NvmlDevice(trace, rng.child("nvml"))
        inst = nvml.power_usage(poll_times, "instantaneous")
        avg = nvml.power_usage(poll_times, "average")
        vendor_energy = nvml.energy(IDLE_BEFORE_S, IDLE_BEFORE_S + KERNEL_S, "instantaneous")
        avg_energy = nvml.energy(IDLE_BEFORE_S, IDLE_BEFORE_S + KERNEL_S, "average")
        result.series["nvml_inst/time_s"] = poll_times
        result.series["nvml_inst/watts"] = inst
        result.series["nvml_avg/watts"] = avg
        result.rows.append(
            {
                "quantity": "NVML 'average' energy error",
                "value": f"{relative_delta(avg_energy, true_energy):+.1%}",
                "paper": "completely inadequate",
            }
        )
        vendor_name = "NVML instantaneous"
        vendor_dips = extract_features(
            poll_times, inst, detect_activity(poll_times, inst, min_duration=0.1)[0]
        ).n_dips

    result.rows.extend(
        [
            {"quantity": "true kernel energy [J]", "value": round(true_energy, 1), "paper": "-"},
            {
                "quantity": "PS3 kernel energy error",
                "value": f"{relative_delta(ps3_energy, true_energy):+.2%}",
                "paper": "reference instrument",
            },
            {
                "quantity": f"{vendor_name} energy error",
                "value": f"{relative_delta(vendor_energy, true_energy):+.2%}",
                "paper": "reasonable (NVIDIA) / excellent (AMD)",
            },
            {
                "quantity": "inter-wave dips seen (PS3)",
                "value": features.n_dips,
                "paper": f"{N_WAVES - 1} (visible)",
            },
            {
                "quantity": f"inter-wave dips seen ({vendor_name})",
                "value": vendor_dips,
                "paper": "missed at 10 Hz" if not is_amd else "resolved (~1 ms)",
            },
            {
                "quantity": "launch level [W]",
                "value": round(features.launch_watts, 1),
                "paper": "~95 (NVIDIA) / 150 limit (AMD)",
            },
            {
                "quantity": "steady level [W]",
                "value": round(features.steady_watts, 1),
                "paper": "~120 (NVIDIA) / 150 (AMD)",
            },
            {
                "quantity": "idle return [s]",
                "value": round(features.idle_return_time, 2),
                "paper": ">1 s (NVIDIA) / fast (AMD)",
            },
        ]
    )
    return result


_FIG7_PARAMS = (
    Param("seed", "int", default=6),
    Param("dt", "float", default=1e-4),
)

registry.register(
    "fig7a",
    section="Fig. 7a (NVIDIA)",
    runner=functools.partial(run, "rtx4000ada"),
    params=_FIG7_PARAMS,
    report_index=5,
    series=True,
    help="GPU workload, PowerSensor3 vs NVML",
)

registry.register(
    "fig7b",
    section="Fig. 7b (AMD)",
    runner=functools.partial(run, "w7700"),
    params=_FIG7_PARAMS,
    report_index=6,
    series=True,
    help="GPU workload, PowerSensor3 vs AMD SMI",
)


def main() -> None:
    registry.print_paper_scale("fig7a", "fig7b")


if __name__ == "__main__":
    main()
