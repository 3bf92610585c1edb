"""Ablation studies of the design choices DESIGN.md calls out.

Each study isolates one design decision of the paper and quantifies what
it buys:

* :func:`noise_bandwidth_study` — the correlated-noise model behind the
  Table II reconciliation (DESIGN.md, "Noise model").
* :func:`sampling_rate_study` — why the firmware averages six ADC scans:
  the raw scan rate would overrun the USB 1.1 link (paper, Section III-B).
* :func:`remote_sense_study` — what the module's remote-sense connector
  buys over sensing at the input port (paper, Section III-A).
* :func:`ps2_comparison_study` — the improvement list over PowerSensor2:
  field immunity, per-channel voltage measurement, 20 kHz vs 2.8 kHz.
* :func:`gc_hysteresis_study` — the SSD model's GC hysteresis, without
  which Fig. 12b's bandwidth variability does not appear.
* :func:`strategy_study` — brute force vs random sampling vs hill
  climbing over the beamformer space: what guided search buys when the
  space is too large to enumerate.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import RngStream
from repro.common.units import GIB, USB_FULL_SPEED_BPS
from repro.core.sources import convert_codes
from repro.dut.base import CabledRail, TraceRail
from repro.dut.gpu import Gpu, KernelLaunch
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.dut.ssd import Ssd, SsdSpec
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult
from repro.firmware.device import default_eeprom
from repro.hardware.adc import AdcTiming
from repro.hardware.baseboard import Baseboard
from repro.hardware.modules import SensorModule, module_spec
from repro.hardware.powersensor2 import PowerSensor2
from repro.hardware.sensors import ExternalField
from repro.storage.engine import IoEngine
from repro.storage.fio import FioJob


def _bench_board(
    timing: AdcTiming | None = None,
    noise_bandwidth_hz: float | None = None,
    seed: int = 0,
) -> tuple[Baseboard, list]:
    """One perfect 12 V / 10 A module on a board, optionally ablated."""
    board = Baseboard(timing=timing)
    spec = module_spec("pcie_slot_12v")
    rng = RngStream(seed, "ablation")
    if noise_bandwidth_hz is None:
        module = SensorModule.manufacture(spec, rng, perfect=True)
    else:
        from repro.hardware.modules import VDD
        from repro.hardware.sensors import CurrentSensor, VoltageSensor

        module = SensorModule(
            spec,
            CurrentSensor(
                spec.sensitivity_v_per_a,
                spec.current_noise_rms_a,
                rng.child("current"),
                vdd=VDD,
                noise_bandwidth_hz=noise_bandwidth_hz,
            ),
            VoltageSensor(
                spec.voltage_gain,
                spec.voltage_noise_rms_v,
                rng.child("voltage"),
                vdd=VDD,
            ),
        )
    board.attach(0, module)
    return board, default_eeprom(board).configs


def _measure_sigma(board: Baseboard, configs, amps: float, n: int = 32 * 1024) -> float:
    load = ElectronicLoad()
    load.set_current(amps)
    board.connect(0, LoadedSupplyRail(LabSupply(12.0), load))
    codes = board.averaged_codes(0.02, n)
    values, _ = convert_codes(codes, configs)
    return float((values[:, 0] * values[:, 1]).std())


def noise_bandwidth_study(seed: int) -> ExperimentResult:
    """Correlated vs white transducer noise against the Table II floor."""
    result = ExperimentResult(name="Ablation: transducer noise correlation")
    for label, bandwidth in [
        ("correlated (23.4 kHz, as modelled)", 23_400.0),
        ("white across sub-samples (1 MHz)", 1_000_000.0),
        ("fully correlated within a sample (2 kHz)", 2_000.0),
    ]:
        board, configs = _bench_board(noise_bandwidth_hz=bandwidth, seed=seed)
        sigma = _measure_sigma(board, configs, amps=1.0)
        result.rows.append(
            {
                "noise model": label,
                "sigma @20 kHz [W]": sigma,
                "paper [W]": 0.722,
                "reconciles Table II": abs(sigma - 0.722) < 0.08,
            }
        )
    result.notes.append(
        "only the correlated model reproduces the measured noise floor from "
        "the 115 mA rms datasheet figure; white noise under-predicts it "
        "(firmware averaging would win a full sqrt(6))"
    )
    return result


def sampling_rate_study(seed: int) -> ExperimentResult:
    """Why average six scans: USB bandwidth vs noise vs time resolution."""
    result = ExperimentResult(name="Ablation: firmware averaging factor")
    for averages in (1, 2, 3, 6, 12, 24):
        timing = AdcTiming(averages=averages)
        board, configs = _bench_board(timing=timing, seed=seed)
        sigma = _measure_sigma(board, configs, amps=1.0, n=16 * 1024)
        # Full population: 4 modules -> 18 bytes per output sample.
        data_rate = 18 * 8 / timing.output_interval_s
        result.rows.append(
            {
                "averages": averages,
                "rate [kHz]": timing.output_rate_hz / 1e3,
                "USB load [Mbit/s]": data_rate / 1e6,
                "fits USB 1.1": data_rate <= USB_FULL_SPEED_BPS,
                "sigma [W]": sigma,
            }
        )
    result.notes.append(
        "streaming raw scans (averages=1) would need ~17 Mbit/s and overrun "
        "the 12 Mbit/s full-speed link; 6 averages gives 20 kHz with 4x "
        "headroom — the paper's design point"
    )
    return result


def remote_sense_study(seed: int) -> ExperimentResult:
    """Voltage sensing at the DUT vs at the module's input port."""
    result = ExperimentResult(name="Ablation: remote sense connector")
    amps, volts, cable_ohms = 8.0, 12.0, 0.05
    for remote in (True, False):
        board, configs = _bench_board(seed=seed)
        load = ElectronicLoad()
        load.set_current(amps)
        inner = LoadedSupplyRail(LabSupply(volts, source_impedance_ohms=0.0), load)
        board.connect(0, CabledRail(inner, cable_ohms, remote_sense=remote))
        codes = board.averaged_codes(0.02, 16 * 1024)
        values, _ = convert_codes(codes, configs)
        measured = float((values[:, 0] * values[:, 1]).mean())
        result.rows.append(
            {
                "sensing": "remote (at DUT)" if remote else "local (input port)",
                "measured [W]": measured,
                "true DUT power [W]": volts * amps,
                "error [W]": measured - volts * amps,
            }
        )
    result.notes.append(
        f"without remote sense the I^2*R of the {cable_ohms * 1e3:.0f} mOhm "
        "cable is misattributed to the DUT (paper, Section III-A)"
    )
    return result


def ps2_comparison_study(seed: int) -> ExperimentResult:
    """PowerSensor3's improvement list over PowerSensor2, quantified."""
    result = ExperimentResult(name="Ablation: PowerSensor3 vs PowerSensor2")

    # A GPU-like load on a drooping supply, plus a fan spinning up nearby.
    field = ExternalField(static_mt=0.0, ripple_mt=0.1)
    field.add_step(at_time=1.0, level_mt=2.0)
    gpu = Gpu("rtx4000ada", RngStream(seed, "abl-gpu"))
    gpu.launch(KernelLaunch(start=0.3, duration=1.5, n_waves=6, utilization=0.8))
    trace = gpu.render(2.2, dt=1e-4)
    rail = TraceRail(trace)  # 12 V nominal; true volts vary with the trace

    # PS3: one 8-pin module in the field environment.
    board = Baseboard()
    spec = module_spec("pcie8pin")
    module = SensorModule.manufacture(
        spec, RngStream(seed, "abl-ps3"), perfect=True, external_field=field
    )
    board.attach(0, module)
    board.connect(0, rail)
    configs = default_eeprom(board).configs
    n = int(round(2.2 * board.timing.output_rate_hz))
    codes = board.averaged_codes(0.0, n)
    values, _ = convert_codes(codes, configs)
    ps3_power = values[:, 0] * values[:, 1]
    ps3_times = np.arange(n) / board.timing.output_rate_hz

    # PS2: current-only channel at 2.8 kHz, same environment.
    ps2 = PowerSensor2([12.0], seed=seed, external_field=field)
    ps2.calibrate()
    ps2.attach(0, rail)
    ps2_times, ps2_power = ps2.measure(0.0, 2.2)

    true_energy = trace.energy()
    ps3_energy = float(np.trapezoid(ps3_power, ps3_times))
    ps2_energy = float(np.trapezoid(ps2_power, ps2_times))

    # Field-step sensitivity: shift of the measurement *error* (reading
    # minus ground truth) across the 2 mT step, so the GPU's own ramp does
    # not contaminate the comparison.
    from repro.vendor.base import trace_power_at

    def step_shift(times, power):
        error = power - trace_power_at(trace, times)
        before = error[(times > 0.6) & (times < 1.0)].mean()
        after = error[(times > 1.1) & (times < 1.5)].mean()
        return float(after - before)

    result.rows.extend(
        [
            {
                "quantity": "sampling rate [kHz]",
                "PowerSensor3": 20.0,
                "PowerSensor2": 2.8,
            },
            {
                "quantity": "energy error [%]",
                "PowerSensor3": 100 * (ps3_energy / true_energy - 1),
                "PowerSensor2": 100 * (ps2_energy / true_energy - 1),
            },
            {
                "quantity": "2 mT field step shift [W]",
                "PowerSensor3": step_shift(ps3_times, ps3_power),
                "PowerSensor2": step_shift(ps2_times, ps2_power),
            },
            {
                "quantity": "measures rail voltage",
                "PowerSensor3": True,
                "PowerSensor2": False,
            },
        ]
    )
    result.notes.append(
        "PS2's single-ended sensor couples the fan's 2 mT field step "
        "directly into the reading (~0.25 A/mT) and its assumed nominal "
        "voltage misses the real rail behaviour; both fixed in PS3"
    )
    return result


def gc_hysteresis_study(seed: int) -> ExperimentResult:
    """GC watermark hysteresis vs continuous trickle collection."""
    result = ExperimentResult(name="Ablation: SSD GC hysteresis")
    for label, low, high in [
        ("hysteresis 1 % -> 3 % (as modelled)", 0.01, 0.03),
        ("trickle (collect-as-needed)", 0.01, 0.011),
    ]:
        spec = SsdSpec(
            logical_bytes=1 * GIB, gc_low_watermark=low, gc_high_watermark=high
        )
        ssd = Ssd(spec, seed=seed)
        engine = IoEngine(ssd, seed=seed)
        engine.run(FioJob(rw="write", runtime_s=0, precondition_passes=1.0))
        outcome = engine.run(
            FioJob(rw="randwrite", bs="4k", runtime_s=20.0, stonewall=True)
        )
        # Aggregate to 1 s granularity (as Fig. 12b plots) before comparing.
        bw_all, pw_all = outcome.per_second()
        bw = bw_all[bw_all.size // 3 :]
        power = pw_all[pw_all.size // 3 :]
        result.rows.append(
            {
                "gc policy": label,
                "steady bw [MB/s]": float(bw.mean() / 1e6),
                "bw CV": float(bw.std() / max(bw.mean(), 1e-9)),
                "power CV": float(power.std() / power.mean()),
            }
        )
    result.notes.append(
        "bursty collection amplifies Fig. 12b's bandwidth variability; with "
        "trickle GC the variability drops markedly — power is stable either way"
    )
    return result


def strategy_study(seed: int, budget: int) -> ExperimentResult:
    """Search strategies over the 5120-point beamformer space."""
    from repro.tuner.kernels import BEAMFORMER_TARGETS, TensorCoreBeamformer
    from repro.tuner.kernels import beamformer_search_space
    from repro.tuner.tuning import tune

    result = ExperimentResult(name="Ablation: tuner search strategies")
    target = BEAMFORMER_TARGETS["rtx4000ada"]
    kernel = TensorCoreBeamformer(target)
    space = beamformer_search_space()

    brute = tune(kernel, space, target.clocks_mhz, trials=1, seed=seed)
    best_tflops = brute.fastest.tflops
    runs = [("brute force", brute)]
    runs.append(
        (
            "random sample",
            tune(
                kernel,
                space,
                target.clocks_mhz,
                trials=1,
                strategy="random_sample",
                max_configs=budget,
                seed=seed,
            ),
        )
    )
    runs.append(
        (
            "hill climbing",
            tune(
                kernel,
                space,
                target.clocks_mhz,
                trials=1,
                strategy="hill_climbing",
                max_configs=budget,
                objective="inverse_tflops",
                seed=seed,
            ),
        )
    )
    for label, outcome in runs:
        result.rows.append(
            {
                "strategy": label,
                "evaluations": len(outcome.results),
                "best TFLOP/s": outcome.fastest.tflops,
                "fraction of optimum": outcome.fastest.tflops / best_tflops,
                "tuning time [s]": outcome.tuning_seconds,
            }
        )
    result.notes.append(
        f"with a {budget}-evaluation budget, guided search recovers nearly "
        "the brute-force optimum at a fraction of the tuning time — the "
        "kind of search Kernel Tuner runs when spaces outgrow enumeration"
    )
    return result


_ABLATION_STUDIES = (
    ("ablation_noise", "Ablation: noise correlation", noise_bandwidth_study, 30, 10),
    ("ablation_averaging", "Ablation: averaging factor", sampling_rate_study, 31, 11),
    ("ablation_remote_sense", "Ablation: remote sense", remote_sense_study, 32, 12),
    ("ablation_ps2", "Ablation: PS2 vs PS3", ps2_comparison_study, 33, 13),
    ("ablation_gc", "Ablation: GC hysteresis", gc_hysteresis_study, 34, 14),
    ("ablation_strategies", "Ablation: search strategies", strategy_study, 35, 15),
)

for _name, _section, _runner, _seed, _index in _ABLATION_STUDIES:
    registry.register(
        _name,
        section=_section,
        runner=_runner,
        params=(
            (Param("seed", "int", default=_seed), Param("budget", "int", default=150))
            if _name == "ablation_strategies"
            else (Param("seed", "int", default=_seed),)
        ),
        report_index=_index,
        help="design-choice ablation study (see DESIGN.md)",
    )


def main() -> None:
    registry.print_paper_scale(*(name for name, *_ in _ABLATION_STUDIES))


if __name__ == "__main__":
    main()
