"""Fig. 4: power error across a current sweep for four sensor types.

The load current is swept in 1 A steps from -10 A to +10 A; at each step
128 k samples are collected.  The figure plots the mean difference between
expected and measured power (continuous line) with the min/max envelope
(dotted lines).  The 3.3 V sensor is the most accurate because the current
error multiplies a 3.6x smaller voltage.
"""

from __future__ import annotations

import numpy as np

from repro.common.stats import summarize
from repro.core.setup import SimulatedSetup
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult

#: The four sensor types of Fig. 4: (module key, supply voltage).
FIG4_SENSORS = (
    ("pcie_slot_3v3", 3.3),
    ("pcie_slot_12v", 12.0),
    ("usbc", 20.0),
    ("pcie8pin", 12.0),
)


def run(n_samples: int, step_a: float, seed: int) -> ExperimentResult:
    """Sweep each sensor type, ``n_samples`` per ``step_a`` current step."""
    result = ExperimentResult(name="Fig. 4: power error vs current sweep")
    for module_key, volts in FIG4_SENSORS:
        setup = SimulatedSetup(
            [module_key], seed=seed, direct=True, calibration_samples=128 * 1024
        )
        spec = setup.baseboard.populated_slots()[0].module.spec
        sweep = np.arange(-spec.max_current_a, spec.max_current_a + step_a / 2, step_a)
        supply = LabSupply(volts)
        means, mins, maxs = [], [], []
        for amps in sweep:
            load = ElectronicLoad()
            load.set_current(float(amps))
            rail = LoadedSupplyRail(supply, load)
            setup.connect(0, rail)
            setup.ps.pump_seconds(0.01)  # let the load's turn-on slew settle
            # Ground truth from the bench multimeters (exact in simulation).
            true_u = supply.voltage_under_load(np.array([amps]))[0]
            expected = true_u * amps
            block = setup.ps.pump(n_samples)
            summary = summarize(block.pair_power(0)).shifted(expected)
            means.append(summary.mean)
            mins.append(summary.minimum)
            maxs.append(summary.maximum)
        setup.close()
        key = f"{module_key}"
        result.series[f"{key}/current_a"] = sweep
        result.series[f"{key}/mean_error_w"] = np.asarray(means)
        result.series[f"{key}/min_error_w"] = np.asarray(mins)
        result.series[f"{key}/max_error_w"] = np.asarray(maxs)
        result.rows.append(
            {
                "sensor": f"{spec.nominal_voltage_v:g} V ({module_key})",
                "max |mean err| [W]": float(np.abs(means).max()),
                "envelope min [W]": float(np.min(mins)),
                "envelope max [W]": float(np.max(maxs)),
            }
        )
    result.notes.append(
        f"{n_samples} samples per 1 A step; mean error stays within the "
        "envelope dominated by current-sensor noise"
    )
    return result


registry.register(
    "fig4",
    section="Fig. 4",
    runner=run,
    params=(
        Param("n_samples", "int", default=16 * 1024, full=128 * 1024),
        Param("step_a", "float", default=1.0),
        Param("seed", "int", default=3),
    ),
    report_index=2,
    series=True,
    help="power error vs current sweep for four sensor types",
)


def main() -> None:
    registry.print_paper_scale("fig4")


if __name__ == "__main__":
    main()
