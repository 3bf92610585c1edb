"""Table II: error statistics versus effective sampling rate.

A calibrated 12 V / 10 A sensor measures a constant load; 128 k samples
are captured at 20 kHz with ``pstest``-equivalent code, then block
averaged down to 10 / 5 / 1 / 0.5 kHz.  The paper tabulates min / max /
peak-to-peak / std of the measured power for 0.5 A and 1 A loads.
"""

from __future__ import annotations

from repro.analysis.averaging import averaging_table
from repro.core.setup import SimulatedSetup
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult

#: Paper Table II std column per rate (kHz -> W rms), identical for both loads.
PAPER_STD = {20.0: 0.72, 10.0: 0.51, 5.0: 0.36, 1.0: 0.16, 0.5: 0.115}
#: The paper's two constant loads [A].
LOADS_A = (0.5, 1.0)


def run(n_samples: int, seed: int) -> ExperimentResult:
    result = ExperimentResult(name="Table II: error vs sampling rate (12 V / 10 A)")
    setup = SimulatedSetup(
        ["pcie_slot_12v"], seed=seed, direct=True, calibration_samples=128 * 1024
    )
    supply = LabSupply(12.0)
    for load_amps in LOADS_A:
        load = ElectronicLoad()
        load.set_current(load_amps)
        setup.connect(0, LoadedSupplyRail(supply, load))
        setup.ps.pump_seconds(0.01)  # let the load's turn-on slew settle
        block = setup.ps.pump(n_samples)
        power = block.pair_power(0)
        for row in averaging_table(power, setup.sample_rate):
            result.rows.append(
                {
                    "load [A]": load_amps,
                    "Fs [kHz]": row.rate_khz,
                    "min [W]": row.minimum,
                    "max [W]": row.maximum,
                    "p-p [W]": row.peak_to_peak,
                    "std [W]": row.std,
                    "paper std": PAPER_STD[row.rate_khz],
                }
            )
    setup.close()
    result.notes.append(
        f"{n_samples} samples per load point; block averaging of the 20 kHz capture"
    )
    return result


registry.register(
    "table2",
    section="Table II",
    runner=run,
    params=(
        Param("n_samples", "int", default=32 * 1024, full=128 * 1024),
        Param("seed", "int", default=2),
    ),
    report_index=1,
    help="noise vs effective sampling rate on a 12 V / 10 A sensor",
)


def main() -> None:
    registry.print_paper_scale("table2")


if __name__ == "__main__":
    main()
