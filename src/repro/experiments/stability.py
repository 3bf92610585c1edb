"""Section IV-B: long-term stability of a PCIe 8-pin sensor module.

A 7.5 A load runs for 50 hours; a 128 k-sample window is captured every
15 minutes and summarised (mean / min / max).  The paper observes only
marginal fluctuations (+-0.09 W) of the window means and concludes that
one production-time calibration suffices.

Windows are simulated individually — the slow thermal drift model is an
analytic function of time (see :class:`repro.hardware.sensors._DriftModel`),
so the 50 simulated hours cost only 200 window captures.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stability import StabilityPoint, stability_statistics
from repro.core.setup import SimulatedSetup
from repro.core.sources import convert_codes
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.campaign import registry
from repro.campaign.registry import Param
from repro.experiments.common import ExperimentResult

LOAD_AMPS = 7.5
#: One window every 15 minutes, as in the paper.
WINDOW_INTERVAL_S = 900.0
PAPER_MEAN_FLUCTUATION_W = 0.09


def run(hours: float, window_samples: int, seed: int) -> ExperimentResult:
    """Capture ``window_samples`` every 15 minutes for ``hours``."""
    result = ExperimentResult(name="Long-term stability (7.5 A, 50 h)")
    setup = SimulatedSetup(
        ["pcie8pin"], seed=seed, direct=True, calibration_samples=128 * 1024
    )
    load = ElectronicLoad()
    load.set_current(LOAD_AMPS)
    setup.connect(0, LoadedSupplyRail(LabSupply(12.0), load))

    window_starts = np.arange(0.0, hours * 3600.0, WINDOW_INTERVAL_S)
    points = []
    for start in window_starts:
        codes = setup.baseboard.averaged_codes(float(start), window_samples)
        values, _ = convert_codes(codes, setup.eeprom.configs)
        power = values[:, 0] * values[:, 1]
        points.append(
            StabilityPoint(
                time_hours=float(start) / 3600.0,
                mean=float(power.mean()),
                minimum=float(power.min()),
                maximum=float(power.max()),
            )
        )
    setup.close()

    stats = stability_statistics(points)
    result.series["time_hours"] = np.array([p.time_hours for p in points])
    result.series["mean_w"] = np.array([p.mean for p in points])
    result.series["min_w"] = np.array([p.minimum for p in points])
    result.series["max_w"] = np.array([p.maximum for p in points])
    result.rows.append(
        {
            "windows": stats.n_windows,
            "grand mean [W]": stats.grand_mean,
            "mean fluct [W]": stats.mean_fluctuation,
            "paper fluct [W]": PAPER_MEAN_FLUCTUATION_W,
            "extreme span [W]": stats.extreme_span,
            "recalibration needed": stats.requires_recalibration,
        }
    )
    result.notes.append(
        f"{window_samples} samples per window, one window per "
        f"{WINDOW_INTERVAL_S / 60:.0f} min over {hours:.0f} h"
    )
    return result


registry.register(
    "stability",
    section="Long-term stability",
    runner=run,
    params=(
        Param("hours", "float", default=50.0),
        Param("window_samples", "int", default=16 * 1024, full=128 * 1024),
        Param("seed", "int", default=5),
    ),
    report_index=4,
    series=True,
    help="50-hour drift study (Section IV-B)",
)


def main() -> None:
    registry.print_paper_scale("stability")


if __name__ == "__main__":
    main()
