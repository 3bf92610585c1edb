"""Post-calibration verification sweep.

The paper's calibration flow is guided by scripts and verified with the
bench sweep of Fig. 4.  This module packages that check: sweep the load
across the module's range, compare the measured power against the bench
truth, and pass/fail against the module's Table I worst-case bounds.
``psconfig --verify`` runs it from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.accuracy import worst_case_accuracy
from repro.common.errors import CalibrationError
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.hardware.baseboard import Baseboard
from repro.hardware.eeprom import VirtualEeprom


@dataclass(frozen=True)
class VerificationPoint:
    """One sweep point of the verification."""

    amps: float
    expected_watts: float
    mean_error_watts: float
    max_abs_error_watts: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification sweep for one module slot."""

    slot: int
    points: tuple[VerificationPoint, ...]
    bound_watts: float  # the module's Table I worst case

    @property
    def worst_mean_error(self) -> float:
        return max(abs(p.mean_error_watts) for p in self.points)

    @property
    def worst_sample_error(self) -> float:
        return max(p.max_abs_error_watts for p in self.points)

    @property
    def passed(self) -> bool:
        """Mean errors must sit far inside the worst-case noise bound.

        The mean over a long capture averages the noise away, so a
        correctly calibrated module keeps it below a quarter of the
        single-sample worst case; individual samples may graze ~1.5x the
        3 sigma bound over a long capture.
        """
        return (
            self.worst_mean_error < 0.25 * self.bound_watts
            and self.worst_sample_error < 1.5 * self.bound_watts
        )


def verify_slot(
    baseboard: Baseboard,
    eeprom: VirtualEeprom,
    slot: int,
    n_points: int = 5,
    n_samples: int = 8 * 1024,
    supply_volts: float | None = None,
) -> VerificationReport:
    """Sweep a calibrated slot across its range and check the error budget.

    Raises:
        CalibrationError: if the slot is empty.
    """
    channel = next((c for c in baseboard.populated_slots() if c.slot == slot), None)
    if channel is None:
        raise CalibrationError(f"slot {slot} is not populated; cannot verify")
    spec = channel.module.spec
    volts = spec.nominal_voltage_v if supply_volts is None else supply_volts
    accuracy = worst_case_accuracy(spec)
    supply = LabSupply(volts, source_impedance_ohms=0.0)
    sweep = np.linspace(-spec.max_current_a, spec.max_current_a, n_points)

    current_cfg, voltage_cfg = eeprom.get(2 * slot), eeprom.get(2 * slot + 1)
    previous_rail = channel.rail
    points = []
    try:
        for amps in sweep:
            load = ElectronicLoad()
            load.set_current(float(amps))
            channel.rail = LoadedSupplyRail(supply, load)
            # Capture after the turn-on slew has settled.
            codes = baseboard.slot_averaged_codes(slot, 0.01, n_samples)
            adc_volts = (codes + 0.5) * baseboard.adc.lsb
            power = current_cfg.convert(adc_volts[:, 0]) * voltage_cfg.convert(
                adc_volts[:, 1]
            )
            expected = volts * float(amps)
            error = power - expected
            points.append(
                VerificationPoint(
                    amps=float(amps),
                    expected_watts=expected,
                    mean_error_watts=float(error.mean()),
                    max_abs_error_watts=float(np.abs(error).max()),
                )
            )
    finally:
        channel.rail = previous_rail
    return VerificationReport(
        slot=slot, points=tuple(points), bound_watts=accuracy.power_error_w
    )


def verify_all(
    baseboard: Baseboard, eeprom: VirtualEeprom, **kwargs
) -> list[VerificationReport]:
    """Verify every populated slot."""
    return [
        verify_slot(baseboard, eeprom, channel.slot, **kwargs)
        for channel in baseboard.populated_slots()
    ]
