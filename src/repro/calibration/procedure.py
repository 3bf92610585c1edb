"""The calibration procedure itself.

``calibrate_slot`` reproduces the paper's command-line-guided flow for one
module: connect a known, unloaded supply; average 128 k samples; store the
measured zero-current reference voltage for the current sensor and the
measured gain for the voltage sensor into the EEPROM.  Only the module
being calibrated is simulated, so its neighbours' streams do not depend
on how many modules the board holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CalibrationError
from repro.dut.base import ConstantRail
from repro.hardware.baseboard import Baseboard
from repro.hardware.eeprom import VirtualEeprom

#: The paper averages 128 k samples per calibration point.
DEFAULT_CALIBRATION_SAMPLES = 128 * 1024


@dataclass(frozen=True)
class CalibrationResult:
    """Corrections determined for one module slot."""

    slot: int
    vref_volts: float  # measured zero-current output of the Hall sensor
    voltage_gain: float  # measured ADC volts per input volt
    reference_voltage: float
    n_samples: int

    @property
    def offset_correction_volts(self) -> float:
        """How far the measured reference sits from the nominal midpoint."""
        return self.vref_volts - 3.3 / 2.0


def calibrate_slot(
    baseboard: Baseboard,
    eeprom: VirtualEeprom,
    slot: int,
    reference_voltage: float | None = None,
    n_samples: int = DEFAULT_CALIBRATION_SAMPLES,
    start_time: float = 0.0,
) -> CalibrationResult:
    """Calibrate one populated slot and store the corrections in EEPROM.

    Args:
        baseboard: the device's baseboard (modules must be attached).
        eeprom: the device EEPROM to receive the corrections.
        slot: slot index to calibrate.
        reference_voltage: known supply voltage applied to the module; if
            None the module's nominal voltage is used.
        n_samples: number of averaged 20 kHz samples to collect.
        start_time: simulated time at which the capture begins.

    Returns:
        The determined corrections.

    Raises:
        CalibrationError: if the slot is empty or results are out of range.
    """
    channel = next(
        (c for c in baseboard.populated_slots() if c.slot == slot), None
    )
    if channel is None:
        raise CalibrationError(f"slot {slot} is not populated; cannot calibrate")
    if n_samples < 2:
        raise CalibrationError("calibration needs at least two samples")
    spec = channel.module.spec
    if reference_voltage is None:
        reference_voltage = spec.nominal_voltage_v
    if reference_voltage <= 0:
        raise CalibrationError("reference voltage must be positive")

    previous_rail = channel.rail
    channel.rail = ConstantRail(volts=reference_voltage, amps=0.0)
    try:
        codes = baseboard.slot_averaged_codes(slot, start_time, n_samples)
    finally:
        channel.rail = previous_rail

    lsb = baseboard.adc.lsb
    vref = float((codes[:, 0].mean() + 0.5) * lsb)
    volts_reading = float((codes[:, 1].mean() + 0.5) * lsb)
    gain = volts_reading / reference_voltage

    # Sanity bounds: vref should be near midscale, gain near the datasheet
    # value; anything far off means a miswired bench.
    if not 0.25 * 3.3 < vref < 0.75 * 3.3:
        raise CalibrationError(
            f"measured reference {vref:.3f} V is far from midscale; "
            "is current really zero?"
        )
    if not 0.5 * spec.voltage_gain < gain < 1.5 * spec.voltage_gain:
        raise CalibrationError(
            f"measured voltage gain {gain:.4f} is far from the datasheet "
            f"value {spec.voltage_gain:.4f}"
        )

    eeprom.update(2 * slot, vref=vref)
    eeprom.update(2 * slot + 1, vref=0.0, slope=gain)
    return CalibrationResult(
        slot=slot,
        vref_volts=vref,
        voltage_gain=gain,
        reference_voltage=reference_voltage,
        n_samples=n_samples,
    )


def calibrate_all(
    baseboard: Baseboard,
    eeprom: VirtualEeprom,
    n_samples: int = DEFAULT_CALIBRATION_SAMPLES,
    reference_voltages: dict[int, float] | None = None,
) -> list[CalibrationResult]:
    """Calibrate every populated slot; returns one result per slot."""
    reference_voltages = reference_voltages or {}
    results = []
    for channel in baseboard.populated_slots():
        results.append(
            calibrate_slot(
                baseboard,
                eeprom,
                channel.slot,
                reference_voltage=reference_voltages.get(channel.slot),
                n_samples=n_samples,
            )
        )
    return results
