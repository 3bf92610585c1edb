"""Shared low-level utilities: units, clocks, RNG streams, noise, statistics.

Everything in this package is deliberately dependency-free (numpy only) so
that every other subpackage can build on it without import cycles.
"""

from repro.common.clock import VirtualClock
from repro.common.errors import (
    CalibrationError,
    DeviceError,
    ProtocolError,
    ReproError,
    ServerError,
    TransportError,
)
from repro.common.noise import OrnsteinUhlenbeckNoise
from repro.common.retry import DEFAULT_RECOVERY, RecoveryPolicy
from repro.common.rng import RngStream
from repro.common.stats import SampleSummary, block_average, summarize
from repro.common.units import (
    KIB,
    MIB,
    GIB,
    amps,
    joules_from_watt_seconds,
    mean_power,
    microseconds,
    milliseconds,
    volts,
)

__all__ = [
    "VirtualClock",
    "ReproError",
    "DeviceError",
    "ProtocolError",
    "TransportError",
    "CalibrationError",
    "ServerError",
    "RecoveryPolicy",
    "DEFAULT_RECOVERY",
    "OrnsteinUhlenbeckNoise",
    "RngStream",
    "SampleSummary",
    "block_average",
    "summarize",
    "KIB",
    "MIB",
    "GIB",
    "amps",
    "volts",
    "microseconds",
    "milliseconds",
    "joules_from_watt_seconds",
    "mean_power",
]
