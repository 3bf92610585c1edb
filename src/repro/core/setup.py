"""One-call assembly of a complete simulated measurement bench.

``SimulatedSetup`` manufactures sensor modules, mounts them on a
baseboard, flashes factory-default EEPROM contents, runs the one-time
calibration, and hands back a connected :class:`PowerSensor` — the
simulation analogue of unboxing and installing a PowerSensor3.
"""

from __future__ import annotations

from repro.calibration.procedure import calibrate_all, CalibrationResult
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.core.powersensor import PowerSensor, RecoveryPolicy, DEFAULT_RECOVERY
from repro.core.sources import DirectSampleSource, ProtocolSampleSource
from repro.firmware.device import Firmware, default_eeprom
from repro.hardware.baseboard import Baseboard, PowerRail
from repro.hardware.modules import SensorModule
from repro.observability import MetricsRegistry, Tracer
from repro.transport.faults import FaultModel, FaultySerialLink, parse_fault_spec
from repro.transport.link import VirtualSerialLink
from repro.transport.shm import ProducerLink

#: Default calibration length for programmatic setups.  The paper's
#: procedure uses 128 k samples; 32 k keeps test construction fast while
#: leaving the residual offset error far below the sensor noise floor.
SETUP_CALIBRATION_SAMPLES = 32 * 1024


class SimulatedSetup:
    """A fully assembled PowerSensor3 bench.

    Args:
        module_keys: catalog key per slot (up to four); ``None`` leaves a
            slot empty.
        seed: root seed for all production tolerances and sensor noise.
        direct: use the vectorised direct sample path instead of the
            byte-accurate protocol path (for large experiments).
        calibrate: run the one-time calibration before connecting.
        calibration_samples: samples averaged per calibration point.
        faults: fault models to inject on the serial link — a spec string
            (see :func:`repro.transport.faults.parse_fault_spec`) or a
            list of :class:`~repro.transport.faults.FaultModel`; protocol
            path only.
        fault_seed: seed for the fault generator (defaults to ``seed``).
        recovery: retry policy for the PowerSensor (None disables).
        registry: metrics registry shared by every layer of the bench
            (fault layer, sample source, PowerSensor); a fresh one is
            created if not given.
        producer: run the firmware simulation in a batching producer
            feeding a shared SPSC ring (``"thread"``, ``"process"`` or
            ``"auto"``; see :mod:`repro.transport.shm`); protocol path
            only.  ``None`` (default) keeps the classic interleaved pump.
            On a clean stream both give the same bytes.

    Attributes:
        baseboard, eeprom, firmware (None on the direct path), link (None
        on the direct path), source, ps (the connected PowerSensor),
        registry/tracer (the bench-wide observability handles), and
        calibration (list of per-slot results, empty if not calibrated).
    """

    def __init__(
        self,
        module_keys: list[str | None],
        seed: int = 0,
        direct: bool = False,
        calibrate: bool = True,
        calibration_samples: int = SETUP_CALIBRATION_SAMPLES,
        perfect_modules: bool = False,
        external_field=None,
        faults: str | list[FaultModel] | None = None,
        fault_seed: int | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        device: str | None = None,
        producer: str | None = None,
    ) -> None:
        if len(module_keys) > 4:
            raise ValueError("a baseboard has at most four slots")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.device = device
        self.rng = RngStream(seed, "setup")
        self.baseboard = Baseboard()
        for slot, key in enumerate(module_keys):
            if key is None:
                continue
            module = SensorModule.manufacture(
                key,
                self.rng.child(f"slot{slot}"),
                perfect=perfect_modules,
                external_field=external_field,
            )
            self.baseboard.attach(slot, module)
        self.eeprom = default_eeprom(self.baseboard)

        self.calibration: list[CalibrationResult] = []
        if calibrate:
            self.calibration = calibrate_all(
                self.baseboard, self.eeprom, n_samples=calibration_samples
            )

        fault_models = parse_fault_spec(faults) if isinstance(faults, str) else faults
        if direct:
            if fault_models or producer:
                raise ConfigurationError(
                    "fault injection and the producer ring require the "
                    "byte-accurate protocol path (construct the bench "
                    "without direct=True)"
                )
            self.firmware = None
            self.link = None
            self.source: DirectSampleSource | ProtocolSampleSource = (
                DirectSampleSource(
                    self.baseboard,
                    self.eeprom,
                    registry=self.registry,
                    tracer=self.tracer,
                    device=device,
                )
            )
        else:
            self.firmware = Firmware(self.baseboard, eeprom=self.eeprom)
            self.link = VirtualSerialLink(self.firmware)
            if fault_models:
                self.link = FaultySerialLink(
                    self.link,
                    fault_models,
                    seed=seed if fault_seed is None else fault_seed,
                    registry=self.registry,
                    device=device,
                )
            if producer:
                self.link = ProducerLink(self.link, producer=producer)
            self.source = ProtocolSampleSource(
                self.link,
                registry=self.registry,
                tracer=self.tracer,
                device=device,
            )
        self.ps = PowerSensor(self.source, recovery=recovery)

    def connect(self, slot: int, rail: PowerRail) -> None:
        """Wire a DUT power rail to a slot's sensor module."""
        self.baseboard.connect(slot, rail)

    @property
    def sample_rate(self) -> float:
        return self.baseboard.timing.output_rate_hz

    def close(self) -> None:
        self.ps.close()

    def __enter__(self) -> "SimulatedSetup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_module_keys(modules: str) -> list[str | None]:
    """Parse a comma-separated module list (``none``/empty leaves a slot free)."""
    return [
        None if key.strip().lower() in ("none", "") else key.strip()
        for key in modules.split(",")
    ]
