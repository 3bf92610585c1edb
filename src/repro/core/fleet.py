"""The fleet layer: one session driving N named devices.

The paper's baseboard carries up to four sensor modules, and real
deployments measure several rails and several devices at once (the PMT
toolkit composes independent power backends the same way).  A
:class:`Fleet` owns any number of named benches — simulated, remote,
replayed, freely mixed — and drives them through one surface:

* :meth:`Fleet.read_all` performs a clock-aligned synchronized pump —
  every member advances by the same duration of stream time, each
  carrying its own fractional-sample residual, so devices with different
  sample rates stay aligned — and returns the per-device
  :class:`~repro.core.sources.SampleBlock`\\ s plus an aggregated view.
* :meth:`Fleet.read` snapshots every member and aggregates energy/power.
* Markers, configs and health are addressed per device.

Members are described by URI device specs (``sim://…``, ``remote://…``,
``replay://…``, ``store://…``), which :func:`build_bench` — the one
dispatcher from a spec to a bench — turns into devices; a spec without a
scheme is shorthand for a simulated bench with those module keys.
Every member gets a unique name — the spec's ``device=`` option, or else
the next free name of ``device0``, ``device1``, … (the names psserve
gives unnamed sources) — and that name becomes the ``device=`` label on
all of the member's stream, decode, retry and span metrics in the shared
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigurationError, MeasurementError
from repro.common.retry import DEFAULT_RECOVERY, RecoveryPolicy
from repro.core.health import StreamHealth
from repro.core.powersensor import PowerSensor
from repro.core.sources import SampleBlock, SampleSource, parse_source_spec
from repro.core.state import State
from repro.observability import MetricsRegistry, Tracer

#: The options each device-spec scheme accepts (``device=`` names the
#: bench in every scheme).
_SCHEME_OPTIONS: dict[str, frozenset[str]] = {
    "sim": frozenset(
        {
            "device",
            "dut",
            "seed",
            "direct",
            "faults",
            "fault_seed",
            "calibrate",
            "calibration_samples",
            "producer",
        }
    ),
    "remote": frozenset(
        {"device", "window", "mode", "faults", "fault_seed", "connect_timeout"}
    ),
    "replay": frozenset({"device", "speed", "loop"}),
    "store": frozenset({"device", "speed", "loop", "t0", "t1"}),
}


def build_bench(
    spec: str,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    name: str | None = None,
    recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    **overrides,
):
    """Build a complete bench (source + PowerSensor) from a device spec.

    The one place a device spec becomes a device:

    * ``sim://MODULES?dut=…&seed=…`` assembles a
      :class:`~repro.core.setup.SimulatedSetup` with the DUT rail wired to
      the first populated slot;
    * ``remote://HOST:PORT`` a :class:`~repro.server.client.RemoteSetup`;
    * ``replay://DUMP`` and ``store://DIR`` a
      :class:`~repro.core.replay.TapeSetup` over the recorded tape.

    A spec without ``://`` is shorthand for ``sim://<spec>``.  Keyword
    ``overrides`` take precedence over the spec's options; ``name``
    overrides its ``device=`` option as the bench's device label (a
    ``remote://`` bench still subscribes to the served device its
    ``device=`` option names, or the server's first).  The
    scheme and every option are checked before anything is opened,
    connected or calibrated: an unknown scheme or option raises
    :class:`ConfigurationError` naming them.
    """
    if "://" not in spec:
        spec = f"sim://{spec}"
    parsed = parse_source_spec(spec)
    scheme = parsed.scheme
    if scheme not in _SCHEME_OPTIONS:
        raise ConfigurationError(
            f"unknown device scheme {scheme!r} in {spec!r} "
            f"(expected {', '.join(s + '://' for s in _SCHEME_OPTIONS)})"
        )
    options: dict[str, Any] = {**parsed.options, **overrides}
    unknown = sorted(set(options) - _SCHEME_OPTIONS[scheme])
    if unknown:
        raise ConfigurationError(f"unknown {scheme}:// options {unknown} in {spec!r}")
    spec_device = options.pop("device", None)
    device = name if name is not None else (str(spec_device) if spec_device else None)
    observability: dict[str, Any] = {
        "device": device,
        "registry": registry,
        "tracer": tracer,
    }

    if scheme == "sim":
        from repro.core.setup import SETUP_CALIBRATION_SAMPLES, SimulatedSetup
        from repro.core.setup import parse_module_keys
        from repro.dut.rails import build_rail

        seed = int(options.get("seed", 0))
        rail = build_rail(str(options.get("dut", "load:8.0@12.0")), seed)
        setup = SimulatedSetup(
            parse_module_keys(parsed.target or "pcie_slot_12v"),
            seed=seed,
            direct=bool(options.get("direct", False)),
            faults=options.get("faults"),
            fault_seed=options.get("fault_seed"),
            calibrate=bool(options.get("calibrate", True)),
            calibration_samples=int(
                options.get("calibration_samples", SETUP_CALIBRATION_SAMPLES)
            ),
            recovery=recovery,
            producer=options.get("producer"),
            **observability,
        )
        if rail is not None:
            for channel in setup.baseboard.populated_slots():
                setup.connect(channel.slot, rail)
                break
        return setup
    if scheme == "remote":
        from repro.server.client import RemoteSetup

        window = int(options.get("window", 0))
        return RemoteSetup(
            parsed.target,
            subscribe=str(spec_device) if spec_device else None,
            mode=str(options.get("mode", "window" if window > 1 else "raw")),
            window=max(window, 1),
            recovery=recovery,
            faults=options.get("faults"),
            fault_seed=int(options.get("fault_seed", 0)),
            connect_timeout=float(options.get("connect_timeout", 5.0)),
            **observability,
        )
    from repro.core.replay import ReplaySampleSource, TapeSetup

    tape: dict[str, Any] = {
        "speed": float(options.get("speed", 1.0)),
        "loop": bool(options.get("loop", False)),
        **observability,
    }
    if scheme == "replay":
        return TapeSetup(ReplaySampleSource(parsed.target, **tape))
    from repro.store.source import StoreSampleSource

    return TapeSetup(
        StoreSampleSource(
            parsed.target, t0=options.get("t0"), t1=options.get("t1"), **tape
        )
    )


@dataclass
class FleetMember:
    """One named device in a fleet."""

    name: str
    bench: object  # what build_bench built: SimulatedSetup | RemoteSetup | TapeSetup

    @property
    def source(self) -> SampleSource:
        return self.bench.source

    @property
    def ps(self) -> PowerSensor:
        return self.bench.ps

    @property
    def health(self) -> StreamHealth:
        return self.ps.health


@dataclass
class FleetBlock:
    """Per-device sample blocks from one synchronized read."""

    blocks: dict[str, SampleBlock] = field(default_factory=dict)

    def __getitem__(self, name: str) -> SampleBlock:
        return self.blocks[name]

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def items(self):
        return self.blocks.items()

    @property
    def total_samples(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    def mean_power(self) -> float:
        """Fleet-wide mean power over the read, W (sum of device means)."""
        total = 0.0
        for block in self.blocks.values():
            if len(block):
                total += float(block.total_power().mean())
        return total


@dataclass(frozen=True)
class FleetState:
    """Per-device snapshots plus fleet-wide aggregates."""

    states: dict[str, State]

    def __getitem__(self, name: str) -> State:
        return self.states[name]

    def items(self):
        return self.states.items()

    @property
    def total_energy(self) -> float:
        """Cumulative joules across every device since connect."""
        return sum(sum(s.consumed_energy) for s in self.states.values())

    @property
    def total_power(self) -> float:
        """Instantaneous total power across every device, W."""
        return sum(s.total_power for s in self.states.values())

    @property
    def marker_count(self) -> int:
        return sum(s.marker_count for s in self.states.values())


class Fleet:
    """N named devices driven as one session (a.k.a. the device manager).

    Members share one metrics registry and tracer; each member's metrics
    carry its name as the ``device=`` label, so one exported snapshot
    tells the devices apart.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.recovery = recovery
        self.members: dict[str, FleetMember] = {}
        self._auto_index = 0

    @classmethod
    def from_specs(
        cls,
        specs: list[str],
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    ) -> "Fleet":
        """Build a fleet from URI device specs, one member per spec."""
        fleet = cls(registry=registry, tracer=tracer, recovery=recovery)
        try:
            for spec in specs:
                fleet.add_spec(spec)
        except Exception:
            fleet.close()
            raise
        return fleet

    # -- membership ----------------------------------------------------- #

    def _generate_name(self) -> str:
        while True:
            name = f"device{self._auto_index}"
            self._auto_index += 1
            if name not in self.members:
                return name

    def add(self, name: str | None, bench) -> FleetMember:
        """Adopt an already-built bench as a named member."""
        if name is None:
            name = getattr(bench, "device", None) or self._generate_name()
        if name in self.members:
            raise ConfigurationError(f"fleet already has a device named {name!r}")
        member = FleetMember(name=name, bench=bench)
        self.members[name] = member
        return member

    def add_spec(self, spec: str, name: str | None = None) -> FleetMember:
        """Build a bench from a device spec and add it to the fleet."""
        if name is None:
            name = parse_source_spec(
                spec if "://" in spec else f"sim://{spec}"
            ).device or self._generate_name()
        bench = build_bench(
            spec,
            registry=self.registry,
            tracer=self.tracer,
            name=name,
            recovery=self.recovery,
        )
        return self.add(name, bench)

    @property
    def names(self) -> list[str]:
        return list(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members.values())

    def __getitem__(self, name: str) -> FleetMember:
        try:
            return self.members[name]
        except KeyError:
            known = ", ".join(self.members) or "(none)"
            raise ConfigurationError(
                f"no device named {name!r} in the fleet (members: {known})"
            ) from None

    def sources(self) -> dict[str, SampleSource]:
        """The members' sample sources, by device name (for psserve)."""
        return {name: member.source for name, member in self.members.items()}

    # -- synchronized streaming ---------------------------------------- #

    def _require_members(self) -> None:
        if not self.members:
            raise MeasurementError("the fleet has no devices")

    def read_all(self, seconds: float) -> FleetBlock:
        """Advance every device by the same duration of stream time.

        Each member advances by ``seconds`` through its own
        :meth:`~repro.core.powersensor.PowerSensor.pump_seconds`, whose
        fractional-sample residual carry keeps repeated short reads
        clock-aligned across members even when their sample rates differ.
        """
        self._require_members()
        if seconds < 0:
            raise MeasurementError(f"cannot read a negative duration ({seconds} s)")
        with self.tracer.span("fleet_read_all", devices=str(len(self.members))):
            return FleetBlock(
                blocks={
                    name: member.ps.pump_seconds(seconds)
                    for name, member in self.members.items()
                }
            )

    def read(self) -> FleetState:
        """Snapshot every member (interval mode across the fleet)."""
        self._require_members()
        return FleetState(
            states={name: member.ps.read() for name, member in self.members.items()}
        )

    def mark_all(self, char: str = "M") -> None:
        """Place the same marker character in every member's stream."""
        for member in self.members.values():
            member.ps.mark(char)

    # -- aggregates ----------------------------------------------------- #

    def total_energy(self) -> float:
        """Cumulative joules across the whole fleet since connect."""
        return sum(member.ps.total_energy() for member in self.members.values())

    def health(self) -> dict[str, StreamHealth]:
        """Per-device stream health, by member name."""
        return {name: member.ps.health for name, member in self.members.items()}

    @property
    def degraded(self) -> bool:
        """True if any member's stream needed recovery."""
        return any(member.ps.health.degraded for member in self.members.values())

    def close(self) -> None:
        errors: list[Exception] = []
        for member in self.members.values():
            try:
                member.bench.close()
            except Exception as error:  # close every member regardless
                errors.append(error)
        self.members.clear()
        if errors:
            raise errors[0]

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
