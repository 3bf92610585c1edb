"""Deterministic fault injection for the virtual serial link.

The robustness of the host stack (resynchronisation in the stream
decoder, the PowerSensor recovery policy, the realtime watchdog) is only
provable if the failure modes of a physical USB-serial deployment can be
reproduced on demand.  This module wraps :class:`VirtualSerialLink` with
seedable fault models covering what a real bench sees:

* :class:`DroppedBytes` — independent per-byte loss (cable glitches),
* :class:`BitFlips` — random single-bit corruption (EMI),
* :class:`PartialReads` — short reads that defer the tail to the next
  read (USB scheduling), escalating to a transport overflow when the
  backlog grows unboundedly,
* :class:`DeviceStall` — the device stops producing for a while (or
  forever, modelling a wedged firmware),
* :class:`OverflowBurst` — a burst of garbage bytes, as an overflowed
  device ring buffer spews corrupt data.

All randomness comes from one seeded generator owned by the wrapper, so
a given (seed, fault spec, traffic) triple replays byte-for-byte.  With
no fault models installed the wrapper is transparent: the stream is
byte-identical to the bare link.  Faults apply only while the device is
streaming — the short command/response handshake (version, EEPROM reads)
is left intact so a corrupted *stream* can be studied separately from a
corrupted *control plane*.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError, TransportError
from repro.observability import MetricsRegistry
from repro.transport.link import VirtualSerialLink


class FaultModel:
    """Base class: a deterministic transformation of the byte stream.

    Subclasses mutate ``data`` (possibly to ``b""``) using the shared
    seeded generator and count every corruption they inject in
    :attr:`injected`.
    """

    name = "fault"

    def __init__(self) -> None:
        self.injected = 0

    def transform(self, data: bytes, rng: np.random.Generator) -> bytes:
        raise NotImplementedError

    def drain(self) -> bytes:
        """Release bytes the model deferred (nothing, for most models).

        On a blocking transport the wrapper must be able to deliver
        deferred bytes without waiting for fresh traffic, or a
        request/response exchange (e.g. a handshake) deadlocks with the
        response tail stuck in the model.
        """
        return b""


class DroppedBytes(FaultModel):
    """Drop each stream byte independently with probability ``rate``."""

    name = "drop"

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"drop rate {rate} must be in [0, 1]")
        self.rate = float(rate)

    def transform(self, data: bytes, rng: np.random.Generator) -> bytes:
        if not data or self.rate <= 0.0:
            return data
        arr = np.frombuffer(data, dtype=np.uint8)
        keep = rng.random(arr.size) >= self.rate
        dropped = arr.size - int(keep.sum())
        if not dropped:
            return data
        self.injected += dropped
        return arr[keep].tobytes()


class BitFlips(FaultModel):
    """Flip one random bit in each byte, independently with ``rate``."""

    name = "flip"

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"flip rate {rate} must be in [0, 1]")
        self.rate = float(rate)

    def transform(self, data: bytes, rng: np.random.Generator) -> bytes:
        if not data or self.rate <= 0.0:
            return data
        arr = np.frombuffer(data, dtype=np.uint8).copy()
        hits = np.flatnonzero(rng.random(arr.size) < self.rate)
        if hits.size == 0:
            return data
        bits = rng.integers(0, 8, size=hits.size)
        arr[hits] ^= (1 << bits).astype(np.uint8)
        self.injected += int(hits.size)
        return arr.tobytes()


class PartialReads(FaultModel):
    """Truncate reads, deferring the tail to the next read.

    With probability ``probability`` a read returns only a random prefix
    (up to ``max_fraction`` of the pending bytes); the remainder is
    buffered and prepended to the next read, exactly as a short USB
    transfer behaves.  No bytes are lost — unless the backlog exceeds
    ``max_backlog``, which models the device-side ring buffer overflowing
    and raises :class:`TransportError`.
    """

    name = "partial"

    def __init__(
        self,
        probability: float,
        max_fraction: float = 0.75,
        max_backlog: int = 1 << 20,
    ) -> None:
        super().__init__()
        self.probability = float(probability)
        self.max_fraction = float(max_fraction)
        self.max_backlog = int(max_backlog)
        self._backlog = b""

    def transform(self, data: bytes, rng: np.random.Generator) -> bytes:
        data = self._backlog + data
        self._backlog = b""
        if data and rng.random() < self.probability:
            keep = int(len(data) * rng.uniform(0.0, self.max_fraction))
            self._backlog = data[keep:]
            if len(self._backlog) > self.max_backlog:
                backlog = len(self._backlog)
                self._backlog = b""
                raise TransportError(
                    f"injected device buffer overflow ({backlog} bytes backlogged)"
                )
            self.injected += 1
            data = data[:keep]
        return data

    def drain(self) -> bytes:
        out, self._backlog = self._backlog, b""
        return out


class DeviceStall(FaultModel):
    """The device stops producing: reads come back empty for a while.

    Each read trips a stall with probability ``probability``; a stall
    swallows the bytes of ``duration_reads`` consecutive reads (the data
    a wedged device never transmitted is gone, not delayed).  With
    ``probability=1.0`` and a huge duration this models a dead device.
    """

    name = "stall"

    def __init__(self, probability: float, duration_reads: int = 5) -> None:
        super().__init__()
        self.probability = float(probability)
        self.duration_reads = int(duration_reads)
        self._remaining = 0

    def transform(self, data: bytes, rng: np.random.Generator) -> bytes:
        if self._remaining > 0:
            self._remaining -= 1
            self.injected += 1
            return b""
        if rng.random() < self.probability:
            self._remaining = self.duration_reads - 1
            self.injected += 1
            return b""
        return data


class OverflowBurst(FaultModel):
    """Prepend a burst of garbage bytes with probability ``probability``.

    Models the corrupt data an overflowed device buffer spews before the
    stream recovers; the decoder must resynchronise through it.
    """

    name = "burst"

    def __init__(self, probability: float, burst_bytes: int = 256) -> None:
        super().__init__()
        self.probability = float(probability)
        self.burst_bytes = int(burst_bytes)

    def transform(self, data: bytes, rng: np.random.Generator) -> bytes:
        if rng.random() < self.probability:
            garbage = rng.integers(0, 256, size=self.burst_bytes, dtype=np.uint8)
            self.injected += 1
            data = garbage.tobytes() + data
        return data


#: Fault spec grammar: comma-separated ``name[:param[@param]]`` tokens.
FAULT_SPEC_HELP = (
    "comma-separated fault models: drop:<rate>, flip:<rate>, "
    "partial:<prob>, stall:<prob>@<reads>, burst:<prob>@<bytes>, dead"
)


def parse_fault_spec(spec: str) -> list[FaultModel]:
    """Parse a ``--faults`` spec string into fault model instances.

    Examples: ``"drop:0.01"``, ``"flip:0.001,stall:0.05@10"``, ``"dead"``.
    """
    models: list[FaultModel] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, params = token.partition(":")
        first, _, second = params.partition("@")
        name = name.lower()
        try:
            if name == "drop":
                models.append(DroppedBytes(float(first or 0.01)))
            elif name == "flip":
                models.append(BitFlips(float(first or 0.001)))
            elif name == "partial":
                models.append(PartialReads(float(first or 0.25)))
            elif name == "stall":
                models.append(DeviceStall(float(first or 0.05), int(second or 5)))
            elif name == "burst":
                models.append(OverflowBurst(float(first or 0.05), int(second or 256)))
            elif name == "dead":
                models.append(DeviceStall(1.0, duration_reads=1 << 30))
            else:
                raise ConfigurationError(
                    f"unknown fault model {name!r} ({FAULT_SPEC_HELP})"
                )
        except ValueError as error:
            raise ConfigurationError(f"bad fault spec {token!r}: {error}") from None
    return models


class FaultChain:
    """Fault models applied in order to every received chunk.

    The one copy of the fault layer's state, shared by the serial link
    (:class:`FaultySerialLink`) and the socket stream
    (:class:`~repro.transport.bytestream.FaultyByteStream`): the models,
    the seeded generator they all draw from, and the
    ``faults_injected_total`` counters mirroring each model's
    :attr:`~FaultModel.injected` count.
    """

    def __init__(
        self,
        models: list[FaultModel] | None = None,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        device: str | None = None,
    ) -> None:
        self.models = list(models or [])
        self.rng = np.random.default_rng(seed)
        self.registry = registry if registry is not None else MetricsRegistry()
        labels = {"device": device} if device else {}
        self._mirrored = [0] * len(self.models)
        self._fault_counters = [
            self.registry.counter(
                "faults_injected_total",
                help="corruptions injected by the fault layer, per model",
                model=model.name,
                **labels,
            )
            for model in self.models
        ]

    def _apply(self, data: bytes) -> bytes:
        try:
            for model in self.models:
                data = model.transform(data, self.rng)
        finally:
            # Mirror injected counts into the registry even when a model
            # raises (PartialReads overflow), so injected == observed holds.
            self._mirror_injected()
        return data

    def _mirror_injected(self) -> None:
        for i, model in enumerate(self.models):
            delta = model.injected - self._mirrored[i]
            if delta:
                self._fault_counters[i].inc(delta)
                self._mirrored[i] = model.injected

    def injected(self) -> dict[str, int]:
        """Per-model count of corruptions injected so far."""
        counts: dict[str, int] = {}
        for model in self.models:
            counts[model.name] = counts.get(model.name, 0) + model.injected
        return counts


class FaultySerialLink(FaultChain):
    """A :class:`VirtualSerialLink` with fault models on the read path.

    Drop-in replacement for the bare link (same read/pump/write surface);
    every device->host byte passes through the installed fault models in
    order, driven by one seeded generator.  Control-plane traffic (while
    the device is not streaming) is spared.
    """

    def __init__(
        self,
        link: VirtualSerialLink,
        models: list[FaultModel] | None = None,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        device: str | None = None,
    ) -> None:
        super().__init__(models, seed=seed, registry=registry, device=device)
        self.link = link
        self.device = device

    # -- pass-through surface ------------------------------------------ #

    @property
    def firmware(self):
        return self.link.firmware

    @property
    def in_waiting(self) -> int:
        return self.link.in_waiting

    @property
    def is_open(self) -> bool:
        return self.link.is_open

    def write(self, data: bytes) -> None:
        self.link.write(data)

    def utilization(self) -> float:
        return self.link.utilization()

    def close(self) -> None:
        self.link.close()

    # -- faulted read path --------------------------------------------- #

    def _apply(self, data: bytes) -> bytes:
        if not self.link.firmware.streaming:
            return data
        return super()._apply(data)

    def read(self, n: int | None = None) -> bytes:
        return self._apply(self.link.read(n))

    def pump_samples(self, n_samples: int) -> bytes:
        return self._apply(self.link.pump_samples(n_samples))
