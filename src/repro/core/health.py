"""Stream-health accounting for the sample path.

A real PowerSensor3 deployment rides a noisy USB-serial link: bytes get
dropped, packets arrive corrupted, the device occasionally stalls.  The
host library survives all of that (it resynchronises on the first-byte
flag and retries empty reads), but silent recovery is only acceptable if
it is *accounted for* — a measurement that bridged a hundred gaps is not
the same measurement as a clean one.  :class:`StreamHealth` is the single
counter block every layer of the receive path writes into:

* the sample sources count bytes read, packets decoded and packets
  dropped during resynchronisation,
* :class:`~repro.core.powersensor.PowerSensor` counts empty reads, retry
  attempts, bridged inter-sample gaps and declared stalls.

Since the observability layer landed, :class:`StreamHealth` is a *view*
over :class:`~repro.observability.MetricsRegistry` counters rather than
a private struct: ``health.bytes_read += n`` increments the registry
counter ``stream_bytes_read_total``, and anything reading the registry
(exporters, ``--metrics`` files, the psmonitor stats line) sees exactly
the numbers the health block reports.  The equivalence tests pin the
two byte-for-byte across the fault-injection fuzz scenarios.

The CLI tools surface these counters when a run degraded, and the
robustness tests assert that every injected fault lands in exactly one
of them.
"""

from __future__ import annotations

from repro.observability.registry import Counter, MetricsRegistry

#: StreamHealth field -> (registry counter name, help text).
HEALTH_COUNTERS: dict[str, tuple[str, str]] = {
    "bytes_read": (
        "stream_bytes_read_total",
        "raw device->host bytes handed to the decoder",
    ),
    "packets_decoded": (
        "stream_packets_decoded_total",
        "2-byte packets successfully parsed",
    ),
    "packets_dropped": (
        "stream_packets_dropped_total",
        "packets lost to resynchronisation",
    ),
    "samples_decoded": (
        "stream_samples_decoded_total",
        "complete sample sets folded into the measurement",
    ),
    "empty_reads": (
        "stream_empty_reads_total",
        "reads that yielded no samples while streaming",
    ),
    "retries": (
        "stream_retries_total",
        "recovery-policy retry reads issued after an empty read",
    ),
    "gaps_bridged": (
        "stream_gaps_bridged_total",
        "oversized inter-sample gaps bridged by energy integration",
    ),
    "stalls": (
        "stream_stalls_total",
        "times the stream was declared stalled",
    ),
}

_FIELDS = tuple(HEALTH_COUNTERS)


class StreamHealth:
    """Counters describing how cleanly the sample stream is arriving.

    A view over registry counters: each attribute reads the counter's
    current value, and ``health.field += n`` advances it (counters are
    monotonic — attempting to lower one raises ``ValueError``).

    Attributes:
        bytes_read: raw device->host bytes handed to the decoder.
        packets_decoded: 2-byte packets successfully parsed.
        packets_dropped: packets lost to resynchronisation (dangling
            first/second bytes discarded while scanning for a frame).
        samples_decoded: complete sample sets folded into the measurement.
        empty_reads: reads that yielded no samples while streaming.
        retries: recovery-policy retry reads issued after an empty read.
        gaps_bridged: inter-sample gaps larger than 1.5x the nominal
            interval that were bridged by energy integration.
        stalls: times the stream was declared stalled (retries exhausted
            or the realtime watchdog tripped).
    """

    __slots__ = ("registry", "device", "_counters")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        device: str | None = None,
    ) -> None:
        object.__setattr__(
            self, "registry", registry if registry is not None else MetricsRegistry()
        )
        object.__setattr__(self, "device", device)
        labels = {"device": device} if device else {}
        object.__setattr__(
            self,
            "_counters",
            {
                field: self.registry.counter(name, help=help_text, **labels)
                for field, (name, help_text) in HEALTH_COUNTERS.items()
            },
        )

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return counters[name].value
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        counters = object.__getattribute__(self, "_counters")
        counter = counters.get(name)
        if counter is None:
            raise AttributeError(f"StreamHealth has no counter {name!r}")
        counter.inc(value - counter.value)  # raises if the counter would drop

    def counter(self, field: str) -> Counter:
        """The registry counter behind one field.

        A hot path holds it and calls ``inc`` instead of going through
        ``+=`` on the view, which reads and writes the field by name.
        """
        return self._counters[field]

    @property
    def degraded(self) -> bool:
        """True if the stream needed any recovery at all."""
        return bool(
            self.packets_dropped
            or self.empty_reads
            or self.retries
            or self.gaps_bridged
            or self.stalls
        )

    def as_dict(self) -> dict[str, int]:
        return {field: counter.value for field, counter in self._counters.items()}

    @staticmethod
    def counters_in(
        registry: MetricsRegistry, device: str | None = None
    ) -> dict[str, int]:
        """The health counters as recorded in a registry (0 if absent).

        With ``device`` the per-device labelled series are read instead
        of the unlabelled ones.  The equivalence tests compare this
        against :meth:`as_dict` to prove the view and the registry never
        diverge.
        """
        labels = {"device": device} if device else {}
        return {
            field: registry.value(name, **labels)
            for field, (name, _) in HEALTH_COUNTERS.items()
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, StreamHealth):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"StreamHealth({inner})"

    def summary(self) -> str:
        """One-line counter summary for diagnostics and CLI output."""
        return (
            f"{self.packets_decoded} packets decoded, "
            f"{self.packets_dropped} dropped/resynced, "
            f"{self.samples_decoded} samples, "
            f"{self.gaps_bridged} gaps bridged, "
            f"{self.empty_reads} empty reads, "
            f"{self.retries} retries, "
            f"{self.stalls} stalls"
        )
