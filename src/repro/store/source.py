"""``store://PATH?device=...`` — re-stream a telemetry store as a device.

:class:`StoreSampleSource` is the store-backed twin of
:class:`~repro.core.replay.ReplaySampleSource`: it loads the exact
(tier-1) rows of a :class:`~repro.store.store.TelemetryStore` and
re-streams them through the shared
:class:`~repro.core.replay.TapeSampleSource` machinery, so a recorded
capture plays back identically whether it travelled through a text dump
or the binary store — psplot, the fleet layer, psserve and PMT all work
unchanged.  ``t0``/``t1`` restrict playback to a time window of the
recording; ``speed`` and ``loop`` behave exactly as in ``replay://``.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.replay import TapeSampleSource
from repro.observability import MetricsRegistry, Tracer
from repro.store.store import TelemetryStore


class StoreSampleSource(TapeSampleSource):
    """Re-stream a telemetry store through the SampleSource contract."""

    def __init__(
        self,
        path: str | Path,
        speed: float = 1.0,
        loop: bool = False,
        device: str | None = None,
        t0: float | None = None,
        t1: float | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.path = str(path)
        registry = registry if registry is not None else MetricsRegistry()
        # Opening runs crash recovery; keep the handle only long enough
        # to extract the exact rows (the tape is then in memory, like a
        # replayed dump, and the mappings can be released).
        store = TelemetryStore(
            path, device=device, registry=registry, tracer=tracer
        )
        try:
            result = store.query(t0, t1, None)
            sample_rate = store.sample_rate
            pair_names = list(store.pair_names)
            for seg in store.segments:
                if seg.sample_rate > 0:
                    sample_rate = seg.sample_rate
                if seg.pair_names:
                    pair_names = list(seg.pair_names)
        finally:
            store.close()
        window = "" if t0 is None and t1 is None else f" in [{t0}, {t1}]"
        super().__init__(
            times=result.times,
            values=result.values,
            markers=result.markers,
            enabled=result.enabled,
            pair_names=pair_names,
            sample_rate=sample_rate,
            speed=speed,
            loop=loop,
            device=device,
            registry=registry,
            tracer=tracer,
            label=f"store {self.path!r}{window}",
        )
