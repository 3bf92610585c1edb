"""Feeding a telemetry store: dump import and SampleSource tailing.

``import_dump`` upgrades a fixed-width text dump
(:class:`~repro.core.dump.DumpReader`) into a queryable store, mapping
the dump exactly the way ``replay://`` does — recorded pairs land on
sensors ``0..2n-1`` and markers on the sample at/after their timestamp —
so a dump streamed back through ``store://`` is bit-identical to the
same dump through ``replay://``.

``tail_source`` pulls any live :class:`~repro.core.sources.SampleSource`
into a store block-by-block (the pull-loop twin of the hooks inside
:meth:`~repro.core.powersensor.PowerSensor.record` and the psserve
pump).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.dump import DumpReader
from repro.core.replay import map_markers
from repro.core.sources import SampleBlock, SampleSource
from repro.hardware.eeprom import SENSORS
from repro.observability import MetricsRegistry, Tracer
from repro.store.store import TelemetryStore

#: Rows appended per block while importing (bounds peak journal-chunk size).
IMPORT_BLOCK = 65536


def import_dump(
    dump_path: str | Path,
    store_path: str | Path,
    *,
    roll_samples: int = 1_000_000,
    tier_factors: tuple[int, ...] | None = None,
    device: str | None = None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> TelemetryStore:
    """Import a text dump into a (possibly new) store; returns it open.

    The returned store is sealed (every imported row is in a sealed,
    tiered segment) but still open for queries or further appends; the
    caller owns closing it.
    """
    data = DumpReader.read(dump_path)
    n = data.times.size
    n_pairs = len(data.pair_names)
    enabled = np.zeros(SENSORS, dtype=bool)
    enabled[: 2 * n_pairs] = True
    values = np.zeros((n, SENSORS))
    values[:, 0 : 2 * n_pairs : 2] = data.amps
    values[:, 1 : 2 * n_pairs : 2] = data.volts
    markers = map_markers(data.times, data.markers) if n else np.zeros(0, dtype=bool)

    store = TelemetryStore(
        store_path,
        roll_samples=roll_samples,
        tier_factors=tier_factors,
        device=device,
        sample_rate=float(data.sample_rate_hz),
        pair_names=list(data.pair_names),
        registry=registry,
        tracer=tracer,
    )
    for start in range(0, n, IMPORT_BLOCK):
        stop = min(start + IMPORT_BLOCK, n)
        store.append(
            SampleBlock(
                times=data.times[start:stop],
                values=values[start:stop],
                markers=markers[start:stop],
                enabled=enabled,
            )
        )
    store.seal()
    return store


def tail_source(
    source: SampleSource,
    store: TelemetryStore,
    n_samples: int,
    block_size: int = 4096,
) -> int:
    """Pull ``n_samples`` from a source into the store; returns the count.

    Stops early if the source runs dry (a finite tape).  The source is
    started if it is not already streaming; the caller owns stopping it.
    """
    if not getattr(source, "streaming", False):
        source.start()
    taken = 0
    while taken < n_samples:
        block = source.read_block(min(block_size, n_samples - taken))
        if len(block) == 0:
            break
        store.append(block)
        taken += len(block)
    return taken
