"""Columnar telemetry storage for sample streams (``docs/storage.md``).

The package splits along the write/read/feed axes:

* :mod:`repro.store.format` — the on-disk bytes: sealed memory-mapped
  segments (per-column arrays, seal-time downsampling tiers, CRC
  footer) and the CRC-chunked active journal.
* :mod:`repro.store.store` — :class:`TelemetryStore`: append/seal/roll,
  tier-aware ``query(t0, t1, max_points)``, retention and open-time
  crash recovery with quarantine.
* :mod:`repro.store.ingest` — dump import and SampleSource tailing.
* :mod:`repro.store.source` — the ``store://`` replay device
  (imported by :func:`repro.core.fleet.build_bench` for ``store://``
  specs only).
"""

from repro.store.format import DEFAULT_TIER_FACTORS, SealedSegment
from repro.store.ingest import import_dump, tail_source
from repro.store.store import StoreQueryResult, TelemetryStore

__all__ = [
    "DEFAULT_TIER_FACTORS",
    "SealedSegment",
    "StoreQueryResult",
    "TelemetryStore",
    "import_dump",
    "tail_source",
]
