"""The benchmark's five workloads, by name.

Modules are imported on demand, so a worker process pays only for the
workload it runs (its import time is part of ``setup_s``).
"""

from __future__ import annotations

import importlib

WORKLOADS = {
    "stream-gpu": ("bench.workloads.stream_gpu", "StreamGpu"),
    "fleet-poll": ("bench.workloads.fleet_poll", "FleetPoll"),
    "serve-mixed": ("bench.workloads.serve_mixed", "ServeMixed"),
    "store-mixed": ("bench.workloads.store_mixed", "StoreMixed"),
    "psfio-ftl": ("bench.workloads.psfio_ftl", "PsfioFtl"),
}


def load(name: str):
    """The workload class registered under ``name``."""
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)
