"""Which public entry points of which layer the trace wraps.

Each span is named ``<layer>.<entry>`` after the ``repro`` package that
owns the code, so a per-layer metric ``<span>.self_s`` says where the
time went.  Only public, default entry points are wrapped; a missing one
(renamed or deleted by a later change) is skipped and reads zero.

The counters recorded alongside -- bytes on the link, rail samples
computed and used, bytes the store wrote -- are the work counts that
make a self time comparable across changes.
"""

from __future__ import annotations

import importlib
import inspect

from bench.trace import Tracer


def _count_rail_samples(tracer, args, kwargs, result):
    # Each call computes one voltage and one current array of n samples.
    n = kwargs["n"] if "n" in kwargs else args[3]
    tracer.add("dut.samples_computed", 2 * int(n))


def _count_rail_samples_used(tracer, args, kwargs, result):
    # The ADC converts one current and one voltage channel per connected
    # slot for every subsample it scans.
    baseboard = args[0]
    n_output = kwargs["n_output"] if "n_output" in kwargs else args[2]
    connected = sum(1 for c in baseboard.populated_slots() if c.rail is not None)
    tracer.add(
        "dut.samples_used", 2 * int(n_output) * baseboard.timing.averages * connected
    )


def _count_link_bytes(tracer, args, kwargs, result):
    tracer.add("transport.bytes", len(result))


def _count_store_bytes(tracer, args, kwargs, result):
    tracer.add("store.bytes_written", len(result))


def _rail_classes():
    """Every DUT rail class (anything defining ``sample_uniform``)."""
    classes = []
    for module_name in ("repro.dut.base", "repro.dut.instruments"):
        module = importlib.import_module(module_name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module_name
                and "sample_uniform" in obj.__dict__
            ):
                classes.append(obj)
    return classes


def _ftl_span(entry: str):
    return lambda ftl: f"ftl.{ftl.name}.{entry}"


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every layer entry point; returns the ones that were missing."""
    from repro.core import fleet, powersensor, replay, setup, sources
    from repro.firmware import device
    from repro.ftl import base as ftl_base
    from repro.hardware import adc, baseboard, sensors
    from repro.server import daemon
    from repro.storage import engine, jobfile
    from repro.store import store
    from repro.transport import link

    targets = [
        (sensors.CurrentSensor, "transduce_uniform", "hardware.current_transduce", None),
        (sensors.VoltageSensor, "transduce_uniform", "hardware.voltage_transduce", None),
        (adc.Adc, "quantize", "hardware.quantize", None),
        (baseboard.Baseboard, "read_codes", "hardware.read_codes", _count_rail_samples_used),
        (baseboard.Baseboard, "averaged_codes", "hardware.averaged_codes", None),
        (device.Firmware, "produce", "firmware.produce", None),
        (link.VirtualSerialLink, "pump_samples", "transport.pump_samples", _count_link_bytes),
        (sources.ProtocolSampleSource, "read_block", "core.read_block", None),
        (sources.ProtocolSampleSource, "read_block_raw", "core.read_block", None),
        (sources.DirectSampleSource, "read_block", "core.read_block", None),
        (replay.TapeSampleSource, "read_block", "core.replay_read", None),
        (powersensor.PowerSensor, "pump", "core.pump", None),
        (fleet.Fleet, "read_all", "core.read_all", None),
        # SimulatedSetup calls the name it imported into repro.core.setup.
        (setup, "calibrate_all", "calibration.calibrate_all", None),
        (daemon.PowerSensorServer, "start", "server", None),
        (daemon.PowerSensorServer, "serve", "server", None),
        (daemon.PowerSensorServer, "close", "server", None),
        (store.TelemetryStore, "__init__", "store.open", None),
        (store.TelemetryStore, "append", "store.append", None),
        (store.TelemetryStore, "seal", "store.seal", None),
        (store.TelemetryStore, "query", "store.query", None),
        (ftl_base.FtlPolicy, "write_pages", _ftl_span("write_pages"), None),
        (ftl_base.FtlPolicy, "translate", _ftl_span("translate"), None),
        (engine.JobStepper, "tick", "storage.tick", None),
        (jobfile, "measure_trace", "storage.measure_trace", None),
        (jobfile, "run_jobfile", "storage.jobfile", None),
    ]
    targets += [
        (cls, "sample_uniform", "dut.sample_uniform", _count_rail_samples)
        for cls in _rail_classes()
    ]
    missing = []
    for owner, attr, name, after in targets:
        if not tracer.wrap(owner, attr, name, after=after):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    # Byte counters only: the store's two encoders produce every byte it
    # writes (journal chunks, sealed segment images).
    for attr in ("encode_journal_chunk", "encode_segment"):
        if not tracer.wrap(store, attr, None, after=_count_store_bytes, span=False):
            missing.append(f"repro.store.store.{attr}")
    return missing
