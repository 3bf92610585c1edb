"""PowerSensor3 host library (the paper's primary user-facing contribution).

The public API mirrors the real toolkit's C++/Python interface:

* :class:`~repro.core.powersensor.PowerSensor` — connect to a device, read
  :class:`~repro.core.state.State` snapshots, stream to dump files, place
  markers.
* :func:`~repro.core.state.joules` / :func:`~repro.core.state.watts` /
  :func:`~repro.core.state.seconds` — interval-based energy arithmetic
  between two states.
* :class:`~repro.core.setup.SimulatedSetup` — assemble a complete simulated
  measurement bench (modules, baseboard, firmware, link, host) in one call.

Two simulated sample sources exist: the byte-accurate protocol path and a
vectorised direct path for experiments needing millions of samples (see
DESIGN.md).  :func:`~repro.core.fleet.build_bench` is the one dispatcher
from a URI device spec (``sim://``, ``remote://``, ``replay://``,
``store://``) to a bench; :func:`~repro.core.sources.create_source`
returns that bench's source.
"""

from repro.core.dump import DumpReader, DumpWriter
from repro.core.health import StreamHealth
from repro.core.powersensor import DEFAULT_RECOVERY, PowerSensor, RecoveryPolicy
from repro.core.setup import SimulatedSetup
from repro.core.fleet import Fleet, FleetBlock, FleetMember, FleetState
from repro.core.sources import (
    DirectSampleSource,
    ProtocolSampleSource,
    SampleBlock,
    SampleSource,
    SourceSpec,
    convert_codes,
    create_source,
    parse_source_spec,
)
from repro.core.state import State, joules, seconds, watts

__all__ = [
    "PowerSensor",
    "RecoveryPolicy",
    "DEFAULT_RECOVERY",
    "StreamHealth",
    "State",
    "joules",
    "watts",
    "seconds",
    "SimulatedSetup",
    "SampleBlock",
    "SampleSource",
    "SourceSpec",
    "ProtocolSampleSource",
    "DirectSampleSource",
    "create_source",
    "parse_source_spec",
    "convert_codes",
    "Fleet",
    "FleetBlock",
    "FleetMember",
    "FleetState",
    "DumpReader",
    "DumpWriter",
]
