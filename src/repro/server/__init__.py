"""The serving layer: share one PowerSensor stream with many consumers.

A :class:`PowerSensorServer` (the ``psserve`` daemon) owns one simulated
device and fans its 20 kHz sample stream out to N subscribers over TCP or
Unix sockets; :class:`RemoteSampleSource` is the client side — a drop-in
:class:`~repro.core.sources.ProtocolSampleSource` that decodes the exact
device bytes relayed by the server, so every consumer (CLI tools via
``--remote``, the PMT backend, experiments) reads the shared stream with
unchanged semantics.  See ``docs/serving.md``.

:class:`PowerSensorServer` runs a single-threaded asyncio event loop
around a shared :class:`BroadcastRing` (encode each frame once, fan out
by :class:`RingCursor`).
"""

from repro.server.client import (
    RemoteLink,
    RemoteSampleSource,
    RemoteSetup,
    connect_stream,
)
from repro.server.daemon import PowerSensorServer
from repro.server.ring import BroadcastRing, RingCursor
from repro.server.wire import (
    Frame,
    FrameDecoder,
    FrameType,
    HEADER_SIZE,
    MAX_PAYLOAD,
    encode_frame,
    pack_window,
    parse_endpoint,
    unpack_window,
)

__all__ = [
    "RemoteLink",
    "RemoteSampleSource",
    "RemoteSetup",
    "connect_stream",
    "PowerSensorServer",
    "BroadcastRing",
    "RingCursor",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "encode_frame",
    "pack_window",
    "parse_endpoint",
    "unpack_window",
]
