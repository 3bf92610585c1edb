"""The remote client: read a psserve stream through the normal host API.

:class:`RemoteLink` speaks the frame protocol to a daemon and presents
the subset of the :class:`~repro.transport.link.VirtualSerialLink`
surface the host library's control plane uses — ``write`` of a device
command is translated to the matching frame (START/STOP/MARK/
CONFIG_REQ), and the version/config *responses* are served back through
``read`` exactly as a local link would, so
:class:`~repro.core.sources.ProtocolSampleSource` connects to it
unmodified.

:class:`RemoteSampleSource` builds on that: ``DATA`` frames carry the
device's raw wire bytes relayed verbatim, and the source decodes them
with the inherited vectorised machinery — a remote consumer produces
byte-for-byte the same samples and health counters as a local one on the
same stream.  A dropped connection is re-established with the bounded
backoff of :class:`~repro.common.retry.RecoveryPolicy`; sequence-number
gaps (frames dropped by backpressure upstream, or corrupted in transit)
are counted in ``client_frames_missed_total``.  A dropped frame loses
its samples outright — and because the device's wrapping 10-bit
timestamp counter cannot span a multi-millisecond hole, the
reconstructed timeline contracts by the missing span instead of showing
a gap.  Consumers that need every sample should subscribe to a server
running the (default, lossless) ``block`` policy.
"""

from __future__ import annotations

import socket
import time
from collections import deque
from typing import Callable

import numpy as np

from repro.common.errors import ProtocolError, ServerError, TransportError
from repro.common.retry import DEFAULT_RECOVERY, RecoveryPolicy
from repro.core.powersensor import PowerSensor
from repro.core.sources import ProtocolSampleSource, SampleBlock
from repro.firmware.commands import Command
from repro.observability import MetricsRegistry, Tracer
from repro.server.wire import (
    HISTORY_OK,
    Frame,
    FrameDecoder,
    FrameType,
    encode_control,
    encode_frame,
    parse_endpoint,
    unpack_history,
    unpack_window,
)
from repro.transport.bytestream import ByteStream, SocketByteStream

#: First backoff delay when (re)connecting, seconds (wall clock).
CONNECT_BACKOFF = 0.05
#: Socket read chunk for the frame pump.
READ_CHUNK = 65536


def connect_stream(spec: str, timeout: float = 5.0) -> SocketByteStream:
    """Open a :class:`SocketByteStream` to a psserve endpoint spec."""
    kind, target = parse_endpoint(spec)
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(target)
        except OSError as error:
            sock.close()
            raise TransportError(f"cannot connect to {spec}: {error}") from error
    else:
        try:
            sock = socket.create_connection(target, timeout=timeout)
        except OSError as error:
            raise TransportError(f"cannot connect to {spec}: {error}") from error
    sock.settimeout(None)
    return SocketByteStream(sock)


class RemoteLink:
    """A psserve connection presenting the serial-link control surface.

    ``device`` names the served device to subscribe to; ``label`` stamps
    ``device=<label>`` on the link's ``client_*_total`` counters, as a
    named source does on its ``stream_*`` series, so the links of a
    fleet's ``remote://`` members count apart.

    ``stream_factory`` (spec -> :class:`ByteStream`) lets callers wrap
    the socket — e.g. in a
    :class:`~repro.transport.bytestream.FaultyByteStream` — and is reused
    on every reconnect.
    """

    def __init__(
        self,
        spec: str,
        mode: str = "raw",
        window: int = 1,
        device: str | None = None,
        label: str | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
        registry: MetricsRegistry | None = None,
        connect_timeout: float = 5.0,
        handshake_timeout: float | None = None,
        stream_factory: Callable[[str], ByteStream] | None = None,
    ) -> None:
        if mode not in ("raw", "window"):
            raise ServerError(f"unknown subscription mode {mode!r}")
        if window < 1:
            raise ServerError(f"window must be >= 1, got {window}")
        self.spec = spec
        self.mode = mode
        self.window = int(window)
        self.device = device
        self.recovery = recovery
        self.registry = registry if registry is not None else MetricsRegistry()
        self.connect_timeout = float(connect_timeout)
        if handshake_timeout is None:
            # Derive the handshake budget from the configured recovery
            # policy: one connect's worth of patience plus the policy's
            # whole backoff schedule — instead of a hardcoded constant
            # that ignored how patient the caller asked the link to be.
            handshake_timeout = self.connect_timeout
            if recovery is not None:
                handshake_timeout += sum(recovery.backoff_delays(CONNECT_BACKOFF))
        self.handshake_timeout = float(handshake_timeout)
        self._factory = stream_factory or (
            lambda s: connect_stream(s, timeout=self.connect_timeout)
        )
        self.hello: dict = {}
        self.suback: dict = {}
        self.client_id: int | None = None
        self.eos: dict | None = None
        self.reconnects = 0
        self.frames_missed = 0
        self._started = False
        self._closed = False
        self._last_seq: int | None = None
        self._response = bytearray()
        self._frames: deque[Frame] = deque()
        self._history: deque[bytes] = deque()
        self._stream: ByteStream | None = None
        self._decoder = FrameDecoder()
        self._mirrored = (0, 0, 0)
        labels = {"device": label} if label else {}
        self._reconnect_counter = self.registry.counter(
            "client_reconnects_total", help="times the remote link reconnected", **labels
        )
        self._missed_counter = self.registry.counter(
            "client_frames_missed_total",
            help="DATA frames lost upstream (sequence gaps)",
            **labels,
        )
        self._resync_counter = self.registry.counter(
            "client_frame_resyncs_total", help="frame-level resynchronisations", **labels
        )
        self._discarded_counter = self.registry.counter(
            "client_frame_bytes_discarded_total",
            help="bytes skipped while resynchronising frames",
            **labels,
        )
        self._corrupt_counter = self.registry.counter(
            "client_frames_corrupt_total", help="frames rejected by a CRC check", **labels
        )
        self._connect_with_retry(initial=True)

    # ------------------------------------------------------------------ #
    # Connection management                                              #
    # ------------------------------------------------------------------ #

    def _connect(self) -> None:
        stream = self._factory(self.spec)
        decoder = FrameDecoder()
        try:
            hello = self._expect(stream, decoder, FrameType.HELLO)
            self.hello = hello.json()
            request = {"mode": self.mode, "window": self.window}
            if self.device is not None:
                request["device"] = self.device
            stream.write(encode_control(FrameType.SUBSCRIBE, 0, request))
            suback = self._expect(stream, decoder, FrameType.SUBACK)
            self.suback = suback.json()
            self.client_id = self.suback.get("client")
            # The server may downgrade a raw subscription (a device with
            # no wire byte stream goes out as WINDOW frames instead).
            self.mode = self.suback.get("mode", self.mode)
            self.window = int(self.suback.get("window", self.window))
        except Exception:
            stream.close()
            raise
        self._stream = stream
        self._decoder = decoder
        self._last_seq = None  # sequence re-baselines on a new connection
        if self._started:
            stream.write(encode_frame(FrameType.START, 0))

    def _expect(self, stream: ByteStream, decoder: FrameDecoder, ftype: int) -> Frame:
        deadline = time.monotonic() + self.handshake_timeout
        pending: deque[Frame] = deque()
        while time.monotonic() < deadline:
            while pending:
                frame = pending.popleft()
                if frame.type == ftype:
                    return frame
                if frame.type == FrameType.ERROR:
                    raise ServerError(frame.json().get("message", "server error"))
            data = stream.read(READ_CHUNK)
            if not data:
                raise TransportError("connection closed during handshake")
            pending.extend(decoder.feed(data))
        raise TransportError("handshake timed out")

    def _connect_with_retry(self, initial: bool = False) -> None:
        delays = [0.0]
        if self.recovery is not None:
            delays += self.recovery.backoff_delays(CONNECT_BACKOFF)
        last_error: Exception | None = None
        for delay in delays:
            if delay:
                time.sleep(delay)
            try:
                self._connect()
                return
            except (TransportError, ProtocolError, OSError) as error:
                last_error = error
        verb = "connect to" if initial else "reconnect to"
        detail = str(last_error)
        # connect_stream already names the endpoint; don't say it twice.
        detail = detail.removeprefix(f"cannot connect to {self.spec}: ")
        raise ServerError(f"cannot {verb} {self.spec}: {detail}") from last_error

    def _reconnect(self) -> None:
        if self.recovery is None or self._closed:
            raise ServerError(f"lost connection to {self.spec}")
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self.reconnects += 1
        self._reconnect_counter.inc()
        self._connect_with_retry()

    @property
    def at_eos(self) -> bool:
        return self.eos is not None

    def device_info(self) -> dict:
        """Version/sample_rate of the subscribed device.

        Resolution order: the SUBACK (authoritative for this
        subscription), the HELLO's per-device map, then the legacy
        top-level HELLO fields of a single-device server.
        """
        info: dict = {}
        name = self.suback.get("device") or self.device
        devices = self.hello.get("devices") or {}
        if name and name in devices:
            info.update(devices[name])
        for key in ("version", "sample_rate"):
            if key in self.suback:
                info[key] = self.suback[key]
            elif key not in info and key in self.hello:
                info[key] = self.hello[key]
        return info

    # ------------------------------------------------------------------ #
    # The serial-link control surface                                    #
    # ------------------------------------------------------------------ #

    def write(self, data: bytes) -> None:
        """Dispatch a device command to the matching wire frame."""
        command = data[:1]
        if command == Command.VERSION.value:
            # The version travelled in the handshake; answer locally in
            # the same NUL-terminated shape the firmware uses.
            version = str(self.device_info().get("version", ""))
            self._response += version.encode("ascii") + b"\x00"
        elif command == Command.READ_CONFIG.value:
            self._send(encode_frame(FrameType.CONFIG_REQ, 0))
            self._await_response_growth()
        elif command == Command.START_STREAMING.value:
            self._started = True
            self._send(encode_frame(FrameType.START, 0))
        elif command == Command.STOP_STREAMING.value:
            self._started = False
            self._send(encode_frame(FrameType.STOP, 0))
        elif command == Command.MARKER.value:
            self._send(encode_frame(FrameType.MARK, 0))
        else:
            raise ServerError(
                f"operation {command!r} is not supported over a remote link "
                "(the device is shared; configure it on the server)"
            )

    def read(self, n: int | None = None) -> bytes:
        """Serve buffered command responses (version, config image)."""
        if n is None:
            n = len(self._response)
        out = bytes(self._response[:n])
        del self._response[:n]
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            try:
                self._stream.write(encode_frame(FrameType.BYE, 0))
            except TransportError:
                pass
            self._stream.close()
            self._stream = None

    # ------------------------------------------------------------------ #
    # The frame pump                                                     #
    # ------------------------------------------------------------------ #

    def _send(self, frame: bytes) -> None:
        if self._closed:
            raise ServerError("remote link is closed")
        if self._stream is None:
            self._reconnect()
        try:
            self._stream.write(frame)
        except TransportError:
            self._reconnect()
            self._stream.write(frame)

    def _await_response_growth(self) -> None:
        """Pump frames until the response buffer grows (CONFIG arrived)."""
        have = len(self._response)
        while len(self._response) == have:
            if not self._pump_once():
                raise ServerError("connection closed while awaiting a response")

    def query_history(
        self,
        t0: float | None = None,
        t1: float | None = None,
        max_points: int | None = None,
    ):
        """Query the server's recorded history for the subscribed device.

        Returns a :class:`~repro.store.store.StoreQueryResult` (possibly
        tier-reduced to at most the server's point cap); raises
        :class:`ServerError` if the server records no history or the
        query fails.  Requires a server started with ``--record-store``.
        """
        from repro.store.store import StoreQueryResult

        req: dict = {}
        if t0 is not None:
            req["t0"] = float(t0)
        if t1 is not None:
            req["t1"] = float(t1)
        if max_points is not None:
            req["max_points"] = int(max_points)
        self._send(encode_control(FrameType.HISTORY, 0, req))
        while not self._history:
            if not self._pump_once():
                raise ServerError("connection closed while awaiting history")
        status, factor, n_source, window, vmin, vmax = unpack_history(
            self._history.popleft()
        )
        if status != HISTORY_OK:
            message = window.decode("utf-8", "replace") or "history query failed"
            raise ServerError(message)
        times, values, markers, enabled = unpack_window(window)
        if vmin is None or vmax is None:
            vmin = vmax = values
        else:
            vmin = vmin.reshape(values.shape)
            vmax = vmax.reshape(values.shape)
        return StoreQueryResult(
            times=times,
            values=values,
            vmin=vmin,
            vmax=vmax,
            markers=markers,
            enabled=enabled,
            factor=int(factor),
            n_source=int(n_source),
        )

    def next_data(self) -> Frame | None:
        """Block for the next DATA/WINDOW frame; ``None`` at end of stream."""
        while True:
            if self._frames:
                return self._frames.popleft()
            if self.at_eos:
                return None
            if not self._pump_once():
                if self.at_eos:
                    return None
                self._reconnect()

    def _pump_once(self) -> bool:
        """One blocking socket read; False on EOF/error (without EOS)."""
        if self._stream is None:
            return False
        try:
            data = self._stream.read(READ_CHUNK)
        except TransportError:
            return False
        if not data:
            return False
        frames = self._decoder.feed(data)
        self._mirror_decoder()
        for frame in frames:
            self._route(frame)
        return True

    def _mirror_decoder(self) -> None:
        resyncs, discarded, corrupt = self._mirrored
        d = self._decoder
        if d.resync_count > resyncs:
            self._resync_counter.inc(d.resync_count - resyncs)
        if d.bytes_discarded > discarded:
            self._discarded_counter.inc(d.bytes_discarded - discarded)
        if d.frames_corrupt > corrupt:
            self._corrupt_counter.inc(d.frames_corrupt - corrupt)
        self._mirrored = (d.resync_count, d.bytes_discarded, d.frames_corrupt)

    def _route(self, frame: Frame) -> None:
        if frame.type == FrameType.DATA:
            if self._last_seq is not None and frame.seq > self._last_seq + 1:
                missed = frame.seq - self._last_seq - 1
                self.frames_missed += missed
                self._missed_counter.inc(missed)
            self._last_seq = frame.seq
            self._frames.append(frame)
        elif frame.type == FrameType.WINDOW:
            self._frames.append(frame)
        elif frame.type == FrameType.CONFIG:
            self._response += frame.payload
        elif frame.type == FrameType.HISTORY_DATA:
            self._history.append(frame.payload)
        elif frame.type == FrameType.EOS:
            self.eos = frame.json()
        elif frame.type == FrameType.ERROR:
            raise ServerError(frame.json().get("message", "server error"))
        # HELLO/SUBACK after the handshake (or unknown types) are ignored.


class RemoteSampleSource(ProtocolSampleSource):
    """A :class:`ProtocolSampleSource` fed by a psserve daemon.

    ``mode="window"`` subscribes to server-side averaged windows of
    ``window`` samples each; the source then presents one sample per
    window at ``sample_rate / window``.  ``device`` names the served
    device to subscribe to and labels the source's metrics; given a
    connected :class:`RemoteLink`, it only labels them (default: the
    link's device).
    """

    def __init__(
        self,
        remote: str | RemoteLink,
        mode: str = "raw",
        window: int = 1,
        device: str | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        connect_timeout: float = 5.0,
        handshake_timeout: float | None = None,
        stream_factory: Callable[[str], ByteStream] | None = None,
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        if isinstance(remote, RemoteLink):
            link = remote
        else:
            link = RemoteLink(
                remote,
                mode=mode,
                window=window,
                device=device,
                label=device,
                recovery=recovery,
                registry=registry,
                connect_timeout=connect_timeout,
                handshake_timeout=handshake_timeout,
                stream_factory=stream_factory,
            )
        self._backlog: list[SampleBlock] = []
        self._backlog_count = 0
        super().__init__(
            link,
            registry=registry,
            tracer=tracer,
            device=device or link.device,
        )

    # The serial-link property chain ends at the daemon, not a local
    # firmware object: rate and stats come from the handshake.
    @property
    def sample_rate(self) -> float:
        rate = float(self.link.device_info()["sample_rate"])
        if self.link.mode == "window" and self.link.window > 1:
            return rate / self.link.window
        return rate

    @property
    def reconnects(self) -> int:
        return self.link.reconnects

    @property
    def frames_missed(self) -> int:
        return self.link.frames_missed

    @property
    def eos_stats(self) -> dict | None:
        return self.link.eos

    def write_configs(self, configs) -> None:
        raise ServerError(
            "remote sample sources are read-only: the device is shared; "
            "write configuration on the serving host"
        )

    def query_history(
        self,
        t0: float | None = None,
        t1: float | None = None,
        max_points: int | None = None,
    ):
        """Query the server's recorded history (see :meth:`RemoteLink.query_history`)."""
        return self.link.query_history(t0, t1, max_points)

    def read_block(self, n_samples: int) -> SampleBlock:
        """Return exactly ``n_samples`` samples (less only at end of stream)."""
        # Keep pulling even once EOS is flagged: frames decoded in the
        # same socket read as the EOS frame are still queued in the link.
        while self._backlog_count < n_samples:
            frame = self.link.next_data()
            if frame is None:
                break
            if frame.type == FrameType.DATA:
                block = self._decode(frame.payload, 0)
            else:
                block = self._window_block(frame.payload)
            if len(block):
                self._backlog.append(block)
                self._backlog_count += len(block)
        return self._take(min(n_samples, self._backlog_count))

    def read_block_raw(self, n_samples: int):
        raise ServerError("a remote source cannot relay raw bytes (no local device)")

    def _window_block(self, payload: bytes) -> SampleBlock:
        times, values, markers, enabled = unpack_window(payload)
        self.health.samples_decoded += times.size
        return SampleBlock(times=times, values=values, markers=markers, enabled=enabled)

    def _take(self, n: int) -> SampleBlock:
        if n <= 0:
            return self._empty_block()
        if len(self._backlog) == 1 and len(self._backlog[0]) == n:
            block = self._backlog.pop()
            self._backlog_count = 0
            return block
        times = np.concatenate([b.times for b in self._backlog])
        values = np.concatenate([b.values for b in self._backlog])
        markers = np.concatenate([b.markers for b in self._backlog])
        enabled = self._backlog[0].enabled
        taken = SampleBlock(
            times=times[:n], values=values[:n], markers=markers[:n], enabled=enabled
        )
        rest_n = times.size - n
        if rest_n:
            self._backlog = [
                SampleBlock(
                    times=times[n:],
                    values=values[n:],
                    markers=markers[n:],
                    enabled=enabled,
                )
            ]
        else:
            self._backlog = []
        self._backlog_count = rest_n
        return taken

    def close(self) -> None:
        self.link.close()


class RemoteSetup:
    """A connected remote bench: the ``--remote`` analogue of SimulatedSetup.

    Wraps a :class:`RemoteSampleSource` and its :class:`PowerSensor` with
    the attribute surface the CLI tools use (``ps``, ``source``, ``link``,
    ``registry``, ``tracer``, ``sample_rate``, ``close``).  The physical
    bench (baseboard, EEPROM, calibration) lives on the serving host;
    touching it here raises :class:`ServerError`.

    ``subscribe`` names the served device to stream (default: the
    server's first); ``device`` labels this bench's metrics, as it does
    for the other benches.

    ``faults`` injects the usual fault models on the *client's* receive
    path — the framing layer, not the device stream — for exercising the
    wire protocol's resynchronisation.
    """

    def __init__(
        self,
        remote: str,
        mode: str = "raw",
        window: int = 1,
        device: str | None = None,
        subscribe: str | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
        faults: str | list | None = None,
        fault_seed: int = 0,
        connect_timeout: float = 5.0,
        handshake_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)
        self.device = device
        stream_factory = None
        if faults:
            from repro.transport.bytestream import FaultyByteStream
            from repro.transport.faults import parse_fault_spec

            models = parse_fault_spec(faults) if isinstance(faults, str) else faults

            def stream_factory(spec: str, _models=models) -> ByteStream:
                return FaultyByteStream(
                    connect_stream(spec, timeout=connect_timeout),
                    _models,
                    seed=fault_seed,
                    registry=self.registry,
                    device=device,
                )

        self.link = RemoteLink(
            remote,
            mode=mode,
            window=window,
            device=subscribe,
            label=device,
            recovery=recovery,
            registry=self.registry,
            connect_timeout=connect_timeout,
            handshake_timeout=handshake_timeout,
            stream_factory=stream_factory,
        )
        self.source = RemoteSampleSource(
            self.link, device=device, registry=self.registry, tracer=self.tracer
        )
        self.ps = PowerSensor(self.source, recovery=recovery)

    @property
    def sample_rate(self) -> float:
        return self.source.sample_rate

    def _remote_only(self, what: str):
        raise ServerError(
            f"{what} is not available over --remote: the physical bench "
            "lives on the serving host"
        )

    @property
    def baseboard(self):
        self._remote_only("the baseboard")

    @property
    def eeprom(self):
        self._remote_only("the EEPROM")

    @property
    def firmware(self):
        self._remote_only("the firmware")

    def connect(self, slot: int, rail) -> None:
        self._remote_only("connecting a DUT rail")

    def close(self) -> None:
        try:
            self.ps.close()
        finally:
            self.source.close()

    def __enter__(self) -> "RemoteSetup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

