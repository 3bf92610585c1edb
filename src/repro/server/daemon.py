"""The psserve daemon: N devices, thousands of subscribers, one event loop.

:class:`PowerSensorServer` owns one or more named
:class:`~repro.core.sources.SampleSource` devices and fans their streams
out over TCP or Unix sockets.  Each subscriber names its device in the
``SUBSCRIBE`` frame (the HELLO advertises all of them); omitting the
name subscribes to the first device, which keeps single-device clients
oblivious to the fleet.

The core is a **single-threaded asyncio event loop** around a **shared
broadcast ring** (:mod:`repro.server.ring`): each chunk of a device's
stream is encoded exactly once as a DATA frame and appended to the device's
:class:`~repro.server.ring.BroadcastRing`; every subscriber holds a
:class:`~repro.server.ring.RingCursor` into that ring instead of a
per-client frame queue, so fan-out cost is one encode plus N integer
cursor advances — independent of payload size and linear only in the
*count* of subscribers.  Server-side windowing is shared the same way:
all subscribers of one ``(device, window)`` stream read one ring fed by
a single vectorised NumPy fold per chunk (so the window(1) float64
downgrade of a byte-less device costs one ``pack_window`` per chunk, not
one per client).  An unpaced server reads several chunks per device
call and a paced one reads one; either way each chunk is framed and
folded on its own, so subscribers see the same frames.

Backpressure policies are cursor policies: ``block`` flow-controls the
pump (bounded by the client timeout, then evicts the laggard),
``drop-oldest`` lets the ring evict and accounts the gap on the lapped
cursor, ``downsample`` thins a pressured cursor to alternate frames.
Per-socket flow control is the transport's own: each client's writer
coroutine awaits ``drain()``, so a slow socket shows up as cursor lag,
never as a stalled pump.

The public surface is thread-friendly: :meth:`start`, :meth:`serve`,
:meth:`finish` and :meth:`close` may be called from plain threads (the
CLI and the test suite do); they marshal onto the loop internally.

Everything observable is counted: ``server_clients_connected``,
``server_clients_total``, ``server_clients_evicted_total``,
``server_samples_produced_total``, ``server_frames_sent_total``,
``server_bytes_sent_total``,
``server_frames_dropped_total{client=,policy=,device=,kind=}``, the
``server_accept`` / ``server_pump`` / ``server_send`` spans, and the
ring series ``server_frames_encoded_total{device=}``,
``server_ring_occupancy{device=}`` and
``server_client_cursor_lag{client=,device=}``.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
from collections import deque

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    ServerError,
    TransportError,
)
from repro.core.powersensor import recorded_pairs
from repro.core.sources import SampleBlock, SampleSource
from repro.hardware.eeprom import VirtualEeprom
from repro.observability import MetricsRegistry, Tracer
from repro.server.ring import POLICIES, BroadcastRing, RingCursor
from repro.server.wire import (
    HISTORY_FAILED,
    HISTORY_NO_STORE,
    HISTORY_OK,
    Frame,
    FrameDecoder,
    FrameType,
    encode_control,
    encode_frame,
    pack_history,
    pack_window,
    parse_endpoint,
)
from repro.transport.shm import DEFAULT_BATCH

#: Default pump chunk: 400 samples = 20 ms of stream at 20 kHz.
DEFAULT_CHUNK = 400
#: Cap on rows in one HISTORY_DATA reply (bounds the payload well under
#: MAX_PAYLOAD even with both min/max envelopes attached).
HISTORY_MAX_POINTS = 4096
#: Frames a writer drains per wake-up before yielding to its peers.
WRITER_BATCH = 64
#: ``asyncio.wait_for`` raises ``asyncio.TimeoutError``, which is only an
#: alias of the builtin ``TimeoutError`` from Python 3.11 on; catch both
#: so timeouts are handled on 3.10 too.
_TIMEOUTS = (TimeoutError, asyncio.TimeoutError)


def _raw_capable(source) -> bool:
    """True if the source can relay raw wire bytes (read_block_raw).

    Remote sources inherit the method but raise — a re-served remote
    stream (and any source without wire bytes) goes out as sample-exact
    float64 WINDOW rows instead.
    """
    if not callable(getattr(source, "read_block_raw", None)):
        return False
    from repro.server.client import RemoteSampleSource

    return not isinstance(source, RemoteSampleSource)


def _bind_listener(endpoint: tuple[str, object], backlog: int) -> socket.socket:
    """Bind (but don't accept on) the listening socket for an endpoint."""
    kind, target = endpoint
    if kind == "unix":
        assert isinstance(target, str)
        if os.path.exists(target):
            os.unlink(target)  # stale socket from a previous run
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(target)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(target)  # type: ignore[arg-type]
    sock.listen(backlog)
    return sock


def _unlink_unix(endpoint: tuple[str, object]) -> None:
    kind, target = endpoint
    if kind == "unix" and isinstance(target, str) and os.path.exists(target):
        try:
            os.unlink(target)
        except OSError:
            pass


class _Device:
    """Server-side state for one served device."""

    def __init__(self, name: str, source, registry: MetricsRegistry) -> None:
        self.name = name
        self.source = source
        self.store = None  # TelemetryStore when the server records history
        self.raw_capable = _raw_capable(source)
        self.samples_produced = 0
        self.samples_counter = registry.counter(
            "server_samples_produced_total",
            help="samples pumped from the device",
            device=name,
        )
        self.clients: set[_AsyncClient] = set()
        self.raw_ring: BroadcastRing | None = None
        self.window_streams: dict[int, _WindowStream] = {}
        self.encode_counter = registry.counter(
            "server_frames_encoded_total",
            help="frames encoded into the device's broadcast rings",
            device=name,
        )
        self.ring_gauge = registry.gauge(
            "server_ring_occupancy",
            help="frames retained in the device's raw broadcast ring",
            device=name,
        )

    def ensure_raw_ring(self, capacity: int) -> BroadcastRing:
        if self.raw_ring is None:
            self.raw_ring = BroadcastRing(capacity)
        return self.raw_ring

    def info(self) -> dict:
        return {
            "version": self.source.version,
            "sample_rate": self.source.sample_rate,
            "history": self.store is not None,
        }

    def config_image(self) -> bytes:
        """The device's current EEPROM image (fresh, not connect-time)."""
        return VirtualEeprom(configs=list(self.source.configs)).pack()


class _WindowStream:
    """One shared server-side window stream: fold and encode once per chunk.

    All subscribers of the same ``(device, window)`` pair share this
    accumulator and its ring, so the fold costs one pass per chunk however
    many clients read it.
    """

    def __init__(self, window: int, capacity: int) -> None:
        self.window = int(window)
        self.ring = BroadcastRing(capacity)
        self.acc: list[SampleBlock] = []
        self.acc_count = 0

    def fold(self, block: SampleBlock) -> list[tuple[bytes, int]]:
        """Fold one device block; return the encoded WINDOW frames due.

        Each returned entry is ``(frame, raw_samples_covered)``.  A
        window of 1 (the byte-less-device downgrade) is the fast path:
        one ``pack_window`` pass over the block, no accumulation.
        """
        w = self.window
        if w == 1:
            if not len(block):
                return []
            payload = pack_window(
                block.times, block.values, block.markers, block.enabled
            )
            frame = encode_frame(FrameType.WINDOW, self.ring.next_seq(), payload)
            return [(frame, len(block))]
        if len(block):
            self.acc.append(block)
            self.acc_count += len(block)
        if self.acc_count < w:
            return []
        times = np.concatenate([b.times for b in self.acc])
        values = np.concatenate([b.values for b in self.acc])
        markers = np.concatenate([b.markers for b in self.acc])
        k = self.acc_count // w
        used = k * w
        avg_times = times[:used].reshape(k, w).mean(axis=1)
        avg_values = values[:used].reshape(k, w, values.shape[1]).mean(axis=1)
        any_markers = markers[:used].reshape(k, w).any(axis=1)
        leftover = SampleBlock(
            times=times, values=values, markers=markers, enabled=block.enabled
        ).slice(used)
        self.acc = [leftover] if len(leftover) else []
        self.acc_count -= used
        payload = pack_window(avg_times, avg_values, any_markers, block.enabled)
        frame = encode_frame(FrameType.WINDOW, self.ring.next_seq(), payload)
        return [(frame, used)]


class _AsyncClient:
    """Server-side state for one subscriber on the event loop."""

    def __init__(
        self,
        cid: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        device: _Device,
        cursor: RingCursor,
    ) -> None:
        self.id = cid
        self.reader = reader
        self.writer = writer
        self.device = device
        self.cursor = cursor
        self.decoder = FrameDecoder()
        self.mode = "raw"
        self.window = 1
        self.started = False
        self.ever_started = False
        self.finishing = False
        self.evicted = False
        self.torn = False
        self.eos_reason: str | None = None
        self.seq = 0  # per-client sequence for control frames
        self.frames_sent = 0
        self.samples_sent = 0
        self.control: deque[bytes] = deque()
        self.wake = asyncio.Event()
        self.writer_task: asyncio.Task | None = None
        self.drop_counters: dict[str, object] = {}
        self.lag_gauge = None

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class PowerSensorServer:
    """Serve one or more PowerSensor streams to N subscribers (asyncio).

    ``source`` is a single :class:`~repro.core.sources.SampleSource` or a
    ``{name: source}`` dict for a multi-device endpoint; the first entry
    is the default device for subscribers that don't name one.
    """

    def __init__(
        self,
        source: SampleSource | dict[str, SampleSource],
        listen: str,
        *,
        policy: str = "block",
        buffer_frames: int = 256,
        chunk: int = DEFAULT_CHUNK,
        client_timeout: float = 5.0,
        max_clients: int = 64,
        time_scale: float = 0.0,
        wait_clients: int = 0,
        record_store: str | None = None,
        store_roll: int = 1_000_000,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown backpressure policy {policy!r} (choose from {POLICIES})"
            )
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        self.endpoint = parse_endpoint(listen)
        self.policy = policy
        self.buffer_frames = int(buffer_frames)
        self.chunk = int(chunk)
        self.client_timeout = float(client_timeout)
        self.max_clients = int(max_clients)
        self.time_scale = float(time_scale)
        self.wait_clients = int(wait_clients)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.registry)

        if not isinstance(source, dict):
            source = {getattr(source, "device", None) or "device0": source}
        if not source:
            raise ConfigurationError("a server needs at least one device")
        self.devices: dict[str, _Device] = {
            name: _Device(name, src, self.registry) for name, src in source.items()
        }
        self.default_device = next(iter(self.devices.values()))
        self.source = self.default_device.source  # single-device back-compat

        self.record_store = record_store
        if record_store is not None:
            # One store per served device: everything the pump produces
            # is also appended here, and HISTORY requests query it.
            from repro.store import TelemetryStore

            for device in self.devices.values():
                device.store = TelemetryStore(
                    os.path.join(record_store, device.name),
                    roll_samples=int(store_roll),
                    device=device.name,
                    sample_rate=float(device.source.sample_rate),
                    pair_names=list(recorded_pairs(device.source.configs).values()),
                    registry=self.registry,
                    tracer=self.tracer,
                )

        self._clients: dict[int, _AsyncClient] = {}
        self._next_cid = 0
        self._starts_seen = 0  # distinct subscribers that ever sent START
        self._listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._aio_server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._started_event: asyncio.Event | None = None
        self._drain_event: asyncio.Event | None = None
        self._serve_task: asyncio.Task | None = None

        self._connected_gauge = self.registry.gauge(
            "server_clients_connected", help="subscribers currently connected"
        )
        self._clients_counter = self.registry.counter(
            "server_clients_total", help="subscribers accepted since start"
        )
        self._evicted_counter = self.registry.counter(
            "server_clients_evicted_total",
            help="subscribers force-disconnected (backpressure or send failure)",
        )
        self._samples_counter = self.registry.counter(
            "server_samples_produced_total", help="samples pumped from the device"
        )
        self._frames_counter = self.registry.counter(
            "server_frames_sent_total", help="frames written to subscribers"
        )
        self._bytes_counter = self.registry.counter(
            "server_bytes_sent_total", help="frame bytes written to sockets"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle (thread-facing surface)                                  #
    # ------------------------------------------------------------------ #

    @property
    def samples_produced(self) -> int:
        """Samples pumped across every device since start."""
        return sum(d.samples_produced for d in self.devices.values())

    @property
    def address(self) -> str:
        """The bound address, as a connect spec (useful with port 0)."""
        kind, target = self.endpoint
        if kind == "unix":
            return f"unix:{target}"
        host, port = target  # type: ignore[misc]
        if self._listener is not None:
            host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        """Bind the listener and start the event loop thread."""
        if self._loop is not None:
            return
        # The backlog needs headroom beyond max_clients: a connect storm
        # deeper than the queue makes unix-socket connects fail hard
        # (ECONNREFUSED/EINVAL) rather than wait for an accept slot.
        self._listener = _bind_listener(self.endpoint, max(self.max_clients, 512))
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="psserve-loop", daemon=True
        )
        self._loop_thread.start()
        asyncio.run_coroutine_threadsafe(self._start_async(), loop).result(timeout=10)

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _start_async(self) -> None:
        self._stop_event = asyncio.Event()
        self._started_event = asyncio.Event()
        self._drain_event = asyncio.Event()
        assert self._listener is not None
        self._listener.setblocking(False)
        kind, _ = self.endpoint
        if kind == "unix":
            self._aio_server = await asyncio.start_unix_server(
                self._client_connected, sock=self._listener
            )
        else:
            self._aio_server = await asyncio.start_server(
                self._client_connected, sock=self._listener
            )

    def serve(self, duration: float | None = None) -> dict:
        """Pump every device and fan out until ``duration`` simulated seconds.

        Each pump round advances every device by the same simulated time
        (per-device chunk sizes scale with sample rate), so a fleet's
        clocks stay aligned.  ``duration=None`` pumps until
        :meth:`close` (or Ctrl-C in the CLI).  With ``time_scale > 0``
        the pump paces itself against the wall clock (1.0 = real time)
        and a round is one chunk; 0 pumps as fast as possible, and a
        round is as many whole chunks as fit in
        :data:`~repro.transport.shm.DEFAULT_BATCH` samples (20 of 400).
        Returns a stats dict (also the
        shape of the EOS payload).  Blocks the calling thread; the work
        happens on the server's event loop.
        """
        loop = self._require_loop()
        future = asyncio.run_coroutine_threadsafe(self._serve_async(duration), loop)
        return future.result()

    def finish(self, reason: str = "end of stream") -> dict:
        """Stop pumping, send EOS (with stats) to everyone, return stats."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return self._stats_dict(reason)
        loop.call_soon_threadsafe(self._signal_stop)
        return asyncio.run_coroutine_threadsafe(
            self._finish_async(reason), loop
        ).result(timeout=max(self.client_timeout, 2.0) + 10)

    def close(self) -> None:
        """Stop accepting, end the stream, disconnect everyone."""
        loop = self._loop
        if loop is None:
            self._close_stores()
            _unlink_unix(self.endpoint)
            return
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown_async(), loop).result(
                timeout=max(self.client_timeout, 2.0) + 15
            )
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=10)
                self._loop_thread = None
            loop.close()
            self._loop = None
            self._listener = None
            self._close_stores()
            _unlink_unix(self.endpoint)

    def _close_stores(self) -> None:
        """Seal and close every device's telemetry store (idempotent)."""
        for device in self.devices.values():
            if device.store is not None:
                device.store.close()

    def __enter__(self) -> "PowerSensorServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise ServerError("server is not started (call start() first)")
        return self._loop

    def _signal_stop(self) -> None:
        """Loop-thread half of stopping: wake everything that waits."""
        if self._stop_event is not None:
            self._stop_event.set()
        if self._started_event is not None:
            self._started_event.set()
        if self._drain_event is not None:
            self._drain_event.set()

    async def _shutdown_async(self) -> None:
        self._signal_stop()
        if self._aio_server is not None:
            self._aio_server.close()
        serve_task = self._serve_task
        if serve_task is not None:
            # The pump notices the stop event within one pacing interval
            # and runs _finish_async itself.
            await asyncio.wait({serve_task}, timeout=max(self.client_timeout, 2.0) + 5)
        if self._clients:
            await self._finish_async("server closed")
        if self._aio_server is not None:
            try:
                await self._aio_server.wait_closed()
            except Exception:
                pass
            self._aio_server = None

    # ------------------------------------------------------------------ #
    # Accepting and per-client coroutines                                #
    # ------------------------------------------------------------------ #

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client: _AsyncClient | None = None
        leftovers: list[Frame] = []
        try:
            try:
                with self.tracer.span("server_accept"):
                    client, leftovers = await asyncio.wait_for(
                        self._handshake(reader, writer), timeout=self.client_timeout
                    )
            except (
                TimeoutError,
                asyncio.TimeoutError,
                TransportError,
                ServerError,
                ConfigurationError,
                ProtocolError,
                ConnectionError,
                OSError,
            ):
                client = None
            if client is None:
                writer.close()
                return
            client.writer_task = asyncio.get_running_loop().create_task(
                self._writer_loop(client)
            )
            if self._handle_control(client, leftovers):
                await self._control_loop(client)
        finally:
            if client is not None:
                self._teardown(client)

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[_AsyncClient | None, list[Frame]]:
        """HELLO -> SUBSCRIBE -> SUBACK; returns (client, undelivered frames)."""
        hello = {
            "server": "psserve",
            # Legacy top-level fields describe the default device so old
            # single-device clients keep working unmodified.
            "version": self.default_device.source.version,
            "sample_rate": self.default_device.source.sample_rate,
            "policy": self.policy,
            "buffer_frames": self.buffer_frames,
            "devices": {name: dev.info() for name, dev in self.devices.items()},
        }
        writer.write(encode_control(FrameType.HELLO, 0, hello))
        await writer.drain()
        decoder = FrameDecoder()
        sub: Frame | None = None
        leftovers: list[Frame] = []
        while sub is None:
            data = await reader.read(65536)
            if not data:
                return None, []
            frames = decoder.feed(data)
            for i, frame in enumerate(frames):
                if frame.type == FrameType.SUBSCRIBE:
                    sub = frame
                    leftovers = frames[i + 1 :]
                    break
                if frame.type == FrameType.BYE:
                    return None, []
        request = sub.json()
        mode = request.get("mode", "raw")
        window = int(request.get("window", 1) or 1)
        if mode not in ("raw", "window") or window < 1:
            writer.write(
                encode_control(
                    FrameType.ERROR, 0, {"message": f"bad subscription {request!r}"}
                )
            )
            await writer.drain()
            return None, []
        device_name = request.get("device") or self.default_device.name
        device = self.devices.get(device_name)
        if device is None:
            writer.write(
                encode_control(
                    FrameType.ERROR,
                    0,
                    {
                        "message": f"unknown device {device_name!r}",
                        "devices": list(self.devices),
                    },
                )
            )
            await writer.drain()
            return None, []
        # A raw subscription needs the device's wire byte stream; fall
        # back to sample-exact single-sample windows when it has none.
        if mode == "raw" and not device.raw_capable:
            mode = "window"
            window = max(window, 1)
        if len(self._clients) >= self.max_clients:
            writer.write(
                encode_control(FrameType.ERROR, 0, {"message": "server full"})
            )
            await writer.drain()
            return None, []
        if mode == "raw":
            ring = device.ensure_raw_ring(self.buffer_frames)
        else:
            stream = device.window_streams.get(window)
            if stream is None:
                stream = _WindowStream(window, self.buffer_frames)
                device.window_streams[window] = stream
            ring = stream.ring
        cid = self._next_cid
        self._next_cid += 1
        client = _AsyncClient(
            cid, reader, writer, device, RingCursor(ring, policy=self.policy)
        )
        # Adopt the handshake decoder: partial bytes of a pipelined
        # control frame split across the SUBSCRIBE read boundary must
        # carry over into the control loop, not be silently dropped.
        client.decoder = decoder
        client.mode = mode
        client.window = window
        self._clients[cid] = client
        device.clients.add(client)
        self._connected_gauge.set(len(self._clients))
        self._clients_counter.inc()
        # Per-client backpressure accounting: ``kind`` distinguishes
        # ring-evicted frames from downsample-skipped ones.
        client.drop_counters = {
            kind: self.registry.counter(
                "server_frames_dropped_total",
                help="frames discarded by backpressure, per client",
                client=str(cid),
                policy=self.policy,
                device=device.name,
                kind=kind,
            )
            for kind in ("evicted", "skipped")
        }
        client.lag_gauge = self.registry.gauge(
            "server_client_cursor_lag",
            help="frames between the broadcast ring head and the client cursor",
            client=str(cid),
            device=device.name,
        )
        try:
            writer.write(
                encode_control(
                    FrameType.SUBACK,
                    0,
                    {
                        "client": cid,
                        "mode": mode,
                        "window": window,
                        "device": device.name,
                        "version": device.source.version,
                        "sample_rate": device.source.sample_rate,
                    },
                )
            )
            await writer.drain()
        except BaseException:
            # The peer vanished mid-drain, or client_timeout cancelled
            # the handshake: the client is already registered, so undo
            # it — otherwise the slot, connected gauge and ring cursor
            # leak, and repeated aborted handshakes read "server full".
            self._teardown(client)
            raise
        return client, leftovers

    async def _control_loop(self, client: _AsyncClient) -> None:
        """Handle control frames from one subscriber until it goes away."""
        stop = self._stop_event
        while not client.torn and (stop is None or not stop.is_set()):
            try:
                data = await client.reader.read(65536)
            except (ConnectionError, OSError):
                return
            if not data:
                return
            if not self._handle_control(client, client.decoder.feed(data)):
                return

    def _handle_control(self, client: _AsyncClient, frames: list[Frame]) -> bool:
        """Apply control frames; False means the client said goodbye."""
        for frame in frames:
            if frame.type == FrameType.START:
                if not client.started:
                    # Join (or rejoin) at the live edge: frames streamed
                    # while stopped are skipped, not counted as drops.
                    client.cursor.rebase()
                    client.started = True
                    if not client.ever_started:
                        client.ever_started = True
                        self._starts_seen += 1
                if self._started_event is not None:
                    self._started_event.set()
            elif frame.type == FrameType.STOP:
                client.started = False
            elif frame.type == FrameType.MARK:
                # The marker lands in the device's shared stream.
                client.device.source.mark()
            elif frame.type == FrameType.CONFIG_REQ:
                client.control.append(
                    encode_frame(
                        FrameType.CONFIG,
                        client.next_seq(),
                        client.device.config_image(),
                    )
                )
                client.wake.set()
            elif frame.type == FrameType.HISTORY:
                client.control.append(self._history_reply(client, frame))
                client.wake.set()
            elif frame.type == FrameType.BYE:
                return False
        return True

    def _history_reply(self, client: _AsyncClient, frame: Frame) -> bytes:
        """Answer one HISTORY request against the device's telemetry store."""
        seq = client.next_seq()
        store = client.device.store
        if store is None:
            payload = pack_history(
                HISTORY_NO_STORE,
                window=b"server is not recording history (start with --record-store)",
            )
            return encode_frame(FrameType.HISTORY_DATA, seq, payload)
        try:
            req = frame.json()
            t0 = req.get("t0")
            t1 = req.get("t1")
            max_points = req.get("max_points")
            max_points = (
                HISTORY_MAX_POINTS
                if max_points is None
                else max(1, min(int(max_points), HISTORY_MAX_POINTS))
            )
            result = client.device.store.query(
                None if t0 is None else float(t0),
                None if t1 is None else float(t1),
                max_points,
            )
        except Exception as error:  # noqa: BLE001 - reported to the peer
            payload = pack_history(HISTORY_FAILED, window=str(error).encode())
            return encode_frame(FrameType.HISTORY_DATA, seq, payload)
        window = pack_window(
            result.times, result.values, result.markers, result.enabled
        )
        if result.factor > 1:
            payload = pack_history(
                HISTORY_OK,
                result.factor,
                result.n_source,
                window,
                result.vmin,
                result.vmax,
            )
        else:
            payload = pack_history(HISTORY_OK, result.factor, result.n_source, window)
        return encode_frame(FrameType.HISTORY_DATA, seq, payload)

    async def _writer_loop(self, client: _AsyncClient) -> None:
        """Drain one subscriber's cursor (and control queue) onto its socket."""
        writer = client.writer
        try:
            while not client.torn:
                client.wake.clear()
                wrote = False
                while client.control:
                    frame = client.control.popleft()
                    writer.write(frame)
                    self._bytes_counter.inc(len(frame))
                    wrote = True
                if client.started:
                    batch = client.cursor.take(limit=WRITER_BATCH)
                    if batch:
                        with self.tracer.span("server_send"):
                            for frame, _samples in batch:
                                writer.write(frame)
                            await writer.drain()
                        client.frames_sent += len(batch)
                        client.samples_sent += sum(s for _, s in batch)
                        self._frames_counter.inc(len(batch))
                        self._bytes_counter.inc(sum(len(f) for f, _ in batch))
                        if client.lag_gauge is not None:
                            client.lag_gauge.set(client.cursor.lag)
                        if self._drain_event is not None:
                            self._drain_event.set()
                        wrote = True
                if wrote:
                    await writer.drain()
                    continue
                if client.finishing:
                    if client.eos_reason is not None:
                        # Build the EOS only now, with the cursor fully
                        # drained: its stats then report what was
                        # actually delivered (downsample may skip
                        # pending frames, so predicting delivery at
                        # finish time would double-count a frame as
                        # both sent and dropped).
                        stats = self._client_stats(client)
                        stats["reason"] = client.eos_reason
                        client.eos_reason = None
                        frame = encode_control(
                            FrameType.EOS, client.next_seq(), stats
                        )
                        writer.write(frame)
                        self._bytes_counter.inc(len(frame))
                        await writer.drain()
                    return
                try:
                    await asyncio.wait_for(client.wake.wait(), timeout=0.25)
                except _TIMEOUTS:
                    pass
        except (TransportError, ConnectionError, OSError):
            self._evict(client, reason="send failed")

    # ------------------------------------------------------------------ #
    # The pump                                                           #
    # ------------------------------------------------------------------ #

    async def _serve_async(self, duration: float | None) -> dict:
        self._serve_task = asyncio.current_task()
        stop = self._stop_event
        assert stop is not None
        try:
            if self.wait_clients:
                await self._await_started(self.wait_clients)
            devices = list(self.devices.values())
            ref_rate = max(d.source.sample_rate for d in devices)
            chunks = {
                d.name: max(
                    int(round(self.chunk * d.source.sample_rate / ref_rate)), 1
                )
                for d in devices
            }
            totals = (
                None
                if duration is None
                else {
                    d.name: max(int(round(duration * d.source.sample_rate)), 0)
                    for d in devices
                }
            )
            dry: set[str] = set()  # finite replay tapes that ran out

            def is_live(d: _Device) -> bool:
                return d.name not in dry and (
                    totals is None or d.samples_produced < totals[d.name]
                )

            # Unpaced, one device read covers the whole chunks that fit in
            # a producer batch, so the per-read simulation and decode cost
            # is paid once per batch; paced, one chunk, as the pacing
            # sleeps once per chunk.
            per_read = 1 if self.time_scale > 0 else max(DEFAULT_BATCH // self.chunk, 1)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            while not stop.is_set():
                live = [d for d in devices if is_live(d)]
                if not live:
                    break
                for device in live:
                    n = chunks[device.name] * per_read
                    if totals is not None:
                        n = min(n, totals[device.name] - device.samples_produced)
                    if await self._pump_device(device, n, chunks[device.name]) == 0:
                        dry.add(device.name)
                if self.time_scale > 0:
                    # Pace from the furthest-ahead device still
                    # producing: a fixed reference would freeze the
                    # clock once a finite replay tape runs dry and pump
                    # the remaining devices unpaced at 100% CPU.
                    pacers = [d for d in devices if is_live(d)] or devices
                    sim_elapsed = max(
                        d.samples_produced / d.source.sample_rate for d in pacers
                    )
                    delay = t0 + sim_elapsed * self.time_scale - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
            return await self._finish_async(
                "duration" if duration is not None else "stopped"
            )
        finally:
            self._serve_task = None

    async def _await_started(self, n: int) -> None:
        """Wait until ``n`` distinct subscribers have sent START.

        The count is cumulative: a subscriber that started and then went
        away still counts, so a client crashing mid-rendezvous degrades
        the fan-out instead of deadlocking the pump forever.
        """
        stop = self._stop_event
        started = self._started_event
        assert stop is not None and started is not None
        while not stop.is_set():
            if self._starts_seen >= n:
                return
            started.clear()
            try:
                await asyncio.wait_for(started.wait(), timeout=0.25)
            except _TIMEOUTS:
                pass

    async def _pump_device(self, device: _Device, n: int, chunk: int) -> int:
        """Pump ``n`` samples from one device into its rings and store.

        One device read covers all ``n`` samples; each ``chunk``-sized
        piece of it then takes the steps a one-chunk read would (sample
        counters, store append, one raw DATA frame, each window stream's
        fold) and a yield to the writers, so subscribers, backpressure
        and the store see the same frames and appends whatever the read
        size.  Returns the number of samples actually produced (a finite
        replay tape may run dry and return 0).
        """
        source = device.source
        if not source.streaming:
            source.start()
        raw: bytes | None = None
        with self.tracer.span("server_pump", device=device.name):
            if device.raw_capable:
                block, raw = source.read_block_raw(n)
                produced = n
            else:
                block = source.read_block(n)
                produced = len(block)
        if produced == 0:
            return 0
        for piece, payload, samples in self._pieces(block, raw, produced, chunk):
            device.samples_produced += samples
            device.samples_counter.inc(samples)
            self._samples_counter.inc(samples)
            if device.store is not None and len(piece):
                device.store.append(piece)
            # Encode each DATA frame exactly once, into the shared ring.
            if payload is not None and any(c.mode == "raw" for c in device.clients):
                ring = device.ensure_raw_ring(self.buffer_frames)
                frame = encode_frame(FrameType.DATA, ring.next_seq(), payload)
                await self._append(device, ring, frame, samples)
                device.encode_counter.inc()
                device.ring_gauge.set(ring.occupancy)
            # One vectorised fold + one encode per (device, window) stream;
            # a subscriber may open a new stream during an await.
            for stream in list(device.window_streams.values()):
                if not any(c.cursor.ring is stream.ring for c in device.clients):
                    continue
                for frame, covered in stream.fold(piece):
                    await self._append(device, stream.ring, frame, covered)
                    device.encode_counter.inc()
            # The pump need not sleep, so yield here for the writers.
            await asyncio.sleep(0)
        return produced

    @staticmethod
    def _pieces(
        block: SampleBlock, raw: bytes | None, produced: int, chunk: int
    ) -> list[tuple[SampleBlock, bytes | None, int]]:
        """Cut one device read into ``(block, raw payload, samples)`` pieces.

        Each piece covers ``chunk`` samples (the last one the rest) and
        carries its slice of the wire bytes.  A read whose bytes or
        decoded samples do not map onto ``produced`` (a fault-mangled
        stream) stays one piece, relayed as one frame: the client-side
        decoder is chunking-invariant either way.
        """
        if len(block) != produced or (raw is not None and len(raw) % produced):
            return [(block, raw, produced)]
        bps = 0 if raw is None else len(raw) // produced
        return [
            (
                block.slice(start, start + chunk),
                None if raw is None else raw[start * bps : (start + chunk) * bps],
                min(chunk, produced - start),
            )
            for start in range(0, produced, chunk)
        ]

    async def _append(
        self, device: _Device, ring: BroadcastRing, frame: bytes, samples: int
    ) -> None:
        if self.policy == "block":
            await self._flow_control(device, ring)
        ring.append(frame, samples)
        for client in device.clients:
            if client.cursor.ring is ring:
                client.wake.set()

    async def _flow_control(self, device: _Device, ring: BroadcastRing) -> None:
        """Hold the pump while a ``block``-policy cursor would be overrun.

        Bounded by the client timeout, after which the laggards are
        evicted.
        """
        stop = self._stop_event
        drained = self._drain_event
        assert stop is not None and drained is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.client_timeout
        while not stop.is_set():
            laggards = [
                c
                for c in device.clients
                if c.started and c.cursor.ring is ring and c.cursor.overrun()
            ]
            if not laggards:
                return
            remaining = deadline - loop.time()
            if remaining <= 0:
                for client in laggards:
                    self._evict(client, reason="backpressure timeout")
                return
            drained.clear()
            try:
                await asyncio.wait_for(drained.wait(), timeout=min(remaining, 0.25))
            except _TIMEOUTS:
                pass

    # ------------------------------------------------------------------ #
    # Teardown                                                           #
    # ------------------------------------------------------------------ #

    def _client_stats(self, client: _AsyncClient) -> dict:
        # The writer calls this after draining the cursor, so the taken
        # counters are exact delivered counts — no pending estimate that
        # the downsample policy could falsify by skipping frames.
        cursor = client.cursor
        return {
            "client": client.id,
            "device": client.device.name,
            "samples_sent": cursor.taken_samples,
            "frames_sent": cursor.taken_frames,
            "frames_dropped": cursor.dropped,
        }

    def _stats_dict(self, reason: str) -> dict:
        return {
            "reason": reason,
            "samples_produced": self.samples_produced,
            "devices": {
                name: dev.samples_produced for name, dev in self.devices.items()
            },
            "clients_served": int(self._clients_counter.value),
            "clients_evicted": int(self._evicted_counter.value),
        }

    async def _finish_async(self, reason: str) -> dict:
        """Send EOS (with per-client stats) to everyone and disconnect them."""
        clients = list(self._clients.values())
        for client in clients:
            if client.finishing:
                continue
            # The writer builds the EOS itself once its cursor runs dry,
            # so the stats reflect the frames that actually went out.
            client.eos_reason = reason
            client.finishing = True
            client.wake.set()
        tasks = {c.writer_task for c in clients if c.writer_task is not None}
        tasks = {t for t in tasks if not t.done()}
        if tasks:
            await asyncio.wait(tasks, timeout=max(self.client_timeout, 2.0))
        for client in clients:
            self._teardown(client)
        return self._stats_dict(reason)

    def _evict(self, client: _AsyncClient, reason: str) -> None:
        if client.evicted or client.torn:
            return
        client.evicted = True
        # Only count an eviction if the client was still registered — a
        # send failing after a clean BYE is a disconnect, not an eviction.
        if client.id in self._clients:
            self._evicted_counter.inc()
        self._teardown(client)

    def _mirror_drops(self, client: _AsyncClient) -> None:
        cursor = client.cursor
        for kind, value in (
            ("evicted", cursor.lost_frames),
            ("skipped", cursor.skipped_frames),
        ):
            counter = client.drop_counters.get(kind)
            if counter is not None and value:
                already = int(counter.value)
                if value > already:
                    counter.inc(value - already)

    def _teardown(self, client: _AsyncClient) -> None:
        """Idempotent full teardown: registry entry, tasks, socket."""
        if client.torn:
            return
        client.torn = True
        self._clients.pop(client.id, None)
        client.device.clients.discard(client)
        if client.mode == "window":
            stream = client.device.window_streams.get(client.window)
            if stream is not None and not any(
                c.cursor.ring is stream.ring for c in client.device.clients
            ):
                # Last subscriber gone: drop the partial fold so a later
                # subscriber's first window doesn't average samples from
                # both sides of an arbitrarily long unsubscribed gap.
                stream.acc.clear()
                stream.acc_count = 0
        self._connected_gauge.set(len(self._clients))
        self._mirror_drops(client)
        task = client.writer_task
        if task is not None and task is not asyncio.current_task() and not task.done():
            task.cancel()
        try:
            client.writer.close()
        except Exception:
            pass
        client.wake.set()
        if self._drain_event is not None:
            self._drain_event.set()
