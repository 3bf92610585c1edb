"""A subscriber swarm for exercising psserve fan-out at scale.

``psrun --remote`` clients are full :class:`RemoteSampleSource` stacks —
one OS thread plus a decoder each, which is exactly the cost model the
async server exists to escape.  Measuring a 1024-subscriber fan-out with
1024 client *threads* would bench the load generator, not the server, on
a 1-CPU box.

:func:`run_swarm` instead drives N minimal asyncio subscribers on one
event loop (callable from a plain thread): each one performs the
HELLO → SUBSCRIBE → SUBACK → START handshake, then counts DATA/WINDOW
frames, bytes and sequence gaps until EOS.  ``stall`` pauses a
subscriber once right after START — the deterministic way to force
backpressure, since a stalled subscriber's backlog outgrows the
kernel-socket + transport write slack no matter how fast the server
pumps.  ``slow_fraction`` stalls only the first
``slow_fraction * n_clients`` subscribers so one test can watch fast
and slow cursors side by side.

The per-client :class:`ClientResult` carries everything the scaling
tests assert on: frames seen, sequence-gap losses (the client-side view
of ``drop-oldest`` gap accounting) and the server's EOS stats payload.
"""

from __future__ import annotations

import asyncio
import errno
from dataclasses import dataclass, field

from repro.server.wire import (
    FrameDecoder,
    FrameType,
    encode_control,
    encode_frame,
    parse_endpoint,
)

#: Socket read size for swarm subscribers.
READ_CHUNK = 65536


@dataclass
class ClientResult:
    """What one swarm subscriber observed."""

    index: int
    client_id: int | None = None
    device: str | None = None
    mode: str | None = None
    frames: int = 0
    bytes: int = 0
    first_seq: int | None = None
    last_seq: int | None = None
    seq_gaps: int = 0  # frames lost upstream, by sequence accounting
    eos: dict | None = None
    error: str | None = None
    markers: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.eos is not None


@dataclass
class SwarmResult:
    """All subscriber results plus swarm-level accounting."""

    clients: list[ClientResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def completed(self) -> list[ClientResult]:
        return [c for c in self.clients if c.ok]

    @property
    def total_frames(self) -> int:
        return sum(c.frames for c in self.clients)

    @property
    def total_gaps(self) -> int:
        return sum(c.seq_gaps for c in self.clients)

    def eos_total(self, key: str) -> int:
        return sum(int((c.eos or {}).get(key, 0)) for c in self.clients)


#: Connect retry budget.  A swarm's connect storm can transiently
#: overflow the server's listen backlog, which on unix sockets does not
#: queue the connect the way TCP does — see :func:`_open`.
CONNECT_RETRIES = 20
CONNECT_BACKOFF = 0.05
_RETRYABLE_CONNECT_ERRNOS = frozenset(
    {errno.ECONNREFUSED, errno.ECONNRESET, errno.EAGAIN, errno.EINVAL, errno.ENOTCONN}
)


async def _open(endpoint) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect to the server, retrying storm-induced failures.

    An AF_UNIX ``connect()`` against a full listen backlog fails with
    EAGAIN, which the event loop misreads as an in-progress AF_INET
    connect: it waits for writability, sees ``SO_ERROR == 0`` and hands
    back a stream whose socket never connected (reads then die with
    EINVAL).  ``getpeername()`` unmasks that phantom as ENOTCONN right
    away so the swarm can back off and retry instead of wedging a
    rendezvous on a subscriber that was never there.
    """
    kind, target = endpoint
    for attempt in range(CONNECT_RETRIES):
        writer = None
        try:
            if kind == "unix":
                reader, writer = await asyncio.open_unix_connection(target)
                writer.get_extra_info("socket").getpeername()
            else:
                host, port = target
                reader, writer = await asyncio.open_connection(host, port)
            return reader, writer
        except OSError as error:
            if writer is not None:
                writer.close()
            retryable = error.errno in _RETRYABLE_CONNECT_ERRNOS
            if not retryable or attempt == CONNECT_RETRIES - 1:
                raise
            await asyncio.sleep(CONNECT_BACKOFF * (attempt + 1))
    raise AssertionError("unreachable")


async def _subscribe(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    decoder: FrameDecoder,
    request: dict,
) -> tuple[dict, list]:
    """HELLO -> SUBSCRIBE -> SUBACK; returns (suback, undelivered frames)."""
    pending: list = []
    while True:
        data = await reader.read(READ_CHUNK)
        if not data:
            raise ConnectionError("closed before HELLO")
        frames = decoder.feed(data)
        if any(f.type == FrameType.HELLO for f in frames):
            pending = [f for f in frames if f.type != FrameType.HELLO]
            break
    writer.write(encode_control(FrameType.SUBSCRIBE, 0, request))
    await writer.drain()
    while True:
        for i, frame in enumerate(pending):
            if frame.type == FrameType.SUBACK:
                return frame.json(), pending[i + 1 :]
            if frame.type == FrameType.ERROR:
                raise ConnectionError(frame.json().get("message", "server error"))
        data = await reader.read(READ_CHUNK)
        if not data:
            raise ConnectionError("closed during handshake")
        pending = decoder.feed(data)


async def _run_client(
    index: int,
    endpoint,
    request: dict,
    connect_gate: asyncio.Semaphore,
    stall: float,
) -> ClientResult:
    result = ClientResult(index=index)
    writer: asyncio.StreamWriter | None = None
    try:
        async with connect_gate:
            reader, writer = await _open(endpoint)
            decoder = FrameDecoder()
            suback, pending = await _subscribe(reader, writer, decoder, request)
        result.client_id = suback.get("client")
        result.device = suback.get("device")
        result.mode = suback.get("mode")
        writer.write(encode_frame(FrameType.START, 0))
        await writer.drain()
        if stall:
            await asyncio.sleep(stall)
        done = False
        while not done:
            for frame in pending:
                if frame.type in (FrameType.DATA, FrameType.WINDOW):
                    result.frames += 1
                    result.bytes += len(frame.payload)
                    if result.first_seq is None:
                        result.first_seq = frame.seq
                    elif result.last_seq is not None and frame.seq > result.last_seq + 1:
                        result.seq_gaps += frame.seq - result.last_seq - 1
                    result.last_seq = frame.seq
                elif frame.type == FrameType.EOS:
                    result.eos = frame.json()
                    done = True
                elif frame.type == FrameType.ERROR:
                    result.error = frame.json().get("message", "server error")
                    done = True
            if done:
                break
            data = await reader.read(READ_CHUNK)
            if not data:
                result.error = result.error or "connection closed without EOS"
                break
            pending = decoder.feed(data)
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as error:
        result.error = str(error) or error.__class__.__name__
    finally:
        if writer is not None:
            try:
                writer.write(encode_frame(FrameType.BYE, 0))
                writer.close()
            except (ConnectionError, OSError):
                pass
    return result


async def _swarm(
    address: str,
    n_clients: int,
    request: dict,
    connect_concurrency: int,
    stall: float,
    slow_fraction: float,
    timeout: float | None,
) -> SwarmResult:
    endpoint = parse_endpoint(address)
    gate = asyncio.Semaphore(connect_concurrency)
    n_slow = int(round(n_clients * slow_fraction))
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    tasks = [
        asyncio.ensure_future(
            _run_client(
                i,
                endpoint,
                request,
                gate,
                stall if i < n_slow else 0.0,
            )
        )
        for i in range(n_clients)
    ]
    done, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    clients = []
    for i, task in enumerate(tasks):
        if task in done and not task.cancelled() and task.exception() is None:
            clients.append(task.result())
        else:
            clients.append(ClientResult(index=i, error="swarm timeout"))
    return SwarmResult(clients=clients, elapsed=loop.time() - t0)


def run_swarm(
    address: str,
    n_clients: int,
    *,
    device: str | None = None,
    mode: str = "raw",
    window: int = 1,
    connect_concurrency: int = 64,
    stall: float = 0.0,
    slow_fraction: float = 1.0,
    timeout: float | None = None,
) -> SwarmResult:
    """Run ``n_clients`` asyncio subscribers against a psserve endpoint.

    Blocks the calling thread until every subscriber reaches EOS (or
    errors, or ``timeout`` elapses).  Runs its own event loop, so it
    must be called from a thread that has none — the natural shape is
    the server's loop in one thread (or process) and the swarm here.
    """
    request: dict = {"mode": mode, "window": window}
    if device is not None:
        request["device"] = device
    return asyncio.run(
        _swarm(
            address,
            n_clients,
            request,
            connect_concurrency,
            stall,
            slow_fraction,
            timeout,
        )
    )
