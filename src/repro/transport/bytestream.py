"""Byte-stream abstraction for socket transports, with fault injection.

The serving layer (:mod:`repro.server`) moves framed bytes over TCP or
Unix sockets.  This module gives it the same two properties the virtual
serial link already has: a minimal uniform surface (``read``/``write``/
``close``, where an empty read strictly means end-of-stream) and the
ability to interpose the existing :class:`~repro.transport.faults.FaultModel`
family on the receive path, so the wire protocol's resynchronisation can
be exercised against exactly the corruption models the serial stack is
tested with.

The one semantic difference from :class:`FaultySerialLink`: a serial read
may legitimately return nothing (the device is idle), but on a stream
socket ``recv() == b""`` means the peer closed.  :class:`FaultyByteStream`
therefore re-reads when a fault model eats an entire chunk — the data is
lost (a stall is a loss event, not a hang-up), and the reader only sees
EOF when the underlying socket actually closes.
"""

from __future__ import annotations

import socket

from repro.common.errors import TransportError
from repro.observability import MetricsRegistry
from repro.transport.faults import FaultChain, FaultModel


class ByteStream:
    """Minimal duplex byte stream: ``read(n) == b""`` means EOF."""

    def read(self, n: int) -> bytes:
        raise NotImplementedError

    def write(self, data: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SocketByteStream(ByteStream):
    """A connected TCP or Unix socket as a :class:`ByteStream`.

    Socket-level failures surface as :class:`TransportError` so callers
    deal with one failure domain; a clean peer shutdown is not an error,
    it is an empty read.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._open = True

    def read(self, n: int) -> bytes:
        if not self._open:
            return b""
        try:
            return self.sock.recv(n)
        except (ConnectionError, socket.timeout) as error:
            raise TransportError(f"socket read failed: {error}") from error
        except OSError as error:
            if not self._open:  # closed concurrently by close()
                return b""
            raise TransportError(f"socket read failed: {error}") from error

    def write(self, data: bytes) -> None:
        if not self._open:
            raise TransportError("socket is closed")
        try:
            self.sock.sendall(data)
        except OSError as error:
            raise TransportError(f"socket write failed: {error}") from error

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class FaultyByteStream(ByteStream, FaultChain):
    """Interpose fault models on a byte stream's receive path.

    Reuses the :class:`FaultModel` family and the :class:`FaultChain`
    unchanged — the same seeded (seed, spec, traffic) determinism
    applies.  When every installed model conspires to turn a non-empty
    chunk into ``b""`` (a stall, or a drop of the whole chunk), the
    stream re-reads instead of reporting EOF: on a socket, silence is
    loss, not closure.  ``device`` labels the ``faults_injected_total``
    counters, as it does on the serial link.
    """

    def __init__(
        self,
        stream: ByteStream,
        models: list[FaultModel] | None = None,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        device: str | None = None,
    ) -> None:
        FaultChain.__init__(self, models, seed=seed, registry=registry, device=device)
        self.stream = stream

    def read(self, n: int) -> bytes:
        # Deliver bytes a model deferred (PartialReads) before blocking
        # on the transport: the peer may be waiting on them to respond.
        for model in self.models:
            pending = model.drain()
            if pending:
                return pending
        while True:
            chunk = self.stream.read(n)
            if not chunk:
                return b""  # true EOF: the peer closed
            faulted = self._apply(chunk)
            if faulted:
                return faulted
            # The models ate the whole chunk (stall/drop): that data is
            # lost, but the connection is alive — keep reading.

    def write(self, data: bytes) -> None:
        self.stream.write(data)

    def close(self) -> None:
        self.stream.close()
