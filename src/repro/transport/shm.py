"""Shared-memory producer ring: device simulation off the consumer's read path.

End-to-end ``read_block`` used to interleave three stages in one Python
loop: device simulation (sensor physics + firmware packetisation), the
serial-link pump, and decoding.  Decode alone runs at ~4 M samples/s but
the interleaved loop delivers ~365 k, because every ``read_block(n)``
pays the full production cost inline.

This module splits the pipeline at the transport layer:

* :class:`SpscByteRing` — a lock-light single-producer/single-consumer
  byte ring with cached head/tail indices, laid out over either a plain
  ``bytearray`` (thread producer) or a
  ``multiprocessing.shared_memory`` segment (process producer).  Records
  are framed ``(n_samples, n_bytes, payload)`` and never wrap the ring
  edge, so every payload the consumer sees is one contiguous view that
  feeds ``np.frombuffer``/``decode_block`` zero-copy.
* :class:`ProducerLink` — wraps a :class:`VirtualSerialLink` (or
  :class:`~repro.transport.faults.FaultySerialLink`) and runs
  ``pump_samples`` in :data:`DEFAULT_BATCH`-sample batches from a
  producer *thread* or forked *process* into the ring; the consumer's
  ``pump_samples(n)`` only assembles ring views.  It is the ring's one
  consumer: the direct path has no producer.

Determinism: device simulation is chunking-invariant (every scan time is
laid out by index from the stream origin, and each sensor's noise draws
one normal per scan), so on a clean stream both producer modes are
byte-identical to the plain link for any sequence of reads.  Fault
models draw per link read and the producer reads the link in batches,
so a faulted stream is identical across producer modes, not to the
plain link.  Producer mode is opt-in (``sim://...?producer=thread``).

Lifecycle: a producer that crashes or is stopped mid-stream marks the
ring end-of-stream, so the consumer's next read returns empty and the
existing :class:`~repro.common.retry.RecoveryPolicy` /
``StreamStalledError`` machinery takes over — no hangs.  ``close()``
always joins the worker and unlinks the shared segment.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from collections import deque
from typing import Callable

from repro.common.errors import ConfigurationError, DeviceError
from repro.firmware.commands import Command

#: Samples per producer batch.  Large enough that per-batch Python
#: overhead amortises to noise; small enough that a marker forwarded to
#: the producer lands within a few hundred milliseconds of stream time.
DEFAULT_BATCH = 8192

#: Ring capacity in bytes (~29 batches of 4-pair wire data).
DEFAULT_RING_BYTES = 1 << 22

#: Producer modes.  ``auto`` resolves to ``process`` on multi-core hosts
#: with ``fork`` available, else ``thread``.
PRODUCER_MODES = ("thread", "process", "auto")

_HEADER = 64  # head u64 | tail u64 | samples u64 | state u8, padded
_PAD = 0xFFFFFFFF  # n_samples sentinel: skip to the ring edge
_CMD_STOP = "stop"
_CMD_MARK = "mark"
_POLL_S = 25e-6  # consumer/producer poll sleep while waiting on the ring
_STALL_S = 5.0  # consumer wait on an empty ring before a short read
_JOIN_S = 10.0  # worker join timeout before escalating


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _noise_models(baseboard) -> list:
    """Every sensor's stateful noise model on ``baseboard``, in slot order."""
    return [
        sensor._noise
        for channel in baseboard.populated_slots()
        for sensor in (channel.module.current_sensor, channel.module.voltage_sensor)
    ]


def _restore(objects, states) -> None:
    """Overwrite each object's attributes with a forked producer's copy."""
    for obj, state in zip(objects, states):
        vars(obj).update(state)


def resolve_producer_mode(mode: str) -> str:
    """Resolve a ``producer=`` option to a concrete mode."""
    mode = str(mode).strip().lower()
    if mode not in PRODUCER_MODES:
        raise ConfigurationError(
            f"unknown producer mode {mode!r} (expected one of {PRODUCER_MODES})"
        )
    if mode != "auto":
        return mode
    if hasattr(os, "fork") and (os.cpu_count() or 1) > 1:
        return "process"
    return "thread"


class SpscByteRing:
    """Single-producer/single-consumer byte ring over a shared buffer.

    The first :data:`_HEADER` bytes hold the published head (producer
    write index), tail (consumer read index), a cumulative
    samples-pushed counter and an end-of-stream flag; indices are
    monotonic byte counts, position = index mod capacity.  Producer and
    consumer each cache the other side's index and re-load it only when
    the cached value would block — the "lock-light" part: the common
    push/pop costs two 8-byte header writes and no locks.

    Records are framed ``u32 n_samples | u32 n_bytes | payload``, start
    8-byte aligned, and never wrap the edge: a record that would wrap is
    preceded by a pad sentinel and starts at offset 0, so every payload
    is one contiguous slice of the data region.

    :meth:`pop` advances a private read position without publishing it;
    returned views stay valid until :meth:`release`, which publishes the
    tail in one step.  That lets a consumer decode straight out of the
    ring and only then let the producer reuse the space.
    """

    def __init__(self, buf, *, reset: bool = True) -> None:
        view = memoryview(buf).cast("B")
        if len(view) <= _HEADER + 64:
            raise ValueError(f"ring buffer too small ({len(view)} bytes)")
        self._buf = view
        self._data = view[_HEADER:]
        self.capacity = len(view) - _HEADER
        if reset:
            view[:_HEADER] = bytes(_HEADER)
        # Producer-local state (exact; only the producer writes head).
        self._head_local = self._load(0)
        self._samples_local = self._load(16)
        self._cached_tail = self._load(8)
        # Consumer-local state (exact; only the consumer writes tail).
        self._read_local = self._load(8)
        self._cached_head = self._load(0)

    # -- header accessors ---------------------------------------------- #

    def _load(self, offset: int) -> int:
        return struct.unpack_from("<Q", self._buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        struct.pack_into("<Q", self._buf, offset, value)

    @property
    def eos(self) -> bool:
        return self._buf[24] != 0

    def mark_eos(self) -> None:
        self._buf[24] = 1

    @property
    def samples_pushed(self) -> int:
        """Total samples ever pushed (survives a producer crash)."""
        return self._load(16)

    def occupancy(self) -> int:
        """Published bytes currently buffered (head - tail)."""
        return self._load(0) - self._load(8)

    # -- producer side -------------------------------------------------- #

    def try_push(self, payload, n_samples: int) -> bool:
        """Append one record; False (nothing written) if the ring is full."""
        nbytes = len(payload)
        rec = _align8(8 + nbytes)
        if rec + 8 > self.capacity // 2:
            raise ValueError(
                f"record of {nbytes} bytes does not fit a {self.capacity}-byte ring"
            )
        head = self._head_local
        off = head % self.capacity
        gap = self.capacity - off
        need = rec if rec <= gap else gap + rec
        if need > self.capacity - (head - self._cached_tail):
            self._cached_tail = self._load(8)
            if need > self.capacity - (head - self._cached_tail):
                return False
        if rec > gap:
            if gap >= 8:  # a sub-header gap is skipped implicitly by pop()
                struct.pack_into("<II", self._data, off, _PAD, 0)
            head += gap
            self._store(0, head)
            off = 0
        struct.pack_into("<II", self._data, off, n_samples, nbytes)
        if nbytes:
            self._data[off + 8 : off + 8 + nbytes] = payload
        head += rec
        self._samples_local += n_samples
        self._store(16, self._samples_local)
        self._store(0, head)  # publish last: payload is fully written
        self._head_local = head
        return True

    # -- consumer side -------------------------------------------------- #

    def pop(self):
        """Next record as ``(payload_view, n_samples)``, or None if empty.

        The view stays valid until :meth:`release`; call sites must drop
        it before the ring is released/detached.
        """
        pos = self._read_local
        while True:
            if pos == self._cached_head:
                self._cached_head = self._load(0)
                if pos == self._cached_head:
                    return None
            off = pos % self.capacity
            gap = self.capacity - off
            if gap < 8:
                pos += gap
                continue
            n_samples, nbytes = struct.unpack_from("<II", self._data, off)
            if n_samples == _PAD:
                pos += gap
                continue
            self._read_local = pos + _align8(8 + nbytes)
            return self._data[off + 8 : off + 8 + nbytes], n_samples

    def release(self) -> None:
        """Publish the consumer position: popped records become reusable."""
        self._store(8, self._read_local)

    def detach(self) -> None:
        """Release the memoryviews (required before closing shared memory)."""
        self._data.release()
        self._buf.release()


class _Stop(Exception):
    """Internal: the producer loop was asked to stop."""


def _producer_loop(
    ring: SpscByteRing,
    pump: Callable[[int], bytes],
    batch: int,
    poll_cmd: Callable[[], str | None],
    handle_cmd: Callable[[str], None],
) -> str | None:
    """Shared producer body: pump batches into the ring until stopped.

    Commands are read only between pumping a batch and pushing it, so a
    producer always stops holding exactly one batch it did not push: a
    producer blocked on a full ring has produced the same stream in
    either mode when STOP arrives.  Returns an error string if the pump
    raised (the ring is marked end-of-stream either way, so the consumer
    never hangs).
    """
    error: str | None = None
    try:
        while True:
            payload = pump(batch)
            while True:
                cmd = poll_cmd()
                while cmd is not None:
                    if cmd == _CMD_STOP:
                        raise _Stop
                    handle_cmd(cmd)
                    cmd = poll_cmd()
                if ring.try_push(payload, batch):
                    break
                time.sleep(_POLL_S)
    except _Stop:
        pass
    except BaseException as exc:  # propagate as stream-end + recorded error
        error = f"{type(exc).__name__}: {exc}"
    finally:
        ring.mark_eos()
    return error


class _RingWorker:
    """Owns one producer worker (thread or forked process) and its ring.

    The batch and ring sizes are :data:`DEFAULT_BATCH` and
    :data:`DEFAULT_RING_BYTES`, read when the worker is created.
    """

    def __init__(
        self,
        mode: str,
        pump: Callable[[int], bytes],
        handle_cmd: Callable[[str], None],
        collect_state: Callable[[], dict],
    ) -> None:
        self.mode = mode
        self.batch = DEFAULT_BATCH
        self._pump = pump
        self._handle_cmd = handle_cmd
        self._collect_state = collect_state
        self.error: str | None = None
        self.final_state: dict | None = None
        self._shm = None
        self._thread: threading.Thread | None = None
        self._process = None
        self._parent_conn = None
        self._cmds: deque[str] = deque()
        size = _HEADER + DEFAULT_RING_BYTES
        if mode == "process":
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self.ring = SpscByteRing(self._shm.buf)
        else:
            self.ring = SpscByteRing(bytearray(size))

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> None:
        if self.mode == "thread":
            self._thread = threading.Thread(
                target=self._thread_main, name="ps-producer", daemon=True
            )
            self._thread.start()
            return
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platforms
            raise ConfigurationError(
                "producer=process requires the fork start method; use producer=thread"
            ) from exc
        self._parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=self._process_main, args=(child_conn,), daemon=True
        )
        self._process.start()
        child_conn.close()

    def _thread_main(self) -> None:
        cmds = self._cmds
        self.error = _producer_loop(
            self.ring,
            self._pump,
            self.batch,
            lambda: cmds.popleft() if cmds else None,
            self._handle_cmd,
        )

    def _process_main(self, conn) -> None:
        def poll_cmd() -> str | None:
            return conn.recv() if conn.poll() else None

        error = _producer_loop(self.ring, self._pump, self.batch, poll_cmd, self._handle_cmd)
        try:
            state = self._collect_state()
        except Exception:  # state sync is best-effort
            state = {}
        try:
            conn.send({"error": error, "state": state})
            conn.close()
        except (OSError, ValueError):  # parent already gone
            pass

    # -- parent-side control -------------------------------------------- #

    def send(self, cmd: str) -> None:
        if self.mode == "thread":
            self._cmds.append(cmd)
        elif self._parent_conn is not None:
            try:
                self._parent_conn.send(cmd)
            except (OSError, ValueError, BrokenPipeError):  # worker already dead
                pass

    def alive(self) -> bool:
        if self.mode == "thread":
            return self._thread is not None and self._thread.is_alive()
        return self._process is not None and self._process.is_alive()

    def drain_state(self) -> None:
        """Collect a forked worker's error/final state once it has exited.

        A thread producer ran on the parent's own objects: nothing to
        collect.
        """
        if self.mode == "thread":
            return
        if self._parent_conn is None or self.final_state is not None:
            return
        try:
            if self._parent_conn.poll(0.5):
                result = self._parent_conn.recv()
                self.final_state = result.get("state") or {}
                self.error = self.error or result.get("error")
        except (OSError, ValueError, EOFError):
            self.final_state = {}

    def stop(self) -> None:
        """Stop the worker: signal, join, escalate to terminate; never hang."""
        self.send(_CMD_STOP)
        if self.mode == "thread" and self._thread is not None:
            self._thread.join(timeout=_JOIN_S)
            self._thread = None
        elif self.mode == "process" and self._process is not None:
            self._process.join(timeout=_JOIN_S)
            if self._process.is_alive():  # pragma: no cover - stuck producer
                self._process.terminate()
                self._process.join(timeout=_JOIN_S)
            self.drain_state()
            self._process = None
        self.ring.mark_eos()

    def close(self) -> None:
        """Join the worker and unlink the shared segment (idempotent)."""
        self.stop()
        if self._parent_conn is not None:
            try:
                self._parent_conn.close()
            except OSError:
                pass
            self._parent_conn = None
        if self._shm is not None:
            self.ring.release()
            try:
                self.ring.detach()
            except BufferError:  # a consumer view is still referenced
                import gc

                gc.collect()
                self.ring.detach()
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            self._shm = None


class ProducerLink:
    """A serial link whose device simulation runs in a producer worker.

    Wraps the :class:`~repro.transport.link.VirtualSerialLink` surface.
    Before streaming starts everything passes through, so the handshake
    (version, EEPROM reads) is byte-identical to the bare link.
    ``START_STREAMING`` arms the producer; the worker itself launches at
    the first read (so a forked child snapshots the fully wired bench,
    not whatever half-built state existed at START) and then pumps
    :data:`DEFAULT_BATCH`-sample blocks into the ring; the consumer's
    :meth:`pump_samples` assembles whole-record ring views — a read of
    exactly one batch is zero-copy into decode.  ``MARKER`` is forwarded
    to the producer (it lands at batch granularity); ``STOP_STREAMING``
    joins the worker and, for a forked producer, syncs the device state
    (clock, markers, sensor noise, fault generator) back to the parent.
    Any other command while the producer runs raises
    :class:`DeviceError`, matching the firmware's own
    cannot-while-streaming rules.

    The buffer returned by :meth:`pump_samples` is valid until the next
    call (ring space is only released then).
    """

    def __init__(self, link, producer: str = "auto") -> None:
        self.link = link
        self.mode = resolve_producer_mode(producer)
        self._armed = False  # START seen; worker launches on the first read
        self._worker: _RingWorker | None = None
        self._carry: tuple[bytes, int] | None = None
        self.producer_error: str | None = None

    # -- pass-through surface ------------------------------------------- #

    @property
    def firmware(self):
        return self.link.firmware

    @property
    def in_waiting(self) -> int:
        return self.link.in_waiting

    @property
    def is_open(self) -> bool:
        return self.link.is_open

    @property
    def producing(self) -> bool:
        """True between START and STOP (the worker itself launches lazily)."""
        return self._armed or self._worker is not None

    @property
    def ring(self) -> SpscByteRing | None:
        return self._worker.ring if self._worker is not None else None

    def utilization(self) -> float:
        return self.link.utilization()

    def __getattr__(self, name: str):
        # Unknown attributes (injected(), models, bandwidth_bps, ...)
        # resolve against the wrapped link, so the wrapper stays a
        # drop-in for FaultySerialLink-aware callers.
        if name == "link":
            raise AttributeError(name)
        return getattr(self.link, name)

    def read(self, n: int | None = None) -> bytes:
        if self._worker is not None:
            raise DeviceError("cannot issue control reads while the producer is running")
        return self.link.read(n)

    def write(self, data: bytes) -> None:
        if self._worker is None:
            # Not launched yet (streaming may be armed, but the first
            # read hasn't happened): the parent still owns the firmware,
            # so every command goes straight through — including markers
            # written between START and the first read, which the worker
            # inherits with the rest of the device state at launch.
            self.link.write(data)
            if data == Command.START_STREAMING.value:
                self._armed = True
                self._carry = None
                self.producer_error = None
            elif data == Command.STOP_STREAMING.value:
                self._armed = False
            return
        if data == Command.MARKER.value:
            self._worker.send(_CMD_MARK)
            return
        if data == Command.STOP_STREAMING.value:
            self._stop()
            self.link.write(data)
            return
        if data == Command.START_STREAMING.value:
            return  # already streaming; a duplicate START is a no-op
        raise DeviceError(
            "only marker/stop commands are valid while the producer is running"
        )

    # -- producer lifecycle --------------------------------------------- #

    def _launch(self) -> _RingWorker:
        """Create and start the worker (deferred to the first read).

        Launching lazily matters for the forked producer: the bench may
        keep wiring itself up after START (``build_bench`` connects the
        DUT rail after the PowerSensor starts streaming), and a child
        forked at START would snapshot that half-assembled state.  At the
        first read the device is in its final shape by definition.
        """
        self._carry = None
        worker = _RingWorker(
            self.mode,
            self.link.pump_samples,
            self._apply_command,
            self._collect_child_state,
        )
        self._worker = worker
        worker.start()
        return worker

    def _apply_command(self, cmd: str) -> None:
        # Runs in the producer (thread or forked process): commands apply
        # between batches, against the producer's firmware.
        if cmd == _CMD_MARK:
            self.link.write(Command.MARKER.value)

    def _collect_child_state(self) -> dict:
        """Runs in the forked child at exit: state to sync to the parent."""
        firmware = self.link.firmware
        state = {
            "samples_produced": firmware.samples_produced,
            "markers_pending": firmware._markers_pending,
            "markers_dropped": firmware.markers_dropped,
            "noise": [vars(noise) for noise in _noise_models(firmware.baseboard)],
        }
        models = getattr(self.link, "models", None)
        if models is not None:
            state["fault_rng"] = self.link.rng.bit_generator.state
            state["models"] = [vars(model) for model in models]
        return state

    def _sync_from_child(self, worker: _RingWorker) -> None:
        """Fold the forked producer's device state back into the parent.

        The parent's device did not run while the child produced: its
        clock, sample counter, marker queue, sensor noise and fault
        generator are stale.  The child reports them at exit, so a
        restarted stream continues exactly as a thread producer's would.
        After a crash the ring's samples-pushed counter still lets the
        clock advance, so time never goes backwards across a restart.
        """
        state = worker.final_state
        firmware = self.link.firmware
        if not state:  # crashed: only the ring's sample count survives
            pushed = worker.ring.samples_pushed
            state = {"samples_produced": firmware.samples_produced + pushed}
        delta = int(state["samples_produced"]) - firmware.samples_produced
        if delta > 0:
            firmware.clock.tick(delta)
            firmware.samples_produced += delta
        if "noise" in state:  # the child exited normally
            firmware._markers_pending = state["markers_pending"]
            firmware.markers_dropped = state["markers_dropped"]
            _restore(_noise_models(firmware.baseboard), state["noise"])
        if "models" in state:
            self.link.rng.bit_generator.state = state["fault_rng"]
            _restore(self.link.models, state["models"])
            self.link._mirror_injected()

    def _stop(self) -> None:
        self._armed = False
        worker = self._worker
        if worker is None:
            return
        self._worker = None
        self._carry = None
        worker.stop()
        self.producer_error = worker.error
        if self.mode == "process":
            # Sync before close(): after a crash the fallback reads the
            # ring's samples-pushed counter, and close() detaches it.
            self._sync_from_child(worker)
        worker.close()

    # -- consumer read path --------------------------------------------- #

    def _next_record(self, worker: _RingWorker):
        ring = worker.ring
        record = ring.pop()
        if record is not None:
            return record
        deadline = time.monotonic() + _STALL_S
        while True:
            record = ring.pop()
            if record is not None:
                return record
            if ring.eos or not worker.alive():
                # Crashed/stopped producer: surface as an empty read so
                # RecoveryPolicy/StreamStalledError handles it upstream.
                worker.drain_state()
                self.producer_error = self.producer_error or worker.error
                return None
            if time.monotonic() > deadline:
                return None
            time.sleep(_POLL_S)

    def pump_samples(self, n_samples: int):
        """Assemble ring records covering exactly ``n_samples`` of stream time.

        Records are split at the nominal bytes-per-sample boundary when
        they cover more than the remaining request; the byte tail and the
        sample residue are carried (independently — a lossy record can
        leave sample coverage with no bytes) so every call consumes
        exactly ``n_samples`` of coverage while the ring has data.
        Decoding is pinned chunking-invariant, so the reassembled stream
        is byte-for-byte the producer's regardless of split points.  A
        read of exactly one whole record returns the ring view zero-copy.
        """
        worker = self._worker
        if worker is None:
            if not self._armed:
                return self.link.pump_samples(n_samples)
            if n_samples <= 0:
                return b""
            worker = self._launch()
        if n_samples <= 0:
            return b""
        worker.ring.release()  # views from the previous call die here
        bps = self.link.firmware.bytes_per_sample()
        parts: list = []
        covered = 0
        record = self._carry
        self._carry = None
        while True:
            if record is None:
                if covered >= n_samples:
                    break
                record = self._next_record(worker)
                if record is None:
                    break  # producer gone/stalled: short read, recovery upstream
            payload, samples = record
            record = None
            remaining = n_samples - covered
            if samples > remaining:
                take = min(remaining * bps, len(payload))
                if take:
                    head = payload[:take]
                    parts.append(head if isinstance(head, bytes) else bytes(head))
                self._carry = (bytes(payload[take:]), samples - remaining)
                covered = n_samples
            else:
                if len(payload):
                    parts.append(payload)
                covered += samples
        if len(parts) == 1 and isinstance(parts[0], memoryview):
            return parts[0]  # zero-copy straight into decode
        return b"".join(parts)

    def close(self) -> None:
        self._stop()
        self.link.close()
