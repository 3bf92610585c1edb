"""The shared broadcast ring: encode each frame once, fan out by cursor.

Each device stream owns one append-only :class:`BroadcastRing` of
encoded frames, and every subscriber holds a :class:`RingCursor` — an
integer position into that ring — instead of a private frame queue.
Fan-out cost per tick is one encode plus N integer compares; the frame
bytes are shared (``bytes`` is immutable) all the way into each socket
write.

Backpressure policies are cursor policies:

* ``block`` — the ring never evicts a frame an unconsumed block cursor
  still needs; the *pump* flow-controls (waits, bounded by the client
  timeout) until the slowest cursor advances, then evicts the laggard.
  The ring itself stays policy-agnostic: the daemon enforces this by
  checking :meth:`RingCursor.overrun` before appending.
* ``drop-oldest`` — the ring evicts past capacity; a cursor that falls
  behind ``tail`` jumps forward and accounts the hole in
  :attr:`~RingCursor.lost_frames` / :attr:`~RingCursor.lost_samples`
  (gap accounting — the client sees the matching sequence-number gap).
* ``downsample`` — under pressure (lag beyond half the ring) the cursor
  consumes every second frame, halving the delivered rate until it
  catches up; skipped frames are counted separately from evicted ones.

Everything here is plain single-threaded bookkeeping: the daemon's event
loop is the only writer and the only reader, so there are no locks.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ConfigurationError

#: Backpressure policies a subscriber's cursor can follow.
POLICIES = ("block", "drop-oldest", "downsample")


class BroadcastRing:
    """Append-only bounded ring of encoded frames with absolute indices.

    Positions are absolute monotonically increasing frame indices:
    ``tail`` is the oldest retained frame, ``head`` the index the *next*
    append will get.  ``encodes`` counts every append — it is the
    "each frame encoded exactly once" witness the benchmarks assert on.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: deque[tuple[bytes, int]] = deque()
        self.head = 0  # absolute index of the next append
        self.tail = 0  # absolute index of the oldest retained frame
        self.seq = 0  # wire sequence counter for this stream
        self.encodes = 0  # frames ever appended (== encode count)
        self.samples_appended = 0  # cumulative samples over all appends
        self.samples_evicted = 0  # cumulative samples in evicted frames

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Frames currently retained (``head - tail``)."""
        return self.head - self.tail

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def append(self, frame: bytes, samples: int) -> int:
        """Append one encoded frame covering ``samples`` samples.

        Returns the frame's absolute index.  Evicts from the tail past
        ``capacity`` — under the ``block`` policy the caller must have
        flow-controlled first so no live cursor still needs the tail.
        """
        index = self.head
        self._entries.append((frame, int(samples)))
        self.head += 1
        self.encodes += 1
        self.samples_appended += int(samples)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popleft()
            self.tail += 1
            self.samples_evicted += evicted
        return index

    def entry(self, index: int) -> tuple[bytes, int]:
        """The ``(frame, samples)`` entry at absolute ``index``."""
        if not self.tail <= index < self.head:
            raise IndexError(
                f"frame {index} not retained (tail={self.tail}, head={self.head})"
            )
        return self._entries[index - self.tail]


class RingCursor:
    """One subscriber's position into a :class:`BroadcastRing`.

    The cursor carries the policy-specific loss accounting:
    ``lost_frames``/``lost_samples`` are frames the ring evicted before
    this cursor consumed them (``drop-oldest`` pressure — the "evicted"
    kind), ``skipped_frames``/``skipped_samples`` are frames the
    ``downsample`` policy deliberately thinned.  ``dropped`` is their
    sum: exactly one increment per frame this subscriber lost.
    """

    def __init__(self, ring: BroadcastRing, policy: str = "block") -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown cursor policy {policy!r} (choose from {POLICIES})"
            )
        self.ring = ring
        self.policy = policy
        self.pos = ring.head
        # Cumulative samples in frames with index < pos (consumed or lost);
        # referenced against ring.samples_evicted when the cursor is lapped
        # so gap accounting stays exact without retaining evicted entries.
        self._cum = ring.samples_appended
        self.taken_frames = 0
        self.taken_samples = 0
        self.lost_frames = 0
        self.lost_samples = 0
        self.skipped_frames = 0
        self.skipped_samples = 0
        self._skip_phase = False

    @property
    def lag(self) -> int:
        """Frames appended but not yet consumed (or lost) by this cursor."""
        return self.ring.head - self.pos

    @property
    def dropped(self) -> int:
        """Frames this subscriber lost — one increment per lost frame."""
        return self.lost_frames + self.skipped_frames

    def overrun(self) -> bool:
        """True when the next append would evict a frame this cursor needs."""
        return self.lag >= self.ring.capacity

    def rebase(self) -> None:
        """Jump to the live edge without loss accounting (START/restart)."""
        self.pos = self.ring.head
        self._cum = self.ring.samples_appended

    def _catch_up(self) -> None:
        """Account any frames the ring evicted past this cursor."""
        ring = self.ring
        if self.pos < ring.tail:
            self.lost_frames += ring.tail - self.pos
            self.lost_samples += ring.samples_evicted - self._cum
            self._cum = ring.samples_evicted
            self.pos = ring.tail

    def take(self, limit: int | None = None) -> list[tuple[bytes, int]]:
        """Consume up to ``limit`` ready frames, applying the policy.

        Returns ``(frame, samples)`` pairs in stream order.  Never
        blocks: an empty list means the cursor is at the live edge.
        """
        self._catch_up()
        ring = self.ring
        out: list[tuple[bytes, int]] = []
        while self.pos < ring.head and (limit is None or len(out) < limit):
            frame, samples = ring.entry(self.pos)
            pressured = self.lag > ring.capacity // 2
            self.pos += 1
            self._cum += samples
            if self.policy == "downsample" and pressured:
                self._skip_phase = not self._skip_phase
                if self._skip_phase:
                    self.skipped_frames += 1
                    self.skipped_samples += samples
                    continue
            out.append((frame, samples))
            self.taken_frames += 1
            self.taken_samples += samples
        return out
