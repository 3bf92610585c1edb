"""Outside-in span tracing for the benchmark.

The program is never edited to be traced.  Instead :class:`Tracer` wraps
public entry points of the program's layers -- methods on classes,
functions in modules -- inside the benchmark process only, records one
span per call while tracing is active, and restores every original
attribute on :meth:`Tracer.unwrap`.

Spans nest through a per-thread stack.  A span opened on a thread whose
stack is empty (the psserve event-loop thread, say) is adopted by the
innermost span open on the main thread, so work the main thread waits
for is charged to the call it waits in.  A layer's *self time* is its
spans' durations minus the durations of their direct children; summed
over every span name it equals the summed duration of the root spans,
which the benchmark opens around each operation it times.

Spans are kept in memory as flat arrays and exported, stdlib only, as
Chrome trace-event JSON (``chrome://tracing``, Perfetto).
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

#: Name of the span the benchmark opens around each timed operation;
#: its self time is the wall time no layer span covers.
ROOT = "bench"
#: Spans exported to the Chrome trace file (about 100 bytes each).
CHROME_TRACE_SPANS = 200_000


class Tracer:
    """Records spans around wrapped calls while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.threads = array("q")
        self.counters: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Open a span on the calling thread; returns its index."""
        stack = self._stack()
        start = time.perf_counter()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            index = len(self.names)
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(math.nan)
            self.parents.append(parent)
            self.threads.append(threading.get_ident())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, counter: str, value: float) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] += value

    def reset(self) -> None:
        """Forget every recorded span and counter."""
        with self._lock:
            self.names = []
            self.starts = array("d")
            self.ends = array("d")
            self.parents = array("q")
            self.threads = array("q")
            self.counters = defaultdict(float)

    # ------------------------------------------------------------------ #
    # Wrapping                                                           #
    # ------------------------------------------------------------------ #

    def wrap(self, owner, attr: str, name, after=None, span: bool = True) -> bool:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name, or a callable mapping the call's first
        argument (``self`` for methods) to one.  ``after(tracer, args,
        kwargs, result)`` runs after each traced call, e.g. to count
        bytes.  ``span=False`` only runs ``after``.  Returns False, and
        wraps nothing, when ``owner`` has no such attribute -- a renamed
        entry point then reads zero instead of breaking the run.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        tracer = self
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if span:
                index = tracer.open(naming(args[0]) if naming else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)
        return True

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Results                                                            #
    # ------------------------------------------------------------------ #

    def records(self) -> list[tuple[str, float, float, int]]:
        """Closed spans as ``(name, start, end, parent)`` tuples."""
        return [
            (self.names[i], self.starts[i], self.ends[i], self.parents[i])
            for i in range(len(self.names))
        ]

    def chrome_trace(self) -> dict:
        """The first spans (up to a size cap) as a Chrome trace-event document."""
        events = []
        origin = self.starts[0] if len(self.starts) else 0.0
        for i in range(min(len(self.names), CHROME_TRACE_SPANS)):
            if math.isnan(self.ends[i]):
                continue
            events.append(
                {
                    "name": self.names[i],
                    "cat": self.names[i].split(".")[0],
                    "ph": "X",
                    "ts": (self.starts[i] - origin) * 1e6,
                    "dur": (self.ends[i] - self.starts[i]) * 1e6,
                    "pid": 0,
                    "tid": self.threads[i],
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


def self_times(records) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time, per-name call count, and the root wall time.

    ``records`` are ``(name, start, end, parent)`` tuples whose parent
    is an index into ``records`` or -1.  A span's self time is its
    duration minus its direct children's durations; the root wall is
    the summed duration of parentless spans, which the self times add
    up to exactly when children stay inside their parents.
    """
    durations = [end - start for _, start, end, _ in records]
    child = [0.0] * len(records)
    wall = 0.0
    for i, (_, _, _, parent) in enumerate(records):
        if parent >= 0:
            child[parent] += durations[i]
        else:
            wall += durations[i]
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, _, _, _) in enumerate(records):
        selfs[name] += durations[i] - child[i]
        calls[name] += 1
    return dict(selfs), dict(calls), wall


def inclusive_time(records, name: str) -> float:
    """Summed duration of the outermost spans called ``name``."""
    total = 0.0
    for name_i, start, end, parent in records:
        if name_i != name:
            continue
        outer = True
        while parent >= 0:
            if records[parent][0] == name:
                outer = False
                break
            parent = records[parent][3]
        if outer:
            total += end - start
    return total


def format_table(metrics: dict[str, float], units: dict[str, str], wall: float) -> str:
    """Render per-layer metrics; self times get their share of ``wall``."""
    lines = []
    for name, value in metrics.items():
        share = ""
        if wall > 0 and (name.endswith(".self_s") or name == f"{ROOT}.other_s"):
            share = f"{100.0 * value / wall:6.1f}%"
        lines.append(f"  {name:<34} {value:>16.6g} {units[name]:<8} {share}")
    return "\n".join(lines)
