"""Zero-dependency trace spans over the monotonic clock.

A span is a timed region of the pipeline — one decode call, one pump
iteration, one PMT read.  :class:`Tracer` hands out context-manager
spans, keeps a per-thread stack so nested spans know their parent, and
folds every completed span into the shared
:class:`~repro.observability.registry.MetricsRegistry`:

* ``span_seconds{span=<name>, ...labels}`` — duration histogram,
* ``spans_total{span=<name>}`` — completion counter.

The most recent completions are retained as :class:`SpanRecord` rows
(bounded deque) for exporters and diagnostics.  Timing uses
``time.perf_counter`` — monotonic, immune to wall-clock steps.

When the registry is disabled the tracer returns one shared no-op span:
entering and leaving it costs two method calls and no clock reads,
which is what keeps instrumented hot paths within their overhead
budget.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.observability.registry import Counter, Histogram, MetricsRegistry

#: Span-duration buckets: 100 ns to 10 s.
SPAN_BUCKETS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


@dataclass
class SpanRecord:
    """One completed span, as retained for export."""

    name: str
    parent: str | None
    start: float  # perf_counter seconds (monotonic, arbitrary epoch)
    duration: float
    labels: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "duration": self.duration,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Span:
    """A live timed region; use as a context manager."""

    __slots__ = ("name", "labels", "start", "duration", "parent", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, labels: dict[str, str]):
        self._tracer = tracer
        self.name = name
        self.labels = labels
        self.start = 0.0
        self.duration: float | None = None
        self.parent: str | None = None

    def relabel(self, **labels) -> None:
        """Adjust labels before the span closes (e.g. the decode tier
        is only known after the template attempt)."""
        self.labels.update({k: str(v) for k, v in labels.items()})

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.duration = time.perf_counter() - self.start
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._record(self)


class _NullSpan:
    """Shared no-op span handed out when observability is disabled."""

    __slots__ = ()
    name = ""
    parent = None
    start = 0.0
    duration = None
    labels: dict[str, str] = {}

    def relabel(self, **labels) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Factory for spans bound to one metrics registry."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_records: int = 256,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._records: deque[SpanRecord] = deque(maxlen=max_records)
        self._local = threading.local()
        # (span_seconds, spans_total) by (name, final labels): the registry
        # never drops a metric, so a span finds its two metrics once.
        self._handles: dict[tuple, tuple[Histogram, Counter]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **labels):
        """Open a span; ``with tracer.span("decode", tier="template"): ...``."""
        if not self.registry.enabled:
            return NULL_SPAN
        return Span(self, name, {k: str(v) for k, v in labels.items()})

    def _record(self, span: Span) -> None:
        key = (span.name, tuple(span.labels.items()))
        handles = self._handles.get(key)
        if handles is None:
            handles = self._handles[key] = (
                self.registry.histogram(
                    "span_seconds",
                    buckets=SPAN_BUCKETS,
                    help="duration of traced pipeline regions",
                    span=span.name,
                    **span.labels,
                ),
                self.registry.counter(
                    "spans_total", help="completed trace spans", span=span.name
                ),
            )
        seconds, total = handles
        seconds.observe(span.duration)
        total.inc()
        self._records.append(
            SpanRecord(
                name=span.name,
                parent=span.parent,
                start=span.start,
                duration=span.duration,
                labels=dict(span.labels),
            )
        )

    def records(self) -> list[SpanRecord]:
        """The most recent completed spans, oldest first."""
        return list(self._records)
