"""Structured tracing and counters for the evaluation stack.

The paper's complexity theorems are statements about *quantities* —
materialised domain cardinalities ``|dom(T, D)|`` (hyperexponential in
general, Section 2), quantifier product sizes, fixpoint stage counts
(Definition 3.1), and range sizes under restricted evaluation
(Theorem 5.1).  This module makes those quantities observable:

* :class:`Tracer` — collects a tree of timed :class:`Span` objects with
  point-in-time :class:`Event` records hanging off them, plus a flat
  ``counters`` dict of monotonic counts and last-write gauges.
* :data:`NULL_TRACER` — a no-op :class:`NullTracer` singleton that is
  the module-level default, so instrumentation call sites cost one
  attribute check when tracing is off.
* :func:`use_tracer` / :func:`get_tracer` — install a live tracer for a
  dynamic extent; every instrumented engine resolves the active tracer
  at evaluation time, so callers never have to thread it explicitly.

Zero dependencies by design: only ``time.perf_counter`` and stdlib
containers.  Rendering and JSON export live in :mod:`repro.obs.render`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from .metrics import MetricsRegistry

__all__ = [
    "Event",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

#: Default cap on recorded events across a whole trace; beyond it events
#: are counted in ``Tracer.dropped_events`` instead of stored, so a
#: million-stage fixpoint cannot exhaust memory through its own trace.
DEFAULT_MAX_EVENTS = 100_000


class Event:
    """A point-in-time record inside a span (e.g. one fixpoint stage)."""

    __slots__ = ("name", "attrs", "time")

    def __init__(self, name: str, attrs: dict[str, Any], at: float):
        self.name = name
        self.attrs = attrs
        self.time = at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r}, {self.attrs!r})"


class Span:
    """A timed region of evaluation (a query, a fixpoint, an operator).

    Beyond the timing fields, a span knows its ``parent`` (None only for
    the root), carries a ``status`` (``"ok"``, or ``"aborted"`` when an
    exception unwound through it), and — when the tracer runs with
    ``memory=True`` — per-span allocation accounting from
    :class:`repro.obs.memory.MemoryAttributor`:

    * ``alloc_bytes`` — net bytes retained across the span (cumulative,
      children included);
    * ``self_alloc_bytes`` — ``alloc_bytes`` minus the children's, i.e.
      what this span's own code retained;
    * ``peak_bytes`` — the high-water mark of traced bytes above the
      span's opening level (cumulative).
    """

    __slots__ = ("name", "attrs", "start", "end", "children", "events",
                 "parent", "status", "alloc_bytes", "self_alloc_bytes",
                 "peak_bytes")

    def __init__(self, name: str, attrs: dict[str, Any], start: float,
                 parent: Span | None = None):
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self.events: list[Event] = []
        self.parent = parent
        self.status = "ok"
        self.alloc_bytes: int | None = None
        self.self_alloc_bytes: int | None = None
        self.peak_bytes: int | None = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes after the span has been opened (e.g. row
        counts known only once the region finished)."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Wall seconds; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Wall seconds spent in this span minus its closed children —
        the span's own share of the cumulative time."""
        own = self.duration - sum(child.duration for child in self.children)
        return own if own > 0.0 else 0.0

    def walk(self) -> Iterator[Span]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.attrs!r}, children={len(self.children)})"


class Tracer:
    """Collects spans, events, and counters for one traced extent.

    Counters are a flat ``name -> number`` dict; :meth:`count` adds
    (monotonic counters), :meth:`gauge` overwrites (last-write gauges
    such as per-type domain cardinalities), :meth:`gauge_max` keeps the
    high watermark (peak working-set rows).  :meth:`observe` records
    into a log-bucketed histogram in ``metrics``
    (:class:`repro.obs.metrics.MetricsRegistry`) instead: distributions
    are not single numbers.  The span tree hangs off ``root``, an
    implicit span opened at construction.
    """

    enabled = True

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS,
                 memory: bool = False, stream: Any = None):
        self.root = Span("trace", {}, time.perf_counter())
        self.counters: dict[str, int | float] = {}
        self.metrics = MetricsRegistry()
        self.max_events = max_events
        self.dropped_events = 0
        self.last_beat = time.monotonic()
        self._stack: list[Span] = [self.root]
        self._n_events = 0
        self.memory = None
        if memory:
            from .memory import MemoryAttributor

            self.memory = MemoryAttributor()
            self.memory.start()
            self.memory.on_open(self.root)
        self.stream = None
        if stream is not None:
            from .stream import StreamWriter

            if not isinstance(stream, StreamWriter):
                stream = StreamWriter(stream)
            self.stream = stream
            self.stream.begin(self)

    # -- span / event API ------------------------------------------------

    @contextmanager
    def span(self, name: str, /, **attrs: Any) -> Iterator[Span]:
        """Open a child span for the dynamic extent of the ``with`` body.

        An exception unwinding through the body still closes the span
        (timing and memory accounting stay consistent) but marks it
        ``status="aborted"``, so a partial trace of a failed run shows
        exactly how far evaluation got.
        """
        span = Span(name, attrs, time.perf_counter(), self._stack[-1])
        self._stack[-1].children.append(span)
        self._stack.append(span)
        self.last_beat = time.monotonic()
        if self.memory is not None:
            self.memory.on_open(span)
        if self.stream is not None:
            self.stream.span_opened(span)
        try:
            yield span
        except BaseException:
            span.status = "aborted"
            raise
        finally:
            span.end = time.perf_counter()
            if self.memory is not None:
                self.memory.on_close(span)
            if self.stream is not None:
                self.stream.span_closed(span, self.counters)
            self._stack.pop()

    def event(self, name: str, /, **attrs: Any) -> None:
        """Record a point event under the innermost open span."""
        self.last_beat = time.monotonic()
        if self._n_events >= self.max_events:
            self.dropped_events += 1
            return
        self._n_events += 1
        event = Event(name, attrs, time.perf_counter())
        span = self._stack[-1]
        span.events.append(event)
        if self.stream is not None:
            self.stream.event_recorded(span, event, self.counters)

    def heartbeat(self) -> None:
        """Signal liveness to the stall watchdog; engines call this once
        per fixpoint stage / Datalog rule, so a beat-free window means a
        single stage is wedged, not that evaluation is merely slow."""
        self.last_beat = time.monotonic()

    # -- counters --------------------------------------------------------

    def count(self, name: str, /, delta: int | float = 1) -> None:
        """Add ``delta`` to a monotonic counter; a negative ``delta``
        raises ``ValueError``."""
        if delta < 0:
            raise ValueError(f"counter {name!r} decremented by {delta!r}")
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, /, value: int | float) -> None:
        """Set a last-write gauge."""
        self.counters[name] = value

    def gauge_max(self, name: str, /, value: int | float) -> None:
        """Raise a high-watermark gauge to ``value`` if it exceeds the
        current reading (peak working-set rows, peak range size)."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def observe(self, name: str, /, value: int | float) -> None:
        """Record ``value`` into the log-bucketed histogram ``name``.

        Histograms live only in ``metrics`` — the flat ``counters``
        dict stays a scalar table.
        """
        self.metrics.histogram(name).record(value)

    def close(self) -> None:
        """Close the root span (idempotent); exporters call this.

        Any span still open — possible when an exception unwinds past a
        caller that holds the tracer, or a generator parks mid-span — is
        flushed: marked ``aborted``, closed, and memory-accounted, so an
        exported partial trace is always a complete tree.
        """
        if self.root.end is not None:
            return
        now = time.perf_counter()
        while len(self._stack) > 1:
            span = self._stack[-1]
            span.status = "aborted"
            span.end = now
            if self.memory is not None:
                self.memory.on_close(span)
            if self.stream is not None:
                self.stream.span_closed(span, self.counters)
            self._stack.pop()
        self.root.end = now
        if self.memory is not None:
            self.memory.on_close(self.root)
            self.memory.stop()
        if self.stream is not None:
            self.stream.span_closed(self.root, self.counters)
            self.stream.end(self)


class _NullSpan:
    """Inert span handed out by :class:`NullTracer`; swallows ``set``."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


class _NullSpanContext:
    """Reusable context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """No-op tracer: every method returns immediately.

    ``enabled`` is False so hot loops can skip even building the kwargs
    for an event (``if tracer.enabled: tracer.event(...)``).
    """

    enabled = False

    def span(self, name: str, /, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, /, **attrs: Any) -> None:
        pass

    def heartbeat(self) -> None:
        pass

    def count(self, name: str, /, delta: int | float = 1) -> None:
        pass

    def gauge(self, name: str, /, value: int | float) -> None:
        pass

    def gauge_max(self, name: str, /, value: int | float) -> None:
        pass

    def observe(self, name: str, /, value: int | float) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the no-op default unless one is installed)."""
    return _active


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` as the active tracer (None restores the no-op
    default); returns the now-active tracer."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER
    return _active


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Install ``tracer`` for the dynamic extent of the ``with`` body."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous
