"""Live JSONL trace streaming, stream replay, and the stall watchdog.

The PR 1 tracer is post-hoc: the span tree lives in memory until an
exporter walks it, so a SIGKILLed or wedged process leaves *nothing* —
exactly the runs (runaway PFP iterations near the EXPTIME boundary,
hard-killed bench workers) whose telemetry matters most.  This module
makes tracing durable and live:

* :class:`StreamWriter` — incremental span-open / span-close / event /
  counter-snapshot JSONL, one flushed line per record, attached to a
  tracer via ``Tracer(stream=...)``.  Whatever reached the sink before
  the process died is replayable; only a torn final line can be lost.
* :func:`replay_stream` / :func:`read_segments` — reconstruct a
  :class:`repro.obs.Tracer` (span tree + flat counters) from stream
  lines, tolerating a truncated tail: spans with no close record are
  flushed ``status="aborted"``, mirroring :meth:`Tracer.close`.
* :class:`Watchdog` + :class:`StallError` — a daemon thread watching the
  tracer's heartbeat (fixpoint engines beat once per stage, the Datalog
  engine once per rule).  After ``stall_seconds`` without a beat it
  dumps the current counters to stderr; with ``abort=True`` it also
  raises a clean :class:`StallError` in the stalled thread, so a wedged
  evaluation unwinds instead of running forever.

Counter snapshots ride on events and span closes (not on every
``count()`` call), so streaming costs a handful of lines per fixpoint
stage — measured < 5% wall overhead on semi-naive chain TC at n=64
(EXPERIMENTS E32) — while a killed run still recovers per-stage-fresh
counters.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import IO, TYPE_CHECKING, Any, Iterable

from .trace import Event, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import NullTracer

__all__ = [
    "STREAM_SCHEMA",
    "StallError",
    "StreamError",
    "StreamWriter",
    "Watchdog",
    "read_segments",
    "replay_stream",
]

#: Version stamp of the stream line layout (the ``begin`` record's
#: ``stream`` field); bump on incompatible changes.
STREAM_SCHEMA = 1


class StreamError(ValueError):
    """A stream file/line sequence is not a replayable trace stream."""


class StallError(RuntimeError):
    """Raised (under ``--stall-abort``) when no heartbeat arrived within
    the watchdog's window — the evaluation is considered wedged."""


class StreamWriter:
    """Emits trace activity as JSONL records, one flushed line each.

    Record types (all timestamps run-relative seconds):

    * ``{"stream": 1, "t": "begin"}`` — stream header;
    * ``{"t": "open", "id": N, "parent": M, "name": ..., "ts": ...,
      "attrs": {...}}`` — a span opened (root has no ``parent``);
    * ``{"t": "close", "id": N, "ts": ..., "status": "aborted",
      "attrs": {...}}`` — a span closed (``status``/``attrs``/alloc
      fields only when set; ``attrs`` carries the final attributes,
      since spans gain attributes after opening);
    * ``{"t": "event", "span": N, "name": ..., "ts": ..., "attrs": ...}``;
    * ``{"t": "counters", "values": {...}}`` — the flat counters that
      changed since the previous snapshot (emitted before events and
      span closes, so a torn stream still carries per-stage counters);
    * ``{"t": "end", "dropped": K}`` — orderly shutdown marker.

    A sink error (broken pipe, closed file) disables further emission
    instead of failing the traced run: streaming is telemetry, not a
    load-bearing output channel.
    """

    __slots__ = ("_sink", "_ids", "_next_id", "_origin", "_snapshot",
                 "_dead")

    def __init__(self, sink: IO[str]):
        self._sink = sink
        self._ids: dict[int, int] = {}
        self._next_id = 0
        self._origin = 0.0
        self._snapshot: dict[str, int | float] = {}
        self._dead = False

    # -- emission --------------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        if self._dead:
            return
        try:
            self._sink.write(
                json.dumps(record, separators=(",", ":"), default=repr)
                + "\n")
            self._sink.flush()
        except (OSError, ValueError):
            self._dead = True

    def begin(self, tracer: Tracer) -> None:
        """Open the stream for ``tracer``: header + root-span record."""
        self._origin = tracer.root.start
        self._emit({"stream": STREAM_SCHEMA, "t": "begin"})
        self.span_opened(tracer.root)

    def span_opened(self, span: Span) -> None:
        sid = self._next_id
        self._next_id += 1
        self._ids[id(span)] = sid
        record: dict[str, Any] = {
            "t": "open", "id": sid, "name": span.name,
            "ts": round(span.start - self._origin, 9),
        }
        if span.parent is not None:
            record["parent"] = self._ids.get(id(span.parent))
        if span.attrs:
            record["attrs"] = dict(span.attrs)
        self._emit(record)

    def span_closed(self, span: Span,
                    counters: dict[str, int | float]) -> None:
        self.snapshot(counters)
        record: dict[str, Any] = {
            "t": "close", "id": self._ids.get(id(span)),
            "ts": round((span.end or span.start) - self._origin, 9),
        }
        if span.status != "ok":
            record["status"] = span.status
        if span.attrs:
            record["attrs"] = dict(span.attrs)
        for field in ("alloc_bytes", "self_alloc_bytes", "peak_bytes"):
            value = getattr(span, field)
            if value is not None:
                record[field] = value
        self._emit(record)

    def event_recorded(self, span: Span, event: Event,
                       counters: dict[str, int | float]) -> None:
        self.snapshot(counters)
        record: dict[str, Any] = {
            "t": "event", "span": self._ids.get(id(span)),
            "name": event.name,
            "ts": round(event.time - self._origin, 9),
        }
        if event.attrs:
            record["attrs"] = dict(event.attrs)
        self._emit(record)

    def snapshot(self, counters: dict[str, int | float]) -> None:
        """Emit the counters that changed since the last snapshot."""
        changed = {name: value for name, value in counters.items()
                   if self._snapshot.get(name) != value}
        if not changed:
            return
        self._snapshot.update(changed)
        self._emit({"t": "counters", "values": changed})

    def end(self, tracer: Tracer) -> None:
        """Final counter snapshot + orderly-shutdown marker."""
        self.snapshot(tracer.counters)
        record: dict[str, Any] = {"t": "end"}
        if tracer.dropped_events:
            record["dropped"] = tracer.dropped_events
        self._emit(record)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def read_segments(lines: Iterable[str]) -> list[list[dict[str, Any]]]:
    """Split stream lines into segments (one per ``begin`` record).

    Sequential runs (e.g. serial bench points sharing one ``--stream``
    file) concatenate segments; each replays independently.  A torn
    final line — the signature of a killed writer — is dropped silently;
    any other unparseable or pre-``begin`` content raises
    :class:`StreamError`.
    """
    segments: list[list[dict[str, Any]]] = []
    parsed: list[tuple[int, dict[str, Any]]] = []
    raw = list(lines)
    for number, line in enumerate(raw, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            if number == len(raw):
                break  # torn tail of a killed writer
            raise StreamError(
                f"stream line {number} is not JSON: {text[:60]!r}"
            ) from None
        if not isinstance(record, dict) or "t" not in record:
            raise StreamError(
                f"stream line {number} is not a trace-stream record")
        parsed.append((number, record))
    for number, record in parsed:
        if record["t"] == "begin":
            schema = record.get("stream")
            if schema != STREAM_SCHEMA:
                raise StreamError(
                    f"unsupported stream schema {schema!r} "
                    f"(supported: {STREAM_SCHEMA})")
            segments.append([])
            continue
        if not segments:
            raise StreamError(
                f"stream line {number} precedes the begin record")
        segments[-1].append(record)
    if not segments:
        raise StreamError("no begin record: not a trace stream")
    return segments


def _replay_segment(records: list[dict[str, Any]]) -> Tracer:
    tracer = Tracer()
    spans: dict[int, Span] = {}
    counters: dict[str, int | float] = {}
    last_ts = 0.0
    complete = False
    dropped = 0
    for record in records:
        kind = record["t"]
        ts = float(record.get("ts", last_ts))
        last_ts = max(last_ts, ts)
        if kind == "open":
            parent = spans.get(record.get("parent", -1))
            span = Span(record["name"], dict(record.get("attrs") or {}),
                        ts, parent)
            if parent is not None:
                parent.children.append(span)
            spans[record["id"]] = span
        elif kind == "close":
            span = spans.get(record.get("id", -1))  # type: ignore[arg-type]
            if span is None:
                continue
            span.end = ts
            span.status = record.get("status", "ok")
            if record.get("attrs"):
                span.attrs.update(record["attrs"])
            for field in ("alloc_bytes", "self_alloc_bytes", "peak_bytes"):
                if field in record:
                    setattr(span, field, record[field])
        elif kind == "event":
            span = spans.get(record.get("span", -1))  # type: ignore[arg-type]
            if span is not None:
                span.events.append(
                    Event(record["name"], dict(record.get("attrs") or {}),
                          ts))
        elif kind == "counters":
            counters.update(record.get("values", {}))
        elif kind == "end":
            complete = True
            dropped = record.get("dropped", 0)
    root = spans.get(0)
    if root is None:
        raise StreamError("stream has no root span record")
    # Flush spans the dead writer never closed, as Tracer.close() would.
    for span in root.walk():
        if span.end is None:
            span.end = last_ts
            if complete is False:
                span.status = "aborted"
    tracer.root = root
    tracer._stack = [root]
    tracer.counters = counters
    tracer.dropped_events = dropped
    return tracer


def replay_stream(source: Iterable[str], segment: int = -1) -> Tracer:
    """Reconstruct a tracer from stream lines (an iterable of lines, an
    open text file, or ``text.splitlines()``).

    ``segment`` selects which ``begin``-delimited run to replay when the
    file holds several (default: the last).  The result is a normal
    :class:`Tracer` — render it, export it as Chrome trace or flame
    stacks, or diff its counters.
    """
    segments = read_segments(source)
    try:
        records = segments[segment]
    except IndexError:
        raise StreamError(
            f"stream has {len(segments)} segment(s); "
            f"segment {segment} does not exist") from None
    return _replay_segment(records)


# ---------------------------------------------------------------------------
# Stall watchdog
# ---------------------------------------------------------------------------

def _raise_in_thread(thread_id: int, exc_type: type) -> bool:
    """Deliver ``exc_type`` asynchronously to another thread (CPython
    only); returns False where the C API is unavailable."""
    try:
        import ctypes

        set_async = ctypes.pythonapi.PyThreadState_SetAsyncExc
    except (ImportError, AttributeError):  # pragma: no cover - non-CPython
        return False
    affected = set_async(ctypes.c_ulong(thread_id),
                         ctypes.py_object(exc_type))
    if affected > 1:  # pragma: no cover - invalid id, undo per C API docs
        set_async(ctypes.c_ulong(thread_id), None)
        return False
    return affected == 1


class Watchdog:
    """Watches a tracer's heartbeat from a daemon thread.

    The instrumented engines beat on every span, event, fixpoint stage,
    and Datalog rule (:meth:`repro.obs.Tracer.heartbeat`).  When
    ``stall_seconds`` pass without a beat the watchdog dumps the
    current counters to ``out`` (stderr by default) — once per stall;
    it re-arms when beats resume.  With ``abort=True`` it additionally
    raises :class:`StallError` in the watched thread, so a wedged stage
    function unwinds with a clean exception instead of hanging the
    process (``outcome="timeout"`` in the run ledger).
    """

    def __init__(self, tracer: Tracer, stall_seconds: float,
                 abort: bool = False, out: IO[str] | None = None,
                 poll_seconds: float | None = None):
        if stall_seconds <= 0:
            raise ValueError(f"stall_seconds must be > 0, got {stall_seconds}")
        self.tracer = tracer
        self.stall_seconds = stall_seconds
        self.abort = abort
        self.out = out
        self.fired = False
        self._poll = poll_seconds or max(0.02, stall_seconds / 4.0)
        self._watched_thread = threading.get_ident()
        self._stop = threading.Event()
        self._reported = False
        self._thread: threading.Thread | None = None

    def start(self) -> Watchdog:
        self._watched_thread = threading.get_ident()
        self._thread = threading.Thread(
            target=self._run, name="repro-stall-watchdog", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> Watchdog:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self._poll):
            idle = time.monotonic() - self.tracer.last_beat
            if idle < self.stall_seconds:
                self._reported = False
                continue
            if self._reported:
                continue
            self._reported = True
            self.fired = True
            self._dump(idle)
            if self.abort:
                _raise_in_thread(self._watched_thread, StallError)

    def _dump(self, idle: float) -> None:
        out = self.out if self.out is not None else sys.stderr
        lines = [f"stall: no heartbeat for {idle:.1f}s "
                 f"(threshold {self.stall_seconds:g}s); current counters:"]
        counters = dict(self.tracer.counters)
        if counters:
            width = max(len(name) for name in counters)
            lines.extend(f"  {name:<{width}} {counters[name]}"
                         for name in sorted(counters))
        else:
            lines.append("  (no counters recorded yet)")
        if self.abort:
            lines.append("stall: aborting the run (StallError)")
        try:
            out.write("\n".join(lines) + "\n")
            out.flush()
        except (OSError, ValueError):  # pragma: no cover - dead stderr
            pass
