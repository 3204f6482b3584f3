"""EXPLAIN-style rendering and JSON export of traces.

Turns a :class:`repro.obs.trace.Tracer` into

* an indented tree (:func:`render_tree`) — subformula → range → rows
  produced, one line per span/event, optionally with wall times;
* an aligned counter table (:func:`summary_table`) and a table of
  histogram summaries (:func:`metrics_table`);
* a JSON document (:func:`trace_to_json`) that round-trips through
  :func:`trace_from_json` (machine consumption: benchmark harnesses,
  external plotting).

JSON documents carry ``"schema": 1`` and *run-relative* timestamps —
every span/event time is the offset in seconds from the root span's
start, so traces of the same workload are directly comparable across
runs and machines.  Counters and gauges appear once, under
``counters``; ``metrics`` holds the histograms.  :func:`trace_from_json`
also accepts the unversioned pre-schema form (absolute ``perf_counter``
timestamps) and documents whose ``metrics`` still repeat the counters
as ``counter``/``gauge`` entries.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry, metrics_from_json, metrics_to_json
from .trace import Event, Span, Tracer

__all__ = [
    "aggregate_table",
    "align_table",
    "history_table",
    "render_tree",
    "summary_table",
    "metrics_table",
    "memory_table",
    "titled_table",
    "trace_to_json",
    "trace_from_json",
]

#: Version of the JSON document layout produced by :func:`trace_to_json`.
TRACE_SCHEMA = 1


def _format_attrs(attrs: dict[str, Any]) -> str:
    return " ".join(f"{key}={value}" for key, value in attrs.items())


def _render_span(span: Span, depth: int, lines: list[str], times: bool) -> None:
    from .memory import format_bytes

    indent = "  " * depth
    parts = [f"{indent}{span.name}"]
    attrs = _format_attrs(span.attrs)
    if attrs:
        parts.append(f" {attrs}")
    if span.status != "ok":
        parts.append(f" [{span.status}]")
    if times and span.end is not None:
        parts.append(f"  [{span.duration * 1000:.2f} ms"
                     f" | self {span.self_seconds * 1000:.2f} ms]")
    if span.alloc_bytes is not None:
        parts.append(f"  [self_alloc={format_bytes(span.self_alloc_bytes)}"
                     f" alloc={format_bytes(span.alloc_bytes)}"
                     f" peak={format_bytes(span.peak_bytes)}]")
    lines.append("".join(parts))
    # Children and events interleave chronologically; merge on timestamps.
    items: list[tuple[float, int, Span | Event]] = []
    for order, child in enumerate(span.children):
        items.append((child.start, order, child))
    for order, event in enumerate(span.events):
        items.append((event.time, len(span.children) + order, event))
    for _, _, item in sorted(items, key=lambda entry: (entry[0], entry[1])):
        if isinstance(item, Span):
            _render_span(item, depth + 1, lines, times)
        else:
            event_attrs = _format_attrs(item.attrs)
            suffix = f" {event_attrs}" if event_attrs else ""
            lines.append(f"{'  ' * (depth + 1)}• {item.name}{suffix}")


def render_tree(tracer: Tracer, times: bool = True) -> str:
    """The trace as an indented tree, one line per span (prefixed by
    depth) and per event (bulleted).  ``times=False`` yields
    deterministic output for golden tests and diffs."""
    tracer.close()
    lines: list[str] = []
    _render_span(tracer.root, 0, lines, times)
    if tracer.dropped_events:
        lines.append(f"({tracer.dropped_events} event(s) dropped beyond "
                     f"cap {tracer.max_events})")
    return "\n".join(lines)


def align_table(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-align rows of string cells into columns (two-space gutter).

    The generic alignment behind :func:`summary_table`,
    :func:`metrics_table` and the other tables here.  Rows may have
    differing lengths; each column is as wide as its widest cell, and
    trailing whitespace is stripped per line.
    """
    if not rows:
        return []
    columns = max(len(row) for row in rows)
    widths = [0] * columns
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return [
        "  ".join(cell.ljust(widths[i])
                  for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]


def titled_table(title: str, rows: list[tuple[str, ...]]) -> str:
    """A ``-- title --`` header over an :func:`align_table` body.

    The rendering behind the lint CLI's analysis tables (dependency
    graph, strata, adorned program, routing); an empty body renders as
    ``title: (empty)`` so callers need no special case.
    """
    body = align_table(rows)
    if not body:
        return f"-- {title} -- (empty)"
    return "\n".join([f"-- {title} --", *body])


def summary_table(tracer: Tracer) -> str:
    """Counters and gauges as an aligned two-column table."""
    if not tracer.counters:
        return "(no counters recorded)"
    rows = [(name, str(tracer.counters[name]))
            for name in sorted(tracer.counters)]
    return "\n".join(align_table(rows))


def _format_number(value: int | float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return str(int(value))


def metrics_table(metrics: MetricsRegistry) -> str:
    """Histograms as aligned summary lines (count/min/mean/p50/p90/max):
    the distributions :func:`summary_table`'s single numbers cannot
    show."""
    rows: list[tuple[str, str]] = []
    for name, histogram in metrics.histograms():
        summary = histogram.summary()
        rows.append((
            name,
            "count={count} min={min} mean={mean} p50={p50} p90={p90} "
            "max={max}".format(
                count=summary["count"],
                min=_format_number(summary["min"]),
                mean=_format_number(summary["mean"]),
                p50=_format_number(summary["p50"]),
                p90=_format_number(summary["p90"]),
                max=_format_number(summary["max"]),
            ),
        ))
    if not rows:
        return "(no histograms recorded)"
    return "\n".join(align_table(rows))


def memory_table(tracer: Tracer) -> str:
    """Per-span allocation attribution as an aligned table (heaviest
    self-allocators first), headed by the traced peak and the coverage
    figure from :func:`repro.obs.memory.attribution_report`."""
    from .memory import attribution_report, format_bytes

    try:
        report = attribution_report(tracer)
    except ValueError as error:
        return f"({error})"
    rows: list[tuple[str, ...]] = [
        ("span", "self_alloc", "alloc", "peak")]
    for entry in report["spans"]:
        rows.append((
            entry["name"],
            format_bytes(entry["self_alloc_bytes"]),
            format_bytes(entry["alloc_bytes"]),
            format_bytes(entry["peak_bytes"]),
        ))
    lines = align_table(rows)
    lines.append(
        f"traced peak {format_bytes(report['traced_peak_bytes'])}; "
        f"{report['coverage']:.0%} attributed to named spans")
    return "\n".join(lines)


def _format_wall(seconds: Any) -> str:
    if not isinstance(seconds, (int, float)):
        return "-"
    millis = seconds * 1000.0
    if millis >= 1000.0:
        return f"{seconds:.2f}s"
    return f"{millis:.1f}ms"


def history_table(records: list[dict[str, Any]]) -> str:
    """Ledger records as an aligned recent-runs table (oldest first,
    matching the file order, so ``tail`` semantics are obvious)."""
    rows: list[tuple[str, ...]] = [
        ("id", "ts", "command", "outcome", "query", "strategy", "rows",
         "wall")]
    for record in records:
        rows.append((
            str(record.get("id", "-")),
            str(record.get("ts", "-")),
            str(record.get("command", "-")),
            str(record.get("outcome", "-")),
            str(record.get("query_hash") or "-"),
            str(record.get("strategy") or record.get("mode") or "-"),
            "-" if record.get("rows") is None else str(record["rows"]),
            _format_wall(record.get("wall_seconds")),
        ))
    return "\n".join(align_table(rows))


def aggregate_table(aggregates: list[dict[str, Any]]) -> str:
    """Per-query-hash aggregates (from
    :func:`repro.obs.ledger.aggregate_records`) as an aligned table:
    run/ok counts, wall p50/p99 from the log-bucketed histogram, and
    which headline counters drifted across the group."""
    rows: list[tuple[str, ...]] = [
        ("key", "runs", "ok", "wall_p50", "wall_p99", "drift")]
    for entry in aggregates:
        wall = entry.get("wall_ms") or {}
        drift = entry.get("drift") or {}
        drifting = ",".join(sorted(drift)) if drift else "-"
        rows.append((
            str(entry.get("key", "-")),
            str(entry.get("runs", 0)),
            str((entry.get("outcomes") or {}).get("ok", 0)),
            f"{wall['p50']:.0f}ms" if wall.get("count") else "-",
            f"{wall['p99']:.0f}ms" if wall.get("count") else "-",
            drifting,
        ))
    return "\n".join(align_table(rows))


def _span_to_dict(span: Span, origin: float) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": span.name,
        "attrs": dict(span.attrs),
        "start": span.start - origin,
        "end": None if span.end is None else span.end - origin,
        "events": [
            {"name": e.name, "attrs": dict(e.attrs), "time": e.time - origin}
            for e in span.events
        ],
        "children": [_span_to_dict(child, origin) for child in span.children],
    }
    # New-in-this-schema-revision fields are emitted only when set, so
    # documents of plain traces keep their original byte-for-byte shape.
    if span.status != "ok":
        doc["status"] = span.status
    if span.alloc_bytes is not None:
        doc["alloc_bytes"] = span.alloc_bytes
        doc["self_alloc_bytes"] = span.self_alloc_bytes
        doc["peak_bytes"] = span.peak_bytes
    return doc


def _span_from_dict(doc: dict[str, Any], parent: Span | None = None) -> Span:
    span = Span(doc["name"], dict(doc["attrs"]), doc["start"], parent)
    span.end = doc["end"]
    span.status = doc.get("status", "ok")
    span.alloc_bytes = doc.get("alloc_bytes")
    span.self_alloc_bytes = doc.get("self_alloc_bytes")
    span.peak_bytes = doc.get("peak_bytes")
    span.events = [
        Event(e["name"], dict(e["attrs"]), e["time"]) for e in doc["events"]
    ]
    span.children = [_span_from_dict(child, span) for child in doc["children"]]
    return span


def trace_to_json(tracer: Tracer) -> dict[str, Any]:
    """A JSON-safe document: schema version, counters, histograms,
    drop accounting, and the span tree with run-relative timestamps
    (the root span starts at 0.0).  Attribute values must themselves be
    JSON-safe (the instrumentation only records strings, numbers, and
    lists thereof)."""
    tracer.close()
    origin = tracer.root.start
    return {
        "schema": TRACE_SCHEMA,
        "counters": dict(tracer.counters),
        "metrics": metrics_to_json(tracer.metrics)["metrics"],
        "dropped_events": tracer.dropped_events,
        "trace": _span_to_dict(tracer.root, origin),
    }


def trace_from_json(doc: dict[str, Any]) -> Tracer:
    """Rebuild a :class:`Tracer` from :func:`trace_to_json` output, such
    that re-exporting yields an equal document.

    Accepts both the current versioned form (``"schema": 1``,
    run-relative timestamps — stored as-is, so the rebuilt root starts
    at 0.0) and the unversioned pre-schema form (absolute timestamps,
    which re-export will normalise to run-relative).  ``counter`` and
    ``gauge`` entries under ``metrics`` (older documents repeated the
    counters there) are skipped; re-export drops them.
    """
    tracer = Tracer()
    tracer.counters = dict(doc["counters"])
    tracer.metrics = metrics_from_json({"metrics": doc.get("metrics", {})})
    tracer.dropped_events = doc["dropped_events"]
    tracer.root = _span_from_dict(doc["trace"])
    tracer._stack = [tracer.root]
    return tracer
