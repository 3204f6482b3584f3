"""Cross-PR trend reports: stitch per-PR observatory documents into
per-suite trajectories.

Each PR commits one ``BENCH_PR<N>.json`` in the ``schema: 1`` layout;
this module loads any list of those documents (an input in another
layout is a :class:`TrendError`), aligns suites, strategies and
counters across PRs, and reports:

* per-suite **trajectories**: one row per (metric, strategy) at the
  suite's headline size, one column per PR, with explicit holes
  (``None`` / ``—``) where a PR predates or dropped a suite;
* **deltas** against the previous PR that has a value;
* **regression flags**: deterministic counters are checked against the
  suite's declared :class:`~repro.bench.registry.Tolerance`, and
  checksums against exact equality.  Wall seconds are *never* flagged
  (they do not compare across machines) — they appear as informational
  rows only, so a clean trajectory means zero unexplained regressions.
"""

from __future__ import annotations

import re
from typing import Any

from ..obs.render import align_table
from .registry import SUITES

__all__ = [
    "TrendError",
    "label_for_path",
    "load_documents",
    "build_trend",
    "render_trend",
]


class TrendError(Exception):
    """A trend input that cannot be read as an observatory document."""


#: Counters worth a trajectory row even without a declared tolerance.
TREND_COUNTERS = (
    "datalog.rows_derived",
    "eval.delta_rows",
    "space.domain_values",
    "space.peak_fixpoint_rows",
    "space.peak_range",
    "space.peak_loop_rows",
    "eval.quantifier_iterations",
    "collapse.domain_values",
    "lemma41.dense_dom_values",
)


def label_for_path(path: str) -> str:
    """``BENCH_PR3.json`` -> ``PR3``; otherwise the file stem."""
    import os

    stem = os.path.splitext(os.path.basename(path))[0]
    match = re.search(r"PR(\d+)", stem, re.IGNORECASE)
    if match:
        return f"PR{match.group(1)}"
    return stem


def load_documents(paths: list[str]) -> list[dict[str, Any]]:
    """Load trend inputs.

    Returns one record per input: ``{"label", "path", "document"}``.
    Inputs sort by PR number when every label carries one (so
    shell-glob order — ``PR10`` before ``PR3`` — cannot scramble the
    trajectory); otherwise the given order is kept.
    """
    import json

    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise TrendError(f"{path}: not JSON ({error})") from None
        if not isinstance(document, dict):
            raise TrendError(f"{path}: not an observatory document")
        if "suites" not in document:
            raise TrendError(f"{path}: not a schema-1 observatory "
                             "document (no 'suites' object)")
        records.append({"label": label_for_path(path), "path": path,
                        "document": document})
    numbers = [re.fullmatch(r"PR(\d+)", record["label"])
               for record in records]
    if all(numbers):
        records.sort(key=lambda record: int(record["label"][2:]))
    return records


def _point_value(suite_doc: dict[str, Any], n: int, strategy: str,
                 metric: str) -> float | None:
    for point in suite_doc.get("points", ()):
        if point.get("n") != n or point.get("strategy") != strategy:
            continue
        if point.get("failed"):
            return None
        if metric in ("seconds", "checksum"):
            return point.get(metric)
        return point.get("counters", {}).get(metric)
    return None


def _suite_order(names: set[str]) -> list[str]:
    """Registry declaration order first, unknown suites alphabetically
    after — deterministic regardless of input order."""
    ordered = [name for name in SUITES if name in names]
    ordered.extend(sorted(names - set(SUITES)))
    return ordered


def _headline_n(docs: list[dict[str, Any] | None], strategy: str) -> int | None:
    """The largest size every PR that has the suite measured for this
    strategy; falls back to the newest PR's largest size (older PRs then
    show holes)."""
    per_doc: list[set[int]] = []
    for doc in docs:
        if doc is None:
            continue
        sizes = {point["n"] for point in doc.get("points", ())
                 if point.get("strategy") == strategy
                 and not point.get("failed")}
        if sizes:
            per_doc.append(sizes)
    if not per_doc:
        return None
    common = set.intersection(*per_doc)
    if common:
        return max(common)
    return max(per_doc[-1])


def _row_metrics(suite_name: str,
                 docs: list[dict[str, Any] | None],
                 full: bool = False) -> list[str]:
    """The metrics worth a trajectory row: seconds and checksum always,
    declared tolerance metrics, then headline counters any PR measured.
    ``full`` widens the last group to *every* counter seen in any input
    (sorted), for the long-form report."""
    metrics = ["seconds", "checksum"]
    suite = SUITES.get(suite_name)
    if suite is not None:
        for tolerance in suite.tolerances:
            if tolerance.metric not in metrics:
                metrics.append(tolerance.metric)
    seen_counters: set[str] = set()
    for doc in docs:
        if doc is None:
            continue
        for point in doc.get("points", ()):
            seen_counters.update(point.get("counters", {}))
    pool = sorted(seen_counters) if full else TREND_COUNTERS
    for name in pool:
        if name in seen_counters and name not in metrics:
            metrics.append(name)
    return metrics


def _tolerance_for(suite_name: str, metric: str) -> float | None:
    """The declared max regression ratio, or None when the metric never
    gates (seconds, undeclared counters)."""
    if metric == "checksum":
        return 0.0
    suite = SUITES.get(suite_name)
    if suite is None:
        return None
    for tolerance in suite.tolerances:
        if tolerance.metric == metric:
            return tolerance.max_ratio
    return None


def build_trend(records: list[dict[str, Any]],
                full: bool = False) -> dict[str, Any]:
    """Align loaded documents into one JSON-safe trend report.

    ``full`` (CLI: ``--trend --full``) adds a trajectory row for every
    counter any input measured — not just the curated
    :data:`TREND_COUNTERS` — and marks the document so the renderer adds
    sparkline columns."""
    labels = [record["label"] for record in records]
    suite_names: set[str] = set()
    for record in records:
        suite_names.update(record["document"].get("suites", {}))
    suites: dict[str, Any] = {}
    regressions: list[str] = []
    for name in _suite_order(suite_names):
        docs = [record["document"].get("suites", {}).get(name)
                for record in records]
        strategies: list[str] = []
        for doc in docs:
            if doc is None:
                continue
            for strategy in doc.get("strategies", ()):
                if strategy not in strategies:
                    strategies.append(strategy)
        rows: list[dict[str, Any]] = []
        for metric in _row_metrics(name, docs, full=full):
            for strategy in strategies:
                n = _headline_n(docs, strategy)
                if n is None:
                    continue
                values = [None if doc is None
                          else _point_value(doc, n, strategy, metric)
                          for doc in docs]
                if all(value is None for value in values):
                    continue
                deltas: list[float | None] = []
                previous: float | None = None
                for value in values:
                    if value is None or previous is None or previous == 0:
                        deltas.append(None)
                    else:
                        deltas.append(value / previous)
                    if value is not None:
                        previous = value
                row: dict[str, Any] = {
                    "metric": metric, "strategy": strategy, "n": n,
                    "values": values, "deltas": deltas,
                }
                max_ratio = _tolerance_for(name, metric)
                if max_ratio is not None:
                    flagged = []
                    previous = None
                    previous_label = None
                    for label, value in zip(labels, values):
                        if value is not None and previous is not None:
                            # Compare exactly at 0% tolerance: a float
                            # limit would misround big-int counters
                            # (e.g. 2**72-scale domain cardinalities).
                            if max_ratio == 0.0:
                                regressed = value != previous
                            else:
                                regressed = value > previous * (1.0
                                                                + max_ratio)
                            if regressed:
                                flagged.append(label)
                                regressions.append(
                                    f"{name}: {metric} ({strategy}, n={n}) "
                                    f"{previous_label}->{label}: {previous} "
                                    f"-> {value} (tolerance "
                                    f"{max_ratio:.0%})"
                                )
                        if value is not None:
                            previous = value
                            previous_label = label
                    if flagged:
                        row["regressions"] = flagged
                rows.append(row)
        suites[name] = {
            "present": [doc is not None for doc in docs],
            "rows": rows,
        }
    trend: dict[str, Any] = {
        "schema": 1,
        "kind": "bench-trend",
        "prs": labels,
        "inputs": [{"label": record["label"], "path": record["path"]}
                   for record in records],
        "suites": suites,
        "regressions": regressions,
    }
    if full:
        # Only stamped when requested, so curated-mode documents keep
        # their established shape byte-for-byte.
        trend["full"] = True
    return trend


def _format_value(metric: str, value: float | None) -> str:
    if value is None:
        return "—"
    if metric == "seconds":
        if value >= 1.0:
            return f"{value:.2f}s"
        return f"{value * 1000:.2f}ms"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return str(int(value))


def render_trend(trend: dict[str, Any]) -> str:
    """The trend report as aligned text tables, one per suite.

    A ``--full`` trend (``trend["full"]``) gains a sparkline column —
    the trajectory's shape at a glance, holes rendered as ``·`` — next
    to the per-PR value columns."""
    from ..obs.render import sparkline

    labels = trend["prs"]
    full = bool(trend.get("full"))
    lines: list[str] = []
    for name, suite in trend["suites"].items():
        presence = " ".join(
            label if present else f"({label}: absent)"
            for label, present in zip(labels, suite["present"]))
        lines.append(f"== {name}  [{presence}]")
        header: tuple[str, ...] = ("metric", "strategy", "n", *labels)
        if full:
            header += ("shape",)
        rows: list[tuple[str, ...]] = [(*header, "Δ last", "")]
        for row in suite["rows"]:
            last_delta = next(
                (delta for delta in reversed(row["deltas"])
                 if delta is not None), None)
            flag = "REGRESSED" if row.get("regressions") else ""
            cells: tuple[str, ...] = (
                row["metric"], row["strategy"], str(row["n"]),
                *(_format_value(row["metric"], value)
                  for value in row["values"]),
            )
            if full:
                cells += (sparkline(row["values"]),)
            rows.append((
                *cells,
                "—" if last_delta is None else f"{last_delta:.2f}x",
                flag,
            ))
        lines.extend("  " + line for line in align_table(rows))
        lines.append("")
    if trend["regressions"]:
        lines.append("regressions:")
        lines.extend(f"  FLAG: {entry}" for entry in trend["regressions"])
    else:
        lines.append("no regressions flagged across "
                     f"{' -> '.join(labels)}")
    return "\n".join(lines).rstrip("\n")
