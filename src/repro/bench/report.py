"""Rendering and baseline diffing for observatory documents.

Two jobs:

* :func:`render_document` — the human-readable report: per suite, the
  measured points (time + headline space counters), the fitted curves,
  and PASS/FAIL lines for every declared expectation, speedup gate, and
  cross-strategy agreement check.  Points that failed in a sharded run
  render as explicit FAILED lines — a partial report never looks clean.
* :func:`diff_against_baseline` — the regression gate, and the only
  comparison with a committed document.  Each suite's declared
  :class:`~repro.bench.registry.Tolerance` counters (rows derived,
  stages, delta rows — never wall seconds, which do not compare across
  machines) and each checksum must equal the ``schema: 1`` baseline's,
  point by point.  A baseline in any other layout raises
  :class:`LegacyBaselineError`.
"""

from __future__ import annotations

from typing import Any

from .registry import Suite

__all__ = [
    "LegacyBaselineError",
    "render_document",
    "diff_against_baseline",
    "document_failures",
]


class LegacyBaselineError(Exception):
    """A baseline that is not a ``schema: 1`` observatory document."""


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.2f}ms"


def _headline_counters(point: dict[str, Any]) -> str:
    counters = point.get("counters", {})
    shown = []
    for name in ("datalog.rows_derived", "eval.delta_rows",
                 "space.domain_values", "space.peak_fixpoint_rows",
                 "space.peak_range", "space.peak_loop_rows",
                 "eval.quantifier_iterations", "collapse.domain_values",
                 "lemma41.dense_dom_values"):
        if name in counters:
            shown.append(f"{name}={counters[name]}")
    return "  ".join(shown)


def render_document(document: dict[str, Any]) -> str:
    """The whole observatory document as a text report."""
    lines: list[str] = []
    for suite_doc in document.get("suites", {}).values():
        lines.append(f"== {suite_doc['name']}: {suite_doc['title']}")
        for point in suite_doc["points"]:
            if point.get("failed"):
                lines.append(
                    f"  n={point['n']:>4} {point['strategy']:<10} "
                    f"   FAILED  {point['error']}"
                )
                continue
            extra = _headline_counters(point)
            lines.append(
                f"  n={point['n']:>4} {point['strategy']:<10} "
                f"{_format_seconds(point['seconds']):>9}  "
                f"checksum={point['checksum']}"
                + (f"  {extra}" if extra else "")
            )
        for strategy, fits in sorted(suite_doc.get("fits", {}).items()):
            fit = fits.get("seconds")
            if fit:
                lines.append(
                    f"  fit[{strategy}] seconds ~ n^{fit['slope']:.2f} "
                    f"(r2={fit['r2']:.3f})"
                )
        for expectation in suite_doc.get("expectations", ()):
            status = "PASS" if expectation.get("ok") else "FAIL"
            detail = ""
            fit = expectation.get("fit")
            if fit is not None:
                detail = (f" detected={fit['kind']} "
                          f"degree={fit['degree']:.2f}")
            if "bound" in expectation:
                detail = f" bound={expectation['bound']}"
            lines.append(
                f"  [{status}] {expectation['kind']}:"
                f"{expectation['metric']} ({expectation['strategy']})"
                + detail
            )
        for gate in suite_doc.get("gates", ()):
            status = "PASS" if gate.get("ok") else "FAIL"
            metric = gate.get("metric", "seconds")
            if "ratio" in gate:
                lines.append(
                    f"  [{status}] {metric} gate {gate['slow']}/"
                    f"{gate['fast']} at n={gate['n']}: "
                    f"{gate['ratio']:.2f}x (need >= {gate['min_ratio']}x)"
                )
            else:
                lines.append(
                    f"  [{status}] {metric} gate {gate['slow']}/"
                    f"{gate['fast']}: {gate.get('reason', 'no data')}"
                )
        agreement = suite_doc.get("agreement")
        if agreement is not None:
            status = "PASS" if agreement["ok"] else "FAIL"
            lines.append(f"  [{status}] cross-strategy agreement")
        lines.append("")
    if document.get("partial"):
        lines.append("PARTIAL RUN: one or more points failed (see above)")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _baseline_value(baseline: dict[str, Any], suite: Suite, n: int,
                    strategy: str, metric: str) -> float | None:
    suite_doc = baseline.get("suites", {}).get(suite.name)
    if suite_doc is None:
        return None
    for point in suite_doc.get("points", ()):
        if point.get("n") == n and point.get("strategy") == strategy:
            if point.get("failed"):
                return None
            if metric == "checksum":
                return point.get(metric)
            return point.get("counters", {}).get(metric)
    return None


def diff_against_baseline(
    document: dict[str, Any],
    baseline: dict[str, Any],
    suites: list[Suite],
) -> list[str]:
    """Check each suite's declared tolerance counters, and each
    checksum, against a ``schema: 1`` baseline document.

    One rule: the value must equal the baseline's, so a counter that
    rose or fell is a breach, and big-int counters compare exactly.
    Returns breach descriptions (empty = clean).  Points the baseline
    does not cover (new sizes, new suites) are not breaches — the
    baseline only ever *gates*, it does not have to be complete.
    Failed points in either document are skipped (a degraded run is
    reported through the partial flag, not as a counter regression).
    """
    if "suites" not in baseline:
        raise LegacyBaselineError(
            "baseline is not a schema-1 observatory document "
            "(no 'suites' object)")
    breaches: list[str] = []
    by_name = {suite.name: suite for suite in suites}
    for name, suite_doc in document.get("suites", {}).items():
        suite = by_name.get(name)
        if suite is None:
            continue
        for point in suite_doc["points"]:
            if point.get("failed"):
                continue
            n, strategy = point["n"], point["strategy"]
            for metric in (*(tolerance.metric
                             for tolerance in suite.tolerances),
                           "checksum"):
                base = _baseline_value(baseline, suite, n, strategy, metric)
                if base is None:
                    continue
                new = (point["checksum"] if metric == "checksum"
                       else point["counters"].get(metric, 0))
                if new != base:
                    breaches.append(
                        f"{name}: {metric} at n={n} ({strategy}) changed: "
                        f"{new} vs baseline {base}"
                    )
    return breaches


def document_failures(document: dict[str, Any]) -> list[str]:
    """Every failed expectation/gate/agreement/point in a document, as
    text — anything here makes ``repro bench`` exit 1."""
    failures: list[str] = []
    for name, suite_doc in document.get("suites", {}).items():
        for expectation in suite_doc.get("expectations", ()):
            if not expectation.get("ok"):
                failures.append(
                    f"{name}: expectation {expectation['kind']}:"
                    f"{expectation['metric']} failed"
                )
        for gate in suite_doc.get("gates", ()):
            if not gate.get("ok"):
                failures.append(
                    f"{name}: {gate.get('metric', 'seconds')} gate "
                    f"{gate['slow']}/{gate['fast']} failed "
                    f"({gate.get('ratio', 'n/a')})"
                )
        agreement = suite_doc.get("agreement")
        if agreement is not None and not agreement["ok"]:
            failures.append(f"{name}: strategies disagree: "
                            f"{agreement['disagreements']}")
        for failed in suite_doc.get("failed_points", ()):
            failures.append(
                f"{name}: point n={failed['n']} ({failed['strategy']}) "
                f"failed: {failed['error']}"
            )
    return failures
