"""The measurement loop: run suites, collect time and space per point,
fit curves, evaluate expectations and gates.

Each point runs under a fresh :class:`repro.obs.Tracer`, so the flat
counters and gauges (rows derived, peak working sets, deep node counts)
and the histograms of per-stage cardinalities are per-point — exactly
the series the fits consume.  Wall time is ``perf_counter`` around the
suite's ``run`` callable; the traced memory peak is opt-in through
span-level attribution (``memory=True``, roughly doubling runtimes).

Measurement and document assembly are split so the sharded parallel
runner (:mod:`repro.bench.shard`) can farm points out to worker
processes and still produce the same document: :func:`point_specs`
enumerates a suite's (size, strategy) grid in declaration order,
:func:`run_point` measures one point, and :func:`build_suite_document`
turns an ordered point list back into the suite's result — so the merge
is deterministic no matter which worker finished first.  Points that
failed in a worker (raised, or exceeded the per-point timeout) appear
as ``{"failed": True, "error": ...}`` entries: every series/fit/
agreement computation skips them, and the document is flagged
``"partial": True`` so a degraded run can never pass silently.
"""

from __future__ import annotations

import time
from typing import Any

from ..obs import Tracer, use_tracer
from .fit import (
    Classification,
    bound_value,
    classify,
    doubling_ratios,
    format_bound,
    loglog_fit,
)
from .registry import Suite

__all__ = [
    "BenchError",
    "build_suite_document",
    "failed_point",
    "point_specs",
    "run_point",
    "run_suite",
    "run_suites",
    "series",
]


class BenchError(Exception):
    """A suite failed structurally (bad sizes, missing series, checksum
    mismatch across strategies)."""


def run_point(suite: Suite, n: int, strategy: str,
              memory: bool = False,
              stream: Any = None) -> dict[str, Any]:
    """Measure one (suite, size, strategy) point under a fresh tracer.

    ``memory=True`` runs the tracer with span-level memory attribution
    (:class:`repro.obs.MemoryAttributor`, ~2x slower) and records the
    root span's traced peak as the ``space.traced_peak`` counter, so the
    observatory's space series can be fit like any engine counter.

    ``stream`` (a text sink or :class:`repro.obs.StreamWriter`) makes
    the point's tracer emit live JSONL — sequential points append
    segments to the same sink, and a killed worker leaves a replayable
    partial trace (:func:`repro.obs.replay_stream`).
    """
    tracer = Tracer(memory=memory, stream=stream)
    start = time.perf_counter()
    with use_tracer(tracer):
        result = suite.run(n, strategy)
    seconds = time.perf_counter() - start
    tracer.close()
    if tracer.root.peak_bytes is not None:
        # The attributor resets tracemalloc's peak at every span
        # boundary; the root span's propagated peak is the whole run's.
        tracer.counters["space.traced_peak"] = tracer.root.peak_bytes
    return {
        "n": n,
        "strategy": strategy,
        "seconds": seconds,
        "checksum": result.get("checksum"),
        "counters": dict(tracer.counters),
        "histograms": {
            name: histogram.summary()
            for name, histogram in tracer.metrics.histograms()
        },
    }


def failed_point(n: int, strategy: str, error: str) -> dict[str, Any]:
    """The placeholder a worker failure leaves in a point list: same
    keys as a measured point (so consumers need no special cases beyond
    the ``failed`` flag), no data."""
    return {
        "n": n,
        "strategy": strategy,
        "failed": True,
        "error": error,
        "seconds": None,
        "checksum": None,
        "counters": {},
        "histograms": {},
    }


def point_specs(suite: Suite,
                sizes: tuple[int, ...] | None = None,
                strategies: tuple[str, ...] | None = None,
                ) -> list[tuple[int, str]]:
    """The suite's (size, strategy) grid in declaration order — the
    canonical point order every document uses, serial or sharded."""
    sizes = sizes or suite.sizes
    strategies = strategies or suite.strategies
    unknown = [s for s in strategies if s not in suite.strategies]
    if unknown:
        raise BenchError(
            f"suite {suite.name!r} does not declare strategies {unknown}; "
            f"declared: {list(suite.strategies)}"
        )
    return [(n, strategy) for n in sizes for strategy in strategies]


def series(points: list[dict[str, Any]], strategy: str,
           metric: str) -> tuple[list[int], list[float]]:
    """The (sizes, values) series of one metric for one strategy.

    ``metric`` is ``"seconds"``, ``"checksum"``, or a counter name;
    missing counters read as 0.  Failed points contribute nothing (they
    have no measurements, not zero-valued ones).
    """
    xs: list[int] = []
    ys: list[float] = []
    for point in points:
        if point["strategy"] != strategy or point.get("failed"):
            continue
        xs.append(point["n"])
        if metric in ("seconds", "checksum"):
            ys.append(float(point.get(metric) or 0.0))
        else:
            ys.append(float(point["counters"].get(metric, 0)))
    return xs, ys


def _evaluate_expectations(suite: Suite,
                           points: list[dict[str, Any]]) -> list[dict[str, Any]]:
    results = []
    for expectation in suite.expectations:
        xs, ys = series(points, expectation.strategy, expectation.metric)
        entry: dict[str, Any] = {
            "metric": expectation.metric,
            "strategy": expectation.strategy,
            "kind": expectation.kind,
            "note": expectation.note,
        }
        if len(xs) < 2:
            entry.update(ok=False, reason=f"series too short ({len(xs)})")
            results.append(entry)
            continue
        if expectation.kind == "bound":
            degree = (1 if expectation.bound_degree is None
                      else expectation.bound_degree)
            coefficient = expectation.bound_coefficient
            base = expectation.bound_base
            breaches = [
                (n, y) for n, y in zip(xs, ys)
                if y > bound_value(n, coefficient, degree, base)
            ]
            entry.update(
                ok=not breaches,
                bound=format_bound(coefficient, degree, base),
                points=[{"n": n, "value": y} for n, y in zip(xs, ys)],
            )
            if breaches:
                entry["breaches"] = [
                    {"n": n, "value": y} for n, y in breaches
                ]
        else:
            detected: Classification = classify(xs, ys)
            entry["fit"] = detected.to_json()
            entry["doubling_ratios"] = doubling_ratios(xs, ys)
            if expectation.kind == "poly":
                ok = detected.kind == "poly"
                if ok and expectation.max_degree is not None:
                    ok = detected.degree <= expectation.max_degree
                    entry["max_degree"] = expectation.max_degree
                entry["ok"] = ok
            elif expectation.kind == "superpoly":
                entry["ok"] = detected.kind == "superpoly"
            else:
                entry.update(ok=False,
                             reason=f"unknown kind {expectation.kind!r}")
        results.append(entry)
    return results


def _evaluate_gates(suite: Suite,
                    points: list[dict[str, Any]]) -> list[dict[str, Any]]:
    results = []
    for gate in suite.gates:
        slow_xs, slow_ys = series(points, gate.slow, gate.metric)
        fast_xs, fast_ys = series(points, gate.fast, gate.metric)
        common = sorted(set(slow_xs) & set(fast_xs))
        entry: dict[str, Any] = {
            "slow": gate.slow, "fast": gate.fast,
            "metric": gate.metric, "min_ratio": gate.min_ratio,
        }
        if not common:
            entry.update(ok=False, reason="no common sizes")
            results.append(entry)
            continue
        n = common[-1]
        slow_value = slow_ys[slow_xs.index(n)]
        fast_value = fast_ys[fast_xs.index(n)]
        ratio = slow_value / fast_value if fast_value > 0 else float("inf")
        entry.update(n=n, slow_value=slow_value, fast_value=fast_value,
                     ratio=ratio, ok=ratio >= gate.min_ratio)
        results.append(entry)
    return results


def _check_agreement(suite: Suite,
                     points: list[dict[str, Any]]) -> dict[str, Any]:
    """Cross-strategy checksum agreement per size (differential check).
    Failed points have no checksum to compare — they are reported
    through the ``failed_points`` channel instead."""
    by_n: dict[int, set] = {}
    for point in points:
        if point.get("failed"):
            continue
        by_n.setdefault(point["n"], set()).add(point["checksum"])
    disagreements = {n: sorted(sums) for n, sums in by_n.items()
                     if len(sums) > 1}
    return {
        "ok": not disagreements,
        "disagreements": {str(n): sums
                          for n, sums in sorted(disagreements.items())},
    }


def build_suite_document(
    suite: Suite,
    sizes: tuple[int, ...],
    strategies: tuple[str, ...],
    points: list[dict[str, Any]],
) -> dict[str, Any]:
    """Assemble one suite's JSON-safe result from its measured (or
    failed) points.  Pure post-processing: given the same points this
    returns the same document, which is what makes the sharded runner's
    merge deterministic."""
    fits: dict[str, dict[str, Any]] = {}
    for strategy in strategies:
        xs, ys = series(points, strategy, "seconds")
        if len(xs) >= 2:
            fits[strategy] = {"seconds": loglog_fit(xs, ys).to_json()}
    document: dict[str, Any] = {
        "name": suite.name,
        "title": suite.title,
        "sizes": list(sizes),
        "strategies": list(strategies),
        "points": points,
        "fits": fits,
        "expectations": _evaluate_expectations(suite, points),
        "gates": _evaluate_gates(suite, points),
    }
    if suite.agree and len(strategies) > 1:
        document["agreement"] = _check_agreement(suite, points)
    failed = [point for point in points if point.get("failed")]
    if failed:
        document["failed_points"] = [
            {"n": point["n"], "strategy": point["strategy"],
             "error": point["error"]}
            for point in failed
        ]
    return document


def run_suite(
    suite: Suite,
    sizes: tuple[int, ...] | None = None,
    strategies: tuple[str, ...] | None = None,
    memory: bool = False,
    stream: Any = None,
) -> dict[str, Any]:
    """Run one suite serially; returns its JSON-safe result document."""
    specs = point_specs(suite, sizes, strategies)
    points = [run_point(suite, n, strategy, memory=memory, stream=stream)
              for n, strategy in specs]
    return build_suite_document(suite, sizes or suite.sizes,
                                strategies or suite.strategies, points)


def _suite_plan(
    suites: list[Suite],
    strategy: str | None,
) -> tuple[list[tuple[Suite, tuple[str, ...] | None]], list[str]]:
    """Apply the global ``--strategy`` filter: per suite, the strategy
    tuple to run (None = the suite's own), plus the skipped names."""
    plan: list[tuple[Suite, tuple[str, ...] | None]] = []
    skipped: list[str] = []
    for suite in suites:
        strategies: tuple[str, ...] | None = None
        if strategy is not None:
            if strategy not in suite.strategies:
                skipped.append(suite.name)
                continue
            strategies = (strategy,)
        plan.append((suite, strategies))
    return plan, skipped


def run_suites(
    suites: list[Suite],
    sizes: tuple[int, ...] | None = None,
    strategy: str | None = None,
    jobs: int = 1,
    point_timeout: float | None = None,
    memory: bool = False,
    stream: Any = None,
) -> dict[str, Any]:
    """Run several suites into one observatory document.

    ``sizes``/``strategy`` overrides apply to every suite (``repro bench
    --sizes --strategy``); a strategy a suite does not declare silently
    skips that suite rather than failing the sweep.

    ``jobs=1`` with no ``point_timeout`` is the serial path — today's
    behaviour, bit for bit.  ``jobs > 1`` (or a timeout) shards the
    cross-suite point grid over a :mod:`repro.bench.shard` worker pool:
    results merge in registry declaration order regardless of completion
    order, and a point that raises or times out degrades to a flagged
    failure entry instead of sinking the whole run (the document is then
    marked ``"partial": True``).
    """
    if jobs < 1:
        raise BenchError(f"jobs must be >= 1, got {jobs}")
    plan, skipped = _suite_plan(suites, strategy)
    documents: dict[str, Any] = {}
    if jobs == 1 and point_timeout is None:
        for suite, strategies in plan:
            documents[suite.name] = run_suite(
                suite, sizes=sizes, strategies=strategies,
                memory=memory, stream=stream)
    else:
        if stream is not None:
            raise BenchError(
                "--stream applies to serial runs only; sharded workers "
                "stream through their result pipes instead")
        from .shard import run_sharded

        documents = run_sharded(plan, sizes=sizes, jobs=jobs,
                                point_timeout=point_timeout, memory=memory)
    result: dict[str, Any] = {
        "schema": 1,
        "experiment": "repro-bench",
        "suites": documents,
    }
    if any(doc.get("failed_points") for doc in documents.values()):
        result["partial"] = True
    if skipped:
        result["skipped"] = skipped
    return result
