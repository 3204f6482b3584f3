"""repro.bench — the unified benchmark runner ("scaling observatory").

Declared sweeps (workload × size-series × strategy) live in
:mod:`repro.bench.registry`; :mod:`repro.bench.runner` measures each
point's wall time *and* space counters under a fresh tracer (serially,
or sharded over a process pool via :mod:`repro.bench.shard` with
``jobs > 1``); :mod:`repro.bench.fit` fits log-log slopes and doubling
ratios and classifies each curve poly-vs-superpolynomial;
and :mod:`repro.bench.report` renders the result and regression-gates
it against a committed ``schema: 1`` baseline.  The CLI front end is
``repro bench``.

Typical use::

    from repro.bench import resolve_suites, run_suites, render_document

    document = run_suites(resolve_suites(["smoke"]), jobs=4)
    print(render_document(document))
"""

from .fit import (
    Classification,
    Fit,
    bound_value,
    classify,
    doubling_ratios,
    format_bound,
    local_degrees,
    loglog_fit,
)
from .registry import (
    GROUPS,
    SUITES,
    Expectation,
    SpeedupGate,
    Suite,
    Tolerance,
    resolve_suites,
)
from .report import (
    LegacyBaselineError,
    diff_against_baseline,
    document_failures,
    render_document,
)
from .runner import (
    BenchError,
    build_suite_document,
    failed_point,
    point_specs,
    run_point,
    run_suite,
    run_suites,
    series,
)
from .shard import PointTask, run_sharded, run_tasks, strip_timing

__all__ = [
    "Fit",
    "Classification",
    "loglog_fit",
    "local_degrees",
    "doubling_ratios",
    "classify",
    "bound_value",
    "format_bound",
    "Expectation",
    "SpeedupGate",
    "Tolerance",
    "Suite",
    "SUITES",
    "GROUPS",
    "resolve_suites",
    "BenchError",
    "run_point",
    "failed_point",
    "point_specs",
    "build_suite_document",
    "run_suite",
    "run_suites",
    "series",
    "PointTask",
    "run_sharded",
    "run_tasks",
    "strip_timing",
    "LegacyBaselineError",
    "render_document",
    "diff_against_baseline",
    "document_failures",
]
