"""Safe evaluation via range functions (Section 5).

Definition 5.1: a query is *C-safe* if some range function computable in
C restricts every variable without changing the answer.  Theorem 5.1
shows that range-restricted queries are LOGSPACE/PTIME/PSPACE-safe for
CALC / CALC+IFP / CALC+PFP respectively, by constructing the range
functions from the range-restriction derivation.

:func:`evaluate_range_restricted` is that construction end-to-end: it
derives the ranges (:func:`repro.core.range_restriction.derive_ranges`)
and evaluates the query under the restricted-domain semantics, which for
RR queries equals the active-domain answer — in time polynomial in the
instance rather than in the (hyperexponential) domains.

:func:`verify_safety` witnesses Definition 5.1 empirically: it runs both
interpretations on a (small) instance and checks they agree, the
active-domain side on the naive oracle so the production engine is not
checked against itself; the test suite uses it across the worked
examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import get_tracer
from ..objects.instance import Instance
from ..objects.schema import DatabaseSchema
from ..objects.values import CTuple, Value
from .evaluation import Evaluator
from .range_restriction import analyze_query, derive_ranges
from .syntax import Query

__all__ = [
    "SafeEvaluationReport",
    "evaluate_range_restricted",
    "verify_safety",
]


@dataclass
class SafeEvaluationReport:
    """Outcome of a range-restricted evaluation.

    Attributes:
        answer: the query answer (set of head tuples).
        ranges: the derived range per variable (the range function's value
            on this instance), in canonical order.
        stages: the fixpoint stages the evaluation ran, range
            derivation's included: what a tracer counts as
            ``ifp.stages`` plus ``pfp.stages``, known without one.
        range_sizes: per-variable range cardinalities (a PTIME witness:
            each is polynomial in the instance).
    """

    answer: frozenset[CTuple]
    ranges: dict[str, list[Value]]
    stages: int

    @property
    def range_sizes(self) -> dict[str, int]:
        return {name: len(values) for name, values in self.ranges.items()}


def evaluate_range_restricted(
    query: Query,
    inst: Instance,
    schema: DatabaseSchema | None = None,
    exempt_types=frozenset(),
    **evaluator_options,
) -> SafeEvaluationReport:
    """Evaluate a range-restricted query via derived range functions.

    ``exempt_types`` enables Theorem 5.3's mixed discipline: variables of
    those (dense, non-trivial) types are exempt from range restriction
    and range over their full domains instead.

    The derived ranges are computed over plain values; the default
    semi-naive :class:`repro.core.evaluation.Evaluator` id-encodes them
    internally, so the report's ``ranges`` keep their object form while
    the hot evaluation compares dense ids.

    The query is type checked once, by the derivation, for the
    derivation and the evaluation both.  Raises :class:`RangeComputationError` if the
    query fails the Definition 5.2/5.3 analysis.
    """
    schema = schema or inst.schema
    tracer = get_tracer()
    with tracer.span("range_restricted") as span:
        ranges, stages = derive_ranges(query, inst, schema,
                                       exempt_types=exempt_types)
        if tracer.enabled:
            for name in sorted(ranges):
                size = len(ranges[name])
                tracer.event("range", var=name, size=size)
                tracer.gauge(f"range[{name}]", size)
                tracer.observe("space.range_size", size)
                tracer.gauge_max("space.peak_range", size)
            tracer.count("space.range_values",
                         sum(len(values) for values in ranges.values()))
            tracer.count("rr.evaluations")
        evaluator = Evaluator(schema, variable_ranges=ranges,
                              **evaluator_options)
        answer = evaluator.evaluate_checked(query, inst)  # derive_ranges checked it
        assert evaluator.last_stats is not None
        stages += evaluator.last_stats["fixpoint_stages"]
        span.set(rows=len(answer))
    return SafeEvaluationReport(answer=answer, ranges=ranges, stages=stages)


def verify_safety(
    query: Query,
    inst: Instance,
    schema: DatabaseSchema | None = None,
    max_domain_size: int = 100_000,
) -> bool:
    """Check Definition 5.1 empirically on one instance.

    Evaluates the query under both the derived-range restricted semantics
    (the production engine) and the active-domain semantics (the naive
    oracle, Definition 3.1 read literally) and compares.  Only feasible
    when the active domains are small enough to materialise
    (``max_domain_size``).
    """
    schema = schema or inst.schema
    restricted = evaluate_range_restricted(query, inst, schema).answer
    active = Evaluator(schema, max_domain_size=max_domain_size,
                       strategy="naive").evaluate(query, inst)
    return restricted == active


def safety_diagnostics(query: Query, schema: DatabaseSchema) -> list[str]:
    """Human-readable reasons a query fails the RR analysis (empty if RR)."""
    return list(analyze_query(query, schema).violations)
