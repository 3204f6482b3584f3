"""The multi-pass lint engine over CALC/IFP/PFP queries.

Passes, in order (each instrumented as a ``repro.obs`` span):

1. **types** — scope/arity/type checking in collecting mode
   (:mod:`repro.core.typecheck`): every violation becomes a ``TYP*``
   error diagnostic; later passes are skipped when this one fails, since
   their analyses need a fully typed formula.
2. **level** — the ``CALC_i^k`` classification (``LVL001``) and domain
   cost estimates: quantifying over a type of larger set height than any
   input type is hyperexponential under naive evaluation (``COST001``),
   any set-typed quantification is at least exponential (``COST002``);
   both carry exact ``|dom(T, D)|`` cardinalities from
   :mod:`repro.objects.domains` at a reference atom count.
3. **range restriction** — the Definition 5.2/5.3 prover
   (:mod:`repro.core.range_restriction`): per-variable rule citations on
   success (``RR001``), pinpointed unrestricted paths with concrete
   suggestions on failure (``RR002``-``RR004``), dropped fixpoint
   columns (``RR006``).
4. **complexity** — the Theorem 5.1 verdict (``CPX001``/``CPX003``),
   PFP divergence warnings (``CPX002``) and the Theorem 5.3 exempt-type
   note (``CPX004``).
"""

from __future__ import annotations

from ..core.parser import ParseError, SourceMap, parse_query_with_source
from ..core.range_restriction import (
    RRResult,
    analyze_query,
    path_text,
)
from ..core.syntax import Fixpoint, Or, Query, RelAtom, Var
from ..core.typecheck import TypeIssue, TypeReport, check_query
from ..objects.domains import DomainTooLarge, domain_cardinality
from ..objects.schema import DatabaseSchema
from ..objects.types import SetType, Type
from ..obs import get_tracer
from .diagnostics import Diagnostic, LintReport, Severity

__all__ = ["REFERENCE_ATOMS", "lint_query", "lint_source"]

#: Atom count at which cost estimates are quoted.  Small on purpose: the
#: point is the *shape* (hyperexponential vs polynomial), and hyper(2, k)
#: already overflows any physical quantity at n = 8.
REFERENCE_ATOMS = 8


def lint_source(
    text: str,
    schema: DatabaseSchema,
    exempt_types: frozenset[Type] | set[Type] = frozenset(),
) -> LintReport:
    """Parse ``text`` as a query and lint it with source spans.

    A malformed query yields a single ``PAR001`` error instead of an
    exception, so callers can treat parse failures as findings.
    """
    report = LintReport()
    try:
        query, source_map = parse_query_with_source(text)
    except ParseError as exc:
        report.add(Diagnostic("PAR001", Severity.ERROR, str(exc)))
        return report
    return lint_query(query, schema, source_map=source_map,
                      exempt_types=exempt_types, _report=report)


def lint_query(
    query: Query,
    schema: DatabaseSchema,
    source_map: SourceMap | None = None,
    exempt_types: frozenset[Type] | set[Type] = frozenset(),
    _report: LintReport | None = None,
) -> LintReport:
    """Run all passes over a parsed query; returns every diagnostic."""
    report = _report if _report is not None else LintReport()
    tracer = get_tracer()
    with tracer.span("lint", head=", ".join(query.head_names)):
        with tracer.span("lint.types"):
            type_report, type_errors = _pass_types(report, query, schema,
                                                  source_map)
        if type_errors:
            tracer.count("lint.diagnostics", len(report.diagnostics))
            return report
        with tracer.span("lint.level"):
            _pass_level(report, query, type_report, schema, source_map)
        with tracer.span("lint.range_restriction"):
            rr_result = _pass_range_restriction(
                report, query, schema, type_report, source_map,
                frozenset(exempt_types),
            )
        with tracer.span("lint.complexity"):
            _pass_complexity(report, type_report, rr_result,
                             frozenset(exempt_types))
        tracer.count("lint.diagnostics", len(report.diagnostics))
    return report


# ---------------------------------------------------------------------------
# Pass 1: types
# ---------------------------------------------------------------------------

def _pass_types(
    report: LintReport,
    query: Query,
    schema: DatabaseSchema,
    source_map: SourceMap | None,
) -> tuple[TypeReport, bool]:
    issues: list[TypeIssue] = []
    type_report = check_query(query, schema, collect=issues)
    for issue in issues:
        report.add(
            Diagnostic(issue.code, Severity.ERROR, issue.message)
            .locate(issue.node, source_map)
        )
    return type_report, bool(issues)


# ---------------------------------------------------------------------------
# Pass 2: level and cost
# ---------------------------------------------------------------------------

def _cardinality_text(typ: Type, n: int) -> str:
    """``|dom(typ, D)|`` at ``|D| = n``, humanised for huge values."""
    try:
        size = domain_cardinality(typ, n)
    except DomainTooLarge:
        return (f"|dom({typ!r}, D)| overflows at |D| = {n} "
                f"(set height {typ.set_height})")
    if size.bit_length() > 40:
        return (f"|dom({typ!r}, D)| = about 2^{size.bit_length() - 1} "
                f"at |D| = {n}")
    return f"|dom({typ!r}, D)| = {size} at |D| = {n}"


def _pass_level(
    report: LintReport,
    query: Query,
    type_report: TypeReport,
    schema: DatabaseSchema,
    source_map: SourceMap | None,
) -> None:
    i, k = type_report.level
    report.add(Diagnostic(
        "LVL001", Severity.INFO,
        f"query is in CALC_{i}^{k} (set height {i}, tuple width {k})",
    ))
    schema_height = schema.set_height if len(schema) else 0
    head_names = set(query.head_names)
    n = REFERENCE_ATOMS
    for name in sorted(type_report.variable_types):
        if name in head_names:
            continue
        typ = type_report.variable_types[name]
        if typ.set_height > schema_height:
            report.add(Diagnostic(
                "COST001", Severity.WARNING,
                f"bound variable {name!r} ranges over {typ!r}, whose set "
                f"height {typ.set_height} exceeds every input type "
                f"(schema height {schema_height}): naive evaluation "
                f"enumerates {_cardinality_text(typ, n)}",
                suggestion=f"range-restrict {name!r} so evaluation uses "
                           "a derived candidate set instead of "
                           f"dom({typ!r}, D) (Theorem 5.1)",
            ))
        elif typ.set_height >= 1:
            report.add(Diagnostic(
                "COST002", Severity.INFO,
                f"bound variable {name!r} ranges over the set type "
                f"{typ!r}: {_cardinality_text(typ, n)} under naive "
                "evaluation",
            ))


# ---------------------------------------------------------------------------
# Pass 3: range restriction
# ---------------------------------------------------------------------------

_VIOLATION_CODES = {
    "free": "RR002",
    "existential": "RR003",
    "universal": "RR004",
}


def _guard_candidates(typ: Type | None, schema: DatabaseSchema) -> list[str]:
    """Schema positions that could ground a variable of type ``typ``."""
    candidates = []
    for rel in schema:
        for index, column in enumerate(rel.column_types, start=1):
            if column == typ:
                candidates.append(f"{rel.name} column {index}")
            elif isinstance(column, SetType) and column.element == typ:
                candidates.append(
                    f"membership in {rel.name} column {index} ({column!r})"
                )
    return candidates


def _suggest(kind: str, path, typ: Type | None,
             schema: DatabaseSchema) -> str:
    name = path_text(path)
    candidates = _guard_candidates(typ, schema)
    where = (f"e.g. {candidates[0]}" if candidates
             else "no schema column has a matching type")
    if kind == "universal":
        return (
            f"rewrite as the nest pattern 'forall {name} ({name} in s <-> "
            f"phi)' (rule 9 of Definition 5.2), or make {name} restricted "
            f"in the negation of the body with a guarding atom (rule 7; "
            f"{where})"
        )
    return (
        f"add a conjunct guarding {name}: a database atom with {name} at "
        f"a column of type {typ!r} (rule 1 of Definition 5.2; {where}), "
        f"an equality {name} = c with a constant, or a membership "
        f"{name} in s for an already-restricted s (rule 4)"
    )


def _pass_range_restriction(
    report: LintReport,
    query: Query,
    schema: DatabaseSchema,
    type_report: TypeReport,
    source_map: SourceMap | None,
    exempt_types: frozenset[Type],
) -> RRResult:
    result = analyze_query(query, schema, exempt_types=exempt_types)
    for violation in result.violation_records:
        typ = type_report.variable_types.get(violation.path[0])
        report.add(
            Diagnostic(
                _VIOLATION_CODES.get(violation.kind, "RR002"),
                Severity.ERROR,
                violation.message,
                suggestion=_suggest(violation.kind, violation.path, typ,
                                    schema),
            ).locate(violation.node, source_map)
        )
    # Dropped fixpoint columns: benign when the query still passes, the
    # precise failure mode behind it when it does not (Example 5.2).
    for fixpoint in type_report.fixpoints:
        columns = result.fixpoint_columns.get(fixpoint.name)
        if columns is None:
            continue
        dropped = sorted(set(range(1, fixpoint.arity + 1)) - columns)
        if dropped:
            names = ", ".join(fixpoint.column_names[i - 1] for i in dropped)
            report.add(Diagnostic(
                "RR006", Severity.WARNING,
                f"tau* iteration for {fixpoint.kind}(..., {fixpoint.name}) "
                f"drops column(s) {dropped} ({names}): atoms of "
                f"{fixpoint.name} do not restrict arguments there "
                "(rule 10, Definition 5.3)",
            ))
    if result.is_range_restricted:
        report.add(Diagnostic(
            "RR005", Severity.INFO,
            "query is range restricted (Definition 5.2/5.3)",
        ))
        for name in sorted(type_report.variable_types):
            citation = result.citation_for(name)
            if citation is not None:
                report.add(Diagnostic(
                    "RR001", Severity.INFO,
                    f"variable {name!r} is range restricted by {citation}",
                    rule=citation.rule,
                ))
    return result


# ---------------------------------------------------------------------------
# Pass 4: complexity verdict
# ---------------------------------------------------------------------------

def _disjuncts(formula):
    """Flatten nested ``Or`` nodes (the builder's ``a | b | c`` nests)."""
    if isinstance(formula, Or):
        for operand in formula.operands:
            yield from _disjuncts(operand)
    else:
        yield formula


def _pfp_reasserts_itself(fixpoint: Fixpoint) -> bool:
    """True when the body has a top-level disjunct ``S(x1..xn)`` over the
    column variables — then PFP is inflationary in effect and converges."""
    for operand in _disjuncts(fixpoint.body):
        if (isinstance(operand, RelAtom)
                and operand.name == fixpoint.name
                and len(operand.args) == fixpoint.arity
                and all(isinstance(arg, Var) and arg.name == column
                        for arg, column in zip(operand.args,
                                               fixpoint.column_names))):
            return True
    return False


def _pass_complexity(
    report: LintReport,
    type_report: TypeReport,
    rr_result: RRResult,
    exempt_types: frozenset[Type],
) -> None:
    kinds = {fixpoint.kind for fixpoint in type_report.fixpoints}
    if "PFP" in kinds:
        language, bound = "CALC+PFP", "PSPACE"
    elif "IFP" in kinds:
        language, bound = "CALC+IFP", "PTIME"
    else:
        language, bound = "CALC", "LOGSPACE"
    report.bound = bound
    report.range_restricted = rr_result.is_range_restricted
    if exempt_types:
        listed = ", ".join(sorted(repr(t) for t in exempt_types))
        report.add(Diagnostic(
            "CPX004", Severity.INFO,
            f"exempt-type discipline (RR_T) in effect for {listed}: "
            "variables of these types range over their full domains, "
            "polynomial under the density assumption (Theorem 5.3)",
        ))
    if rr_result.is_range_restricted:
        report.add(Diagnostic(
            "CPX001", Severity.INFO,
            f"range-restricted {language} query: evaluable in {bound} "
            "via derived range functions (Theorem 5.1"
            + (", mixed discipline of Theorem 5.3" if exempt_types else "")
            + ")",
        ))
    else:
        report.add(Diagnostic(
            "CPX003", Severity.WARNING,
            f"not range restricted: no Theorem 5.1 {bound} guarantee for "
            f"this {language} query; only the naive active-domain "
            "enumeration over (hyperexponential) dom(T, D) applies",
        ))
    for fixpoint in type_report.fixpoints:
        if fixpoint.kind != "PFP":
            continue
        if _pfp_reasserts_itself(fixpoint):
            report.add(Diagnostic(
                "CPX002", Severity.INFO,
                f"PFP(..., {fixpoint.name}) re-asserts {fixpoint.name} in "
                "a top-level disjunct, so the iteration is inflationary "
                "and converges",
            ))
        else:
            report.add(Diagnostic(
                "CPX002", Severity.WARNING,
                f"PFP(..., {fixpoint.name}) may diverge: the partial "
                "fixpoint iterates without accumulating and is undefined "
                "when no fixed point is reached (Definition 3.1)",
                suggestion="use IFP, or add the disjunct "
                           f"{fixpoint.name}({', '.join(fixpoint.column_names)}) "
                           "to make the iteration inflationary",
            ))
