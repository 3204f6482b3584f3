"""Structured diagnostics for the ``repro.lint`` static analyzer.

Every finding is a :class:`Diagnostic` with a stable code (``TYP001``,
``RR003``, ``COST002``, ...), a severity, an optional source span, a
message and an optional fix suggestion.  The registry :data:`CODES` maps
each code to its meaning and the paper citation it implements;
:func:`explain` renders one entry for ``repro lint --explain CODE``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from ..core.parser import SourceMap, Span

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "LintReport",
    "Severity",
    "explain",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering supports ``--fail-on`` thresholds."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


class CodeInfo(NamedTuple):
    """Registry entry: what a diagnostic code means and where it comes
    from in the paper."""

    title: str
    explanation: str
    citation: str


#: code -> meaning.  Stable: codes are append-only across versions.
CODES: dict[str, CodeInfo] = {
    "PAR001": CodeInfo(
        "parse error",
        "The query text does not conform to the CALC/IFP/PFP grammar.",
        "Section 2 (syntax of the typed calculus)",
    ),
    "TYP001": CodeInfo(
        "unknown relation",
        "A relation atom names neither a database relation of the schema "
        "nor a relation bound by an enclosing fixpoint.",
        "Section 2 (queries are over a fixed database schema)",
    ),
    "TYP002": CodeInfo(
        "relation arity mismatch",
        "A relation atom has a different number of arguments than the "
        "relation's declared columns.",
        "Section 2 (relation schemas R[T1..Tn])",
    ),
    "TYP003": CodeInfo(
        "relation argument type mismatch",
        "An argument of a relation atom has a type different from the "
        "declared column type.",
        "Section 2 (the calculus is strongly typed)",
    ),
    "TYP004": CodeInfo(
        "untyped variable",
        "A variable's type can be neither inferred from a binding "
        "occurrence nor read from an annotation.",
        "Section 2 (every variable has a type)",
    ),
    "TYP005": CodeInfo(
        "variable bound twice",
        "A variable symbol occurs free and bound, is bound by more than "
        "one quantifier, or carries conflicting type annotations.",
        "Footnote 6 (variables are renamed apart)",
    ),
    "TYP006": CodeInfo(
        "comparison type mismatch",
        "'=' and 'sub' relate equal types and 'in' relates T with {T}; "
        "the operand types violate that.",
        "Section 2 (typing of atomic formulas)",
    ),
    "TYP007": CodeInfo(
        "bad projection",
        "A projection x.i is applied to a non-tuple type or the index "
        "exceeds the tuple's width.",
        "Section 2 (terms x.i over tuple-typed x)",
    ),
    "TYP008": CodeInfo(
        "fixpoint relation name clash",
        "A fixpoint's relation name shadows an enclosing fixpoint or a "
        "database relation.",
        "Definition 3.1 (S is a new relation symbol)",
    ),
    "TYP009": CodeInfo(
        "fixpoint argument type mismatch",
        "An argument of a fixpoint application has a type different from "
        "the declared column type.",
        "Definition 3.1 (typed fixpoint columns)",
    ),
    "LVL001": CodeInfo(
        "CALC_i^k level",
        "The minimal (i, k) such that every type of the query is an "
        "<i,k>-type: set height at most i, tuple width at most k.",
        "Section 3 (the languages CALC_i^k)",
    ),
    "COST001": CodeInfo(
        "quantified type exceeds input types",
        "A bound variable ranges over a type of larger set height than "
        "any input type, so the naive active-domain evaluation "
        "enumerates a hyperexponentially larger domain than the input.",
        "Section 3 (dom(T, D) grows as hyper(i, k)); Theorem 4.2",
    ),
    "COST002": CodeInfo(
        "set-typed quantification cost",
        "A bound variable ranges over a set type; its domain is "
        "exponential in the atom count under naive evaluation.  Range "
        "restriction replaces it with a polynomial candidate set.",
        "Section 3 (dom cardinality arithmetic); Theorem 5.1",
    ),
    "RR001": CodeInfo(
        "variable range restricted",
        "The variable is range restricted; the cited rule of "
        "Definition 5.2/5.3 grounds it.",
        "Definitions 5.2 and 5.3 (rules 1-9, 1', 9', 10)",
    ),
    "RR002": CodeInfo(
        "free variable not range restricted",
        "A head/free variable has no grounding derivation, so the query "
        "is not range restricted.",
        "Definition 5.2 (every free variable must be restricted)",
    ),
    "RR003": CodeInfo(
        "existential variable not range restricted",
        "An existentially quantified variable is not restricted in the "
        "quantifier's body (rule 8 fails).",
        "Definition 5.2, rule 8",
    ),
    "RR004": CodeInfo(
        "universal variable not range restricted",
        "A universally quantified variable is restricted neither via the "
        "nest pattern (rule 9) nor in the negation of the body (rule 7).",
        "Definition 5.2, rules 7 and 9",
    ),
    "RR005": CodeInfo(
        "query range restricted",
        "Every variable (free and bound) has a grounding derivation; the "
        "query admits the safe restricted-domain evaluation.",
        "Definition 5.2/5.3; Theorem 5.1",
    ),
    "RR006": CodeInfo(
        "fixpoint column dropped from tau*",
        "The column-wise tau iteration reached a greatest fixed point "
        "that excludes a column, so atoms of the fixpoint relation no "
        "longer restrict arguments in that position.",
        "Definition 5.3, rule 10 (Example 5.2)",
    ),
    "CPX001": CodeInfo(
        "complexity verdict",
        "Range-restricted queries are evaluable via range functions: "
        "LOGSPACE for RR-CALC, PTIME for RR-(CALC+IFP), PSPACE for "
        "RR-(CALC+PFP), in the size of the instance.",
        "Theorem 5.1; Corollary 5.1",
    ),
    "CPX002": CodeInfo(
        "partial fixpoint may diverge",
        "PFP iterates phi without accumulating; if no fixed point is "
        "reached the result is empty/undefined and the iteration may "
        "cycle through exponentially many stages.",
        "Definition 3.1 (partial fixpoint); Theorem 4.1(3)",
    ),
    "CPX003": CodeInfo(
        "no tractable evaluation guarantee",
        "The query failed the range-restriction analysis, so the only "
        "applicable semantics is the naive active-domain enumeration "
        "over hyperexponential domains.",
        "Theorem 5.1 (contrapositive); Section 3",
    ),
    "CPX004": CodeInfo(
        "exempt-type discipline in effect",
        "Variables of declared exempt (dense) types are excused from "
        "range restriction; their full domains are polynomial by the "
        "density assumption.",
        "Theorem 5.3 (the RR_T discipline)",
    ),
    "DLG001": CodeInfo(
        "Datalog translation error",
        "The Datalog(not-eq) program cannot be translated to CALC+IFP "
        "(unknown predicates, arity clashes, unsafe rules...).",
        "Section 6 (Datalog and the fixpoint calculus)",
    ),
    "DLG002": CodeInfo(
        "Datalog program translated",
        "The program was translated to an equivalent CALC+IFP query; the "
        "remaining diagnostics are for that translation.",
        "Section 6 (Datalog and the fixpoint calculus)",
    ),
    "DLG003": CodeInfo(
        "Datalog parse error",
        "The program text does not conform to the textual Datalog "
        "grammar (idb declarations, rules, an optional ?- query).",
        "Section 3 (inf-Datalog programs as rule sets)",
    ),
    "DLG004": CodeInfo(
        "translation skipped",
        "The CALC+IFP translation covers single-IDB programs only; the "
        "program-level passes above are the complete analysis for this "
        "program, and no translated-query diagnostics follow.",
        "Section 6 (single simultaneous fixpoint per translation)",
    ),
    "DEP001": CodeInfo(
        "dependency and strata report",
        "The predicate dependency graph: SCC condensation, recursion "
        "classification (linear when every rule has at most one "
        "positive recursive body literal), and — when no negative edge "
        "closes a cycle — the stratum of each predicate.",
        "Section 3 (inf-Datalog with negation); stratified Datalog "
        "(Apt-Blair-Walker)",
    ),
    "DEP002": CodeInfo(
        "negation inside a recursive component",
        "A negative dependency edge lies inside an SCC, so the program "
        "is not stratifiable: under inflationary evaluation its answer "
        "depends on the stage at which rules fire, and no "
        "stage-independent (stratified) meaning exists.",
        "Section 3 (inflationary semantics fixes an order); "
        "Kolaitis-Papadimitriou on inflationary vs. stratified negation",
    ),
    "DED001": CodeInfo(
        "rule unreachable from the query",
        "No dependency path leads from the query predicate to this "
        "rule's head, so deleting the rule cannot change the query "
        "answer.",
        "Section 3 (only predicates the query depends on matter)",
    ),
    "DED002": CodeInfo(
        "rule can never fire",
        "A positive body literal names a predicate with no rules and no "
        "possible EDB facts under the schema, so the body is "
        "unsatisfiable on every instance.",
        "Section 2 (instances populate schema relations only)",
    ),
    "DED003": CodeInfo(
        "duplicate rule",
        "The rule is literal-for-literal identical to an earlier rule; "
        "the duplicate contributes no derivations.",
        "Section 3 (programs are rule sets)",
    ),
    "ADN001": CodeInfo(
        "adorned program",
        "The bound/free binding patterns each IDB predicate is demanded "
        "with, propagated from the query's constants by left-to-right "
        "sideways information passing.",
        "Magic sets (Bancilhon-Maier-Sagiv-Ullman); ROADMAP item 1",
    ),
    "ADN002": CodeInfo(
        "magic-sets rewrite feasible",
        "Every demanded adornment is evaluable left-to-right: negated "
        "literals are reached fully bound and outside their head's "
        "recursive component, so the demand-driven rewrite preserves "
        "the inflationary answer.",
        "Magic sets; soundness fragments of Bourhis-Krötzsch-Rudolph "
        "(PAPERS.md)",
    ),
    "ADN003": CodeInfo(
        "magic-sets rewrite blocked",
        "Some body literal defeats demand propagation — a negated "
        "literal reached with unbound variables, or negation into the "
        "head's own recursive component; the blocking literal is "
        "pinpointed in the message.",
        "Magic sets; soundness fragments of Bourhis-Krötzsch-Rudolph "
        "(PAPERS.md)",
    ),
    "LNT001": CodeInfo(
        "internal analyzer error",
        "A lint pass raised an unexpected exception; the report is "
        "incomplete.  This is a bug in the analyzer, not in the "
        "program being linted.",
        "(not a paper property)",
    ),
}


def explain(code: str) -> str:
    """Render the registry entry for ``code`` (for ``--explain``).

    Raises :class:`KeyError` for unknown codes.
    """
    info = CODES[code]
    return (
        f"{code}: {info.title}\n"
        f"  {info.explanation}\n"
        f"  Paper: {info.citation}"
    )


@dataclass
class Diagnostic:
    """One finding of the analyzer.

    Attributes:
        code: stable registry code (a key of :data:`CODES`).
        severity: :class:`Severity` of the finding.
        message: human-readable description.
        span: character range in the query source, when known.
        line / column: 1-based position of ``span.start``, when known.
        snippet: the source text of the offending node, when known.
        suggestion: a concrete fix, when one can be derived.
        rule: the Definition 5.2/5.3 rule string for RR findings.
    """

    code: str
    severity: Severity
    message: str
    span: Span | None = None
    line: int | None = None
    column: int | None = None
    snippet: str | None = None
    suggestion: str | None = None
    rule: str | None = None

    def locate(self, node: object, source_map: SourceMap | None) -> "Diagnostic":
        """Fill span/line/column/snippet from ``node`` if it was parsed."""
        if source_map is None or node is None:
            return self
        span = source_map.span(node)
        if span is None:
            return self
        self.span = span
        self.line, self.column = source_map.line_col(span.start)
        self.snippet = source_map.snippet(node)
        return self

    def to_dict(self) -> dict:
        data: dict = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.span is not None:
            data["span"] = {"start": self.span.start, "end": self.span.end}
            data["line"] = self.line
            data["column"] = self.column
        if self.snippet is not None:
            data["snippet"] = self.snippet
        if self.suggestion is not None:
            data["suggestion"] = self.suggestion
        if self.rule is not None:
            data["rule"] = self.rule
        return data

    def render(self) -> str:
        location = ""
        if self.line is not None:
            location = f"{self.line}:{self.column}: "
        text = f"{location}{self.severity}[{self.code}] {self.message}"
        if self.snippet is not None:
            text += f"\n    | {self.snippet}"
        if self.suggestion is not None:
            text += f"\n    suggestion: {self.suggestion}"
        return text


@dataclass
class LintReport:
    """All diagnostics of one lint run, in emission order.

    ``analysis`` carries the :class:`repro.lint.program.ProgramAnalysis`
    artifact when the run linted a Datalog program (None otherwise), so
    downstream consumers — the CLI's ``--json`` ``program`` section,
    the backend router — reuse it instead of re-analyzing.  The
    complexity pass records its Theorem 5.1 verdict in ``bound``
    (``LOGSPACE``/``PTIME``/``PSPACE``) and ``range_restricted``; both
    stay None when the pass did not run (a type error stops the lint).
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    analysis: object | None = None
    bound: str | None = field(default=None, init=False)
    range_restricted: bool | None = field(default=None, init=False)

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    def fails(self, fail_on: Severity = Severity.ERROR) -> bool:
        """True iff some diagnostic reaches the ``fail_on`` threshold."""
        return any(d.severity >= fail_on for d in self.diagnostics)

    def to_dicts(self) -> list[dict]:
        return [d.to_dict() for d in self.diagnostics]

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dicts(), **kwargs)

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.render() for d in self.diagnostics)
