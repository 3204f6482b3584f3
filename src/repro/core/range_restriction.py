"""Range restriction: the syntactic safety discipline of Section 5.

Two related pieces:

1. **The decision analysis** (Definitions 5.2 and 5.3): compute the set
   of *range-restricted variables* of a formula by the paper's inference
   rules 1-9 (CALC) and 1', 9', 10 (fixpoints, with the column-wise
   ``tau`` iteration).  A formula is range restricted iff every variable
   — free and bound — is range restricted; :func:`analyze` reports the
   verdict together with per-binder diagnostics.

2. **Range functions** (the proof of Theorem 5.1 turned into an
   algorithm): :func:`compute_ranges` derives, for a range-restricted
   query and an input instance, a finite candidate set per variable such
   that the *restricted-domain* evaluation over those sets provably
   agrees with the active-domain answer — in time polynomial in the
   instance, instead of hyperexponential.

Variables and projections
-------------------------

Following the paper, "variables" include the projections ``x.i`` of
tuple-typed variables.  We represent both as *paths*: ``("x",)`` for the
variable and ``("x", i)`` for its i-th projection.  Rules 2 and 3 close a
set of paths under projection (a restricted tuple restricts its
components, and a tuple all of whose components are restricted is itself
restricted).

Soundness of union ranges
-------------------------

The proof of Theorem 5.1 fixes *one* derivation per variable and builds
its canonical range.  We instead take the union of the ranges arising
from every base derivation (every relation-atom occurrence, every
constant equation, ...).  This is sound: for a range-restricted formula,
any satisfying assignment takes its values inside the canonical ranges,
so (a) enlarging an existential range adds no witnesses (values outside
cannot satisfy the body), and (b) enlarging a universal range adds only
vacuously-true instances (a value outside the canonical range of
``nnf(not body)`` cannot falsify the body).  Union ranges stay
polynomial, so the complexity claims are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, TypeVar

from ..objects.instance import Instance
from ..objects.schema import DatabaseSchema
from ..objects.types import TupleType, Type
from ..objects.values import CSet, CTuple, Value, value_sort_key
from .evaluation import Evaluator, SharedState
from .syntax import (
    And,
    Const,
    Equals,
    Exists,
    Fixpoint,
    FixpointPred,
    FixpointTerm,
    Forall,
    Formula,
    Iff,
    Implies,
    In,
    Not,
    Or,
    Proj,
    Query,
    RelAtom,
    Subset,
    Term,
    Var,
    relation_names_of,
)
from .typecheck import TypeReport, check_query

__all__ = [
    "Path",
    "RRResult",
    "RRViolation",
    "RuleCitation",
    "analyze",
    "analyze_query",
    "is_range_restricted",
    "compute_ranges",
    "nnf",
    "negate",
]

#: A variable path: ("x",) for x itself, ("x", i) for x.i.
Path = tuple

_T = TypeVar("_T")


def path_text(path: Path) -> str:
    """Render a path the way queries write it: ``x`` or ``x.2``."""
    if len(path) == 1:
        return str(path[0])
    return f"{path[0]}.{path[1]}"


def term_path(term: Term) -> Path | None:
    """The path of a Var or Proj term, None for other terms."""
    if isinstance(term, Var):
        return (term.name,)
    if isinstance(term, Proj):
        return (term.base.name, term.index)
    return None


# ---------------------------------------------------------------------------
# Negation normal form (needed by rule 7)
# ---------------------------------------------------------------------------

def negate(formula: Formula) -> Formula:
    """``not formula`` with the negation pushed inside (rule 7's footnote)."""
    return nnf(Not(formula))


def nnf(formula: Formula) -> Formula:
    """Negation normal form: negations pushed to atoms; ``->`` and ``<->``
    expanded."""
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, Not):
            return nnf(inner.operand)
        if isinstance(inner, And):
            return Or(nnf(Not(op)) for op in inner.operands)
        if isinstance(inner, Or):
            return And(nnf(Not(op)) for op in inner.operands)
        if isinstance(inner, Implies):
            return And((nnf(inner.antecedent), nnf(Not(inner.consequent))))
        if isinstance(inner, Iff):
            return Or((
                And((nnf(inner.left), nnf(Not(inner.right)))),
                And((nnf(Not(inner.left)), nnf(inner.right))),
            ))
        if isinstance(inner, Exists):
            return Forall(inner.var, nnf(Not(inner.body)))
        if isinstance(inner, Forall):
            return Exists(inner.var, nnf(Not(inner.body)))
        return Not(inner)  # negated atom
    if isinstance(formula, And):
        return And(nnf(op) for op in formula.operands)
    if isinstance(formula, Or):
        return Or(nnf(op) for op in formula.operands)
    if isinstance(formula, Implies):
        return Or((nnf(Not(formula.antecedent)), nnf(formula.consequent)))
    if isinstance(formula, Iff):
        # Keep Iff intact: rule 9 pattern-matches it.  Its operands are
        # normalised; rule-based analysis translates it when needed.
        return Iff(nnf(formula.left), nnf(formula.right))
    if isinstance(formula, Exists):
        return Exists(formula.var, nnf(formula.body))
    if isinstance(formula, Forall):
        return Forall(formula.var, nnf(formula.body))
    return formula  # atoms


# ---------------------------------------------------------------------------
# The decision analysis
# ---------------------------------------------------------------------------

#: Rules proper to Definition 5.3 (fixpoint extension); the rest are
#: Definition 5.2's.  "exempt" is Theorem 5.3's RR_T relaxation.
_DEF_53_RULES = frozenset({"1'", "9'", "10"})


@dataclass(frozen=True)
class RuleCitation:
    """Why a path is range restricted: the grounding rule and its site.

    ``rule`` is one of ``"1".."9"`` (Definition 5.2), ``"1'"``/``"9'"``/
    ``"10"`` (Definition 5.3) or ``"exempt"`` (Theorem 5.3's RR_T
    discipline); ``detail`` names the concrete occurrence that grounded
    the path (the atom, equation, pattern...).
    """

    rule: str
    detail: str

    @property
    def source(self) -> str:
        """The paper definition/theorem the rule belongs to."""
        if self.rule == "exempt":
            return "Theorem 5.3"
        if self.rule in _DEF_53_RULES:
            return "Definition 5.3"
        return "Definition 5.2"

    def __str__(self) -> str:
        if self.rule == "exempt":
            return f"{self.source}: {self.detail}"
        return f"rule {self.rule} ({self.source}): {self.detail}"


@dataclass
class RRViolation:
    """One structured range-restriction failure.

    Attributes:
        kind: ``"free"``, ``"existential"`` or ``"universal"`` — the
            binding site whose check failed.
        path: the unrestricted variable path.
        message: the human-readable reason (same text as
            :attr:`RRResult.violations`).
        node: the AST node the failure anchors to (the quantifier, or
            the whole formula for free variables) — used for source-span
            lookup by the linter.
    """

    kind: str
    path: Path
    message: str
    node: object | None = None


@dataclass
class RRResult:
    """Verdict of the range-restriction analysis.

    Attributes:
        restricted: range-restricted paths of the whole formula.
        violations: human-readable reasons why bound variables (or the
            formula's free variables) fail to be range restricted.
        fixpoint_columns: for each analysed fixpoint (by name), the final
            ``tau*`` set of range-restricted column indices (1-based).
        citations: per restricted path, the Definition 5.2/5.3 rule that
            grounded it (the first base derivation found).
        binder_citations: per *bound* variable name, the citation
            recorded when its binding-site check succeeded (existential,
            universal, fixpoint column).
        violation_records: structured counterparts of ``violations``.
    """

    restricted: frozenset[Path] = frozenset()
    violations: list[str] = field(default_factory=list)
    fixpoint_columns: dict[str, frozenset[int]] = field(default_factory=dict)
    citations: dict[Path, RuleCitation] = field(default_factory=dict)
    binder_citations: dict[str, RuleCitation] = field(default_factory=dict)
    violation_records: list[RRViolation] = field(default_factory=list)

    @property
    def is_range_restricted(self) -> bool:
        return not self.violations

    def citation_for(self, name: str) -> RuleCitation | None:
        """The best citation for a variable: its binder-site record if
        bound, else the grounding of its ``(name,)`` path."""
        return self.binder_citations.get(name) or self.citations.get((name,))


class _Analyzer:
    """Implements Definitions 5.2 / 5.3.

    ``variable_types`` drives the projection closure (rules 2/3).
    ``tau`` maps fixpoint-bound relation names to their currently-assumed
    range-restricted columns (Definition 5.3's mapping).
    """

    def __init__(self, variable_types: Mapping[str, Type],
                 database_relations: frozenset[str],
                 exempt_types: frozenset[Type] = frozenset()):
        self.variable_types = dict(variable_types)
        self.database_relations = database_relations
        self.exempt_types = exempt_types
        self.violations: list[str] = []
        self.violation_records: list[RRViolation] = []
        self.fixpoint_columns: dict[str, frozenset[int]] = {}
        self.tau: dict[str, frozenset[int]] = {}
        #: Path -> first grounding rule found (provenance for the linter).
        self.reasons: dict[Path, RuleCitation] = {}
        #: Bound variable name -> citation at its successful binder check.
        self.binder_citations: dict[str, RuleCitation] = {}

    def _note(self, path: Path, rule: str, detail: str) -> None:
        """Record the first rule that grounds ``path`` (provenance only —
        has no effect on the verdict)."""
        self.reasons.setdefault(path, RuleCitation(rule, detail))

    def _violation(self, kind: str, path: Path, message: str,
                   node: object = None) -> None:
        self.violations.append(message)
        self.violation_records.append(
            RRViolation(kind=kind, path=path, message=message, node=node)
        )

    def _is_exempt(self, name: str) -> bool:
        """Theorem 5.3's RR_T discipline: variables of a *dense* type are
        exempt from range restriction (their full domain is polynomial),
        and count as restricted for propagation purposes."""
        typ = self.variable_types.get(name)
        return typ is not None and typ in self.exempt_types

    # -- closure under rules 2/3 -------------------------------------------

    def close(self, paths: frozenset[Path]) -> frozenset[Path]:
        result = set(paths)
        # Exempt-typed variables are restricted by fiat (Theorem 5.3).
        for name in self.variable_types:
            if self._is_exempt(name):
                result.add((name,))
                self._note(
                    (name,), "exempt",
                    f"type {self.variable_types[name]!r} is exempt from "
                    "range restriction (dense, RR_T discipline)",
                )
        changed = True
        while changed:
            changed = False
            for path in list(result):
                name = path[0]
                typ = self.variable_types.get(name)
                if typ is None or not isinstance(typ, TupleType):
                    continue
                if len(path) == 1:
                    # rule 2: x restricted -> every x.i restricted
                    for index in range(1, typ.arity + 1):
                        if (name, index) not in result:
                            result.add((name, index))
                            self._note((name, index), "2",
                                       f"component of restricted tuple {name!r}")
                            changed = True
            # rule 3: all x.i restricted -> x restricted
            by_name: dict[str, set[int]] = {}
            for path in result:
                if len(path) == 2:
                    by_name.setdefault(path[0], set()).add(path[1])
            for name, indices in by_name.items():
                typ = self.variable_types.get(name)
                if (isinstance(typ, TupleType)
                        and indices >= set(range(1, typ.arity + 1))
                        and (name,) not in result):
                    result.add((name,))
                    self._note((name,), "3",
                               f"all components of {name!r} are restricted")
                    changed = True
        return frozenset(result)

    # -- the rules -----------------------------------------------------------

    def rr(self, formula: Formula) -> frozenset[Path]:
        """Range-restricted paths of a (sub)formula.

        Also records violations for bound variables whose binding-site
        check fails (rules 7/8 and the query-level requirement).
        """
        if isinstance(formula, RelAtom):
            return self._rr_rel_atom(formula)
        if isinstance(formula, Equals):
            return self._rr_equals(formula)
        if isinstance(formula, (In, Subset)):
            return frozenset()  # contribute only inside conjunctions (rule 4)
        if isinstance(formula, FixpointPred):
            return self._rr_fixpoint_pred(formula)
        if isinstance(formula, Not):
            self.rr(formula.operand)  # still analyse for inner violations
            return frozenset()
        if isinstance(formula, And):
            return self._rr_and(formula.operands)
        if isinstance(formula, Or):
            return self._rr_or(formula.operands)
        if isinstance(formula, Implies):
            return self._rr_or((negate(formula.antecedent), formula.consequent))
        if isinstance(formula, Iff):
            return self._rr_and((
                Implies(formula.left, formula.right),
                Implies(formula.right, formula.left),
            ))
        if isinstance(formula, Exists):
            body_rr = self.close(self.rr(formula.body))
            if (formula.var.name,) not in body_rr:
                self._violation(
                    "existential", (formula.var.name,),
                    f"existential variable {formula.var.name!r} is not "
                    f"range restricted in {formula.body!r}",
                    node=formula,
                )
            else:
                self.binder_citations.setdefault(
                    formula.var.name,
                    self.reasons.get((formula.var.name,))
                    or RuleCitation("8", "restricted in the quantifier body"),
                )
            return frozenset(
                p for p in body_rr if p[0] != formula.var.name
            )
        if isinstance(formula, Forall):
            return self._rr_forall(formula)
        raise TypeError(f"unknown formula {formula!r}")

    def _rr_rel_atom(self, formula: RelAtom) -> frozenset[Path]:
        paths: set[Path] = set()
        if formula.name in self.database_relations:
            # rule 1: every variable of the atom is range restricted.
            for index, arg in enumerate(formula.args, start=1):
                path = term_path(arg)
                if path is not None:
                    paths.add(path)
                    self._note(path, "1",
                               f"argument {index} of database atom "
                               f"{formula.name}(...)")
        elif formula.name in self.tau:
            # rule 1': only arguments in restricted columns.
            for index, arg in enumerate(formula.args, start=1):
                if index in self.tau[formula.name]:
                    path = term_path(arg)
                    if path is not None:
                        paths.add(path)
                        self._note(path, "1'",
                                   f"argument {index} of fixpoint-bound atom "
                                   f"{formula.name}(...), column in tau")
        return frozenset(paths)

    def _rr_equals(self, formula: Equals) -> frozenset[Path]:
        paths: set[Path] = set()
        # rule 4, "x = c" case (either orientation).
        left_path, right_path = term_path(formula.left), term_path(formula.right)
        if left_path is not None and isinstance(formula.right, Const):
            paths.add(left_path)
            self._note(left_path, "4",
                       f"equality with constant {formula.right.value!r}")
        if right_path is not None and isinstance(formula.left, Const):
            paths.add(right_path)
            self._note(right_path, "4",
                       f"equality with constant {formula.left.value!r}")
        # rule 9': x = IFP(phi, S) — restricted iff all columns are.
        for var_path, term in ((left_path, formula.right),
                               (right_path, formula.left)):
            if var_path is not None and isinstance(term, FixpointTerm):
                tau_star, body_rr = self._fixpoint_tau_star(term.fixpoint)
                paths |= self._fixpoint_param_paths(term.fixpoint, body_rr)
                if tau_star >= set(range(1, term.fixpoint.arity + 1)):
                    paths.add(var_path)
                    self._note(var_path, "9'",
                               f"equality with fixpoint term "
                               f"{term.fixpoint.kind}(..., "
                               f"{term.fixpoint.name}) whose columns are all "
                               "range restricted")
        return frozenset(paths)

    def _rr_and(self, operands) -> frozenset[Path]:
        operands = tuple(operands)
        # rule 5 (union) then rule 4 chaining to a fixpoint.
        current: set[Path] = set()
        for op in operands:
            current |= self.rr(op)
        changed = True
        while changed:
            changed = False
            closed = self.close(frozenset(current))
            for op in operands:
                if isinstance(op, Equals):
                    lp, rp = term_path(op.left), term_path(op.right)
                    if lp is not None and rp is not None:
                        if rp in closed and lp not in closed:
                            current.add(lp)
                            self._note(lp, "4",
                                       f"equality with restricted "
                                       f"{path_text(rp)}")
                            changed = True
                        if lp in closed and rp not in closed:
                            current.add(rp)
                            self._note(rp, "4",
                                       f"equality with restricted "
                                       f"{path_text(lp)}")
                            changed = True
                elif isinstance(op, In):
                    ep = term_path(op.element)
                    cp = term_path(op.container)
                    if (ep is not None and cp is not None
                            and cp in closed and ep not in closed):
                        current.add(ep)
                        self._note(ep, "4",
                                   f"membership in restricted "
                                   f"{path_text(cp)}")
                        changed = True
                    # membership in a constant set also bounds the element
                    if (ep is not None and isinstance(op.container, Const)
                            and ep not in closed):
                        current.add(ep)
                        self._note(ep, "4", "membership in a constant set")
                        changed = True
        return self.close(frozenset(current))

    def _rr_or(self, operands) -> frozenset[Path]:
        operands = tuple(operands)
        # rule 6.  The paper words it "x in var(phi_i) implies x in
        # RR(phi_i)", which read literally would admit a variable missing
        # from one disjunct — unsound, since that disjunct leaves it
        # unconstrained.  The proof's range construction
        # ``r(x) = r_{phi_1}(x) ∪ r_{phi_2}(x)`` presupposes x restricted
        # in *both*, so we implement that (intended) reading: restricted
        # in every disjunct.
        rrs = [self.close(self.rr(op)) for op in operands]
        result = set(rrs[0])
        for other in rrs[1:]:
            result &= other
        return frozenset(result)

    def _rr_forall(self, formula: Forall) -> frozenset[Path]:
        var = formula.var
        body = formula.body
        # rule 9: forall y (y in s <-> phi'(y)) with y restricted in phi'.
        pattern = self._match_rule9(body, var.name)
        if pattern is not None:
            container_path, phi = pattern
            phi_rr = self.close(self.rr(phi))
            if (var.name,) in phi_rr:
                self.binder_citations.setdefault(
                    var.name,
                    RuleCitation(
                        "9",
                        f"nest pattern forall {var.name} ({var.name} in "
                        f"{path_text(container_path)} <-> phi) with "
                        f"{var.name} restricted in phi",
                    ),
                )
                self._note(container_path, "9",
                           f"set comprehended by the nest pattern over "
                           f"{var.name}")
                return frozenset((container_path,))
        # rule 7: y restricted in nnf(not body).  Citations gathered while
        # analysing the *negated* body describe that formula, not the
        # original — keep only the bound variable's own grounding.
        saved_reasons = dict(self.reasons)
        negated = negate(body)
        negated_rr = self.close(self.rr(negated))
        var_reason = self.reasons.get((var.name,))
        self.reasons = saved_reasons
        if (var.name,) not in negated_rr:
            self._violation(
                "universal", (var.name,),
                f"universal variable {var.name!r} is not range restricted "
                f"in the negation of {body!r}",
                node=formula,
            )
        else:
            detail = ("restricted in the negation of the body"
                      if var_reason is None
                      else f"restricted in the negation of the body via "
                           f"{var_reason}")
            self.binder_citations.setdefault(
                var.name, RuleCitation("7", detail))
        return frozenset()

    @staticmethod
    def _match_rule9(body: Formula, var_name: str):
        """Match ``y in s <-> phi'(y)`` (either orientation).

        Returns ``(path_of_s, phi')`` or None.  ``s`` must be a variable
        or projection distinct from y.
        """
        if not isinstance(body, Iff):
            return None
        for membership, phi in ((body.left, body.right),
                                (body.right, body.left)):
            if not isinstance(membership, In):
                continue
            element, container = membership.element, membership.container
            if not (isinstance(element, Var) and element.name == var_name):
                continue
            container_path = term_path(container)
            if container_path is None or container_path[0] == var_name:
                continue
            return container_path, phi
        return None

    # -- fixpoints (Definition 5.3) ------------------------------------------

    def _fixpoint_tau_star(
        self, fixpoint: Fixpoint
    ) -> tuple[frozenset[int], frozenset[Path]]:
        """Rule 10: iterate tau to its greatest fixed point tau*.

        Returns ``(tau*(S), RR_{tau*}(body))``.  Violations recorded
        during intermediate iterations are discarded; only the final
        iteration's violations are kept.
        """
        name = fixpoint.name
        columns = list(range(1, fixpoint.arity + 1))
        tau_current = frozenset(columns)
        saved_violations = list(self.violations)
        saved_records = list(self.violation_records)
        saved_reasons = dict(self.reasons)
        saved_binders = dict(self.binder_citations)
        while True:
            self.violations = list(saved_violations)
            self.violation_records = list(saved_records)
            self.reasons = dict(saved_reasons)
            self.binder_citations = dict(saved_binders)
            self.tau[name] = tau_current
            try:
                body_rr = self.close(self.rr(fixpoint.body))
            finally:
                del self.tau[name]
            tau_next = frozenset(
                index for index in tau_current
                if (fixpoint.column_names[index - 1],) in body_rr
            )
            if tau_next == tau_current:
                self.fixpoint_columns[name] = tau_current
                for index in columns:
                    column = fixpoint.column_names[index - 1]
                    if index not in tau_current:
                        # Body-internal groundings of a dropped column do
                        # not hold at the fixed point; don't leak them.
                        for path in [p for p in self.reasons
                                     if p[0] == column]:
                            del self.reasons[path]
                        continue
                    grounding = self.reasons.get((column,))
                    detail = (f"column {index} of {fixpoint.kind}(..., "
                              f"{name}) survives the tau iteration")
                    if grounding is not None:
                        detail += f", grounded by {grounding}"
                    self.binder_citations.setdefault(
                        column, RuleCitation("10", detail))
                return tau_current, body_rr
            tau_current = tau_next

    def _fixpoint_param_paths(
        self, fixpoint: Fixpoint, body_rr: frozenset[Path]
    ) -> frozenset[Path]:
        """Parameter paths of the fixpoint that are restricted in its body."""
        column_names = set(fixpoint.column_names)
        return frozenset(
            p for p in body_rr if p[0] not in column_names
        )

    def _rr_fixpoint_pred(self, formula: FixpointPred) -> frozenset[Path]:
        fixpoint = formula.fixpoint
        tau_star, body_rr = self._fixpoint_tau_star(fixpoint)
        paths: set[Path] = set(self._fixpoint_param_paths(fixpoint, body_rr))
        for index, arg in enumerate(formula.args, start=1):
            if index in tau_star:
                path = term_path(arg)
                if path is not None:
                    paths.add(path)
        return frozenset(paths)


def analyze(
    formula: Formula,
    variable_types: Mapping[str, Type],
    database_relations: frozenset[str] | set[str],
    required_free: frozenset[str] | set[str] | None = None,
    exempt_types: frozenset[Type] | set[Type] = frozenset(),
) -> RRResult:
    """Run the Definition 5.2/5.3 analysis on a formula.

    ``variable_types`` must cover every variable (use
    :func:`repro.core.typecheck.check_formula` to obtain it);
    ``database_relations`` are the relation names of the input schema.
    ``required_free`` lists free variables (e.g. the query head) that
    must come out range restricted for the formula to pass.
    ``exempt_types`` implements Theorem 5.3's ``RR_T`` discipline:
    variables of those (dense, non-trivial) types are exempt — they
    count as restricted, their ranges being the full (polynomial, by
    density) domains.
    """
    analyzer = _Analyzer(variable_types, frozenset(database_relations),
                         frozenset(exempt_types))
    restricted = analyzer.close(analyzer.rr(formula))
    for name in sorted(required_free or ()):
        if (name,) not in restricted:
            analyzer._violation(
                "free", (name,),
                f"free variable {name!r} is not range restricted",
                node=formula,
            )
    return RRResult(
        restricted=restricted,
        violations=analyzer.violations,
        fixpoint_columns=analyzer.fixpoint_columns,
        citations=dict(analyzer.reasons),
        binder_citations=dict(analyzer.binder_citations),
        violation_records=analyzer.violation_records,
    )


def analyze_query(query: Query, schema,
                  exempt_types: frozenset[Type] | set[Type] = frozenset(),
                  report: TypeReport | None = None) -> RRResult:
    """Analyse a query: head variables must be range restricted
    (except those of an exempt type, per Theorem 5.3).  ``report`` is
    the query's type report when the caller has checked it already."""
    if report is None:
        report = check_query(query, schema)
    return analyze(
        query.body,
        report.variable_types,
        frozenset(schema.relation_names),
        required_free=set(query.head_names),
        exempt_types=exempt_types,
    )


def is_range_restricted(query: Query, schema) -> bool:
    """True iff the query is in RR-CALC(+IFP/+PFP) over the schema."""
    return analyze_query(query, schema).is_range_restricted


# ---------------------------------------------------------------------------
# Range functions (Theorem 5.1's proof, as an algorithm)
# ---------------------------------------------------------------------------

class RangeComputationError(Exception):
    """Raised when ranges cannot be derived (formula not RR, caps...)."""


class _RangeComputer:
    """Derives per-path candidate sets by iterating the range-flow rules.

    Seeds: projections of database relations at relation-atom argument
    positions; constants in equations and memberships.  Flows: equality
    chaining, membership element extraction, fixpoint column circulation
    (rule 10), nest construction (rule 9) and fixpoint terms (rule 9').
    Iterates to a global fixed point; every step only adds values that
    are projections/members of instance data or of previously derived
    values, so the result stays polynomial in the instance.
    """

    MAX_ROUNDS = 200

    def __init__(self, instance, variable_types: Mapping[str, Type],
                 database_relations: frozenset[str]):
        self.instance = instance
        self.variable_types = dict(variable_types)
        self.database_relations = database_relations
        self.ranges: dict[Path, set[Value]] = {}
        #: Ranges in canonical order, sorted once per change (see
        #: :meth:`variable_ranges`).
        self._ordered: dict[Path, list[Value]] = {}
        self.changed = False
        #: One view of the instance's interned encoding, one instance
        #: index pool and one split per formula, shared by every
        #: rule-9/9' evaluation: splits and candidate encodings are made
        #: once per derivation, not once per binding, and the
        #: derivation's interned-value and index-build counts add up as
        #: one evaluation's.  The relations' id rows and indexes live in
        #: the instance's encoding, built once per instance.
        self._shared = SharedState(instance)
        self._columns: dict[tuple[str, int], frozenset[Value]] = {}
        #: (relation name, column index) -> column variable path, set
        #: while a fixpoint body is being collected.
        self._column_paths: dict[tuple[str, int], Path] = {}
        #: The fixpoint stages the rule-9/9' evaluations ran, those cut
        #: short by an exception included, as a tracer counts them.
        self.stages = 0

    def add(self, path: Path, values) -> None:
        bucket = self.ranges.setdefault(path, set())
        before = len(bucket)
        bucket.update(values)
        if len(bucket) != before:
            self.changed = True
            self._ordered.pop(path, None)

    def _column(self, name: str, index: int) -> frozenset[Value]:
        """The values at column ``index`` of relation ``name``, read from
        the instance once per derivation, not once per round."""
        column = self._columns.get((name, index))
        if column is None:
            column = self._columns[(name, index)] = frozenset(
                row.component(index)
                for row in self.instance.relation(name).tuples)
        return column

    def variable_ranges(self) -> dict[str, list[Value]]:
        """Each variable's range as a list in one canonical order
        (:func:`~repro.objects.values.value_sort_key`).  Quantifiers
        walk their ranges in this order, so where they stop — and the
        work counters — do not depend on set iteration order."""
        result: dict[str, list[Value]] = {}
        for path, values in self.ranges.items():
            if len(path) == 1:
                ordered = self._ordered.get(path)
                if ordered is None:
                    ordered = sorted(values, key=value_sort_key)
                    self._ordered[path] = ordered
                result[path[0]] = ordered
        return result

    def run(self, formula: Formula) -> dict[Path, set[Value]]:
        for round_index in range(self.MAX_ROUNDS):
            self.changed = False
            self._collect(formula)
            self._projection_closure()
            if not self.changed:
                return self.ranges
        raise RangeComputationError(
            f"range computation did not stabilise in {self.MAX_ROUNDS} rounds"
        )

    # -- seeds and flows, one pass over the syntax tree ---------------------

    def _collect(self, formula: Formula) -> None:
        if isinstance(formula, RelAtom):
            self._collect_rel_atom(formula)
            return
        if isinstance(formula, Equals):
            self._collect_equals(formula)
            return
        if isinstance(formula, In):
            self._collect_in(formula)
            return
        if isinstance(formula, Subset):
            return
        if isinstance(formula, FixpointPred):
            self._collect_fixpoint(formula.fixpoint, formula.args)
            return
        if isinstance(formula, (Exists, Forall)):
            self._collect(formula.body)
            if isinstance(formula, Forall):
                self._collect_rule9(formula)
            return
        for child in formula.children():
            self._collect(child)
        for term in formula.terms():
            if isinstance(term, FixpointTerm):
                self._collect_fixpoint(term.fixpoint, None)

    def _collect_rel_atom(self, formula: RelAtom) -> None:
        if formula.name in self.database_relations:
            for index, arg in enumerate(formula.args, start=1):
                path = term_path(arg)
                if path is not None:
                    self.add(path, self._column(formula.name, index))
                if isinstance(arg, FixpointTerm):
                    self._collect_fixpoint(arg.fixpoint, None)
        # Fixpoint-bound relation atoms: flow column ranges to arguments.
        # Column variables share names with the fixpoint's declared
        # columns, whose ranges are derived from the body's own seeds.
        else:
            for index, arg in enumerate(formula.args, start=1):
                path = term_path(arg)
                column_path = self._column_paths.get((formula.name, index))
                if path is not None and column_path is not None:
                    self.add(path, self.ranges.get(column_path, ()))

    def _collect_equals(self, formula: Equals) -> None:
        lp, rp = term_path(formula.left), term_path(formula.right)
        if lp is not None and isinstance(formula.right, Const):
            self.add(lp, (formula.right.value,))
        if rp is not None and isinstance(formula.left, Const):
            self.add(rp, (formula.left.value,))
        if lp is not None and rp is not None:
            self.add(lp, self.ranges.get(rp, ()))
            self.add(rp, self.ranges.get(lp, ()))
        # rule 9': x = IFP(...) — the fixpoint result itself is a value.
        for path, term in ((lp, formula.right), (rp, formula.left)):
            if path is not None and isinstance(term, FixpointTerm):
                self._collect_fixpoint(term.fixpoint, None)
                self._flow_fixpoint_term(path, term)

    def _collect_in(self, formula: In) -> None:
        ep, cp = term_path(formula.element), term_path(formula.container)
        if ep is not None and isinstance(formula.container, Const):
            container = formula.container.value
            if isinstance(container, CSet):
                self.add(ep, container.elements)
        if ep is not None and cp is not None:
            for value in self.ranges.get(cp, set()):
                if isinstance(value, CSet):
                    self.add(ep, value.elements)

    def _collect_fixpoint(self, fixpoint: Fixpoint, args) -> None:
        # Register column paths so S-atoms inside the body can flow.
        for index, name in enumerate(fixpoint.column_names, start=1):
            self._column_paths[(fixpoint.name, index)] = (name,)
        try:
            self._collect(fixpoint.body)
        finally:
            for index in range(1, fixpoint.arity + 1):
                self._column_paths.pop((fixpoint.name, index), None)
        if args is not None:
            for index, arg in enumerate(args, start=1):
                path = term_path(arg)
                if path is not None:
                    column = fixpoint.column_names[index - 1]
                    self.add(path, self.ranges.get((column,), ()))

    def _flow_fixpoint_term(self, path: Path, term: FixpointTerm) -> None:
        """Rule 9' range: the term's value per binding of its parameters,
        from one evaluation (:meth:`Evaluator.term_values`: an IFP term
        runs once, lifted, a PFP term per binding).  A term reading an
        enclosing fixpoint's relation has a value only within that
        fixpoint's stages, which the derivation does not run: no range."""
        ranges = self.variable_ranges()
        if all(var.name in ranges for var in term.fixpoint.parameters()):
            fixpoint = term.fixpoint
            enclosing = sorted(
                {name for name, _ in self._column_paths}
                & (relation_names_of(fixpoint.body) - {fixpoint.name}))
            if enclosing:
                raise RangeComputationError(
                    f"no range for {path_text(path)}: its {fixpoint.kind} "
                    f"term on {fixpoint.name} reads {enclosing[0]}, the "
                    "relation of an enclosing fixpoint, whose stages the "
                    "range derivation does not run")
            self.add(path, self._evaluate(Evaluator.term_values, term,
                                          self.instance))
        # else: parameters not yet ranged; a later round retries

    def _collect_rule9(self, formula: Forall) -> None:
        """Rule 9 range: the set {y | phi'(y)} per binding of phi''s other
        free variables p, from one evaluation of the query
        {[p, y] | phi'} nested by p (Example 5.3's nest idiom)."""
        pattern = _Analyzer._match_rule9(formula.body, formula.var.name)
        if pattern is None:
            return
        container_path, phi = pattern
        y_name = formula.var.name
        y_type = self.variable_types.get(y_name)
        params = sorted(
            name for name in phi.free_variables() if name != y_name
        )
        ranges = self.variable_ranges()
        if y_type is None or not all(name in ranges
                                     for name in params + [y_name]):
            return  # not yet ranged; a later round retries
        if y_name not in phi.free_variables():
            y = Var(y_name, y_type)  # the head needs y free in the body
            phi = And((phi, Equals(y, y)))
        head = [(name, self.variable_types[name]) for name in params]
        rows = self._evaluate(Evaluator.evaluate_checked,
                              Query(head + [(y_name, y_type)], phi),
                              self.instance)
        nested: dict[tuple, list[Value]] = {}
        for row in rows:
            nested.setdefault(row.items[:-1], []).append(row.items[-1])
        sets = {CSet(members) for members in nested.values()}
        if len(nested) < math.prod(len(ranges[name]) for name in params):
            sets.add(CSet())  # some binding has no member
        self.add(container_path, sets)

    # -- helpers needing evaluation -----------------------------------------

    def _evaluate(self, method: Callable[..., _T], *args: Any,
                  **kwargs: Any) -> _T:
        """``method`` (an :class:`Evaluator` method) called on an
        evaluator over the current ranges, reading the shared interned
        instance.  The stages it runs count toward :attr:`stages`, also
        when it raises."""
        evaluator = Evaluator(
            self.instance.schema,
            variable_ranges=self.variable_ranges(),
        )
        evaluator.shared = self._shared
        try:
            return method(evaluator, *args, **kwargs)
        finally:
            if evaluator.last_stats is not None:
                self.stages += evaluator.last_stats["fixpoint_stages"]

    # -- rules 2/3 on ranges --------------------------------------------------

    def _projection_closure(self) -> None:
        for path in list(self.ranges):
            name = path[0]
            typ = self.variable_types.get(name)
            if not isinstance(typ, TupleType):
                continue
            if len(path) == 1:
                for index in range(1, typ.arity + 1):
                    self.add((name, index), (
                        v.component(index) for v in self.ranges[path]
                        if isinstance(v, CTuple) and v.arity >= index
                    ))
        # rule 3: join component ranges into tuple ranges
        by_name: dict[str, set[int]] = {}
        for path in self.ranges:
            if len(path) == 2:
                by_name.setdefault(path[0], set()).add(path[1])
        import itertools as _it

        for name, indices in by_name.items():
            typ = self.variable_types.get(name)
            if not isinstance(typ, TupleType):
                continue
            needed = set(range(1, typ.arity + 1))
            if indices >= needed and (name,) not in self.ranges:
                pools = [sorted(self.ranges[(name, index)], key=repr)
                         for index in sorted(needed)]
                total = 1
                for pool in pools:
                    total *= len(pool)
                if total > 2_000_000:
                    raise RangeComputationError(
                        f"joined range for {name!r} would have {total} tuples"
                    )
                self.add((name,), (CTuple(combo)
                                   for combo in _it.product(*pools)))


def compute_ranges(
    query: Query,
    instance,
    schema=None,
    exempt_types: frozenset[Type] | set[Type] = frozenset(),
) -> dict[str, list[Value]]:
    """Derive candidate value sets per variable for a RR query.

    Returns a map from variable name to a finite set of values, listed
    once each in the canonical :func:`~repro.objects.values.value_sort_key`
    order (so evaluation does not depend on hash order); feeding it
    to :class:`repro.core.evaluation.Evaluator` as ``variable_ranges``
    evaluates the query under the restricted-domain semantics, which for
    range-restricted queries coincides with the active-domain answer
    (Theorem 5.1).

    Raises :class:`RangeComputationError` if the analysis of
    Definition 5.2/5.3 rejects the query.
    """
    return derive_ranges(query, instance, schema, exempt_types)[0]


def derive_ranges(
    query: Query,
    instance: Instance,
    schema: DatabaseSchema | None = None,
    exempt_types: frozenset[Type] | set[Type] = frozenset(),
) -> tuple[dict[str, list[Value]], int]:
    """:func:`compute_ranges`'s ranges, and the fixpoint stages the
    derivation ran.  Rules 9 and 9' take one value per parameter binding
    per round, from one evaluation each: a fixpoint term's value is its
    relation for the binding (a binding whose evaluation raises is left
    out), a nest pattern's the set of its members for the binding.
    Every binding counts the stages its own run would have made, a
    raising one included, as a tracer's ``ifp.stages``/``pfp.stages``
    count them.  The query is type checked once.
    """
    schema = schema or instance.schema
    report = check_query(query, schema)
    result = analyze_query(query, schema, exempt_types=frozenset(exempt_types),
                           report=report)
    if not result.is_range_restricted:
        raise RangeComputationError(
            "query is not range restricted: " + "; ".join(result.violations)
        )
    computer = _RangeComputer(
        instance, report.variable_types, frozenset(schema.relation_names)
    )
    # Exempt variables (Theorem 5.3) range over their full domains —
    # polynomial by the density assumption that justifies the exemption.
    # Seeded *before* the flow iteration so dependent variables (e.g.
    # membership witnesses in the exempt value) inherit from them.
    if exempt_types:
        from ..objects.domains import materialize_domain
        from .evaluation import DEFAULT_MAX_DOMAIN, active_atoms
        from .syntax import constants_of

        atoms = active_atoms(instance, constants_of(query.body))
        for name, typ in report.variable_types.items():
            if typ in exempt_types:
                computer.add(
                    (name,),
                    materialize_domain(typ, atoms, DEFAULT_MAX_DOMAIN))
    computer.run(query.body)
    ranges = computer.variable_ranges()
    # Variables never seeded (possible only if analysis and flows
    # disagree) get empty ranges, which is sound for RR formulas.
    for name in report.variable_types:
        ranges.setdefault(name, [])
    return ranges, computer.stages
