"""Evaluation of CALC / CALC+IFP / CALC+PFP queries.

Implements the paper's two interpretations:

* **active-domain semantics** (Section 3) — every variable of type T
  ranges over ``dom(T, D)`` where D is the set of atomic constants of the
  input instance and of the query's constants.  This is the reference
  semantics; its cost is hyperexponential in general, so all domain
  materialisation is guarded by ``max_domain_size``.
* **restricted-domain semantics** (Section 5) — each variable ranges over
  a supplied finite set of candidate values (a *range*).  The
  range-restriction analysis (:mod:`repro.core.range_restriction`)
  produces ranges under which restricted evaluation provably agrees with
  the active-domain answer for RR formulas, in polynomial time.

The evaluator handles IFP and PFP per Definition 3.1 (see
:mod:`repro.core.fixpoint`), including fixpoints used as *terms* and
fixpoints with outer parameters (Example 5.3's range-restricted nest).

Two evaluation strategies are offered (``Evaluator(strategy=...)``), and
the strategy alone picks the engine:

* ``"naive"`` — over nested objects, every fixpoint stage re-enumerates
  the full column product and re-checks every candidate row; every
  subformula is re-evaluated from scratch.  This is Definition 3.1 read
  literally, the oracle the differential tests compare against.
* ``"seminaive"`` (default) — the production engine: fixpoint stages and
  query heads are computed set at a time, as joins over interned ids.
  Every evaluation over an instance reads that instance's one interned
  encoding (:mod:`repro.objects.intern`: the store, each relation's id
  rows, interned the first time any evaluation reads the relation, and
  the instance indexes) through its own
  :class:`repro.objects.intern.InternedInstance` (range derivation's
  evaluations of one query share one, see :class:`SharedState`);
  environments bind dense ids.  Ids follow first-read order, not the
  Definition 4.2 order, and are compared only by equality, membership
  and member-set inclusion.  The counters stay per evaluation:
  ``space.interned_values`` counts the values the evaluation's ids name
  (the relations it read, with their subvalues, and the constants,
  candidates and derived tuples and sets it interned), and
  ``eval.index_builds`` the distinct indexes it probes, an instance
  index an earlier evaluation built included.

**The join kernel.**  Section 3 equates CALC+IFP with inflationary
Datalog, and Theorem 5.1's range functions take a range-restricted
variable's values from relation atoms; so the seminaive engine pushes a
query formula, and a fixpoint body, through ``And``/``Or``/``∃`` into at
most :data:`MAX_DISJUNCTS` disjuncts of conjuncts.  Type checking's
rename-apart rule (TYP005) binds each variable once, so lifting an
``∃`` variable into its disjunct captures nothing; an ``∃`` whose body
has no join literal binding its variable stays one conjunct, and so
keeps its stop at the first witness.  Each disjunct is a rule body for
the Datalog join planner (:func:`repro.datalog.joins.plan`):

* its *join part* is the relation atoms over variables and constants
  (instance relations, enclosing fixpoint relations, ``Δ::`` views) and
  the ``=``/``in`` atoms between variables and constants; parameters
  bound by the enclosing environment enter as constants.  Each
  variable's candidate list (its range under restricted semantics,
  ``dom(T, D)`` otherwise) filters the values a join binds it to,
  unless a relation column it is read from already lies within it; the
  variables no join literal binds range together over the product of
  their candidate lists, which is the oracle's walk for those variables
  alone.
* every other conjunct (``¬``, ``∀``, ``→``, ``↔``, ``⊆``, projections,
  fixpoints) is a *residual*, checked through ``_satisfy`` once per
  distinct binding of the variables it reads, in the oracle's
  enumeration order: candidate order, head variables first,
  lexicographic.  A disjunct holding no fixpoint node skips the head
  rows an earlier disjunct derived, as the oracle's ``∨`` does.  An
  ``∃`` that ``_satisfy`` reaches is split the same way, over no head,
  with its free variables as parameters.

A disjunct with no join literal walks its head's candidate product
lazily, checking each row against its residuals in turn.  A formula
left *whole* is one residual over that product, which is the oracle's
walk (an ``∃`` left whole walks its range, as the oracle does).  That
happens above the split cap, when two disjuncts would each walk a
candidate product, when a fixpoint node breaks the placement rule, and
when one of the formula's quantified variables has more candidates than
``max_product`` or, without a range, a ``dom(T, D)`` larger than
``max_domain_size``: the oracle raises :class:`EvalError` or
:class:`DomainTooLarge` only where its walk reaches that quantifier,
and a join may reach it on other rows or on none.

**Fixpoint placement.**  A fixpoint node adds stages whenever a new
parameter binding reaches it, so the kernel takes one only where the
oracle reaches it with the same bindings: (a) in the first disjunct
only; (b) a fixpoint predicate over variables and constants that is the
disjunct's first conjunct, none of whose parameters is bound inside the
disjunct, is read as a join relation, evaluated once every variable in
scope at it has a nonempty candidate list; (c) any other conjunct that
holds a fixpoint node is the disjunct's last and mentions no ``∃``
variable of the disjunct.

**Stages.**  IFP stage 1 fires every disjunct.  Later stages fire one
``Δ::S`` variant per atom on the fixpoint relation ``S`` of each
disjunct whose ``S`` occurrences are all join atoms and which holds no
fixpoint node; every other disjunct fires in full.  Derived rows
already in J are dropped (``eval.stage_skips`` counts them), so each
stage computes exactly φ(J) ∖ J (``eval.delta_rows``).  PFP fires every
disjunct in full at every stage.  The head (or column) product is
checked against ``max_product`` before any join, as the oracle checks
it before its walk.

**Lifted fixpoints.**  The proof of Theorem 5.1 gives a parameterised
fixpoint one value per parameter binding; Example 5.3 gets the same
values set at a time, as one fixpoint with the parameters as columns,
then nested.  The seminaive engine takes that route for an IFP whose
parameters all have ranges: on the first binding the evaluation
reaches, the fixpoint runs once with each atom ``S(x̄)`` of its body
read as ``S(p̄, x̄)``, and its rows, nested by ``p̄``, serve every
later binding (one that derives no rows has the empty relation).  A
binding's rows at each stage are the ones its own run would have, so
a binding counts its own run's stages (the last stage at which its
rows grew, plus one) and delta rows when it is first reached, and the
lifted run counts neither.  A fixpoint stays per binding when it is a
PFP (a binding that diverges must leave only its own value
undefined), when its body holds a fixpoint of its own (whose columns
may re-bind a parameter, and whose stages count per binding) or reads
an enclosing fixpoint's relation, and when the lifted run raises.

**What matches the oracle.**  Both strategies evaluate a fixpoint once
per distinct fixpoint, parameter values and rows of the enclosing
fixpoint relations its body references.  Interning is a bijection on
the values in play, each stage computes φ(J) ∖ J, and the placement
rule has the kernel reach every fixpoint node with the bindings the
oracle's walk reaches it with, in the same order.  So answers (decoded
at the API boundary), stage sequences, ``ifp.stages``/``pfp.stages``,
``eval.delta_rows`` and :class:`PFPDivergenceError` period/stage all
match the naive strategy.  The work counters do not:
``eval.quantifier_iterations`` counts the values taken from candidate
lists (a candidate product's walk counts its rows, and an ``∃`` left
whole or a ``∀`` walks its range), join work shows in
``eval.index_probes``/``eval.index_builds``, and ``_satisfy`` memoizes
quantifier and fixpoint subformulas that read no enclosing fixpoint
relation.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple

from ..datalog.joins import DELTA, plan
from ..datalog.syntax import BuiltinLiteral, DConst, DVar, Literal, Rule
from ..obs import NullTracer, Tracer, get_tracer
from ..obs.metrics import value_node_count
from ..objects.domains import DomainTooLarge, domain_cardinality, materialize_domain
from ..objects.instance import Instance
from ..objects.intern import InternedInstance
from ..objects.schema import DatabaseSchema
from ..objects.types import Type
from ..objects.values import Atom, CSet, CTuple, Value
from .fixpoint import (
    MAX_STAGES,
    STRATEGIES,
    FixpointError,
    IndexPool,
    PFPDivergenceError,
    check_strategy,
    iterate_ifp,
    iterate_pfp,
)
from .syntax import (
    IFP,
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
    constants_of,
)
from .typecheck import check_query

__all__ = [
    "EvalError",
    "PFPDivergenceError",
    "Evaluator",
    "STRATEGIES",
    "evaluate",
    "evaluate_formula",
    "active_atoms",
]

#: Default cap on any single materialised domain.
DEFAULT_MAX_DOMAIN = 1_000_000
#: Default cap on the size of a quantifier/head product enumeration.
DEFAULT_MAX_PRODUCT = 20_000_000
#: Cap on memoized subformula results per evaluation (bounds memory).
DEFAULT_MAX_MEMO = 250_000
#: Cap on the disjuncts a formula splits into; above it, it stays whole.
MAX_DISJUNCTS = 16

#: Engine-internal predicate names of a disjunct's rule body: a
#: variable's candidate list, the candidate product of the variables no
#: join literal binds, the fixpoint read as a join relation, and the
#: rule head.  User relation names never carry them.
_CANDIDATES = "dom::"
_PRODUCT = "product::"
_SOURCE = "fix::"
_HEAD = "head::"

Row = tuple


class EvalError(Exception):
    """Raised when evaluation cannot proceed (ill-typed input, caps...)."""


class _Heartbeat(NullTracer):
    """Reports nothing but ``tracer``'s heartbeat: the tracer of a
    lifted run, whose stages are credited per binding."""

    def __init__(self, tracer: Tracer | NullTracer):
        self._tracer = tracer

    def heartbeat(self) -> None:
        self._tracer.heartbeat()


def active_atoms(inst: Instance, query_constants: Iterable[Value] = ()) -> tuple[Atom, ...]:
    """The active atomic domain: atoms of the instance plus atoms of the
    query's constants, in deterministic label order."""
    atoms = set(inst.atoms())
    for constant in query_constants:
        atoms |= constant.atoms()
    return tuple(sorted(atoms, key=lambda a: (type(a.label).__name__, str(a.label))))


class _DomainCache:
    """Materialised ``dom(T, D)`` per type, guarded by a size cap.

    ``D`` comes from ``active`` on the first :meth:`domain` call:
    range-restricted evaluation gives every variable a range and never
    makes one, so it never pays for the atom scan."""

    def __init__(self, active: Callable[[], tuple[Atom, ...]],
                 max_domain: int,
                 tracer: Tracer | NullTracer | None = None):
        self._active = active
        self._atoms: tuple[Atom, ...] | None = None
        self.max_domain = max_domain
        self.tracer = tracer if tracer is not None else get_tracer()
        self._cache: dict[Type, list[Value]] = {}

    def size(self, typ: Type) -> int:
        """``|dom(T, D)|``, without materialising the domain."""
        if typ in self._cache:
            return len(self._cache[typ])
        if self._atoms is None:
            self._atoms = self._active()
        return domain_cardinality(typ, len(self._atoms))

    def domain(self, typ: Type) -> list[Value]:
        if typ not in self._cache:
            cardinality = self.size(typ)
            if cardinality > self.max_domain:
                raise DomainTooLarge(
                    f"active-domain evaluation needs |dom({typ!r})| = "
                    f"{cardinality} values (cap {self.max_domain}); use "
                    "range-restricted evaluation or raise max_domain_size"
                )
            self._cache[typ] = materialize_domain(typ, self._atoms, None)
            if self.tracer.enabled:
                self.tracer.event("domain", type=repr(typ),
                                  cardinality=len(self._cache[typ]))
                self.tracer.count("domains.materialized")
                self.tracer.gauge(f"domain[{typ!r}]", len(self._cache[typ]))
        return self._cache[typ]


def _referenced_relations(formula: Formula) -> frozenset[str]:
    """Relation names a formula's truth value can depend on.

    Collects every :class:`RelAtom` name reachable from the formula,
    descending into fixpoint bodies in both predicate and term position
    (a fixpoint body may read an *enclosing* fixpoint's relation through
    the evaluator's relation environment, so those names count as
    dependencies of the outer formula too).
    """
    names: set[str] = set()

    def visit_term(term: Term) -> None:
        for sub in term.walk_terms():
            if isinstance(sub, FixpointTerm):
                visit(sub.fixpoint.body)

    def visit(node: Formula) -> None:
        if isinstance(node, RelAtom):
            names.add(node.name)
        if isinstance(node, FixpointPred):
            visit(node.fixpoint.body)
        for child in node.children():
            visit(child)
        for term in node.terms():
            visit_term(term)

    visit(formula)
    return frozenset(names)


# ---------------------------------------------------------------------------
# The split: a formula as a union of joins (the seminaive kernel)
# ---------------------------------------------------------------------------

class _Disjunct(NamedTuple):
    """One disjunct of a split formula, ready to compile into a rule.

    ``variables`` are the head (or column) variables, then the lifted
    ``∃`` variables; ``outputs`` the names the rule's head yields: the
    head variables, then the lifted ones a residual reads (or, an ``∃``
    having no head, its first variable).  ``walked`` are the variables
    no join literal binds, which range together over the product of
    their candidates.  ``source`` is a fixpoint predicate read as a join
    relation (placement rule b), evaluated only once every variable of
    ``scope`` has candidates.
    ``residuals`` pairs each residual with the positions in ``outputs``
    of the variables it reads.  ``delta`` lists the positions in
    ``joins`` of the atoms on the fixpoint relation, whose ``Δ::``
    variants fire after stage 1, unless the disjunct fires ``full`` at
    every stage.  ``fixpoints`` says whether it holds a fixpoint node.
    """

    variables: tuple[Var, ...]
    outputs: tuple[str, ...]
    walked: tuple[str, ...]
    joins: tuple[Formula, ...]
    source: FixpointPred | None
    scope: tuple[str, ...]
    residuals: tuple[tuple[Formula, tuple[int, ...]], ...]
    delta: tuple[int, ...]
    full: bool
    fixpoints: bool


def _joinable(formula: Formula) -> bool:
    """A relation atom, ``=`` or ``in`` over variables and constants."""
    if not isinstance(formula, (RelAtom, Equals, In)):
        return False
    return all(isinstance(term, (Var, Const)) for term in formula.terms())


def _holds_fixpoint(formula: Formula) -> bool:
    return any(isinstance(node, FixpointPred)
               or any(isinstance(term, FixpointTerm) for term in node.terms())
               for node in formula.walk())


def _dnf(formula: Formula, scope: tuple[str, ...], taken: set[str]):
    """``formula`` pushed through ``And``/``Or``/``∃``: a list of
    disjuncts, each ``(items, lifted)`` with ``items`` its conjuncts as
    ``(formula, names of the lifted ∃ variables enclosing it)`` and
    ``lifted`` its ``∃`` variables; ``None`` above :data:`MAX_DISJUNCTS`.
    ``taken`` holds the names an ``∃`` must not reuse to be lifted."""
    if isinstance(formula, (And, Or)):
        conjunction = isinstance(formula, And)
        result: list = [((), ())] if conjunction else []
        for operand in formula.operands:
            parts = _dnf(operand, scope, taken)
            if parts is None:
                return None
            if conjunction:
                result = [(items + more, lifted + extra)
                          for items, lifted in result for more, extra in parts]
            else:
                result += parts
            if len(result) > MAX_DISJUNCTS:
                return None
        return result
    if isinstance(formula, Exists) and formula.var.name not in taken:
        name = formula.var.name
        taken.add(name)
        parts = _dnf(formula.body, scope + (name,), taken)
        if parts is None:
            return None
        outer = formula.free_variables()
        if all(name in _bound_by([item for item, _ in items], outer)
               for items, _ in parts):
            return [(items, (formula.var,) + lifted) for items, lifted in parts]
    return [(((formula, scope),), ())]


def _bound_by(items, bound) -> set[str]:
    """``bound`` plus the variables a join over ``items`` binds: the
    arguments of its relation atoms (and of fixpoint predicates over
    variables and constants), closed under the ``=``/``in`` atoms that
    bind a variable from bound terms (the planner's generators)."""
    bound = set(bound)
    for item in items:
        if isinstance(item, RelAtom) and _joinable(item) or (
                isinstance(item, FixpointPred)
                and all(isinstance(arg, (Var, Const)) for arg in item.args)):
            bound.update(arg.name for arg in item.args if isinstance(arg, Var))
    generators = []     # (target, origin): origin bound binds target
    for item in items:
        if isinstance(item, (Equals, In)) and _joinable(item):
            first, second = item.terms()
            generators.append((first, second))
            if isinstance(item, Equals):
                generators.append((second, first))
    changed = True
    while changed:
        changed = False
        for target, origin in generators:
            if (isinstance(target, Var) and target.name not in bound
                    and (isinstance(origin, Const) or origin.name in bound)):
                bound.add(target.name)
                changed = True
    return bound


def _disjunct(items, head: tuple[Var, ...], lifted: tuple[Var, ...],
              relation: str | None, first: bool) -> _Disjunct | None:
    """Classify one disjunct's conjuncts; ``None`` when a fixpoint node
    breaks the placement rule (see the module docstring)."""
    variables = head + lifted
    names = {var.name for var in variables}
    lifted_names = {var.name for var in lifted}
    joins: list[Formula] = []
    residuals: list[Formula] = []
    source, scope, full, fixpoints = None, (), False, False
    for position, (formula, enclosing) in enumerate(items):
        if _joinable(formula):
            joins.append(formula)
        elif not _holds_fixpoint(formula):
            residuals.append(formula)
            full = full or relation in _referenced_relations(formula)
        elif not first:
            return None
        elif (position == 0 and isinstance(formula, FixpointPred)
              and all(isinstance(arg, (Var, Const)) for arg in formula.args)
              and not any(param.name in names
                          for param in formula.fixpoint.parameters())):
            source = formula
            scope = tuple(var.name for var in head) + enclosing
            full = fixpoints = True
        elif (position == len(items) - 1
              and not formula.free_variables() & lifted_names):
            residuals.append(formula)
            full = fixpoints = True
        else:
            return None
    read = set().union(*(formula.free_variables() for formula in residuals))
    outputs = tuple(var.name for var in head) + tuple(
        var.name for var in lifted if var.name in read) or tuple(
        var.name for var in variables[:1])
    # Variables no join literal binds are walked together, in head order:
    # each is added unless the ones before it already bind it.
    sources = joins + ([source] if source is not None else [])
    outside = set().union(*(formula.free_variables()
                            for formula in sources)) - names
    bound = _bound_by(sources, outside)
    walked: list[str] = []
    for var in variables:
        if var.name not in bound:
            walked.append(var.name)
            bound = _bound_by(joins, bound | {var.name})
    return _Disjunct(
        variables, outputs, tuple(walked), tuple(joins), source, scope,
        tuple((formula, tuple(index for index, name in enumerate(outputs)
                              if name in formula.free_variables()))
              for formula in residuals),
        tuple(index for index, formula in enumerate(joins)
              if isinstance(formula, RelAtom) and formula.name == relation),
        full, fixpoints)


def _quantified(formula: Formula) -> tuple[Var, ...]:
    """The variables the formula's ``∃``/``∀`` nodes bind, outside
    fixpoint bodies (a fixpoint's own evaluation enumerates those)."""
    own = (formula.var,) if isinstance(formula, (Exists, Forall)) else ()
    return own + tuple(var for child in formula.children()
                       for var in _quantified(child))


class _Split(NamedTuple):
    """A formula split over its head: ``disjuncts``, or ``None`` when it
    stays whole, and ``quantified``, its quantified variables."""

    formula: Formula
    disjuncts: tuple[_Disjunct, ...] | None
    quantified: tuple[Var, ...]


def _split(formula: Formula, head: tuple[Var, ...],
           relation: str | None) -> _Split:
    """``formula`` as a union of joins over the ``head`` variables (the
    query head, a fixpoint's columns, whose relation is ``relation``, or
    none for an ``∃`` checked on its own)."""
    taken = {var.name for var in head} | formula.free_variables()
    parts = _dnf(formula, (), taken)
    disjuncts = None
    if parts is not None and parts[0][0][0][0] is not formula:
        split = [_disjunct(items, head, lifted, relation, index == 0)
                 for index, (items, lifted) in enumerate(parts)]
        # Two disjuncts that each walk a candidate product would walk
        # the head twice where the whole formula walks it once.
        if (None not in split
                and sum(bool(disjunct.walked) for disjunct in split) < 2):
            disjuncts = tuple(split)
    return _Split(formula, disjuncts, _quantified(formula))


def _prefixed(formula: Formula, name: str, prefix: tuple[Var, ...]) -> Formula:
    """``formula``, which holds no fixpoint, with ``prefix`` put before
    the arguments of every atom on relation ``name``."""
    if isinstance(formula, RelAtom):
        if formula.name != name:
            return formula
        return RelAtom(name, prefix + formula.args)
    if isinstance(formula, (And, Or)):
        return type(formula)(_prefixed(operand, name, prefix)
                             for operand in formula.operands)
    if isinstance(formula, (Exists, Forall)):
        return type(formula)(formula.var,
                             _prefixed(formula.body, name, prefix))
    if isinstance(formula, (Not, Implies, Iff)):
        return type(formula)(*(_prefixed(child, name, prefix)
                               for child in formula.children()))
    return formula


def _lift(fixpoint: Fixpoint, params: tuple[str, ...]) -> Fixpoint | None:
    """``fixpoint`` with its parameters ``params`` as leading columns, each
    atom ``S(x̄)`` of its body becoming ``S(p̄, x̄)``: nested by ``p̄``, its
    rows are the fixpoint's rows per parameter binding (Example 5.3).
    ``None`` where a binding's rows or stages could not be read off it:
    a PFP, or a body holding a fixpoint (whose columns may re-bind a
    parameter); also when a parameter has no typed occurrence to give
    its column a type."""
    body = fixpoint.body
    if fixpoint.kind != IFP or not params or _holds_fixpoint(body):
        return None
    types = {var.name: var.typ for node in body.walk()
             for term in node.terms() for var in term.variables()
             if var.typ is not None}
    if not all(name in types for name in params):
        return None
    columns = tuple((name, types[name]) for name in params)
    prefix = tuple(Var(name, typ) for name, typ in columns)
    return Fixpoint(IFP, fixpoint.name, columns + fixpoint.columns,
                    _prefixed(body, fixpoint.name, prefix))


class _Lifted(NamedTuple):
    """A parameterised IFP run once, lifted (:func:`_lift`): ``ranks``,
    each parameter's candidates there, and ``rows``, for each binding of
    the parameters that derived rows, its rows and the stages its own
    run would have made."""

    ranks: tuple[dict[int, int], ...]
    rows: dict[tuple, tuple[frozenset, int]]


class _Candidates:
    """A variable's id-encoded candidates: ``ids`` in candidate order
    and ``ranks``, each id's first position there."""

    __slots__ = ("ids", "ranks")

    def __init__(self, ids: list[int]):
        self.ids = ids
        # Filled from the end, so an id met twice keeps its first rank.
        self.ranks = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))

    def __len__(self) -> int:
        return len(self.ids)


class _Outside:
    """The complement of a candidate list, as unary rows.  A negated
    literal over it is the candidate filter of a variable a join literal
    binds: the planner applies it as soon as the variable is bound and,
    the literal being negative, never scans it."""

    __slots__ = ("ranks",)

    def __init__(self, candidates: _Candidates):
        self.ranks = candidates.ranks

    def __contains__(self, row: tuple) -> bool:
        return row[0] not in self.ranks


class _Product:
    """The candidate product of the variables no join literal binds, as
    rows for the join planner, generated afresh by every scan.  The
    first scan is the oracle's walk over that product, which counts its
    rows as quantifier iterations."""

    __slots__ = ("names", "lists", "ctx", "counted")

    def __init__(self, names: tuple[str, ...], lists: list[list[int]],
                 ctx: "_Context"):
        self.names, self.lists, self.ctx = names, lists, ctx
        self.counted = False

    def __len__(self) -> int:
        return math.prod(len(ids) for ids in self.lists)

    def __iter__(self):
        if not self.counted:
            self.counted = True
            self.ctx.walked(self.names, [len(ids) for ids in self.lists])
        return itertools.product(*self.lists)


class SharedState:
    """What the seminaive evaluations of one query over one instance can
    share, none of it depending on the ranges an evaluation uses.

    ``interned`` is the view of the instance's encoding the evaluations
    read and count through, and ``pool`` probes the instance indexes,
    which the encoding keeps for the instance's lifetime.  The rest is
    query-dependent and lives only as long as this state: ``splits``
    holds each formula's split, ``encodings`` each candidate list
    already id-encoded, reused while an evaluation ranges over that very
    list, and ``confined`` which relation columns lie within which of
    them.  An evaluation builds its own unless its :class:`Evaluator`
    carries one in ``shared``; range derivation shares one across all
    its evaluations of an instance, so their counters add up as one
    evaluation's would.
    """

    def __init__(self, instance: Instance,
                 tracer: Tracer | NullTracer | None = None):
        self.interned = InternedInstance(instance)
        self.pool = IndexPool(tracer, self.interned.indexes)
        self.splits: dict[tuple, _Split] = {}
        self.encodings: dict[tuple, tuple[Collection, _Candidates]] = {}
        self.confined: dict[tuple, tuple[object, _Candidates, bool]] = {}

    def split(self, formula: Formula, head: tuple[Var, ...],
              relation: str | None) -> _Split:
        key = (id(formula), head, relation)
        entry = self.splits.get(key)
        if entry is None or entry.formula is not formula:
            entry = self.splits[key] = _split(formula, head, relation)
        return entry

    def encode(self, key: tuple, source: Collection[Value]) -> _Candidates:
        entry = self.encodings.get(key)
        if entry is None or entry[0] is not source:
            intern = self.interned.intern
            entry = self.encodings[key] = (
                source, _Candidates([intern(value) for value in source]))
        return entry[1]

    def confines(self, key: str, rows, position: int,
                 candidates: _Candidates) -> bool:
        """Whether every row of ``rows`` (read under ``key``) has its
        value at ``position`` among ``candidates``: then a variable a
        join binds there needs no candidate filter.  Computed once per
        row set and candidate list."""
        entry = self.confined.get((key, position))
        if (entry is None or entry[0] is not rows
                or entry[1] is not candidates):
            ranks = candidates.ranks
            entry = self.confined[(key, position)] = (
                rows, candidates, all(row[position] in ranks for row in rows))
        return entry[2]


class _Context:
    """State threaded through a single evaluation."""

    def __init__(
        self,
        instance: Instance,
        active: Callable[[], tuple[Atom, ...]],
        max_domain: int,
        max_product: int,
        variable_ranges: Mapping[str, Collection[Value]] | None,
        strategy: str,
        shared: SharedState | None,
    ):
        self.instance = instance
        self.tracer = get_tracer()
        self.domains = _DomainCache(active, max_domain, self.tracer)
        self.max_product = max_product
        self.variable_ranges = dict(variable_ranges or {})
        self.strategy = strategy
        #: Relations bound by enclosing fixpoints: name -> frozenset of rows.
        self.rel_env: dict[str, frozenset[tuple[Value, ...]]] = {}
        #: Cache of fixpoint results keyed by (fixpoint, parameter values,
        #: rows of the enclosing relations the body references).
        self.fixpoint_cache: dict[tuple, frozenset[tuple[Value, ...]]] = {}
        #: Interned kernel: each fixpoint result a term evaluated to, by
        #: ``id``, with its set's id, so a cache hit interns nothing.
        self.term_sets: dict[int, tuple[frozenset, int]] = {}
        #: Per fixpoint representative (by ``id``), its lifted run, or
        #: ``None`` when it is evaluated per binding.
        self.lifted: dict[int, _Lifted | None] = {}
        #: Statistics (exposed for benchmarks).
        self.stats = {"atom_checks": 0, "formula_checks": 0,
                      "quantifier_iterations": 0, "fixpoint_stages": 0,
                      "delta_rows": 0, "stage_skips": 0,
                      "satisfy_memo_hits": 0}
        #: Enumeration shapes already reported to the tracer (dedup so a
        #: quantifier inside a hot loop traces once, not per outer env).
        self.traced_enumerations: set[tuple] = set()
        #: Memoized _satisfy results (seminaive strategy only), keyed by
        #: (formula, free-variable bindings); capped by
        #: :data:`DEFAULT_MAX_MEMO`.
        self.satisfy_memo: dict[tuple, bool] = {}
        #: Interned kernel (seminaive strategy only): ``store`` is the
        #: shared state's view of the instance's encoding.  Every env
        #: binds dense ids from it, candidates are encoded into it and
        #: relation reads take its rows, indexed by the shared state's
        #: pool.  ``None`` (the naive oracle) selects the object path.
        self.shared: SharedState | None = None
        self.store: InternedInstance | None = None
        if strategy == "seminaive":
            self.shared = shared or SharedState(instance, self.tracer)
            self.store = self.shared.interned
        #: Per-formula (free variables, referenced relations), computed once.
        #: Keyed by ``id(formula)``: AST nodes are immutable and outlive
        #: the context, and structural hashing of a subtree on every
        #: lookup is exactly the per-node cost memoization must avoid.
        self._profiles: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        #: Per fixpoint node (by ``id``): the first structurally equal
        #: node seen, whose ``id`` keys ``fixpoint_cache``, and the
        #: body's parameter names.
        self._fixpoints: dict[int, tuple[Fixpoint, tuple[str, ...]]] = {}
        self._representatives: dict[Fixpoint, Fixpoint] = {}
        #: The index pool of each row set a plan reads besides the
        #: instance's (a new row set, a new pool).
        self._pools: dict[str, tuple[object, IndexPool]] = {}

    def profile(self, formula: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Free-variable names and referenced relation names (sorted)."""
        cached = self._profiles.get(id(formula))
        if cached is None:
            cached = (tuple(sorted(formula.free_variables())),
                      tuple(sorted(_referenced_relations(formula))))
            self._profiles[id(formula)] = cached
        return cached

    def fixpoint(self, fixpoint: Fixpoint) -> tuple[Fixpoint, tuple[str, ...]]:
        """The representative of the fixpoints equal to ``fixpoint`` and
        its parameter names (sorted), computed once per node."""
        cached = self._fixpoints.get(id(fixpoint))
        if cached is None:
            columns = set(fixpoint.column_names)
            cached = (self._representatives.setdefault(fixpoint, fixpoint),
                      tuple(name for name in self.profile(fixpoint.body)[0]
                            if name not in columns))
            self._fixpoints[id(fixpoint)] = cached
        return cached

    def candidates(self, var_name: str, typ: Type) -> Collection:
        """Values a variable ranges over: its range if given, else dom(T, D).

        Interned contexts return (and cache) a :class:`_Candidates`,
        whose ``ids`` list the id-encoded values in the object path's
        order, so enumeration order and short-circuiting are the
        oracle's."""
        if self.store is None:
            if var_name in self.variable_ranges:
                return self.variable_ranges[var_name]
            return self.domains.domain(typ)
        assert self.shared is not None
        if var_name in self.variable_ranges:
            return self.shared.encode(("range", var_name),
                                      self.variable_ranges[var_name])
        return self.shared.encode(("domain", typ), self.domains.domain(typ))

    def split(self, formula: Formula, head: tuple[Var, ...],
              relation: str | None) -> tuple[_Disjunct, ...] | None:
        """The disjuncts ``formula`` is evaluated as, or ``None`` when it
        is walked whole: when it does not split, or when one of its
        quantified variables has too many candidates.  That variable's
        enumeration raises :class:`EvalError` or
        :class:`DomainTooLarge` where the oracle's walk reaches it, and
        a join could reach it on other rows or none."""
        assert self.shared is not None
        split = self.shared.split(formula, head, relation)
        if split.disjuncts is None or not all(
                self._enumerable(var) for var in split.quantified):
            return None
        return split.disjuncts

    def disjuncts(self, formula: Formula, head: tuple[Var, ...],
                  relation: str | None) -> tuple[_Disjunct, ...]:
        """The disjuncts of :meth:`split`, or the formula whole: one
        residual over the head's candidate product."""
        return self.split(formula, head, relation) or (
            _disjunct((((formula, ()),)), head, (), relation, True),)

    def _enumerable(self, var: Var) -> bool:
        """Whether ``var``'s candidates pass the checks ``_bindings``
        makes: ``max_product``, and ``max_domain`` without a range."""
        if var.name in self.variable_ranges:
            return len(self.variable_ranges[var.name]) <= self.max_product
        assert var.typ is not None
        return (self.domains.size(var.typ)
                <= min(self.max_product, self.domains.max_domain))

    def walked(self, names, sizes) -> None:
        """Account for a join plan walking the product of the candidates
        of ``names`` (``sizes`` of them), as an enumeration does."""
        product = math.prod(sizes)
        self.stats["quantifier_iterations"] += product
        if self.tracer.enabled:
            shape = tuple(zip(names, sizes))
            if shape not in self.traced_enumerations:
                self.traced_enumerations.add(shape)
                self.tracer.event("enumerate", vars=list(names),
                                  sizes=list(sizes), product=product)
            self.tracer.count("eval.enumerations")

    def source(self, key: str, rows) -> tuple[str, object, IndexPool]:
        """``rows`` as a join plan reads them under ``key``, with a pool
        that lives as long as ``key`` names this very row set."""
        entry = self._pools.get(key)
        if entry is None or entry[0] is not rows:
            entry = self._pools[key] = (rows, IndexPool(self.tracer))
        return key, rows, entry[1]

    def relation(self, name: str) -> tuple[str, object, IndexPool]:
        """A relation atom's rows, with the precedence ``_satisfy``
        gives them: an enclosing fixpoint's current stage first, else
        the interned instance relation."""
        rows = self.rel_env.get(name)
        if rows is None:
            assert self.shared is not None
            return name, self.shared.interned.rows(name), self.shared.pool
        return self.source(name, rows)


class Evaluator:
    """Evaluates CALC(+IFP/PFP) queries over complex object instances.

    Parameters:
        schema: input database schema (used for type checking).
        max_domain_size: cap on any materialised ``dom(T, D)``.
        max_product: cap on enumerated variable-product sizes.
        variable_ranges: optional restricted-domain ranges, variable name
            to a collection of candidate values (restricted semantics).
        strategy: ``"seminaive"`` (the default: joins over interned ids)
            or ``"naive"`` (the object-level reference oracle); see the
            module docstring.

    An evaluation reports to the tracer active when it starts.  Its
    fixpoints supply only their stage to the loops of
    :mod:`repro.core.fixpoint`, under their ``MAX_STAGES`` guard.
    """

    #: State that seminaive evaluations of its instance share instead of
    #: building their own (see :class:`SharedState`).
    shared: SharedState | None = None

    def __init__(
        self,
        schema: DatabaseSchema,
        max_domain_size: int = DEFAULT_MAX_DOMAIN,
        max_product: int = DEFAULT_MAX_PRODUCT,
        variable_ranges: Mapping[str, Collection[Value]] | None = None,
        strategy: str = "seminaive",
    ):
        check_strategy(strategy)
        self.schema = schema
        self.max_domain_size = max_domain_size
        self.max_product = max_product
        self.variable_ranges = variable_ranges
        self.strategy = strategy
        #: The latest evaluation's stats, filled as it runs, so one cut
        #: short by an exception keeps what it counted.  Its
        #: ``fixpoint_stages`` is what a tracer counts as ``ifp.stages``
        #: plus ``pfp.stages``, whether or not one is installed.
        self.last_stats: dict[str, int] | None = None

    # -- public API ------------------------------------------------------

    def evaluate(self, query: Query, inst: Instance) -> frozenset[CTuple]:
        """Compute ``Q(I)``: the set of head tuples satisfying the body."""
        check_query(query, self.schema)
        return self.evaluate_checked(query, inst)

    def evaluate_checked(self, query: Query,
                         inst: Instance) -> frozenset[CTuple]:
        """:meth:`evaluate` for a query already type checked against this
        schema (:func:`~repro.core.typecheck.check_query`), which is not
        checked again."""
        ctx = self._context(query.body, inst)
        head_vars = tuple(Var(n, t) for n, t in query.head)
        with ctx.tracer.span("query",
                             head=[name for name, _ in query.head]) as span:
            if ctx.store is None:
                results = {CTuple(env[v.name] for v in head_vars)
                           for env in self._bindings(list(head_vars), ctx, {})
                           if self._satisfy(query.body, env, ctx)}
                if ctx.tracer.enabled:
                    nodes = sum(value_node_count(row) for row in results)
            else:
                self._check_product(head_vars, ctx)
                rows: set[Row] = set()
                for disjunct in ctx.disjuncts(query.body, head_vars, None):
                    self._disjunct_rows(disjunct, len(head_vars), {}, ctx,
                                        rows)
                value = ctx.store.value
                results = {CTuple(map(value, row)) for row in rows}
                if ctx.tracer.enabled:   # each row: its tuple node + items
                    sizes = {vid: value_node_count(value(vid))
                             for vid in {vid for row in rows for vid in row}}
                    nodes = sum(1 + sum(map(sizes.__getitem__, row))
                                for row in rows)
            span.set(rows=len(results))
            if ctx.tracer.enabled:
                ctx.tracer.count("space.answer_nodes", nodes)
        self._finish(ctx)
        return frozenset(results)

    def evaluate_formula(
        self,
        formula: Formula,
        inst: Instance,
        env: Mapping[str, Value] | None = None,
        free_variable_types: Mapping[str, Type] | None = None,
    ) -> bool:
        """Evaluate a (possibly open) formula under a variable binding."""
        from .typecheck import check_formula

        check_formula(formula, self.schema,
                      dict(free_variable_types or {}) or None)
        ctx = self._context(formula, inst)
        bound = dict(env or {})
        if ctx.store is not None:
            bound = {name: ctx.store.intern(value)
                     for name, value in bound.items()}
        result = self._satisfy(formula, bound, ctx)
        self._finish(ctx)
        return result

    def evaluate_fixpoint(
        self,
        fixpoint: Fixpoint,
        inst: Instance,
        env: Mapping[str, Value] | None = None,
    ) -> frozenset[tuple[Value, ...]]:
        """Compute a fixpoint relation directly (rows as value tuples)."""
        from .typecheck import check_formula

        param_types = {
            v.name: v.typ for v in fixpoint.parameters() if v.typ is not None
        }
        check_formula(FixpointPred(fixpoint,
                                   [Var(n, t) for n, t in fixpoint.columns]),
                      self.schema, param_types or None)
        ctx = self._context(fixpoint.body, inst)
        bound = dict(env or {})
        if ctx.store is not None:
            bound = {name: ctx.store.intern(value)
                     for name, value in bound.items()}
        result = self._fixpoint_rows(fixpoint, bound, ctx)
        if ctx.store is not None:
            result = frozenset(ctx.store.unintern_row(row) for row in result)
        self._finish(ctx)
        return result

    def term_values(self, term: FixpointTerm, inst: Instance) -> set[Value]:
        """Rule 9' of Theorem 5.1's proof: the values ``term`` takes as
        its parameters, which must all have ranges, range over them, one
        per binding.  A binding whose evaluation raises
        :class:`EvalError`, :class:`DomainTooLarge` or
        :class:`~repro.core.fixpoint.FixpointError` has no value.  Every
        binding counts its stages; a seminaive IFP term is evaluated
        lifted on the first one (see the module docstring)."""
        ctx = self._context(term.fixpoint.body, inst)
        params = ctx.fixpoint(term.fixpoint)[1]
        pools = [ctx.candidates(name, None) for name in params]
        values = set()
        for binding in itertools.product(*(
                pool if ctx.store is None else pool.ids for pool in pools)):
            try:
                values.add(self._eval_term(term, dict(zip(params, binding)),
                                           ctx))
            except (EvalError, DomainTooLarge, FixpointError):
                continue  # undefined for this binding: left out
        self._finish(ctx)
        return values if ctx.store is None else set(map(ctx.store.value,
                                                        values))

    # -- machinery ---------------------------------------------------------

    def _context(self, formula: Formula, inst: Instance) -> _Context:
        """A context for one evaluation, under the active tracer."""
        shared = self.shared
        ctx = _Context(
            inst, lambda: active_atoms(inst, constants_of(formula)),
            self.max_domain_size, self.max_product, self.variable_ranges,
            self.strategy,
            (shared if shared is not None
             and shared.interned.instance is inst else None),
        )
        self.last_stats = ctx.stats
        return ctx

    def _finish(self, ctx: _Context) -> None:
        """Publish per-evaluation stats, mirrored into the tracer's
        counters.  Zero-valued stats are not mirrored, keeping EXPLAIN
        output free of counters the evaluation never touched."""
        if ctx.tracer.enabled:
            for name, value in ctx.stats.items():
                if value:
                    ctx.tracer.count(f"eval.{name}", value)
            if ctx.store is not None:
                ctx.tracer.gauge("space.interned_values",
                                 ctx.store.interned_values())

    @staticmethod
    def _check_product(variables, ctx: _Context) -> list[Collection]:
        """The variables' candidates, once their product is known to
        stay within ``max_product``."""
        domains = []
        total = 1
        for var in variables:
            assert var.typ is not None
            domains.append(ctx.candidates(var.name, var.typ))
            total *= len(domains[-1])
            if total > ctx.max_product:
                raise EvalError(
                    f"enumeration of {total}+ bindings exceeds cap "
                    f"{ctx.max_product}"
                )
        return domains

    def _bindings(
        self,
        variables: list[Var],
        ctx: _Context,
        base_env: dict[str, Value],
    ) -> Iterator[dict[str, Value]]:
        """Enumerate environments extending base_env over the variables."""
        domains = [list(candidates) if ctx.store is None else candidates.ids
                   for candidates in self._check_product(variables, ctx)]
        if ctx.tracer.enabled and variables:
            shape = tuple((v.name, len(d)) for v, d in zip(variables, domains))
            if shape not in ctx.traced_enumerations:
                ctx.traced_enumerations.add(shape)
                ctx.tracer.event(
                    "enumerate",
                    vars=[v.name for v in variables],
                    sizes=[len(d) for d in domains],
                    product=math.prod(len(d) for d in domains),
                )
            ctx.tracer.count("eval.enumerations")
        for combo in itertools.product(*domains):
            env = dict(base_env)
            for var, value in zip(variables, combo):
                env[var.name] = value
            ctx.stats["quantifier_iterations"] += 1
            yield env

    def _eval_term(self, term: Term, env: dict, ctx: _Context):
        """Value of a term (a nested object, or a dense id when interned)."""
        if isinstance(term, Const):
            if ctx.store is not None:
                return ctx.store.intern(term.value)
            return term.value
        if isinstance(term, Var):
            try:
                return env[term.name]
            except KeyError:
                raise EvalError(f"unbound variable {term.name!r}") from None
        if isinstance(term, Proj):
            base = self._eval_term(term.base, env, ctx)
            if ctx.store is not None:
                items = ctx.store.tuple_items(base)
                if items is None:
                    raise EvalError(
                        f"projection on non-tuple value "
                        f"{ctx.store.value(base)!r}")
                if not 1 <= term.index <= len(items):
                    raise EvalError(
                        f"projection index {term.index} out of range for "
                        f"a {len(items)}-tuple")
                return items[term.index - 1]
            if not isinstance(base, CTuple):
                raise EvalError(f"projection on non-tuple value {base!r}")
            return base.component(term.index)
        if isinstance(term, FixpointTerm):
            rows = self._fixpoint_rows(term.fixpoint, env, ctx)
            if ctx.store is not None:
                entry = ctx.term_sets.get(id(rows))
                if entry is None or entry[0] is not rows:
                    members = ((row[0] for row in rows)
                               if term.fixpoint.arity == 1
                               else map(ctx.store.intern_tuple, rows))
                    entry = ctx.term_sets[id(rows)] = (
                        rows, ctx.store.intern_set(members))
                return entry[1]
            if term.fixpoint.arity == 1:
                return CSet(row[0] for row in rows)
            return CSet(CTuple(row) for row in rows)
        raise EvalError(f"unknown term {term!r}")

    def _satisfy(self, formula: Formula, env: dict[str, Value], ctx: _Context) -> bool:
        """Truth of ``formula`` under ``env``.

        ``formula_checks`` counts every node visited; ``atom_checks``
        counts atomic formulas only.  Quantifier and fixpoint nodes — the
        only ones whose evaluation loops — detour through
        :meth:`_satisfy_memoized`; everything else is dispatched inline
        so the per-node cost stays what it was before memoization existed.
        """
        stats = ctx.stats
        stats["formula_checks"] += 1
        if isinstance(formula, Equals):
            stats["atom_checks"] += 1
            return (self._eval_term(formula.left, env, ctx)
                    == self._eval_term(formula.right, env, ctx))
        if isinstance(formula, In):
            stats["atom_checks"] += 1
            container = self._eval_term(formula.container, env, ctx)
            if ctx.store is not None:
                members = ctx.store.set_members(container)
                if members is None:
                    raise EvalError(f"'in' on non-set value "
                                    f"{ctx.store.value(container)!r}")
                return self._eval_term(formula.element, env, ctx) in members
            if not isinstance(container, CSet):
                raise EvalError(f"'in' on non-set value {container!r}")
            return self._eval_term(formula.element, env, ctx) in container
        if isinstance(formula, Subset):
            stats["atom_checks"] += 1
            left = self._eval_term(formula.left, env, ctx)
            right = self._eval_term(formula.right, env, ctx)
            if ctx.store is not None:
                left_members = ctx.store.set_members(left)
                right_members = ctx.store.set_members(right)
                if left_members is None or right_members is None:
                    raise EvalError("'sub' on non-set values")
                return left_members <= right_members
            if not isinstance(left, CSet) or not isinstance(right, CSet):
                raise EvalError("'sub' on non-set values")
            return left.issubset(right)
        if isinstance(formula, RelAtom):
            stats["atom_checks"] += 1
            row = tuple(self._eval_term(a, env, ctx) for a in formula.args)
            if formula.name in ctx.rel_env:
                return row in ctx.rel_env[formula.name]
            if ctx.store is not None:
                return row in ctx.store.rows(formula.name)
            return CTuple(row) in ctx.instance.relation(formula.name).tuples
        if isinstance(formula, FixpointPred):
            stats["atom_checks"] += 1
            return self._satisfy_memoized(formula, env, ctx)
        if isinstance(formula, Not):
            return not self._satisfy(formula.operand, env, ctx)
        if isinstance(formula, And):
            return all(self._satisfy(op, env, ctx) for op in formula.operands)
        if isinstance(formula, Or):
            return any(self._satisfy(op, env, ctx) for op in formula.operands)
        if isinstance(formula, Implies):
            return (not self._satisfy(formula.antecedent, env, ctx)
                    or self._satisfy(formula.consequent, env, ctx))
        if isinstance(formula, Iff):
            return (self._satisfy(formula.left, env, ctx)
                    == self._satisfy(formula.right, env, ctx))
        if isinstance(formula, (Exists, Forall)):
            return self._satisfy_memoized(formula, env, ctx)
        raise EvalError(f"unknown formula {formula!r}")

    def _satisfy_memoized(self, formula: Formula, env: dict[str, Value],
                          ctx: _Context) -> bool:
        """Quantifier/fixpoint nodes, memoized under the seminaive
        strategy.

        Subformulas whose referenced relations are not bound by an
        enclosing fixpoint are cached on their free-variable bindings:
        their truth then depends only on the (constant) instance, so the
        cached result stays valid across fixpoint stages and across
        sibling candidate rows.
        """
        memo_key = None
        if ctx.store is not None:
            free_names, rel_names = ctx.profile(formula)
            if not any(name in ctx.rel_env for name in rel_names):
                try:
                    memo_key = (id(formula),
                                tuple(env[name] for name in free_names))
                except KeyError:
                    memo_key = None  # unbound free variable: don't memoize
                if memo_key is not None:
                    cached = ctx.satisfy_memo.get(memo_key)
                    if cached is not None:
                        ctx.stats["satisfy_memo_hits"] += 1
                        return cached
        result = self._satisfy_quantified(formula, env, ctx)
        if memo_key is not None and len(ctx.satisfy_memo) < DEFAULT_MAX_MEMO:
            ctx.satisfy_memo[memo_key] = result
        return result

    def _satisfy_quantified(self, formula: Formula, env: dict[str, Value],
                            ctx: _Context) -> bool:
        if isinstance(formula, FixpointPred):
            rows = self._fixpoint_rows(formula.fixpoint, env, ctx)
            row = tuple(self._eval_term(a, env, ctx) for a in formula.args)
            return row in rows
        if isinstance(formula, Exists):
            # Interned: a union of joins over no head, when it splits.
            disjuncts = (None if ctx.store is None
                         else ctx.split(formula, (), None))
            if disjuncts is not None:
                rows: set[Row] = set()
                for disjunct in disjuncts:
                    self._disjunct_rows(disjunct, 0, env, ctx, rows)
                    if rows:
                        return True
                return False
            for extended in self._bindings([formula.var], ctx, env):
                if self._satisfy(formula.body, extended, ctx):
                    return True
            return False
        if isinstance(formula, Forall):
            for extended in self._bindings([formula.var], ctx, env):
                if not self._satisfy(formula.body, extended, ctx):
                    return False
            return True
        raise EvalError(f"unknown formula {formula!r}")

    def _fixpoint_rows(
        self, fixpoint: Fixpoint, env: dict[str, Value], ctx: _Context
    ) -> frozenset[tuple[Value, ...]]:
        # Cache on the fixpoint (up to structural equality) plus the values
        # of its parameters and the rows of the enclosing fixpoint
        # relations its body reads.
        representative, params = ctx.fixpoint(fixpoint)
        binding = tuple(env.get(name) for name in params)
        reads = tuple((name, ctx.rel_env[name])
                      for name in ctx.profile(fixpoint.body)[1]
                      if name in ctx.rel_env)
        key = (id(representative), tuple(zip(params, binding)), reads)
        if key in ctx.fixpoint_cache:
            if ctx.tracer.enabled:
                ctx.tracer.count("eval.fixpoint_cache_hits")
            return ctx.fixpoint_cache[key]
        lifted = None if reads else self._lifted(representative, params, ctx)
        if lifted is not None and all(
                vid in ranks for vid, ranks in zip(binding, lifted.ranks)):
            result, stages = lifted.rows.get(binding, (frozenset(), 1))
            ctx.stats["fixpoint_stages"] += stages
            ctx.stats["delta_rows"] += len(result)
            if ctx.tracer.enabled:
                ctx.tracer.count("ifp.stages", stages)
        else:
            result = self._iterate(fixpoint, env, ctx)
        ctx.fixpoint_cache[key] = result
        return result

    def _lifted(self, fixpoint: Fixpoint, params: tuple[str, ...],
                ctx: _Context) -> _Lifted | None:
        """The lifted run of ``fixpoint`` (a representative) in this
        evaluation, made on the first call; ``None`` when the fixpoint is
        evaluated per binding: on the naive lane, when a parameter has
        no range, when :func:`_lift` declines it, and when the lifted
        run raises (each binding then raises where its own run does)."""
        if id(fixpoint) in ctx.lifted:
            return ctx.lifted[id(fixpoint)]
        ctx.lifted[id(fixpoint)] = None
        if ctx.store is None or not all(name in ctx.variable_ranges
                                        for name in params):
            return None
        lifted = _lift(fixpoint, params)
        if lifted is None:
            return None
        width = len(params)
        grew: dict[tuple, int] = {}
        stage = 0

        def grown(delta: frozenset) -> None:
            nonlocal stage
            stage += 1
            for row in delta:
                grew[row[:width]] = stage

        try:
            rows = self._iterate(lifted, {}, ctx, grown)
        except (EvalError, DomainTooLarge, FixpointError):
            return None
        nested: dict[tuple, set[Row]] = {}
        for row in rows:
            nested.setdefault(row[:width], set()).add(row[width:])
        result = ctx.lifted[id(fixpoint)] = _Lifted(
            tuple(ctx.candidates(name, None).ranks for name in params),
            {binding: (frozenset(found), grew[binding] + 1)
             for binding, found in nested.items()})
        return result

    def _iterate(self, fixpoint: Fixpoint, env: dict[str, Value],
                 ctx: _Context, grown: Callable[[frozenset], None] | None
                 = None) -> frozenset[tuple[Value, ...]]:
        """The fixpoint's relation under ``env``, its stages run to the
        end by the loop of :mod:`repro.core.fixpoint`.  With ``grown`` (a
        lifted run, see :meth:`_lifted`) an IFP counts no stage and no
        delta row, and its loop reports nothing but its heartbeat:
        ``grown`` receives each stage's new rows instead."""
        column_vars = tuple(Var(n, t) for n, t in fixpoint.columns)
        name = fixpoint.name

        def with_relation(current, derive):
            """``derive()`` with ``name`` bound to ``current``: one
            stage, counted once it returns, as a tracer counts it."""
            previous = ctx.rel_env.get(name)
            ctx.rel_env[name] = current
            try:
                rows = derive()
            finally:
                if previous is None:
                    del ctx.rel_env[name]
                else:
                    ctx.rel_env[name] = previous
            if grown is None:
                ctx.stats["fixpoint_stages"] += 1
            return rows

        def naive_stage(current: frozenset) -> frozenset:
            """One application of phi against ``current``: every
            candidate row checked (the oracle)."""
            return with_relation(current, lambda: frozenset(
                tuple(extended[v.name] for v in column_vars)
                for extended in self._bindings(list(column_vars), ctx, env)
                if self._satisfy(fixpoint.body, extended, ctx)))

        if ctx.store is not None:
            self._check_product(column_vars, ctx)
            disjuncts = ctx.disjuncts(fixpoint.body, column_vars, name)
            width = len(column_vars)
            delta: frozenset | None = None

            def joined(known: frozenset) -> frozenset:
                """phi of the bound relation minus ``known``, as a union
                of joins: every disjunct in full, or after an IFP stage
                the ``Δ::`` variants of the disjuncts that have them."""
                rows: set[Row] = set()
                for disjunct in disjuncts:
                    if delta is None or disjunct.full:
                        self._disjunct_rows(disjunct, width, env, ctx, rows,
                                            known)
                    elif disjunct.delta:
                        self._disjunct_rows(disjunct, width, env, ctx, rows,
                                            known, delta)
                return frozenset(rows)

            def ifp_stage(current: frozenset) -> frozenset:
                """The seminaive IFP stage: phi(J) minus J."""
                nonlocal delta
                delta = with_relation(current, lambda: joined(current))
                if grown is None:
                    ctx.stats["delta_rows"] += len(delta)
                else:
                    grown(delta)
                return delta

            def pfp_stage(current: frozenset) -> frozenset:
                return with_relation(current, lambda: joined(frozenset()))
        else:
            ifp_stage = pfp_stage = naive_stage

        kind = "ifp" if fixpoint.kind == IFP else "pfp"
        with ctx.tracer.span("fixpoint", name=name,
                             kind=kind, strategy=ctx.strategy) as span:
            if fixpoint.kind == IFP:
                result = iterate_ifp(ifp_stage, MAX_STAGES,
                                     ctx.tracer if grown is None
                                     else _Heartbeat(ctx.tracer))
            else:
                result = iterate_pfp(pfp_stage, MAX_STAGES, ctx.tracer)
            if grown is not None:  # its run reported no stage
                span.set(lifted=True)
                ctx.tracer.gauge_max("space.peak_fixpoint_rows", len(result))
            span.set(rows=len(result))
            if ctx.tracer.enabled:
                ctx.tracer.observe("space.fixpoint_rows", len(result))
        return result

    def _disjunct_rows(self, disjunct: _Disjunct, width: int,
                       env: dict[str, Value], ctx: _Context, derived: set,
                       known: frozenset = frozenset(),
                       delta: frozenset | None = None) -> None:
        """Add to ``derived`` the head rows (the first ``width``
        variables) of one disjunct under ``env``, except those already in
        ``derived`` or in ``known`` (the stage's J; rows found there count
        as stage skips).  Without ``delta`` the disjunct fires in full;
        with it, its ``Δ::`` variants fire, each reading ``delta`` at one
        atom on the fixpoint relation.  A disjunct holding no fixpoint
        node checks no residual for those rows, as the oracle's ``∨``
        skips a disjunct once one before it holds."""
        candidates = {var.name: ctx.candidates(var.name, var.typ)
                      for var in disjunct.variables}
        source_rows = frozenset()
        if disjunct.source is not None:
            if not all(candidates[name] for name in disjunct.scope):
                return
            source_rows = self._fixpoint_rows(disjunct.source.fixpoint, env,
                                              ctx)
        if not all(candidates.values()):
            return
        if not disjunct.joins and disjunct.source is None:
            self._walk(disjunct, candidates, env, ctx, derived, known)
            return
        bindings = self._join(disjunct, candidates, source_rows, env, ctx,
                              delta)
        if not disjunct.fixpoints:
            heads = (bindings if width == len(disjunct.outputs)
                     else {row[:width] for row in bindings})
            fresh = heads - known
            ctx.stats["stage_skips"] += len(heads) - len(fresh)
            fresh -= derived
            if not disjunct.residuals:
                derived |= fresh
                return
            if len(fresh) < len(heads):
                bindings = {row for row in bindings if row[:width] in fresh}
        if disjunct.residuals:
            ranks = [candidates[name].ranks for name in disjunct.outputs]
            bindings = sorted(bindings, key=lambda row: tuple(
                rank[vid] for rank, vid in zip(ranks, row)))
        for residual, positions in disjunct.residuals:
            verdicts: dict[tuple, bool] = {}
            kept = []
            for row in bindings:
                key = tuple(row[position] for position in positions)
                verdict = verdicts.get(key)
                if verdict is None:
                    scope = dict(env)
                    scope.update(zip(disjunct.outputs, row))
                    verdict = verdicts[key] = self._satisfy(residual, scope,
                                                            ctx)
                if verdict:
                    kept.append(row)
            bindings = kept
        heads = {row[:width] for row in bindings}
        if disjunct.fixpoints:
            ctx.stats["stage_skips"] += len(heads) - len(heads - known)
            heads -= known
        derived |= heads

    def _walk(self, disjunct: _Disjunct, candidates: dict[str, _Candidates],
              env: dict[str, Value], ctx: _Context, derived: set,
              known: frozenset) -> None:
        """A disjunct with no join literal: its head variables walk
        their candidate product lazily, in the oracle's order, and each
        row not skipped is checked against the residuals in turn."""
        names = disjunct.walked
        lists = [candidates[name].ids for name in names]
        ctx.walked(names, [len(ids) for ids in lists])
        residuals = [residual for residual, _ in disjunct.residuals]
        skips = 0
        for row in itertools.product(*lists):
            if not disjunct.fixpoints:
                if row in known:
                    skips += 1
                    continue
                if row in derived:
                    continue
            scope = dict(env)
            scope.update(zip(names, row))
            if all(self._satisfy(residual, scope, ctx)
                   for residual in residuals):
                if row in known:
                    skips += 1
                else:
                    derived.add(row)
        ctx.stats["stage_skips"] += skips

    @staticmethod
    def _join(disjunct: _Disjunct, candidates: dict[str, _Candidates],
              source_rows: frozenset, env: dict[str, Value], ctx: _Context,
              delta: frozenset | None) -> set[Row]:
        """The distinct ``outputs`` bindings of a disjunct's join part:
        one plan per variant, compiled by the Datalog join planner."""

        def term(arg: Term):
            if isinstance(arg, Const):
                return DConst(arg.value)
            if arg.name in candidates:
                return DVar(arg.name)
            try:
                return DConst(ctx.store.value(env[arg.name]))
            except KeyError:
                raise EvalError(f"unbound variable {arg.name!r}") from None

        # A variable needs no candidate filter when nothing binds it
        # (it is walked) or a relation column confines it to its
        # candidates already: a column of an instance relation (or of
        # the fixpoint source) found within them, or column i of the
        # fixpoint relation itself (its rows come from this kernel, so
        # their column i lies within the candidates of column variable
        # i) read by that very variable.
        settled = set(disjunct.walked)
        for index in disjunct.delta:
            for column, arg in zip(disjunct.variables,
                                   disjunct.joins[index].args):
                if isinstance(arg, Var) and arg.name == column.name:
                    settled.add(arg.name)

        def confine(key: str, rows, args) -> None:
            for position, arg in enumerate(args):
                if (isinstance(arg, Var) and arg.name in candidates
                        and ctx.shared.confines(key, rows, position,
                                                candidates[arg.name])):
                    settled.add(arg.name)

        joins: list = []
        if disjunct.source is not None:
            key = _SOURCE + disjunct.source.fixpoint.name
            joins.append(Literal(key, [term(arg)
                                       for arg in disjunct.source.args]))
            confine(key, source_rows, disjunct.source.args)
        offset = len(joins)
        for atom in disjunct.joins:
            if isinstance(atom, RelAtom):
                joins.append(Literal(atom.name,
                                     [term(arg) for arg in atom.args]))
                if atom.name not in ctx.rel_env:
                    confine(atom.name, ctx.store.rows(atom.name),
                            atom.args)
            else:
                left, right = atom.terms()
                op = "=" if isinstance(atom, Equals) else "in"
                joins.append(BuiltinLiteral(op, term(left), term(right)))
        walked = disjunct.walked
        if walked:
            product = _Product(walked, [candidates[name].ids
                                        for name in walked], ctx)
            joins.append(Literal(_PRODUCT, [DVar(name) for name in walked]))
        joins += [Literal(_CANDIDATES + name, [DVar(name)], positive=False)
                  for name in candidates if name not in settled]

        # The product and the candidate filters are this join's own row
        # sets; a pool kept on ``ctx`` would tie the product's reference
        # to ``ctx`` into a cycle.
        pool = IndexPool(ctx.tracer)

        def source(predicate: str) -> tuple:
            if predicate == _PRODUCT:
                return predicate, product, pool
            if predicate.startswith(_CANDIDATES):
                return (predicate, _Outside(
                    candidates[predicate[len(_CANDIDATES):]]), pool)
            if predicate.startswith(_SOURCE):
                return ctx.source(predicate, source_rows)
            if predicate.startswith(DELTA):
                return ctx.source(predicate, delta)
            return ctx.relation(predicate)

        head = Literal(_HEAD, [DVar(name) for name in disjunct.outputs])
        rows: list[Row] = []
        for at in (None,) if delta is None else disjunct.delta:
            body = list(joins)
            if at is not None:
                atom = body[offset + at]
                body[offset + at] = Literal(DELTA + atom.predicate,
                                            atom.terms)
            rows += plan(Rule(head, body), source, ctx.store)()
        return set(rows)


def evaluate(
    query: Query,
    inst: Instance,
    schema: DatabaseSchema | None = None,
    **evaluator_options,
) -> frozenset[CTuple]:
    """One-shot convenience: evaluate a query on an instance.

    ``schema`` defaults to the instance's schema.
    """
    evaluator = Evaluator(schema or inst.schema, **evaluator_options)
    return evaluator.evaluate(query, inst)


def evaluate_formula(
    formula: Formula,
    inst: Instance,
    env: Mapping[str, Value] | None = None,
    free_variable_types: Mapping[str, Type] | None = None,
    schema: DatabaseSchema | None = None,
    **evaluator_options,
) -> bool:
    """One-shot convenience: evaluate a sentence (or open formula + env)."""
    evaluator = Evaluator(schema or inst.schema, **evaluator_options)
    return evaluator.evaluate_formula(formula, inst, env, free_variable_types)
