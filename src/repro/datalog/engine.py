"""Bottom-up evaluation of complex-object Datalog.

Two semantics, mirroring the paper's fixpoint operators:

* **inflationary** (:func:`evaluate_inflationary`) — the semantics the
  paper's inf-Datalog carries: all rules fire simultaneously against the
  previous stage (negative IDB literals read the previous stage too),
  and the results are unioned in.  This matches CALC+IFP.
* **partial** (:func:`evaluate_partial`) — each stage *replaces* the IDB
  (the PFP analogue); may diverge, reported like
  :class:`repro.core.fixpoint.PFPDivergenceError`.

Before the first stage, both strategies check every body relation
literal against the instance schema and the IDB declarations: an unknown
relation raises the instance's :class:`~repro.objects.schema.SchemaError`
and a wrong arity raises :class:`DatalogError`, whether or not a join
would ever reach the literal.

A rule body is evaluable when some literal can always be taken next —
a positive relation literal (join), an equality with one side bound, a
membership with bound container, or any fully-bound literal used as a
filter.  If no literal is evaluable the rule is *unsafe* and
:class:`DatalogError` is raised, lazily: only when a binding reaches
that point.  This is the deductive counterpart of range restriction,
and it keeps evaluation polynomial per stage.

The strategy alone picks the engine:

* ``strategy="naive"`` — the differential oracle, over nested values:
  every stage re-fires every rule against the full previous IDB,
  re-deriving everything derived before, and joins the body literals in
  text order (the first evaluable literal is taken next);
* ``strategy="seminaive"`` (default) — the production engine, true
  semi-naive firing over interned ids.  Each rule is rewritten into
  *delta versions*, one per positive IDB body literal, where that
  literal reads only the rows derived at the previous stage.  Because
  the inflationary IDB only grows, a derivation that is new at stage
  ``i`` must have some positive IDB literal matching a stage ``i-1``
  delta row (negative IDB literals can only flip from true to false as
  the IDB grows, never enable a new derivation), so firing only the
  delta versions after stage 1 is exact — including for programs with
  negation.

**Join plans.**  The semi-naive engine compiles each rule it fires into
a join plan once per stage (:func:`repro.datalog.joins.plan`, shared with
the calculus engine): filters first, then generators, then the positive
relation literal with the most bound positions, ties to the ``Δ::``
literal and then the smaller row set at this stage.  A plan runs each
step once per batch of bindings: a probe looks its index up once per
batch and counts one ``eval.index_probes`` per binding, and the plan
stops at its first empty batch, so an index is built and probed only
when some binding reaches it.  Every greedy order consumes the same
maximal set of literals as the oracle's text order, so the "unsafe rule"
error fires exactly when the oracle's does.  Value errors (``in`` or
``sub`` on a non-set) are raised where a binding meets them, so one can
surface on a program whose text-order join stops at an empty literal
before reaching the offending one; when the bindings of a batch would
meet two, the one met at the earlier step is raised.

The semi-naive engine reads the instance's shared interned encoding
(:mod:`repro.objects.intern`) through a per-evaluation
:class:`repro.objects.intern.InternedInstance`; rows become tuples of
dense ids, and an EDB relation is interned when the first plan that
mentions it is compiled in any evaluation over the instance, so
relations no program mentions are never interned.  Ids follow that
first-read order, not the Definition 4.2 order, and are compared only
by equality, membership and member-set inclusion.  The counters stay
per evaluation: ``space.interned_values`` counts the values this
evaluation's ids name (the relations it read, with their subvalues, and
the constants it interned), and ``eval.index_builds`` the distinct
indexes it probes, an EDB index built by an earlier evaluation
included.  Index lifetimes follow the row sets
(:class:`repro.core.fixpoint.IndexPool`):

* EDB indexes persist for the instance's lifetime, in its encoding;
* the inflationary IDB keeps one mutable row set per predicate and one
  pool for the whole evaluation: each stage's fresh rows are added to
  the sets and appended to every index already built over them;
* the ``Δ::`` views get a fresh pool per stage, and so does the IDB
  under partial semantics, which replaces it every stage.

Interning is a bijection on the values in play, so stage sequences,
``ifp.stages`` and PFP divergence (period, stage) coincide with the
naive oracle's.  The set of satisfying bindings of a body does not
depend on join order, so ``datalog.rows_derived``,
``datalog.delta_rows`` and ``datalog.dedup_hits`` are those of the
delta rewriting whatever order a plan takes; only the index counters
(``eval.index_probes``/``eval.index_builds``) are the plan's own.
Results are uninterned at the API boundary: every IDB predicate by
:func:`evaluate_inflationary`, only the asked one by
:func:`inflationary_answer`.  Each lane supplies only its stage to the
loops of :mod:`repro.core.fixpoint`, which count the stages, so a
caller learns the stage count without installing a tracer.

Partial (PFP) semantics replaces the IDB wholesale each stage, so no
derivation can be carried over: both strategies fire every rule each
stage, the semi-naive one through join plans over interned ids.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping

from ..core.fixpoint import (
    MAX_STAGES,
    STRATEGIES,
    IndexPool,
    Step,
    check_strategy,
    ifp_loop,
    iterate_pfp,
)
from ..obs import get_tracer
from ..objects.instance import Instance
from ..objects.intern import InternedInstance
from ..objects.values import CSet, Value
from .joins import DELTA, plan
from .syntax import (
    BuiltinLiteral,
    DatalogError,
    DConst,
    DVar,
    Literal,
    Program,
    Rule,
)

__all__ = [
    "STRATEGIES",
    "evaluate_inflationary",
    "evaluate_partial",
    "inflationary_answer",
    "inflationary_stages",
]

Row = tuple
Env = dict[str, Value]
#: An IDB state: each predicate's rows (a set the IFP lanes grow).
IDB = Mapping[str, AbstractSet[Row]]


class _Database:
    """Uniform view of EDB relations and the current IDB state, over
    plain nested values (the naive oracle).

    Its matching/builtin methods are the protocol the text-order
    planner :func:`_rule_bindings` drives.
    """

    def __init__(self, inst: Instance, idb: IDB, program: Program):
        self.inst = inst
        self.idb = idb
        self.program = program

    def rows(self, predicate: str) -> AbstractSet[Row]:
        if predicate in self.program.idb_types:
            return self.idb.get(predicate, frozenset())
        relation = self.inst.relation(predicate)
        return frozenset(tuple(row.items) for row in relation.tuples)

    def term_value(self, term, env: Env):
        if isinstance(term, DConst):
            return term.value
        assert isinstance(term, DVar)
        return env.get(term.name)

    def match_positive(self, literal: Literal, env: Env) -> Iterator[Env]:
        """Join a positive relation literal against the database."""
        for row in self.rows(literal.predicate):
            if len(row) != len(literal.terms):
                raise DatalogError(
                    f"arity mismatch matching {literal!r} against a "
                    f"{len(row)}-tuple"
                )
            extended = dict(env)
            ok = True
            for term, value in zip(literal.terms, row):
                if isinstance(term, DConst):
                    if term.value != value:
                        ok = False
                        break
                else:
                    bound = extended.get(term.name)
                    if bound is None:
                        extended[term.name] = value
                    elif bound != value:
                        ok = False
                        break
            if ok:
                yield extended

    def check_builtin(self, literal: BuiltinLiteral, env: Env) -> bool:
        left = self.term_value(literal.left, env)
        right = self.term_value(literal.right, env)
        assert left is not None and right is not None
        if literal.op == "=":
            result = left == right
        elif literal.op == "in":
            if not isinstance(right, CSet):
                raise DatalogError(f"'in' against non-set value {right!r}")
            result = left in right
        else:  # sub
            if not isinstance(left, CSet) or not isinstance(right, CSet):
                raise DatalogError("'sub' needs set values")
            result = left.issubset(right)
        return result == literal.positive

    def generate_builtin(self, literal: BuiltinLiteral,
                         env: Env) -> Iterator[Env] | None:
        """Use a positive builtin as a generator if it can bind a variable.

        ``x = t`` with t bound binds x; ``x in s`` with s bound
        enumerates x.  Returns None if not applicable.
        """
        if not literal.positive:
            return None
        left_val = self.term_value(literal.left, env)
        right_val = self.term_value(literal.right, env)
        if literal.op == "=":
            if left_val is None and right_val is not None \
                    and isinstance(literal.left, DVar):
                name = literal.left.name
                return iter([{**env, name: right_val}])
            if right_val is None and left_val is not None \
                    and isinstance(literal.right, DVar):
                name = literal.right.name
                return iter([{**env, name: left_val}])
            return None
        if literal.op == "in":
            if left_val is None and right_val is not None \
                    and isinstance(literal.left, DVar):
                if not isinstance(right_val, CSet):
                    raise DatalogError(
                        f"'in' against non-set value {right_val!r}")
                name = literal.left.name
                return iter([{**env, name: element}
                             for element in right_val.elements])
            return None
        return None


def _is_bound(literal, env: Env, db) -> bool:
    return all(
        db.term_value(t, env) is not None
        for t in (literal.terms if isinstance(literal, Literal)
                  else (literal.left, literal.right))
    )


def _rule_bindings(rule: Rule, db) -> Iterator[Env]:
    """All satisfying bindings of a rule body, via the greedy planner
    (the naive oracle's: the first evaluable literal in text order)."""

    def extend(env: Env, remaining: list) -> Iterator[Env]:
        if not remaining:
            yield env
            return
        # Pick the first evaluable literal.
        for position, literal in enumerate(remaining):
            rest = remaining[:position] + remaining[position + 1:]
            if isinstance(literal, Literal) and literal.positive:
                for extended in db.match_positive(literal, env):
                    yield from extend(extended, rest)
                return
            if _is_bound(literal, env, db):
                if isinstance(literal, Literal):
                    row = tuple(db.term_value(t, env) for t in literal.terms)
                    holds = row in db.rows(literal.predicate)
                    if holds == literal.positive:
                        yield from extend(env, rest)
                else:
                    if db.check_builtin(literal, env):
                        yield from extend(env, rest)
                return
            if isinstance(literal, BuiltinLiteral):
                generated = db.generate_builtin(literal, env)
                if generated is not None:
                    for extended in generated:
                        yield from extend(extended, rest)
                    return
        raise DatalogError(
            f"unsafe rule: no literal evaluable with bindings "
            f"{sorted(env)} among {remaining!r}"
        )

    yield from extend({}, list(rule.body))


def _head_rows(rule: Rule, db) -> Iterator[Row]:
    """The head row of each satisfying binding of ``rule`` over ``db``."""
    for env in _rule_bindings(rule, db):
        row = []
        for term in rule.head.terms:
            value = db.term_value(term, env)
            if value is None:
                raise DatalogError(
                    f"head variable unbound by body in {rule!r}"
                )
            row.append(value)
        yield tuple(row)


def _tally(target: set[Row], rows, previous, tracer) -> None:
    """Add one rule firing's head rows to ``target`` (the rows derived
    for the head predicate so far this stage).

    When tracing, counts rows derived and *dedup hits* — derivations of
    a row already produced this stage or already present in the previous
    IDB (``previous``: the re-derivations semi-naive evaluation skips).
    Both are summed per firing and published only when nonzero.
    """
    if not tracer.enabled:
        target.update(rows)
        return
    rows = list(rows)
    if not rows:
        return
    new = set(rows).difference(target)
    target.update(new)
    tracer.count("datalog.rows_derived", len(rows))
    hits = len(rows) - len(new.difference(previous))
    if hits:
        tracer.count("datalog.dedup_hits", hits)


def _derive(rules, db, idb: IDB) -> dict[str, frozenset[Row]]:
    """Fire the given rules once against ``db`` (the naive oracle's
    database); collect head rows."""
    tracer = get_tracer()
    program = db.program
    derived: dict[str, set[Row]] = {name: set() for name in program.idb_types}
    for rule in rules:
        tracer.heartbeat()
        predicate = rule.head.predicate
        _tally(derived[predicate], _head_rows(rule, db),
               idb.get(predicate, frozenset()), tracer)
    return {name: frozenset(rows) for name, rows in derived.items()}


def _delta_rules(program: Program) -> tuple[Rule, ...]:
    """The semi-naive rewriting: one variant of each rule per positive
    IDB body literal, with that occurrence reading the ``Δ::`` view.

    Rules with no positive IDB literal have no variant — their
    derivations cannot depend on newly derived rows, so they fire only
    at the first stage.
    """
    variants: list[Rule] = []
    for rule in program.rules:
        for position, literal in enumerate(rule.body):
            if (isinstance(literal, Literal) and literal.positive
                    and literal.predicate in program.idb_types):
                body = list(rule.body)
                body[position] = Literal(DELTA + literal.predicate,
                                         literal.terms)
                variants.append(Rule(rule.head, body))
    return tuple(variants)


def _naive_step(program: Program, inst: Instance,
                idb: dict[str, set[Row]]) -> Step:
    """The naive oracle's IFP stage: every rule against the whole
    previous IDB, whose fresh rows it then adds to ``idb``."""

    def step() -> tuple[int, int]:
        derived = _derive(program.rules, _Database(inst, idb, program), idb)
        added = 0
        for name, rows in derived.items():
            fresh = rows - idb[name]
            idb[name] |= fresh
            added += len(fresh)
        return sum(map(len, idb.values())), added

    return step


def _naive_stage(program: Program, inst: Instance):
    """The naive oracle's PFP stage function: all rules against the
    packed IDB, which the stage replaces."""

    def stage(packed: frozenset) -> frozenset:
        idb = _unpack(packed, program)
        return _pack(_derive(program.rules, _Database(inst, idb, program),
                             idb))

    return stage


def _pack(idb: IDB) -> frozenset:
    """Pack a multi-predicate IDB state into one frozenset for the PFP
    loop (rows are tagged with their predicate)."""
    return frozenset(
        (name, row) for name, rows in idb.items() for row in rows
    )


def _unpack(packed: frozenset, program: Program) -> dict[str, frozenset[Row]]:
    result: dict[str, set[Row]] = {name: set() for name in program.idb_types}
    for name, row in packed:
        result[name].add(row)
    return {name: frozenset(rows) for name, rows in result.items()}


class _InternedEngine:
    """Per-evaluation state of the semi-naive engine: its view of the
    instance's interned encoding (the EDB rows and the store), the EDB
    index pool over the encoding's indexes and the delta rewriting."""

    def __init__(self, program: Program, inst: Instance, tracer):
        self.program = program
        self.edb = InternedInstance(inst)
        self.tracer = tracer
        self.edb_pool = IndexPool(tracer, self.edb.indexes)
        self.delta_rules = _delta_rules(program)

    def fire(self, rules, idb: IDB, idb_pool: IndexPool,
             delta: Mapping[str, set] | None = None) -> dict[str, set[Row]]:
        """Fire ``rules`` once, each through a plan compiled for this
        stage; collect the head rows (including rows already in
        ``idb``).  ``Δ::P`` reads ``delta[P]`` through a fresh pool."""
        tracer = self.tracer
        edb, edb_pool = self.edb, self.edb_pool
        delta_pool = IndexPool(tracer)

        def source(predicate: str) -> tuple:
            if predicate.startswith(DELTA):
                assert delta is not None
                return (predicate, delta[predicate[len(DELTA):]],
                        delta_pool)
            if predicate in idb:
                return predicate, idb[predicate], idb_pool
            return predicate, edb.rows(predicate), edb_pool

        derived: dict[str, set[Row]] = {name: set() for name in idb}
        for rule in rules:
            tracer.heartbeat()
            predicate = rule.head.predicate
            _tally(derived[predicate], plan(rule, source, edb)(),
                   idb[predicate], tracer)
        return derived

    def inflationary_step(self, idb: dict[str, set[Row]]) -> Step:
        """The semi-naive IFP stage over ``idb`` (one empty set per
        predicate on entry), which it grows in place.

        The first stage fires every rule, later ones only the delta
        variants against the previous stage's fresh rows.  One pool
        indexes the IDB for the whole run: fresh rows are appended to
        its indexes.  ``datalog.delta_rows`` counts the fresh rows a
        stage contributes; ``datalog.refires_avoided`` counts, per delta
        stage, the rows already settled in the IDB — each is at least
        one re-derivation the naive engine would perform and this stage
        skips.
        """
        tracer = self.tracer
        pool = IndexPool(tracer)
        rules, delta = self.program.rules, None
        settled = 0

        def step() -> tuple[int, int]:
            nonlocal rules, delta, settled
            derived = self.fire(rules, idb, pool, delta)
            fresh = {name: rows - idb[name] for name, rows in derived.items()}
            added = sum(map(len, fresh.values()))
            if tracer.enabled:
                tracer.count("datalog.delta_rows", added)
                if settled:
                    tracer.count("datalog.refires_avoided", settled)
            for name, rows in fresh.items():
                if rows:
                    idb[name] |= rows
                    pool.append(name, rows)
            rules, delta = self.delta_rules, fresh
            settled += added
            return settled, added

        return step

    def partial_stage(self, packed: frozenset) -> frozenset:
        """One PFP stage over the packed state: every rule, with a fresh
        IDB pool (the stage replaces the IDB)."""
        return _pack(self.fire(self.program.rules,
                               _unpack(packed, self.program),
                               IndexPool(self.tracer)))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _check_body(program: Program, inst: Instance) -> None:
    """Reject unknown relations and wrong-arity body literals up front,
    so join order never decides whether a malformed program raises."""
    for rule in program.rules:
        for literal in rule.body:
            if not isinstance(literal, Literal):
                continue
            declared = program.idb_types.get(literal.predicate)
            arity = (len(declared) if declared is not None
                     else inst.relation(literal.predicate).schema.arity)
            if len(literal.terms) != arity:
                raise DatalogError(
                    f"arity mismatch matching {literal!r} against a "
                    f"relation of arity {arity}"
                )


def _prepare(program: Program, inst: Instance, strategy: str,
             tracer) -> _InternedEngine | None:
    """Validate the inputs; the semi-naive engine's state, or None for
    the naive oracle."""
    check_strategy(strategy)
    _check_body(program, inst)
    if strategy == "naive":
        return None
    return _InternedEngine(program, inst, tracer)


def _publish(idb: IDB, engine: _InternedEngine | None, tracer, span) -> None:
    """Report the final IDB's sizes (its id rows number as many as
    their decoding)."""
    span.set(rows=sum(len(rows) for rows in idb.values()))
    if tracer.enabled:
        if engine is not None:
            tracer.gauge("space.interned_values",
                         engine.edb.interned_values())
        for name in sorted(idb):
            tracer.gauge(f"space.idb[{name}]", len(idb[name]))


def _decode(idb: IDB, engine: _InternedEngine | None,
            names: Iterable[str]) -> dict[str, frozenset[Row]]:
    """The rows of the IDB predicates ``names`` as value tuples: the
    naive oracle's already are, the semi-naive engine's id rows are
    uninterned straight into one frozenset each."""
    if engine is None:
        return {name: frozenset(idb[name]) for name in names}
    unintern = engine.edb.unintern_row
    return {name: frozenset(map(unintern, idb[name])) for name in names}


def _ifp_run(program: Program, inst: Instance, strategy: str, tracer
             ) -> tuple[_InternedEngine | None, dict[str, set[Row]],
                        Iterator[int]]:
    """Validate the inputs; the semi-naive engine's state (None for the
    naive oracle), the IDB (one set per predicate, grown in place) and
    the IFP loop over the lane's stage, not yet started."""
    engine = _prepare(program, inst, strategy, tracer)
    idb: dict[str, set[Row]] = {name: set() for name in program.idb_types}
    step = (_naive_step(program, inst, idb) if engine is None
            else engine.inflationary_step(idb))
    return engine, idb, ifp_loop(step, MAX_STAGES, tracer)


def _inflationary(program: Program, inst: Instance, strategy: str,
                  decoded: Iterable[str]
                  ) -> tuple[dict[str, frozenset[Row]], int]:
    """Run the inflationary fixpoint on either lane, within its span,
    and publish the final IDB's sizes: the rows of the ``decoded``
    predicates, and the number of stages the loop ran (those a tracer
    counts as ``ifp.stages``).  Only the decoding differs between
    :func:`evaluate_inflationary` and :func:`inflationary_answer`."""
    tracer = get_tracer()
    with tracer.span("datalog.inflationary",
                     idb=sorted(program.idb_types),
                     strategy=strategy) as span:
        engine, idb, loop = _ifp_run(program, inst, strategy, tracer)
        for stages in loop:
            pass
        _publish(idb, engine, tracer, span)
        return _decode(idb, engine, decoded), stages


def evaluate_inflationary(
    program: Program, inst: Instance,
    strategy: str = "seminaive",
) -> dict[str, frozenset[Row]]:
    """Inflationary semantics: ``J_i = T(J_{i-1}) ∪ J_{i-1}``.

    ``strategy="seminaive"`` (default) fires delta-rewritten rules
    through per-stage join plans over interned ids after the first
    stage; ``strategy="naive"`` re-fires every rule against the full
    IDB each stage, over nested values.  Both produce identical results
    and stage sequences (see the module docstring).  Returns every IDB
    predicate's rows.
    """
    return _inflationary(program, inst, strategy, program.idb_types)[0]


def inflationary_answer(
    program: Program, predicate: str, inst: Instance,
    strategy: str = "seminaive",
) -> tuple[frozenset[Row], int]:
    """The rows of one IDB predicate under inflationary semantics (the
    answer to a ``?-`` literal on it), and the number of stages.

    The same run as :func:`evaluate_inflationary`, with the same spans,
    counters and gauges under a tracer, but only ``predicate``'s rows
    are decoded.  The stage count is the loop's own, so an untraced
    caller gets it too.
    """
    rows, stages = _inflationary(program, inst, strategy, (predicate,))
    return rows[predicate], stages


def evaluate_partial(
    program: Program, inst: Instance,
    strategy: str = "seminaive",
) -> dict[str, frozenset[Row]]:
    """Partial (non-inflationary) semantics: ``J_i = T(J_{i-1})``.

    Raises :class:`repro.core.fixpoint.PFPDivergenceError` on cycles.
    The stage *replaces* the IDB, so there is no delta to exploit: both
    strategies fire every rule each stage, ``"seminaive"`` through join
    plans over interned ids with a fresh IDB index pool per stage.
    Interning is a bijection on the values in play, so the state
    sequence — and hence any divergence period and stage — coincides
    with the naive oracle's.
    """
    tracer = get_tracer()
    with tracer.span("datalog.partial",
                     idb=sorted(program.idb_types),
                     strategy=strategy) as span:
        engine = _prepare(program, inst, strategy, tracer)
        stage = (_naive_stage(program, inst)
                 if engine is None else engine.partial_stage)
        idb = _unpack(iterate_pfp(stage, MAX_STAGES, tracer), program)
        _publish(idb, engine, tracer, span)
        return _decode(idb, engine, program.idb_types)


def inflationary_stages(
    program: Program, inst: Instance,
    strategy: str = "seminaive",
) -> Iterator[dict[str, frozenset[Row]]]:
    """Yield the successive inflationary stages (for tests/inspection).

    The stage sequence is strategy-independent; exposing the parameter
    lets the differential tests assert exactly that.
    """
    engine, idb, loop = _ifp_run(program, inst, strategy, get_tracer())
    for _ in loop:
        yield _decode(idb, engine, program.idb_types)
