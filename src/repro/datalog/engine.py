"""Bottom-up evaluation of complex-object Datalog.

Two semantics, mirroring the paper's fixpoint operators:

* **inflationary** (:func:`evaluate_inflationary`) — the semantics the
  paper's inf-Datalog carries: all rules fire simultaneously against the
  previous stage (negative IDB literals read the previous stage too),
  and the results are unioned in.  This matches CALC+IFP.
* **partial** (:func:`evaluate_partial`) — each stage *replaces* the IDB
  (the PFP analogue); may diverge, reported like
  :class:`repro.core.fixpoint.PFPDivergenceError`.

Rule bodies are evaluated by a greedy binding planner: at each point the
engine picks an evaluable literal — a positive relation literal (join),
an equality with one side bound, a membership with bound container, or
any fully-bound literal used as a filter.  If no literal is evaluable the
rule is *unsafe* and :class:`DatalogError` is raised: this is the
deductive counterpart of range restriction, and it keeps evaluation
polynomial per stage.

Inflationary evaluation supports two strategies:

* ``strategy="naive"`` — every stage re-fires every rule against the
  full previous IDB, re-deriving everything derived before (the oracle
  the differential tests compare against);
* ``strategy="seminaive"`` (default) — true semi-naive firing: each rule
  is rewritten into *delta versions*, one per positive IDB body literal,
  where that literal reads only the rows derived at the previous stage.
  Because the inflationary IDB only grows, a derivation that is new at
  stage ``i`` must have some positive IDB literal matching a stage
  ``i-1`` delta row (negative IDB literals can only flip from true to
  false as the IDB grows, never enable a new derivation), so firing only
  the delta versions after stage 1 is exact — including for programs
  with negation.

Orthogonally to the strategy, ``intern=True`` runs the same plans over
the **interned kernel**: each evaluation starts from an empty
:class:`repro.objects.intern.ValueStore`, rows become tuples of dense
ids, and an EDB relation is interned the first time a rule literal reads
it (:class:`repro.objects.intern.InternedInstance`), so relations the
program never reads are never interned.  Ids are assigned in that
first-read order, not the Definition 4.2 order, and the engine compares
them only by equality, membership and member-set inclusion.  Positive
literals probe :class:`repro.core.fixpoint.IndexPool` hash indexes keyed
on their bound positions instead of scanning.  EDB indexes persist for
the whole evaluation; IDB/delta views get a fresh pool per stage (their
rows change).  Because interning is a bijection on the values in play,
the packed states the generic fixpoint engines see are element-wise
renamed but structurally identical — stage counts, derivation counters
and PFP divergence (period, stage) all coincide with the object engines,
which therefore remain the differential oracle.  Results are uninterned
at the API boundary.

Partial (PFP) semantics replaces the IDB wholesale each stage, so no
derivation can be carried over; ``strategy`` is accepted for interface
symmetry but both values evaluate identically.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from ..core.fixpoint import (
    IndexPool,
    iterate_ifp,
    iterate_ifp_delta,
    iterate_pfp,
)
from ..obs import get_tracer
from ..objects.instance import Instance
from ..objects.intern import InternedInstance, ValueStore
from ..objects.values import CSet, Value
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
    "inflationary_stages",
]

Row = tuple
Env = dict[str, Value]

#: Recognised evaluation strategies (mirrors repro.core.evaluation).
STRATEGIES = ("naive", "seminaive")

#: Prefix marking a delta view of an IDB predicate in rewritten rules.
#: Rewrites are engine-internal; user predicates never carry the prefix.
_DELTA = "Δ::"


class _Database:
    """Uniform view of EDB relations and the current IDB state, over
    plain nested values (the differential oracle).

    ``delta`` (when given) holds the per-predicate rows derived at the
    previous stage; rewritten rules address it through predicates named
    ``Δ::P``.  The matching/builtin methods shared with
    :class:`_InternedDatabase` form the protocol the planner drives.
    """

    def __init__(self, inst: Instance, idb: Mapping[str, frozenset[Row]],
                 program: Program,
                 delta: Mapping[str, frozenset[Row]] | None = None):
        self.inst = inst
        self.idb = idb
        self.program = program
        self.delta = delta

    def rows(self, predicate: str) -> frozenset[Row]:
        if predicate.startswith(_DELTA):
            assert self.delta is not None
            return self.delta.get(predicate[len(_DELTA):], frozenset())
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
                members = self._set_members(right_val)
                if members is None:
                    raise DatalogError(
                        f"'in' against non-set value "
                        f"{self._display(right_val)!r}")
                name = literal.left.name
                return iter([{**env, name: element} for element in members])
            return None
        return None

    def _set_members(self, value):
        return value.elements if isinstance(value, CSet) else None

    def _display(self, value):
        return value


class _InternedEngine:
    """Per-evaluation interned state: the EDB interned on first read
    (with its :class:`ValueStore`) and the persistent EDB index pool."""

    def __init__(self, program: Program, inst: Instance, tracer):
        self.program = program
        self.edb = InternedInstance(inst)
        self.store = self.edb.store
        self.tracer = tracer
        self.edb_pool = IndexPool(tracer)

    def database(self, idb: Mapping[str, frozenset[Row]],
                 delta: Mapping[str, frozenset[Row]] | None = None
                 ) -> "_InternedDatabase":
        return _InternedDatabase(self, idb, delta)

    def unintern_result(
        self, result: Mapping[str, frozenset[Row]]
    ) -> dict[str, frozenset[Row]]:
        return {
            name: frozenset(self.store.unintern_row(row) for row in rows)
            for name, rows in result.items()
        }


class _InternedDatabase:
    """The interned twin of :class:`_Database`: rows are tuples of dense
    ids and positive literals probe hash indexes on bound positions.

    Each stage builds a fresh instance, and with it a fresh index pool
    for the IDB/delta views — that is the per-delta-stage invalidation;
    the immutable EDB keeps its indexes in the engine's persistent pool.
    """

    def __init__(self, engine: _InternedEngine,
                 idb: Mapping[str, frozenset[Row]],
                 delta: Mapping[str, frozenset[Row]] | None = None):
        self.engine = engine
        self.store: ValueStore = engine.store
        self.program = engine.program
        self.idb = idb
        self.delta = delta
        self.stage_pool = IndexPool(engine.tracer)

    def _source(self, predicate: str):
        """``(index source key, rows, owning pool)`` for a predicate."""
        if predicate.startswith(_DELTA):
            assert self.delta is not None
            rows = self.delta.get(predicate[len(_DELTA):], frozenset())
            return predicate, rows, self.stage_pool
        if predicate in self.program.idb_types:
            return predicate, self.idb.get(predicate, frozenset()), \
                self.stage_pool
        return predicate, self.engine.edb.rows(predicate), \
            self.engine.edb_pool

    def rows(self, predicate: str) -> frozenset[Row]:
        _, rows, _ = self._source(predicate)
        return rows

    def term_value(self, term, env: Env):
        if isinstance(term, DConst):
            return self.store.intern(term.value)
        assert isinstance(term, DVar)
        return env.get(term.name)

    def match_positive(self, literal: Literal, env: Env) -> Iterator[Env]:
        """Join a positive literal by probing the index on its bound
        positions (constants and env-bound variables); a literal with
        no bound position scans, exactly like the object engine."""
        bound_positions: list[int] = []
        bound_key: list[int] = []
        out_positions: list[tuple[str, int]] = []
        eq_checks: list[tuple[int, int]] = []
        first_seen: dict[str, int] = {}
        for position, term in enumerate(literal.terms):
            value = self.term_value(term, env)
            if value is not None:
                bound_positions.append(position)
                bound_key.append(value)
            elif term.name in first_seen:
                eq_checks.append((position, first_seen[term.name]))
            else:
                first_seen[term.name] = position
                out_positions.append((term.name, position))
        source_key, rows, pool = self._source(literal.predicate)
        for row in rows:
            if len(row) != len(literal.terms):
                raise DatalogError(
                    f"arity mismatch matching {literal!r} against a "
                    f"{len(row)}-tuple"
                )
            break
        if bound_positions:
            candidates = pool.probe(source_key, rows,
                                    tuple(bound_positions),
                                    tuple(bound_key))
        else:
            candidates = rows
        for row in candidates:
            if any(row[p] != row[q] for p, q in eq_checks):
                continue
            extended = dict(env)
            for name, position in out_positions:
                extended[name] = row[position]
            yield extended

    def check_builtin(self, literal: BuiltinLiteral, env: Env) -> bool:
        left = self.term_value(literal.left, env)
        right = self.term_value(literal.right, env)
        assert left is not None and right is not None
        if literal.op == "=":
            result = left == right
        elif literal.op == "in":
            members = self.store.set_members(right)
            if members is None:
                raise DatalogError(
                    f"'in' against non-set value {self.store.value(right)!r}")
            result = left in members
        else:  # sub
            left_members = self.store.set_members(left)
            right_members = self.store.set_members(right)
            if left_members is None or right_members is None:
                raise DatalogError("'sub' needs set values")
            result = left_members <= right_members
        return result == literal.positive

    generate_builtin = _Database.generate_builtin

    def _set_members(self, value):
        return self.store.set_members(value)

    def _display(self, value):
        return self.store.value(value)


def _is_bound(literal, env: Env, db) -> bool:
    return all(
        db.term_value(t, env) is not None
        for t in (literal.terms if isinstance(literal, Literal)
                  else (literal.left, literal.right))
    )


def _rule_bindings(rule: Rule, db) -> Iterator[Env]:
    """All satisfying bindings of a rule body, via the greedy planner.

    ``db`` is either database flavour; the planner only speaks the
    shared matching protocol."""

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


def _derive(rules, db,
            idb: Mapping[str, frozenset[Row]]) -> dict[str, frozenset[Row]]:
    """Fire the given rules once against ``db``; collect head rows.

    When tracing, counts rows derived and *dedup hits* — derivations of
    a row already produced this stage or already present in the previous
    IDB (the re-derivations semi-naive evaluation skips).
    """
    tracer = get_tracer()
    program = db.program
    derived: dict[str, set[Row]] = {name: set() for name in program.idb_types}
    for rule in rules:
        tracer.heartbeat()
        for env in _rule_bindings(rule, db):
            row = []
            for term in rule.head.terms:
                value = db.term_value(term, env)
                if value is None:
                    raise DatalogError(
                        f"head variable unbound by body in {rule!r}"
                    )
                row.append(value)
            head_row = tuple(row)
            predicate = rule.head.predicate
            if tracer.enabled:
                tracer.count("datalog.rows_derived")
                if (head_row in derived[predicate]
                        or head_row in idb.get(predicate, frozenset())):
                    tracer.count("datalog.dedup_hits")
            derived[predicate].add(head_row)
    return {name: frozenset(rows) for name, rows in derived.items()}


#: A database factory: ``make_db(idb, delta=None)`` builds the per-stage
#: database view (object-valued or interned).
_DbFactory = Callable[..., object]


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
                body[position] = Literal(_DELTA + literal.predicate,
                                         literal.terms)
                variants.append(Rule(rule.head, body))
    return tuple(variants)


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown evaluation strategy {strategy!r}; "
            f"expected one of {STRATEGIES}"
        )


def _naive_stage(program: Program, make_db: _DbFactory):
    """Build a naive stage function: all rules against the full IDB."""

    def stage(packed: frozenset) -> frozenset:
        idb = _unpack(packed, program)
        return _pack(_derive(program.rules, make_db(idb), idb))

    return stage


def _seminaive_stage(program: Program, make_db: _DbFactory,
                     delta_rules: tuple[Rule, ...]):
    """Build a delta-protocol stage function for the packed IDB state.

    The first call (empty state, empty delta) fires every original rule;
    subsequent calls fire only the delta variants against the previous
    stage's fresh rows.  ``datalog.delta_rows`` counts the fresh rows a
    stage contributes; ``datalog.refires_avoided`` counts, per delta
    stage, the rows already settled in the IDB — each is at least one
    re-derivation the naive engine would perform and this stage skips.
    """
    tracer = get_tracer()

    def stage(packed: frozenset, packed_delta: frozenset) -> frozenset:
        idb = _unpack(packed, program)
        if not packed and not packed_delta:
            derived = _derive(program.rules, make_db(idb), idb)
        else:
            delta = _unpack(packed_delta, program)
            derived = _derive(delta_rules, make_db(idb, delta), idb)
        packed_derived = _pack(derived)
        if tracer.enabled:
            tracer.count("datalog.delta_rows",
                         len(packed_derived - packed))
            if packed:
                tracer.count("datalog.refires_avoided", len(packed))
        return packed_derived

    return stage


def _pack(idb: Mapping[str, frozenset[Row]]) -> frozenset:
    """Pack a multi-predicate IDB state into one frozenset for the
    generic fixpoint engines (rows are tagged with their predicate)."""
    return frozenset(
        (name, row) for name, rows in idb.items() for row in rows
    )


def _unpack(packed: frozenset, program: Program) -> dict[str, frozenset[Row]]:
    result: dict[str, set[Row]] = {name: set() for name in program.idb_types}
    for name, row in packed:
        result[name].add(row)
    return {name: frozenset(rows) for name, rows in result.items()}


def _factory(program: Program, inst: Instance, intern: bool,
             tracer) -> tuple[_DbFactory, _InternedEngine | None]:
    """The per-stage database factory for the chosen kernel."""
    if not intern:
        def make_db(idb, delta=None):
            return _Database(inst, idb, program, delta)

        return make_db, None
    engine = _InternedEngine(program, inst, tracer)
    return engine.database, engine


def evaluate_inflationary(
    program: Program, inst: Instance,
    max_stages: int | None = 100_000,
    strategy: str = "seminaive",
    intern: bool = False,
) -> dict[str, frozenset[Row]]:
    """Inflationary semantics: ``J_i = T(J_{i-1}) ∪ J_{i-1}``.

    ``strategy="seminaive"`` (default) fires delta-rewritten rules after
    the first stage; ``strategy="naive"`` re-fires every rule against
    the full IDB each stage.  Both produce identical results and stage
    counts (see the module docstring for why the rewriting is exact).
    ``intern=True`` runs the chosen strategy over the interned kernel
    with indexed joins; the answer (and every counter except the index
    and interning telemetry) is identical.
    """
    _check_strategy(strategy)
    tracer = get_tracer()
    with tracer.span("datalog.inflationary",
                     idb=sorted(program.idb_types),
                     strategy=strategy, intern=intern) as span:
        make_db, engine = _factory(program, inst, intern, tracer)
        if strategy == "seminaive":
            final = iterate_ifp_delta(
                _seminaive_stage(program, make_db, _delta_rules(program)),
                max_stages, tracer)
        else:
            final = iterate_ifp(_naive_stage(program, make_db),
                                max_stages, tracer)
        span.set(rows=len(final))
        result = _unpack(final, program)
        if engine is not None:
            result = engine.unintern_result(result)
            if tracer.enabled:
                tracer.gauge("space.interned_values", len(engine.store))
        if tracer.enabled:
            for name in sorted(result):
                tracer.gauge(f"space.idb[{name}]", len(result[name]))
    return result


def evaluate_partial(
    program: Program, inst: Instance,
    max_stages: int | None = 100_000,
    strategy: str = "seminaive",
    intern: bool = False,
) -> dict[str, frozenset[Row]]:
    """Partial (non-inflationary) semantics: ``J_i = T(J_{i-1})``.

    Raises :class:`repro.core.fixpoint.PFPDivergenceError` on cycles.
    ``strategy`` is validated for interface symmetry, but the stage
    *replaces* the IDB, so there is no delta to exploit: both strategies
    evaluate identically.  ``intern=True`` selects the interned kernel;
    interning is a bijection on the values in play, so the state
    sequence — and hence any divergence period and stage — coincides
    with the object engine's.
    """
    _check_strategy(strategy)
    tracer = get_tracer()
    with tracer.span("datalog.partial",
                     idb=sorted(program.idb_types),
                     strategy=strategy, intern=intern) as span:
        make_db, engine = _factory(program, inst, intern, tracer)
        final = iterate_pfp(_naive_stage(program, make_db),
                            max_stages, tracer)
        span.set(rows=len(final))
        result = _unpack(final, program)
        if engine is not None:
            result = engine.unintern_result(result)
            if tracer.enabled:
                tracer.gauge("space.interned_values", len(engine.store))
        if tracer.enabled:
            for name in sorted(result):
                tracer.gauge(f"space.idb[{name}]", len(result[name]))
    return result


def inflationary_stages(
    program: Program, inst: Instance,
    strategy: str = "seminaive",
    intern: bool = False,
) -> Iterator[dict[str, frozenset[Row]]]:
    """Yield the successive inflationary stages (for tests/inspection).

    The stage sequence is strategy- and kernel-independent; exposing the
    parameters lets the differential tests assert exactly that.
    """
    from ..core.fixpoint import ifp_delta_stages, ifp_stages

    _check_strategy(strategy)
    make_db, engine = _factory(program, inst, intern, get_tracer())
    if strategy == "seminaive":
        packed_stages = ifp_delta_stages(
            _seminaive_stage(program, make_db, _delta_rules(program)))
    else:
        packed_stages = ifp_stages(_naive_stage(program, make_db))
    for packed in packed_stages:
        stage = _unpack(packed, program)
        yield engine.unintern_result(stage) if engine is not None else stage
