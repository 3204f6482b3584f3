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

Two evaluation strategies are offered (``Evaluator(strategy=...)``):

* ``"naive"`` — every fixpoint stage re-enumerates the full column
  product and re-checks every candidate row; every subformula is
  re-evaluated from scratch.  This is the reference oracle the
  differential tests compare against.
* ``"seminaive"`` (default) — delta-driven: inflationary stages skip
  candidate rows already in the fixpoint (their membership is settled —
  the union keeps them regardless), and ``_satisfy`` memoizes subformula
  results whose free variables are bound and whose referenced fixpoint
  relations are unchanged between stages.  Both refinements preserve the
  Definition 3.1 semantics exactly — stage sequences, answers, and
  :class:`PFPDivergenceError` period/stage all match the naive strategy.

Orthogonally to the strategy, ``Evaluator(intern=True)`` evaluates over
the interned kernel: each evaluation starts from an empty
:class:`repro.objects.intern.ValueStore`, every environment binds dense
integer ids instead of nested objects, and an instance relation is
interned the first time a relation atom reads it
(:class:`repro.objects.intern.InternedInstance`), so equality,
membership and relation probes compare machine ints.  Ids are assigned
in first-read order, not the Definition 4.2 order, and are compared only
by equality, membership and member-set inclusion.  Interning is a
bijection on the values in play, hence every truth value, stage
sequence, stat counter and divergence outcome is identical to the object
evaluator's; answers are decoded back to values at the API boundary.
The naive object engines therefore stay the differential oracle for the
interned path too.
"""

from __future__ import annotations

import itertools
from typing import Callable, Collection, Iterable, Iterator, Mapping

from ..obs import NullTracer, Tracer, get_tracer
from ..obs.metrics import value_node_count
from ..objects.domains import DomainTooLarge, domain_cardinality, materialize_domain
from ..objects.instance import Instance
from ..objects.intern import InternedInstance
from ..objects.schema import DatabaseSchema
from ..objects.types import Type
from ..objects.values import Atom, CSet, CTuple, Value
from .fixpoint import PFPDivergenceError, iterate_ifp, iterate_ifp_delta, iterate_pfp
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

#: Recognised evaluation strategies.
STRATEGIES = ("naive", "seminaive")


class EvalError(Exception):
    """Raised when evaluation cannot proceed (ill-typed input, caps...)."""


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

    def domain(self, typ: Type) -> list[Value]:
        if typ not in self._cache:
            if self._atoms is None:
                self._atoms = self._active()
            cardinality = domain_cardinality(typ, len(self._atoms))
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


class _Context:
    """State threaded through a single evaluation."""

    def __init__(
        self,
        instance: Instance,
        active: Callable[[], tuple[Atom, ...]],
        max_domain: int,
        max_product: int,
        variable_ranges: Mapping[str, Collection[Value]] | None,
        fixpoint_ranges: Mapping[str, Mapping[str, Collection[Value]]] | None,
        tracer: Tracer | NullTracer | None = None,
        strategy: str = "seminaive",
        max_memo: int = DEFAULT_MAX_MEMO,
        interned: InternedInstance | None = None,
    ):
        self.instance = instance
        self.tracer = tracer if tracer is not None else get_tracer()
        self.domains = _DomainCache(active, max_domain, self.tracer)
        self.max_product = max_product
        self.variable_ranges = dict(variable_ranges or {})
        self.fixpoint_ranges = {
            name: dict(ranges) for name, ranges in (fixpoint_ranges or {}).items()
        }
        self.strategy = strategy
        #: Relations bound by enclosing fixpoints: name -> frozenset of rows.
        self.rel_env: dict[str, frozenset[tuple[Value, ...]]] = {}
        #: Cache of fixpoint results keyed by (fixpoint, parameter values).
        self.fixpoint_cache: dict[tuple, frozenset[tuple[Value, ...]]] = {}
        #: Statistics (exposed for benchmarks).
        self.stats = {"atom_checks": 0, "formula_checks": 0,
                      "quantifier_iterations": 0, "fixpoint_stages": 0,
                      "delta_rows": 0, "stage_skips": 0,
                      "satisfy_memo_hits": 0}
        #: Enumeration shapes already reported to the tracer (dedup so a
        #: quantifier inside a hot loop traces once, not per outer env).
        self.traced_enumerations: set[tuple] = set()
        #: Memoized _satisfy results (seminaive strategy only), keyed by
        #: (formula, free-variable bindings); capped by ``max_memo``.
        self.memo_enabled = strategy == "seminaive"
        self.max_memo = max_memo
        self.satisfy_memo: dict[tuple, bool] = {}
        #: Interned kernel: when set, every env binds dense ids from its
        #: store, `candidates` go through the encoded cache below and
        #: relation probes read its rows.  ``None`` selects the plain
        #: object path.
        self.interned = interned
        self.store = interned.store if interned is not None else None
        self._encoded_domains: dict[tuple, list[int]] = {}
        #: Per-formula (free variables, referenced relations), computed once.
        #: Keyed by ``id(formula)``: AST nodes are immutable and outlive
        #: the context, and structural hashing of a subtree on every
        #: lookup is exactly the per-node cost memoization must avoid.
        self._profiles: dict[int, tuple[tuple[str, ...], frozenset[str]]] = {}

    def profile(self, formula: Formula) -> tuple[tuple[str, ...], frozenset[str]]:
        """Free-variable names (sorted) and referenced relation names."""
        cached = self._profiles.get(id(formula))
        if cached is None:
            cached = (tuple(sorted(formula.free_variables())),
                      _referenced_relations(formula))
            self._profiles[id(formula)] = cached
        return cached

    def candidates(self, var_name: str, typ: Type) -> Collection:
        """Values a variable ranges over: its range if given, else dom(T, D).

        Interned contexts return (and cache) the id-encoded candidate
        list; the enumeration order matches the object path's, so stats
        and short-circuiting behave identically."""
        if self.store is None:
            if var_name in self.variable_ranges:
                return self.variable_ranges[var_name]
            return self.domains.domain(typ)
        ranged = var_name in self.variable_ranges
        key = ("range", var_name) if ranged else ("domain", typ)
        cached = self._encoded_domains.get(key)
        if cached is None:
            source = (self.variable_ranges[var_name] if ranged
                      else self.domains.domain(typ))
            cached = [self.store.intern(value) for value in source]
            self._encoded_domains[key] = cached
        return cached


class Evaluator:
    """Evaluates CALC(+IFP/PFP) queries over complex object instances.

    Parameters:
        schema: input database schema (used for type checking).
        max_domain_size: cap on any materialised ``dom(T, D)``.
        max_product: cap on enumerated variable-product sizes.
        max_fixpoint_stages: guard on fixpoint iteration counts.
        variable_ranges: optional restricted-domain ranges, variable name
            to a collection of candidate values (restricted semantics).
        strategy: ``"seminaive"`` (delta-driven, the default) or
            ``"naive"`` (the reference oracle; see the module docstring).
        intern: evaluate over dense value ids from a per-evaluation
            :class:`ValueStore` instead of nested objects (orthogonal to
            ``strategy``; answers and counters are identical).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        max_domain_size: int = DEFAULT_MAX_DOMAIN,
        max_product: int = DEFAULT_MAX_PRODUCT,
        max_fixpoint_stages: int | None = 100_000,
        variable_ranges: Mapping[str, Collection[Value]] | None = None,
        tracer: Tracer | NullTracer | None = None,
        strategy: str = "seminaive",
        intern: bool = False,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown evaluation strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        self.schema = schema
        self.max_domain_size = max_domain_size
        self.max_product = max_product
        self.max_fixpoint_stages = max_fixpoint_stages
        self.variable_ranges = variable_ranges
        self.strategy = strategy
        self.intern = intern
        #: Explicit tracer; None resolves the active one per evaluation,
        #: so ``with use_tracer(...)`` works without rebuilding Evaluators.
        self.tracer = tracer
        self.last_stats: dict[str, int] | None = None

    # -- public API ------------------------------------------------------

    def evaluate(self, query: Query, inst: Instance) -> frozenset[CTuple]:
        """Compute ``Q(I)``: the set of head tuples satisfying the body."""
        report = check_query(query, self.schema)
        ctx = self._context(query.body, inst)
        head_vars = [Var(n, t) for n, t in query.head]
        results: set[CTuple] = set()
        with ctx.tracer.span("query",
                             head=[name for name, _ in query.head]) as span:
            for env in self._bindings(head_vars, ctx, {}):
                if self._satisfy(query.body, env, ctx):
                    if ctx.store is not None:
                        results.add(CTuple(ctx.store.value(env[v.name])
                                           for v in head_vars))
                    else:
                        results.add(CTuple(env[v.name] for v in head_vars))
            span.set(rows=len(results))
            if ctx.tracer.enabled:
                ctx.tracer.count(
                    "space.answer_nodes",
                    sum(value_node_count(row) for row in results),
                )
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

    # -- machinery ---------------------------------------------------------

    def _context(self, formula: Formula, inst: Instance) -> _Context:
        fixpoint_ranges: dict[str, dict[str, Collection[Value]]] = {}
        tracer = self.tracer if self.tracer is not None else get_tracer()
        return _Context(
            inst, lambda: active_atoms(inst, constants_of(formula)),
            self.max_domain_size, self.max_product,
            self.variable_ranges, fixpoint_ranges, tracer,
            strategy=self.strategy,
            interned=InternedInstance(inst) if self.intern else None,
        )

    def _finish(self, ctx: _Context) -> None:
        """Publish per-evaluation stats (kept on ``last_stats`` for
        backwards compatibility, mirrored into the tracer's counters).
        Zero-valued stats are not mirrored, keeping EXPLAIN output free
        of counters the evaluation never touched."""
        self.last_stats = ctx.stats
        if ctx.tracer.enabled:
            for name, value in ctx.stats.items():
                if value:
                    ctx.tracer.count(f"eval.{name}", value)
            if ctx.store is not None:
                ctx.tracer.gauge("space.interned_values", len(ctx.store))

    def _bindings(
        self,
        variables: list[Var],
        ctx: _Context,
        base_env: dict[str, Value],
    ) -> Iterator[dict[str, Value]]:
        """Enumerate environments extending base_env over the variables."""
        domains = []
        total = 1
        for var in variables:
            assert var.typ is not None
            candidates = ctx.candidates(var.name, var.typ)
            domains.append(list(candidates))
            total *= len(domains[-1])
            if total > ctx.max_product:
                raise EvalError(
                    f"enumeration of {total}+ bindings exceeds cap "
                    f"{ctx.max_product}"
                )
        if ctx.tracer.enabled and variables:
            shape = tuple((v.name, len(d)) for v, d in zip(variables, domains))
            if shape not in ctx.traced_enumerations:
                ctx.traced_enumerations.add(shape)
                ctx.tracer.event(
                    "enumerate",
                    vars=[v.name for v in variables],
                    sizes=[len(d) for d in domains],
                    product=total,
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
                if term.fixpoint.arity == 1:
                    return ctx.store.intern_set(row[0] for row in rows)
                return ctx.store.intern_set(
                    ctx.store.intern_tuple(row) for row in rows)
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
            if ctx.interned is not None:
                return row in ctx.interned.rows(formula.name)
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
        if ctx.memo_enabled:
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
        if memo_key is not None and len(ctx.satisfy_memo) < ctx.max_memo:
            ctx.satisfy_memo[memo_key] = result
        return result

    def _satisfy_quantified(self, formula: Formula, env: dict[str, Value],
                            ctx: _Context) -> bool:
        if isinstance(formula, FixpointPred):
            rows = self._fixpoint_rows(formula.fixpoint, env, ctx)
            row = tuple(self._eval_term(a, env, ctx) for a in formula.args)
            return row in rows
        if isinstance(formula, Exists):
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
        # Cache on the fixpoint identity plus the values of its parameters
        # and the state of any enclosing fixpoint relations it references.
        param_values = tuple(
            (v.name, env.get(v.name)) for v in fixpoint.parameters()
        )
        outer_rels = tuple(sorted(
            (name, rows) for name, rows in ctx.rel_env.items()
        ))
        key = (fixpoint, param_values, outer_rels)
        if key in ctx.fixpoint_cache:
            ctx.tracer.count("eval.fixpoint_cache_hits")
            return ctx.fixpoint_cache[key]

        column_vars = [Var(n, t) for n, t in fixpoint.columns]

        def body_rows(current: frozenset[tuple[Value, ...]],
                      skip_known: bool) -> frozenset[tuple[Value, ...]]:
            """One application of phi against ``current``.

            With ``skip_known`` (seminaive IFP), candidate rows already
            in ``current`` are not re-checked: the inflationary union
            keeps them regardless of whether phi still derives them.
            """
            ctx.stats["fixpoint_stages"] += 1
            previous = ctx.rel_env.get(fixpoint.name)
            ctx.rel_env[fixpoint.name] = current
            try:
                rows = set()
                for extended in self._bindings(column_vars, ctx, env):
                    row = tuple(extended[v.name] for v in column_vars)
                    if skip_known and row in current:
                        ctx.stats["stage_skips"] += 1
                        continue
                    if self._satisfy(fixpoint.body, extended, ctx):
                        rows.add(row)
                return frozenset(rows)
            finally:
                if previous is None:
                    del ctx.rel_env[fixpoint.name]
                else:
                    ctx.rel_env[fixpoint.name] = previous

        def naive_stage(current: frozenset[tuple[Value, ...]]) -> frozenset[tuple[Value, ...]]:
            return body_rows(current, False)

        def delta_stage(current: frozenset[tuple[Value, ...]],
                        delta: frozenset[tuple[Value, ...]]) -> frozenset[tuple[Value, ...]]:
            rows = body_rows(current, True)
            ctx.stats["delta_rows"] += len(rows)
            return rows

        kind = "ifp" if fixpoint.kind == IFP else "pfp"
        with ctx.tracer.span("fixpoint", name=fixpoint.name,
                             kind=kind, strategy=ctx.strategy) as span:
            if fixpoint.kind == IFP:
                if ctx.strategy == "seminaive":
                    result = iterate_ifp_delta(
                        delta_stage, self.max_fixpoint_stages, ctx.tracer)
                else:
                    result = iterate_ifp(naive_stage,
                                         self.max_fixpoint_stages,
                                         ctx.tracer)
            else:
                # PFP stages *replace* the relation, so no candidate can
                # be skipped; the seminaive strategy still benefits from
                # _satisfy memoization of stage-invariant subformulas.
                result = iterate_pfp(naive_stage, self.max_fixpoint_stages,
                                     ctx.tracer)
            span.set(rows=len(result))
            if ctx.tracer.enabled:
                ctx.tracer.observe("space.fixpoint_rows", len(result))
        ctx.fixpoint_cache[key] = result
        return result


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
