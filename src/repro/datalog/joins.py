"""Join plans over interned ids: the one join kernel of both engines.

:func:`plan` compiles a rule body, a list of Datalog literals
(:class:`~repro.datalog.syntax.Literal`,
:class:`~repro.datalog.syntax.BuiltinLiteral`), into steps over batches
of bindings.  The semi-naive Datalog engine
(:mod:`repro.datalog.engine`) plans every rule it fires; the calculus
engine (:mod:`repro.core.evaluation`) plans each disjunct of a fixpoint
body or query formula, Section 3's CALC+IFP ↔ inf-Datalog connection
used inside the evaluator.

A plan tracks which variables are bound step by step (boundness depends
only on names, so the plan is static once compiled) and at each step
takes:

1. a literal whose terms are all bound, as a filter — a relation
   literal becomes a membership test, a builtin a check (text order
   among filters);
2. else a generator: a positive ``=`` with exactly one unbound variable
   side, or ``x in s`` with ``s`` bound;
3. else the positive relation literal with the most bound positions;
   ties go to the ``Δ::`` literal, then to the smaller row set (the one
   place the planner reads a size), then to text order.  It probes an
   index on its bound positions, or scans when none is bound.

``source(predicate)`` supplies each relation literal's ``(index source
key, rows, owning IndexPool)``; ``rows`` must support membership of id
tuples and, for a positive literal, iteration and ``len``.

A binding is a tuple of ids, one per variable in the order the plan
binds them; constants are interned once per plan and folded into the
getters that read keys and values off a binding.  Each step maps a
batch (a list of bindings) to the next in one comprehension: a scan or
probe extends every binding with the rows it matches (a literal that
repeats a variable keeps the rows that agree), a filter keeps some
bindings, a generator adds a column, and the head projects each binding
to its head id-tuple, one per binding, as the oracle derives them.  A
probe looks its index up once per batch, and ``eval.index_probes``
counts the bindings probed.  A plan stops at its first empty batch, so
a step runs (an index is built and probed, an error raised) exactly
when some binding reaches it.  A scan whose output would exceed
:data:`_CHUNK` bindings, such as the calculus's walked candidate
product (generated, not stored), is drawn that many rows at a time for
one binding at a time, each chunk run through the rest of the plan
before the next is drawn.

Evaluability only grows as variables get bound, so every greedy order
consumes the same maximal set of literals as a text-order join; a plan
that cannot place the rest ends in a step raising the "unsafe rule"
error, and the head raises "head variable unbound by body".  Value
errors (``in`` or ``sub`` on a non-set) are raised where a binding meets
them.  When the bindings of one batch (or chunk) would meet different
errors, the one raised is met at the earliest step, by the first binding
to meet an error there; a depth-first join raises the first binding's.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import itemgetter
from typing import Callable

from ..core.fixpoint import IndexPool
from ..objects.intern import InternedInstance
from .syntax import BuiltinLiteral, DatalogError, DConst, DVar, Literal, Rule

Row = tuple

#: Prefix marking a delta view of a relation in a rule body: ``Δ::P``
#: reads only the rows ``P`` gained at the previous stage.  Engine-
#: internal; user predicates never carry the prefix.
DELTA = "Δ::"

#: The most rows a scan draws at once (see the module docstring).
_CHUNK = 4096

#: ``source(predicate)`` -> ``(index source key, rows, owning pool)``
#: for one plan.
_Source = Callable[[str], tuple]
#: One step: a batch of bindings to the next, or to an iterator of chunks.
_Step = Callable[[list], object]


def _generator(literal, bound) -> tuple | None:
    """``(bound term, variable)`` when ``literal`` can bind one variable
    from bound terms: ``x = t`` / ``t = x``, or ``x in s``."""
    if not isinstance(literal, BuiltinLiteral) or not literal.positive:
        return None
    left_free = (isinstance(literal.left, DVar)
                 and literal.left.name not in bound)
    right_free = (isinstance(literal.right, DVar)
                  and literal.right.name not in bound)
    if literal.op == "=" and left_free != right_free:
        if left_free:
            return literal.right, literal.left
        return literal.left, literal.right
    if literal.op == "in" and left_free and not right_free:
        return literal.right, literal.left
    return None


def _pick(remaining: list, bound, source: _Source) -> int | None:
    """Index of the literal the plan takes next (see the module
    docstring), or None when none is evaluable."""
    generator, ranks = None, {}
    for index, literal in enumerate(remaining):
        terms = (literal.terms if isinstance(literal, Literal)
                 else (literal.left, literal.right))
        known = sum(isinstance(t, DConst) or t.name in bound for t in terms)
        if known == len(terms):
            return index
        if isinstance(literal, Literal):
            if literal.positive:
                ranks[index] = (-known,
                                not literal.predicate.startswith(DELTA))
        elif generator is None and _generator(literal, bound) is not None:
            generator = index
    if generator is not None or not ranks:
        return generator
    best = min(ranks.values())
    tied = [index for index, rank in ranks.items() if rank == best]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda at: len(source(remaining[at].predicate)[1]))


def _getter(parts: list, width: int,
            bare: bool = False) -> Callable[[tuple], object]:
    """``binding -> tuple`` of ``parts``: each a column of a binding
    ``width`` columns wide, or a constant id folded in (a 1-tuple).
    With ``bare``, a single part's value itself, as a one-position index
    files its rows."""
    if tuple in map(type, parts):
        constants = tuple(part[0] for part in parts if type(part) is tuple)
        extra = iter(range(width, width + len(constants)))
        get = _getter([part if type(part) is int else next(extra)
                       for part in parts], width, bare)
        return lambda binding: get(binding + constants)
    if bare or len(parts) > 1:
        return itemgetter(*parts)
    return itemgetter(slice(parts[0], parts[0] + 1))


def _extend(fresh: tuple[int, ...], repeats: list, arity: int) -> Callable:
    """``pairs -> batch``: the binding of each ``(binding, rows)`` pair
    extended with the ``fresh`` positions of each of its rows whose
    ``repeats`` position pairs agree."""
    if len(fresh) == 1 and not repeats:
        (position,) = fresh
        return lambda pairs: [binding + (row[position],)
                              for binding, rows in pairs for row in rows]
    if fresh == tuple(range(arity)):
        return lambda pairs: [binding + row
                              for binding, rows in pairs for row in rows]
    pick = _getter(list(fresh), 0)
    if repeats:
        first, again = (itemgetter(*side) for side in zip(*repeats))
        return lambda pairs: [binding + pick(row) for binding, rows in pairs
                              for row in rows if first(row) == again(row)]
    return lambda pairs: [binding + pick(row)
                          for binding, rows in pairs for row in rows]


def _join(source_key, rows, pool: IndexPool, positions: tuple[int, ...],
          key: Callable | None, extend: Callable) -> _Step:
    """A probe of ``rows`` on ``positions`` with ``key``, or a scan."""
    def step(batch: list):
        if positions:
            get = pool.probe(source_key, rows, positions, len(batch)).get
            return extend(zip(batch, map(get, map(key, batch), repeat(()))))
        if len(batch) * len(rows) <= _CHUNK:
            return extend(zip(batch, repeat(rows)))
        return chunks(batch)

    def chunks(batch: list):
        for binding in batch:
            flow = iter(rows)
            while chunk := list(islice(flow, _CHUNK)):
                yield extend([(binding, chunk)])
    return step


def _generate(store: InternedInstance, op: str, origin: Callable) -> _Step:
    if op == "=":
        return lambda batch: [b + (origin(b),) for b in batch]
    return lambda batch: [b + (member,) for b in batch
                          for member in _set_members(store, origin(b), op)]


def _member(rows, key: Callable, positive: bool) -> _Step:
    return lambda batch: [binding for binding in batch
                          if (key(binding) in rows) is positive]


def _set_members(store: InternedInstance, vid: int, op: str) -> frozenset[int]:
    members = store.set_members(vid)
    if members is None:
        if op == "in":
            raise DatalogError(
                f"'in' against non-set value {store.value(vid)!r}")
        raise DatalogError("'sub' needs set values")
    return members


def _check(store: InternedInstance, op: str, left: Callable,
           right: Callable, positive: bool) -> _Step:
    if op == "=":
        return lambda batch: [b for b in batch
                              if (left(b) == right(b)) is positive]
    if op == "in":
        return lambda batch: [
            b for b in batch
            if (left(b) in _set_members(store, right(b), op)) is positive]
    return lambda batch: [
        b for b in batch if (_set_members(store, left(b), op)
                             <= _set_members(store, right(b), op)) is positive]


def _fail(message: str) -> _Step:
    """A last step: any binding reaching it raises ``message``."""
    def step(batch: list) -> list:
        raise DatalogError(message)
    return step


def _run(steps: list[_Step], batch: list, out: list[Row]) -> None:
    """Run ``steps`` on ``batch`` up to an empty batch, adding the last
    step's rows to ``out``; a chunked scan runs the rest on each chunk."""
    for at, step in enumerate(steps):
        if not batch:
            return
        batch = step(batch)
        if not isinstance(batch, list):
            for chunk in batch:
                _run(steps[at + 1:], chunk, out)
            return
    out += batch


def plan(rule: Rule, source: _Source,
         store: InternedInstance) -> Callable[[], list[Row]]:
    """Compile ``rule`` against the row sets ``source`` supplies.

    Returns a callable producing the head id-tuple of every satisfying
    binding (one entry per binding, as the oracle derives them)."""
    columns: dict[str, int] = {}   # variable name -> column of a binding

    def part(term):
        """A bound variable's column, a constant's (id,), else None."""
        if isinstance(term, DVar):
            return columns.get(term.name)
        return (store.intern(term.value),)

    def value(term) -> Callable:
        return _getter([part(term)], len(columns), bare=True)

    steps: list[_Step] = []
    remaining = list(rule.body)
    while remaining:
        index = _pick(remaining, columns, source)
        if index is None:
            steps.append(_fail(
                f"unsafe rule: no literal evaluable with bindings "
                f"{sorted(columns)} among {remaining!r}"))
            break
        literal = remaining.pop(index)
        if isinstance(literal, BuiltinLiteral):
            generated = _generator(literal, columns)
            if generated is None:
                steps.append(_check(store, literal.op, value(literal.left),
                                    value(literal.right), literal.positive))
                continue
            steps.append(_generate(store, literal.op, value(generated[0])))
            columns[generated[1].name] = len(columns)
            continue
        source_key, rows, pool = source(literal.predicate)
        parts = [part(term) for term in literal.terms]
        if None not in parts:
            steps.append(_member(rows, _getter(parts, len(columns)),
                                 literal.positive))
            continue
        fresh: dict[str, int] = {}   # unbound variable -> first position
        repeats: list[tuple[int, int]] = []
        for position, (term, found) in enumerate(zip(literal.terms, parts)):
            if found is None and term.name in fresh:
                repeats.append((position, fresh[term.name]))
            elif found is None:
                fresh[term.name] = position
        extend = _extend(tuple(fresh.values()), repeats, len(parts))
        positions = tuple(position for position, found in enumerate(parts)
                          if found is not None)
        key = _getter([parts[at] for at in positions], len(columns),
                      bare=True) if positions else None
        steps.append(_join(source_key, rows, pool, positions, key, extend))
        for name in fresh:
            columns[name] = len(columns)
    head = [part(term) for term in rule.head.terms]
    if None in head:
        steps.append(_fail(f"head variable unbound by body in {rule!r}"))
    else:
        head_of = _getter(head, len(columns))
        steps.append(lambda batch: list(map(head_of, batch)))

    def execute() -> list[Row]:
        out: list[Row] = []
        _run(steps, [()], out)
        return out

    return execute
