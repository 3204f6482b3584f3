"""Join plans over interned ids: the one join kernel of both engines.

:func:`plan` compiles a rule body, a list of Datalog literals
(:class:`~repro.datalog.syntax.Literal`,
:class:`~repro.datalog.syntax.BuiltinLiteral`), into nested loops over
row sets of dense ids.  The semi-naive Datalog engine
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
   ties go to the ``Δ::`` literal, then to the smaller row set, then to
   text order.  It probes an index on its bound positions, or scans
   when none is bound.

``source(predicate)`` supplies each relation literal's ``(index source
key, rows, owning IndexPool)``; ``rows`` must support membership of id
tuples and, for a positive literal, iteration and ``len``.  Bindings live in one slot list
per plan, constants are interned once per plan, and the plan appends
head id-tuples to a list, one per satisfying binding.  Evaluability only
grows as variables get bound, so every greedy order consumes the same
maximal set of literals as a text-order join; a plan that cannot place
the rest ends in a step raising the "unsafe rule" error, and "head
variable unbound by body" is raised at the first head row.  Value errors
(``in`` or ``sub`` on a non-set) are raised where a binding meets them.
"""

from __future__ import annotations

from functools import partial
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


#: ``source(predicate)`` -> ``(index source key, rows, owning pool)``
#: for one plan.
_Source = Callable[[str], tuple]
#: One compiled step: runs on the plan's slot list and calls the next.
_Step = Callable[[list], None]


def _terms(literal) -> tuple:
    if isinstance(literal, Literal):
        return literal.terms
    return (literal.left, literal.right)


def _is_bound_term(term, bound) -> bool:
    return isinstance(term, DConst) or term.name in bound


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
    for index, literal in enumerate(remaining):
        if all(_is_bound_term(t, bound) for t in _terms(literal)):
            return index
    for index, literal in enumerate(remaining):
        if _generator(literal, bound) is not None:
            return index
    best = None
    for index, literal in enumerate(remaining):
        if isinstance(literal, Literal) and literal.positive:
            rank = (-sum(_is_bound_term(t, bound) for t in literal.terms),
                    not literal.predicate.startswith(DELTA),
                    len(source(literal.predicate)[1]),
                    index)
            if best is None or rank < best:
                best = rank
    return None if best is None else best[-1]


def _getter(slots: list[int]) -> Callable[[list], tuple]:
    """A callable reading ``slots`` out of a slot list as a tuple."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda values: (values[slot],)
    return itemgetter(*slots)


def _binder(first: int, positions: tuple[int, ...],
            repeats: tuple[tuple[int, int], ...], nxt: _Step):
    """``each(rows, slots)``: for every row whose repeated-variable
    positions agree, write ``positions`` into the slots from ``first``
    on and continue with ``nxt``."""
    end = first + len(positions)
    if repeats:
        pick = _getter(list(positions))

        def each(rows, slots: list) -> None:
            for row in rows:
                if all(row[p] == row[q] for p, q in repeats):
                    slots[first:end] = pick(row)
                    nxt(slots)
    elif len(positions) == 1:
        (position,) = positions

        def each(rows, slots: list) -> None:
            for row in rows:
                slots[first] = row[position]
                nxt(slots)
    else:
        pick = itemgetter(*positions)

        def each(rows, slots: list) -> None:
            for row in rows:
                slots[first:end] = pick(row)
                nxt(slots)
    return each


def _scan(rows, first, positions, repeats, nxt: _Step) -> _Step:
    each = _binder(first, positions, repeats, nxt)
    return lambda slots: each(rows, slots)


def _probe(source_key, rows, pool: IndexPool, key_positions, key_slots,
           first, positions, repeats, nxt: _Step) -> _Step:
    each = _binder(first, positions, repeats, nxt)
    probe, key_of = pool.probe, _getter(key_slots)
    return lambda slots: each(
        probe(source_key, rows, key_positions, key_of(slots)), slots)


def _member(rows, key_slots, positive: bool, nxt: _Step) -> _Step:
    key_of = _getter(key_slots)

    def run(slots: list) -> None:
        if (key_of(slots) in rows) is positive:
            nxt(slots)
    return run


def _set_members(store: InternedInstance, vid: int, op: str) -> frozenset[int]:
    members = store.set_members(vid)
    if members is None:
        if op == "in":
            raise DatalogError(
                f"'in' against non-set value {store.value(vid)!r}")
        raise DatalogError("'sub' needs set values")
    return members


def _check(store: InternedInstance, op: str, left: int, right: int,
           positive: bool, nxt: _Step) -> _Step:
    if op == "=":
        def run(slots: list) -> None:
            if (slots[left] == slots[right]) is positive:
                nxt(slots)
    elif op == "in":
        def run(slots: list) -> None:
            members = _set_members(store, slots[right], op)
            if (slots[left] in members) is positive:
                nxt(slots)
    else:  # sub
        def run(slots: list) -> None:
            left_members = _set_members(store, slots[left], op)
            right_members = _set_members(store, slots[right], op)
            if (left_members <= right_members) is positive:
                nxt(slots)
    return run


def _assign(source: int, target: int, nxt: _Step) -> _Step:
    def run(slots: list) -> None:
        slots[target] = slots[source]
        nxt(slots)
    return run


def _enumerate(store: InternedInstance, source: int, target: int,
               nxt: _Step) -> _Step:
    def run(slots: list) -> None:
        for member in _set_members(store, slots[source], "in"):
            slots[target] = member
            nxt(slots)
    return run


def _fail(message: str, nxt: _Step | None = None) -> _Step:
    """A last step: any binding reaching it raises ``message``."""
    def run(slots: list) -> None:
        raise DatalogError(message)
    return run


def plan(rule: Rule, source: _Source,
         store: InternedInstance) -> Callable[[], list[Row]]:
    """Compile ``rule`` against the row sets ``source`` supplies.

    Returns a callable producing the head id-tuple of every satisfying
    binding (one entry per binding, as the oracle derives them)."""
    initial: list = []           # slot values: constant ids, None for variables
    bound: dict[str, int] = {}   # variable name -> slot
    constants: dict[int, int] = {}

    def slot_of(term) -> int | None:
        if isinstance(term, DVar):
            return bound.get(term.name)
        vid = store.intern(term.value)
        if vid not in constants:
            constants[vid] = len(initial)
            initial.append(vid)
        return constants[vid]

    def bind(name: str) -> int:
        bound[name] = len(initial)
        initial.append(None)
        return bound[name]

    steps: list[Callable[[_Step], _Step]] = []
    remaining = list(rule.body)
    while remaining:
        index = _pick(remaining, bound, source)
        if index is None:
            steps.append(partial(
                _fail, f"unsafe rule: no literal evaluable with bindings "
                       f"{sorted(bound)} among {remaining!r}"))
            break
        literal = remaining.pop(index)
        if isinstance(literal, BuiltinLiteral):
            generated = _generator(literal, bound)
            if generated is None:
                steps.append(partial(
                    _check, store, literal.op, slot_of(literal.left),
                    slot_of(literal.right), literal.positive))
            else:
                origin = slot_of(generated[0])
                make = _assign if literal.op == "=" else partial(
                    _enumerate, store)
                steps.append(partial(make, origin, bind(generated[1].name)))
            continue
        source_key, rows, pool = source(literal.predicate)
        slots = [slot_of(term) for term in literal.terms]
        if None not in slots:
            steps.append(partial(_member, rows, slots, literal.positive))
            continue
        key_positions: list[int] = []
        key_slots: list[int] = []
        fresh: dict[str, int] = {}   # unbound variable -> first position
        repeats: list[tuple[int, int]] = []
        for position, (term, slot) in enumerate(zip(literal.terms, slots)):
            if slot is not None:
                key_positions.append(position)
                key_slots.append(slot)
            elif term.name in fresh:
                repeats.append((position, fresh[term.name]))
            else:
                fresh[term.name] = position
        first = len(initial)
        for name in fresh:
            bind(name)
        binding = (first, tuple(fresh.values()), tuple(repeats))
        if key_positions:
            steps.append(partial(_probe, source_key, rows, pool,
                                 tuple(key_positions), key_slots, *binding))
        else:
            steps.append(partial(_scan, rows, *binding))
    out: list[Row] = []
    head = [slot_of(term) for term in rule.head.terms]
    if None in head:
        run = _fail(f"head variable unbound by body in {rule!r}")
    else:
        head_of, append = _getter(head), out.append
        run = lambda slots: append(head_of(slots))  # noqa: E731
    for make in reversed(steps):
        run = make(run)

    def execute() -> list[Row]:
        run(list(initial))
        return out

    return execute
