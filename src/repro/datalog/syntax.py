"""Syntax of complex-object Datalog (inf-Datalog, Section 3).

The paper relates ``CALC_i^k + IFP`` to inflationary Datalog with
complex objects and negation (``inf-Datalog^{i,k}_¬``), the style of
deductive languages of [AG91, Kup87, BNR+87].  Programs are sets of
rules::

    T(x, y) :- G(x, y)
    T(x, y) :- T(x, z), G(z, y)

over complex-object relations, with negated literals and the built-ins
``=``, ``in`` and ``sub`` in rule bodies.  Head predicates (IDB) are
disjoint from database predicates (EDB); variables are typed (types
declared per predicate).

Rules must be *safe*: the engine requires every variable to be bindable
by positive literals (see :mod:`repro.datalog.engine`'s planner), which
is the deductive cousin of Section 5's range restriction.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from ..objects.types import TypeLike, as_type
from ..objects.values import make_value

__all__ = [
    "DatalogError",
    "DepEdge",
    "DVar",
    "DConst",
    "DTerm",
    "Literal",
    "BuiltinLiteral",
    "Rule",
    "Program",
]


class DepEdge(NamedTuple):
    """One edge of the predicate dependency graph: the rule head
    ``source`` depends on the body predicate ``target``; ``positive``
    records the polarity of the body occurrence.  Both polarities can
    coexist for the same (source, target) pair."""

    source: str
    target: str
    positive: bool


class DatalogError(Exception):
    """Raised for malformed programs or unsafe rules."""


class DVar:
    """A Datalog variable (untyped at the syntax level; types come from
    the predicate declarations)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise DatalogError(f"bad variable name {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DVar is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DVar) and self.name == other.name

    def __hash__(self) -> int:
        return hash((DVar, self.name))

    def __repr__(self) -> str:
        return self.name


class DConst:
    """A complex-object constant in a rule."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        object.__setattr__(self, "value", make_value(value))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DConst is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DConst) and self.value == other.value

    def __hash__(self) -> int:
        return hash((DConst, self.value))

    def __repr__(self) -> str:
        return repr(self.value)


DTerm = Union[DVar, DConst]


def _coerce_term(term: object) -> DTerm:
    if isinstance(term, (DVar, DConst)):
        return term
    if isinstance(term, str) and term[:1].islower():
        # Bare lowercase strings read as variables for rule ergonomics.
        return DVar(term)
    return DConst(term)


class Literal:
    """A (possibly negated) relation literal ``[not] P(t1, ..., tn)``."""

    __slots__ = ("predicate", "terms", "positive")

    def __init__(self, predicate: str, terms: Iterable[object],
                 positive: bool = True):
        terms = tuple(_coerce_term(t) for t in terms)
        if not terms:
            raise DatalogError(f"literal {predicate!r} needs arguments")
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "positive", bool(positive))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def negated(self) -> "Literal":
        return Literal(self.predicate, self.terms, not self.positive)

    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, DVar))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Literal)
                and self.predicate == other.predicate
                and self.terms == other.terms
                and self.positive == other.positive)

    def __hash__(self) -> int:
        return hash((Literal, self.predicate, self.terms, self.positive))

    def __repr__(self) -> str:
        sign = "" if self.positive else "not "
        return f"{sign}{self.predicate}({', '.join(map(repr, self.terms))})"


class BuiltinLiteral:
    """A built-in comparison ``t1 op t2`` with op in ``=``, ``in``, ``sub``,
    possibly negated."""

    __slots__ = ("op", "left", "right", "positive")

    OPS = ("=", "in", "sub")

    def __init__(self, op: str, left: object, right: object,
                 positive: bool = True):
        if op not in self.OPS:
            raise DatalogError(f"unknown builtin {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", _coerce_term(left))
        object.__setattr__(self, "right", _coerce_term(right))
        object.__setattr__(self, "positive", bool(positive))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BuiltinLiteral is immutable")

    def variables(self) -> frozenset[str]:
        return frozenset(
            t.name for t in (self.left, self.right) if isinstance(t, DVar)
        )

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BuiltinLiteral) and self.op == other.op
                and self.left == other.left and self.right == other.right
                and self.positive == other.positive)

    def __hash__(self) -> int:
        return hash((BuiltinLiteral, self.op, self.left, self.right,
                     self.positive))

    def __repr__(self) -> str:
        sign = "" if self.positive else "not "
        return f"{sign}({self.left!r} {self.op} {self.right!r})"


BodyLiteral = Union[Literal, BuiltinLiteral]


class Rule:
    """A rule ``head :- body``; the head must be a positive literal."""

    __slots__ = ("head", "body")

    def __init__(self, head: Literal, body: Iterable[BodyLiteral] = ()):
        if not isinstance(head, Literal) or not head.positive:
            raise DatalogError(f"rule head must be a positive literal: {head!r}")
        body = tuple(body)
        for literal in body:
            if not isinstance(literal, (Literal, BuiltinLiteral)):
                raise DatalogError(f"bad body literal {literal!r}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rule is immutable")

    def variables(self) -> frozenset[str]:
        result = self.head.variables()
        for literal in self.body:
            result |= literal.variables()
        return result

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rule) and self.head == other.head
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash((Rule, self.head, self.body))

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}."


class Program:
    """A Datalog program: rules plus IDB predicate type declarations.

    ``idb_types`` maps each intensional predicate to its column types.
    EDB predicates (anything else appearing in bodies) take their types
    from the database schema at evaluation time.
    """

    __slots__ = ("rules", "idb_types")

    def __init__(self, rules: Iterable[Rule],
                 idb_types: dict[str, Iterable[TypeLike]]):
        rules = tuple(rules)
        declared = {
            name: tuple(as_type(t) for t in types)
            for name, types in idb_types.items()
        }
        for rule in rules:
            if rule.head.predicate not in declared:
                raise DatalogError(
                    f"undeclared IDB predicate {rule.head.predicate!r} "
                    f"in head of {rule!r}"
                )
            if len(rule.head.terms) != len(declared[rule.head.predicate]):
                raise DatalogError(
                    f"head arity mismatch in {rule!r}"
                )
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "idb_types", declared)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Program is immutable")

    @property
    def idb_predicates(self) -> frozenset[str]:
        return frozenset(self.idb_types)

    def edb_predicates(self) -> frozenset[str]:
        result: set[str] = set()
        for rule in self.rules:
            for literal in rule.body:
                if (isinstance(literal, Literal)
                        and literal.predicate not in self.idb_types):
                    result.add(literal.predicate)
        return frozenset(result)

    def predicates(self) -> frozenset[str]:
        """Every predicate name the program mentions (IDB and EDB)."""
        return self.idb_predicates | self.edb_predicates() | frozenset(
            rule.head.predicate for rule in self.rules
        )

    def dependency_edges(self) -> frozenset[DepEdge]:
        """The labelled predicate dependency graph.

        ``DepEdge(P, Q, positive)`` is present when some rule with head
        ``P`` has a (possibly negated) body literal over ``Q``.
        Built-in literals contribute no edges: they relate values, not
        predicates.
        """
        edges: set[DepEdge] = set()
        for rule in self.rules:
            for literal in rule.body:
                if isinstance(literal, Literal):
                    edges.add(DepEdge(rule.head.predicate,
                                      literal.predicate, literal.positive))
        return frozenset(edges)

    def level(self) -> tuple[int, int]:
        """Max set height / tuple width among declared IDB column types
        (the ``<i,k>`` of inf-Datalog^{i,k})."""
        heights = [t.set_height for ts in self.idb_types.values() for t in ts]
        widths = [t.tuple_width for ts in self.idb_types.values() for t in ts]
        return (max(heights, default=0), max(widths, default=0))

    def __repr__(self) -> str:
        return "\n".join(repr(rule) for rule in self.rules)
