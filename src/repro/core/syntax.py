"""Abstract syntax of CALC, CALC+IFP and CALC+PFP (Section 3).

The calculus is a strongly typed extension of first-order logic over
complex object types:

* **terms** — complex object constants, typed variables, projections
  ``x.i`` of tuple-typed variables, and fixpoint *terms*
  ``IFP(phi(S), S)`` (Definition 3.1 allows a fixpoint to be used as a
  term denoting the set of tuples in the fixpoint relation);
* **atomic formulas** — ``t1 = t2``, ``t1 in t2``, ``t1 sub t2`` and
  ``R(t1, ..., tn)`` for database or fixpoint-bound relation names, plus
  fixpoint *predicates* ``IFP(phi(S), S)(t1, ..., tn)``;
* **formulas** — closed under ``not, and, or, ->, <->`` and typed
  quantifiers ``exists x:T`` / ``forall x:T``;
* **queries** — ``{[x1:T1, ..., xk:Tk] | phi}`` mapping instances of an
  input schema to a single output relation.

Nodes are immutable and hashable.  The :mod:`repro.core.builder` module
provides an ergonomic way to construct them; :mod:`repro.core.parser`
parses a textual syntax.

Design notes
------------

A :class:`Fixpoint` declares its *column variables* explicitly (name and
type per column, mirroring the paper's "free variables x1:T1 .. xn:Tn of
phi(S)").  Any other free variables of the body act as **parameters**
bound in the enclosing scope — the paper's Example 5.3 relies on this
(``s = IFP((P(x, y) or Q(y)), Q)`` computes, for each outer ``x``, the set
of ``y`` with ``P(x, y)``).  Following footnote 2, applying a fixpoint to
arbitrary argument terms (not just its own column variables) is allowed
and does not change expressive power.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..objects.types import SetType, TupleType, Type, TypeLike, as_type
from ..objects.values import Value, make_value


class SyntaxError_(Exception):
    """Raised for malformed calculus expressions."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Abstract base class for terms."""

    __slots__ = ()

    def variables(self) -> Iterator["Var"]:
        """Yield variable occurrences in this term."""
        raise NotImplementedError

    def walk_terms(self) -> Iterator["Term"]:
        """Yield this term and all subterms."""
        yield self


class Const(Term):
    """A complex object constant of a given type."""

    __slots__ = ("value", "typ")

    def __init__(self, value: object, typ: TypeLike | None = None):
        value = make_value(value)
        if typ is None:
            typ_ = value.infer_type()
        else:
            typ_ = as_type(typ)
            if not value.conforms_to(typ_):
                raise SyntaxError_(f"constant {value!r} not of type {typ_!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "typ", typ_)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Const is immutable")

    def variables(self) -> Iterator["Var"]:
        return iter(())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Const) and self.value == other.value
                and self.typ == other.typ)

    def __hash__(self) -> int:
        return hash((Const, self.value, self.typ))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Var(Term):
    """A typed variable.

    The type may be ``None`` during construction and filled in by the
    type checker (types of variables are inferable from context, per the
    paper); most entry points annotate explicitly.
    """

    __slots__ = ("name", "typ")

    def __init__(self, name: str, typ: TypeLike | None = None):
        if not name or not isinstance(name, str):
            raise SyntaxError_(f"variable name must be a non-empty string: {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "typ", as_type(typ) if typ is not None else None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Var is immutable")

    def variables(self) -> Iterator["Var"]:
        yield self

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Var) and self.name == other.name
                and self.typ == other.typ)

    def __hash__(self) -> int:
        return hash((Var, self.name, self.typ))

    def __repr__(self) -> str:
        if self.typ is None:
            return f"Var({self.name!r})"
        return f"Var({self.name!r}:{self.typ!r})"


class Proj(Term):
    """Projection ``x.i`` (1-indexed) of a tuple-typed variable."""

    __slots__ = ("base", "index")

    def __init__(self, base: Var, index: int):
        if not isinstance(base, Var):
            raise SyntaxError_(
                f"projections apply to variables, got {base!r}"
            )
        if not isinstance(index, int) or index < 1:
            raise SyntaxError_(f"projection index must be >= 1: {index!r}")
        if base.typ is not None:
            if not isinstance(base.typ, TupleType):
                raise SyntaxError_(
                    f"cannot project non-tuple variable {base!r}"
                )
            if index > base.typ.arity:
                raise SyntaxError_(
                    f"projection index {index} exceeds arity {base.typ.arity}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Proj is immutable")

    @property
    def typ(self) -> Type | None:
        if self.base.typ is None:
            return None
        assert isinstance(self.base.typ, TupleType)
        return self.base.typ.component(self.index)

    def variables(self) -> Iterator[Var]:
        yield self.base

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Proj) and self.base == other.base
                and self.index == other.index)

    def __hash__(self) -> int:
        return hash((Proj, self.base, self.index))

    def __repr__(self) -> str:
        return f"{self.base.name}.{self.index}"


class FixpointTerm(Term):
    """A fixpoint used as a term: denotes the set of tuples of the
    computed fixpoint relation, of type ``{[T1, ..., Tn]}``."""

    __slots__ = ("fixpoint",)

    def __init__(self, fixpoint: "Fixpoint"):
        if not isinstance(fixpoint, Fixpoint):
            raise SyntaxError_(f"expected Fixpoint, got {fixpoint!r}")
        object.__setattr__(self, "fixpoint", fixpoint)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FixpointTerm is immutable")

    @property
    def typ(self) -> Type:
        # A unary fixpoint denotes a set of *values*, not of 1-tuples —
        # the paper's Example 5.3 equates s:{U} with a unary IFP term.
        if self.fixpoint.arity == 1:
            return SetType(self.fixpoint.column_types[0])
        return SetType(TupleType(self.fixpoint.column_types))

    def variables(self) -> Iterator[Var]:
        # Parameters of the fixpoint body (column vars are bound inside).
        yield from self.fixpoint.parameters()

    def walk_terms(self) -> Iterator[Term]:
        yield self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FixpointTerm) and self.fixpoint == other.fixpoint

    def __hash__(self) -> int:
        return hash((FixpointTerm, self.fixpoint))

    def __repr__(self) -> str:
        return f"term({self.fixpoint!r})"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    """Abstract base class for formulas."""

    __slots__ = ()

    def children(self) -> tuple["Formula", ...]:
        """Immediate subformulas."""
        return ()

    def terms(self) -> tuple[Term, ...]:
        """Terms occurring directly in this node."""
        return ()

    def free_variables(self) -> frozenset[str]:
        """Names of free variables of the formula.

        Fixpoint column variables are bound inside fixpoint bodies;
        quantifiers bind their variable.
        """
        raise NotImplementedError

    def walk(self) -> Iterator["Formula"]:
        """Yield this formula and all subformulas, pre-order.

        Descends into fixpoint bodies.
        """
        yield self
        for child in self.children():
            yield from child.walk()
        for term in self.terms():
            if isinstance(term, FixpointTerm):
                yield from term.fixpoint.body.walk()

    # Connective sugar so formulas compose pleasantly in Python:
    def __and__(self, other: "Formula") -> "And":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def implies(self, other: "Formula") -> "Implies":
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Iff":
        return Iff(self, other)


def _check_term(term: object) -> Term:
    if isinstance(term, Term):
        return term
    # Auto-lift raw Python values to constants.
    try:
        return Const(term)
    except Exception as exc:  # noqa: BLE001 - report as syntax error
        raise SyntaxError_(f"expected a term, got {term!r}") from exc


class Equals(Formula):
    """``t1 = t2`` (both sides the same type)."""

    __slots__ = ("left", "right")

    def __init__(self, left: object, right: object):
        object.__setattr__(self, "left", _check_term(left))
        object.__setattr__(self, "right", _check_term(right))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Equals is immutable")

    def terms(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def free_variables(self) -> frozenset[str]:
        return frozenset(v.name for t in self.terms() for v in t.variables())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Equals) and self.left == other.left
                and self.right == other.right)

    def __hash__(self) -> int:
        return hash((Equals, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} = {self.right!r})"


class In(Formula):
    """``t1 in t2`` — membership; t2 of type {T}, t1 of type T."""

    __slots__ = ("element", "container")

    def __init__(self, element: object, container: object):
        object.__setattr__(self, "element", _check_term(element))
        object.__setattr__(self, "container", _check_term(container))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("In is immutable")

    def terms(self) -> tuple[Term, ...]:
        return (self.element, self.container)

    def free_variables(self) -> frozenset[str]:
        return frozenset(v.name for t in self.terms() for v in t.variables())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, In) and self.element == other.element
                and self.container == other.container)

    def __hash__(self) -> int:
        return hash((In, self.element, self.container))

    def __repr__(self) -> str:
        return f"({self.element!r} in {self.container!r})"


class Subset(Formula):
    """``t1 sub t2`` — containment of two set-typed terms."""

    __slots__ = ("left", "right")

    def __init__(self, left: object, right: object):
        object.__setattr__(self, "left", _check_term(left))
        object.__setattr__(self, "right", _check_term(right))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Subset is immutable")

    def terms(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def free_variables(self) -> frozenset[str]:
        return frozenset(v.name for t in self.terms() for v in t.variables())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subset) and self.left == other.left
                and self.right == other.right)

    def __hash__(self) -> int:
        return hash((Subset, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} sub {self.right!r})"


class RelAtom(Formula):
    """``R(t1, ..., tn)`` — a database relation or a relation bound by an
    enclosing fixpoint operator."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Iterable[object]):
        if not name or not isinstance(name, str):
            raise SyntaxError_(f"relation name must be a non-empty string: {name!r}")
        args = tuple(_check_term(a) for a in args)
        if not args:
            raise SyntaxError_(f"relation atom {name!r} needs arguments")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RelAtom is immutable")

    def terms(self) -> tuple[Term, ...]:
        return self.args

    def free_variables(self) -> frozenset[str]:
        return frozenset(v.name for t in self.args for v in t.variables())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RelAtom) and self.name == other.name
                and self.args == other.args)

    def __hash__(self) -> int:
        return hash((RelAtom, self.name, self.args))

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        if not isinstance(operand, Formula):
            raise SyntaxError_(f"expected formula, got {operand!r}")
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Not is immutable")

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def free_variables(self) -> frozenset[str]:
        return self.operand.free_variables()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return hash((Not, self.operand))

    def __repr__(self) -> str:
        return f"not {self.operand!r}"


class _NaryConnective(Formula):
    __slots__ = ("operands",)
    _symbol = "?"

    def __init__(self, operands: Iterable[Formula]):
        operands = tuple(operands)
        if len(operands) < 2:
            raise SyntaxError_(f"{type(self).__name__} needs >= 2 operands")
        for op in operands:
            if not isinstance(op, Formula):
                raise SyntaxError_(f"expected formula, got {op!r}")
        object.__setattr__(self, "operands", operands)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def free_variables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for op in self.operands:
            result |= op.free_variables()
        return result

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.operands == other.operands  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.operands))

    def __repr__(self) -> str:
        return "(" + f" {self._symbol} ".join(map(repr, self.operands)) + ")"


class And(_NaryConnective):
    """N-ary conjunction."""
    __slots__ = ()
    _symbol = "and"


class Or(_NaryConnective):
    """N-ary disjunction."""
    __slots__ = ()
    _symbol = "or"


class Implies(Formula):
    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        for op in (antecedent, consequent):
            if not isinstance(op, Formula):
                raise SyntaxError_(f"expected formula, got {op!r}")
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Implies is immutable")

    def children(self) -> tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def free_variables(self) -> frozenset[str]:
        return self.antecedent.free_variables() | self.consequent.free_variables()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Implies)
                and self.antecedent == other.antecedent
                and self.consequent == other.consequent)

    def __hash__(self) -> int:
        return hash((Implies, self.antecedent, self.consequent))

    def __repr__(self) -> str:
        return f"({self.antecedent!r} -> {self.consequent!r})"


class Iff(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        for op in (left, right):
            if not isinstance(op, Formula):
                raise SyntaxError_(f"expected formula, got {op!r}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Iff is immutable")

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def free_variables(self) -> frozenset[str]:
        return self.left.free_variables() | self.right.free_variables()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Iff) and self.left == other.left
                and self.right == other.right)

    def __hash__(self) -> int:
        return hash((Iff, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} <-> {self.right!r})"


class _Quantifier(Formula):
    __slots__ = ("var", "body")
    _symbol = "?"

    def __init__(self, var: Var, body: Formula):
        if not isinstance(var, Var):
            raise SyntaxError_(f"expected Var, got {var!r}")
        if var.typ is None:
            raise SyntaxError_(f"quantified variable {var.name!r} must be typed")
        if not isinstance(body, Formula):
            raise SyntaxError_(f"expected formula, got {body!r}")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def free_variables(self) -> frozenset[str]:
        return self.body.free_variables() - {self.var.name}

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.var == other.var  # type: ignore[attr-defined]
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash((type(self), self.var, self.body))

    def __repr__(self) -> str:
        return f"{self._symbol} {self.var!r} ({self.body!r})"


class Exists(_Quantifier):
    """``exists x:T (body)``."""
    __slots__ = ()
    _symbol = "exists"


class Forall(_Quantifier):
    """``forall x:T (body)``."""
    __slots__ = ()
    _symbol = "forall"


# ---------------------------------------------------------------------------
# Fixpoints
# ---------------------------------------------------------------------------

#: Fixpoint kinds.
IFP = "IFP"
PFP = "PFP"


class Fixpoint:
    """A fixpoint operator ``IFP(phi(S), S)`` or ``PFP(phi(S), S)``.

    ``columns`` are the declared column variables of the inductively
    defined relation S (the free variables ``x1:T1 .. xn:Tn`` of phi in
    the paper's formulation); other free variables of ``body`` are
    parameters bound by the enclosing scope.

    The semantics (Definition 3.1): with ``J0 = {}``,

    * IFP: ``J_i = phi(J_{i-1}) union J_{i-1}`` — inflationary, always
      converges;
    * PFP: ``J_i = phi(J_{i-1})`` — converges only if a fixed point is
      reached; otherwise the fixpoint is undefined.
    """

    __slots__ = ("kind", "name", "columns", "body")

    def __init__(self, kind: str, name: str,
                 columns: Iterable[tuple[str, TypeLike]], body: Formula):
        if kind not in (IFP, PFP):
            raise SyntaxError_(f"fixpoint kind must be IFP or PFP, got {kind!r}")
        if not name or not isinstance(name, str):
            raise SyntaxError_(f"fixpoint relation needs a name: {name!r}")
        cols = tuple((n, as_type(t)) for n, t in columns)
        if not cols:
            raise SyntaxError_("fixpoint needs at least one column")
        names = [n for n, _ in cols]
        if len(set(names)) != len(names):
            raise SyntaxError_(f"duplicate column variables in fixpoint: {names}")
        if not isinstance(body, Formula):
            raise SyntaxError_(f"expected formula body, got {body!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "body", body)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Fixpoint is immutable")

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    @property
    def column_types(self) -> tuple[Type, ...]:
        return tuple(t for _, t in self.columns)

    def parameters(self) -> Iterator[Var]:
        """Free variables of the body other than the column variables.

        Yields untyped Var markers by name (types resolved by checker).
        """
        bound = set(self.column_names)
        for name in sorted(self.body.free_variables() - bound):
            yield Var(name)

    def as_term(self) -> FixpointTerm:
        """Use this fixpoint as a term of type ``{[T1..Tn]}``."""
        return FixpointTerm(self)

    def __call__(self, *args: object) -> "FixpointPred":
        """Apply the fixpoint to argument terms: ``IFP(phi, S)(t1..tn)``."""
        return FixpointPred(self, args)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Fixpoint) and self.kind == other.kind
                and self.name == other.name and self.columns == other.columns
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash((Fixpoint, self.kind, self.name, self.columns, self.body))

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{t!r}" for n, t in self.columns)
        return f"{self.kind}[{self.name}({cols})]({self.body!r})"


class FixpointPred(Formula):
    """A fixpoint applied to argument terms, as an atomic formula."""

    __slots__ = ("fixpoint", "args")

    def __init__(self, fixpoint: Fixpoint, args: Iterable[object]):
        if not isinstance(fixpoint, Fixpoint):
            raise SyntaxError_(f"expected Fixpoint, got {fixpoint!r}")
        args = tuple(_check_term(a) for a in args)
        if len(args) != fixpoint.arity:
            raise SyntaxError_(
                f"fixpoint {fixpoint.name!r} has arity {fixpoint.arity}, "
                f"applied to {len(args)} arguments"
            )
        object.__setattr__(self, "fixpoint", fixpoint)
        object.__setattr__(self, "args", args)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FixpointPred is immutable")

    def terms(self) -> tuple[Term, ...]:
        return self.args

    def free_variables(self) -> frozenset[str]:
        result = frozenset(v.name for t in self.args for v in t.variables())
        result |= frozenset(v.name for v in self.fixpoint.parameters())
        return result

    def walk(self) -> Iterator[Formula]:
        yield self
        yield from self.fixpoint.body.walk()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FixpointPred)
                and self.fixpoint == other.fixpoint and self.args == other.args)

    def __hash__(self) -> int:
        return hash((FixpointPred, self.fixpoint, self.args))

    def __repr__(self) -> str:
        return f"{self.fixpoint!r}({', '.join(map(repr, self.args))})"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

class Query:
    """A query ``{[x1:T1, ..., xk:Tk] | phi(x1..xk)}``.

    ``head`` lists the output variables with their types; ``body`` is the
    formula.  The answer on instance I is the set of head tuples over
    ``dom(Tj, atom(I))`` satisfying the body (active-domain semantics).
    """

    __slots__ = ("head", "body", "output_name")

    def __init__(self, head: Iterable[tuple[str, TypeLike]], body: Formula,
                 output_name: str = "S"):
        head = tuple((n, as_type(t)) for n, t in head)
        if not head:
            raise SyntaxError_("query head needs at least one variable")
        names = [n for n, _ in head]
        if len(set(names)) != len(names):
            raise SyntaxError_(f"duplicate head variables: {names}")
        if not isinstance(body, Formula):
            raise SyntaxError_(f"expected formula body, got {body!r}")
        missing = set(names) - body.free_variables()
        if missing:
            raise SyntaxError_(
                f"head variables {sorted(missing)} do not occur free in the body"
            )
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "output_name", output_name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Query is immutable")

    @property
    def head_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.head)

    @property
    def head_types(self) -> tuple[Type, ...]:
        return tuple(t for _, t in self.head)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Query) and self.head == other.head
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash((Query, self.head, self.body))

    def __repr__(self) -> str:
        head = ", ".join(f"{n}:{t!r}" for n, t in self.head)
        return f"{{[{head}] | {self.body!r}}}"


def constants_of(formula: Formula) -> frozenset[Value]:
    """All complex object constants occurring in a formula (incl. inside
    fixpoint bodies)."""
    result: set[Value] = set()
    for sub in formula.walk():
        for term in sub.terms():
            if isinstance(term, Const):
                result.add(term.value)
    return frozenset(result)


def relation_names_of(formula: Formula) -> frozenset[str]:
    """Names of relation atoms (database + fixpoint-bound) in a formula."""
    return frozenset(
        sub.name for sub in formula.walk() if isinstance(sub, RelAtom)
    )
