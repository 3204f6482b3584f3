"""Immutable, hashable complex object values.

Complex objects are built from atomic constants with set and tuple
constructors (Section 2 of the paper).  Python's built-in ``set`` is not
hashable, so nested sets cannot directly contain other sets; this module
provides the immutable value layer the whole engine is built on:

* :class:`Atom` — an atomic constant (wraps a string or int label);
* :class:`CTuple` — a ``k``-ary tuple of complex objects;
* :class:`CSet` — a finite set of complex objects (wraps ``frozenset``).

All three are deeply immutable, hashable, and compare structurally, so
they can be members of other ``CSet``/``CTuple`` values and of ordinary
Python sets and dict keys.

Convenience constructors :func:`atom`, :func:`ctuple`, :func:`cset` and
the generic :func:`make_value` (which converts plain Python nested
structures) keep call sites terse.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .types import AtomType, SetType, TupleType, Type, U


class ValueError_(Exception):
    """Raised when a complex object value is malformed or ill-typed."""


AtomLabel = Union[str, int]


class Value:
    """Abstract base class for complex object values."""

    __slots__ = ()

    def atoms(self) -> frozenset["Atom"]:
        """Return ``atom(O)``: the set of atomic constants occurring in self."""
        raise NotImplementedError

    def infer_type(self) -> Type:
        """Infer a type for this value.

        Empty sets infer as ``{U}`` (the minimal set type); sets whose
        elements infer distinct types raise :class:`ValueError_` since the
        model is strongly typed.
        """
        raise NotImplementedError

    def conforms_to(self, typ: Type) -> bool:
        """Return True iff this value is a member of ``dom(typ, D)``
        for some superset D of its atoms."""
        raise NotImplementedError

    def subobjects(self) -> Iterator["Value"]:
        """Yield this value and all its sub-objects, pre-order."""
        raise NotImplementedError


class Atom(Value):
    """An atomic constant.

    Atoms are identified by their label (a string or int).  Two atoms are
    equal iff their labels are equal.  Labels only serve identity; queries
    must be generic (insensitive to isomorphisms of constants), which the
    test suite checks explicitly.  The hash, ``hash((Atom, label))``, is
    computed once, when the atom is made.
    """

    __slots__ = ("label", "_hash")

    def __init__(self, label: AtomLabel):
        if not isinstance(label, (str, int)) or isinstance(label, bool):
            raise ValueError_(f"atom label must be str or int, got {label!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((Atom, label)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Atom is immutable")

    def atoms(self) -> frozenset["Atom"]:
        return frozenset((self,))

    def infer_type(self) -> Type:
        return U

    def conforms_to(self, typ: Type) -> bool:
        return isinstance(typ, AtomType)

    def subobjects(self) -> Iterator[Value]:
        yield self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.label!r})"

    def __str__(self) -> str:
        return str(self.label)


class CTuple(Value):
    """A ``k``-ary tuple ``[o1, ..., ok]`` of complex objects."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Value]):
        items = tuple(items)
        if not items:
            raise ValueError_("tuples must have at least one component")
        for item in items:
            if not isinstance(item, Value):
                raise ValueError_(f"tuple component must be a Value, got {item!r}")
        object.__setattr__(self, "items", items)

    @classmethod
    def _trusted(cls, items: tuple[Value, ...]) -> "CTuple":
        """A tuple of ``items`` built without validation, for decoders
        that have already checked them (a non-empty tuple of Values)."""
        value = object.__new__(cls)
        _set_items(value, items)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CTuple is immutable")

    @property
    def arity(self) -> int:
        return len(self.items)

    def component(self, i: int) -> Value:
        """Return the ``i``-th component, 1-indexed (the paper's ``o.i``)."""
        if not 1 <= i <= len(self.items):
            raise ValueError_(
                f"component index {i} out of range for arity {len(self.items)}"
            )
        return self.items[i - 1]

    def atoms(self) -> frozenset[Atom]:
        return atoms_of(self.items)

    def infer_type(self) -> Type:
        return TupleType(item.infer_type() for item in self.items)

    def conforms_to(self, typ: Type) -> bool:
        if not isinstance(typ, TupleType) or typ.arity != self.arity:
            return False
        return all(
            item.conforms_to(comp) for item, comp in zip(self.items, typ.components)
        )

    def subobjects(self) -> Iterator[Value]:
        yield self
        for item in self.items:
            yield from item.subobjects()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CTuple) and self.items == other.items

    def __hash__(self) -> int:
        return hash((CTuple, self.items))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(i) for i in self.items) + "]"

    def __str__(self) -> str:
        return "[" + ", ".join(str(i) for i in self.items) + "]"


class CSet(Value):
    """A finite set ``{o1, ..., on}`` of complex objects.

    Backed by ``frozenset`` so it is hashable and can be nested.  Elements
    must all conform to a common type; the empty set is allowed and
    conforms to every set type.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Value] = ()):
        elements = frozenset(elements)
        for element in elements:
            if not isinstance(element, Value):
                raise ValueError_(f"set element must be a Value, got {element!r}")
        object.__setattr__(self, "elements", elements)

    @classmethod
    def _trusted(cls, elements: frozenset[Value]) -> "CSet":
        """A set of ``elements`` built without validation, for decoders
        that have already checked them (a frozenset of Values)."""
        value = object.__new__(cls)
        _set_elements(value, elements)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CSet is immutable")

    def atoms(self) -> frozenset[Atom]:
        return atoms_of(self.elements)

    def infer_type(self) -> Type:
        if not self.elements:
            return SetType(U)
        types = {element.infer_type() for element in self.elements}
        if len(types) > 1:
            raise ValueError_(
                f"heterogeneous set: element types {sorted(map(repr, types))}"
            )
        return SetType(next(iter(types)))

    def conforms_to(self, typ: Type) -> bool:
        if not isinstance(typ, SetType):
            return False
        return all(element.conforms_to(typ.element) for element in self.elements)

    def subobjects(self) -> Iterator[Value]:
        yield self
        for element in self.elements:
            yield from element.subobjects()

    # Set-algebra helpers used by the evaluator (∈, ⊆, set difference in
    # the induced-order definition).

    def contains(self, value: Value) -> bool:
        return value in self.elements

    def issubset(self, other: "CSet") -> bool:
        return self.elements <= other.elements

    def union(self, other: "CSet") -> "CSet":
        return CSet(self.elements | other.elements)

    def intersection(self, other: "CSet") -> "CSet":
        return CSet(self.elements & other.elements)

    def difference(self, other: "CSet") -> "CSet":
        return CSet(self.elements - other.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((CSet, self.elements))

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: object) -> bool:
        return value in self.elements

    def __repr__(self) -> str:
        inner = ", ".join(sorted(repr(e) for e in self.elements))
        return "{" + inner + "}"

    def __str__(self) -> str:
        inner = ", ".join(sorted(str(e) for e in self.elements))
        return "{" + inner + "}"


# The slot setters of the trusted constructors: they bypass the
# ``__setattr__`` that keeps values immutable.
_set_items = CTuple.__dict__["items"].__set__
_set_elements = CSet.__dict__["elements"].__set__


def atoms_of(values: Iterable[Value]) -> frozenset[Atom]:
    """``atom(O1) ∪ ... ∪ atom(On)``, collected into one set in one pass.

    Unioning per-value frozensets instead (``result |= v.atoms()``)
    copies the accumulated set once per value, which is quadratic over
    a large relation.
    """
    found: set[Atom] = set()
    pending = list(values)
    while pending:
        value = pending.pop()
        if isinstance(value, Atom):
            found.add(value)
        elif isinstance(value, CTuple):
            pending.extend(value.items)
        elif isinstance(value, CSet):
            pending.extend(value.elements)
    return frozenset(found)


def atom(label: AtomLabel) -> Atom:
    """Build an atomic constant."""
    return Atom(label)


def ctuple(*items: Value) -> CTuple:
    """Build a tuple value from its components."""
    return CTuple(items)


def cset(*elements: Value) -> CSet:
    """Build a set value from its elements."""
    return CSet(elements)


def make_value(obj: object) -> Value:
    """Convert a nested plain-Python structure into a complex object.

    * ``str``/``int`` → :class:`Atom`
    * ``tuple``/``list`` → :class:`CTuple` (component-wise conversion)
    * ``set``/``frozenset`` → :class:`CSet` (element-wise conversion)
    * existing :class:`Value` instances pass through unchanged.

    Example::

        make_value(("a", {"b", "c"}))   # [a, {b, c}] of type [U, {U}]
    """
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, (str, int)) and not isinstance(obj, bool):
        return Atom(obj)
    if isinstance(obj, (tuple, list)):
        return CTuple(make_value(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return CSet(make_value(item) for item in obj)
    raise ValueError_(f"cannot convert {obj!r} to a complex object value")


def value_sort_key(value: Value) -> tuple:
    """A deterministic structural sort key (NOT the paper's induced order).

    Useful for reproducible display and iteration.  For the paper's
    semantics-bearing order ``<_T`` induced by an atom order, see
    :mod:`repro.objects.ordering`.
    """
    if isinstance(value, Atom):
        return (0, (type(value.label).__name__, str(value.label)))
    if isinstance(value, CTuple):
        return (1, tuple(value_sort_key(item) for item in value.items))
    if isinstance(value, CSet):
        return (2, len(value.elements),
                tuple(sorted(value_sort_key(e) for e in value.elements)))
    raise ValueError_(f"unknown value {value!r}")
