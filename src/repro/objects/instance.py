"""Database instances: finite relations of complex-object tuples.

An instance of a database schema maps each relation name to a finite set
of tuples conforming to the relation's column types.  Key measures from
Section 2:

* ``|I|`` (:meth:`Instance.cardinality`) — total number of tuples;
* ``atom(I)`` (:meth:`Instance.atoms`) — atomic constants occurring in I;
* ``||I||`` (the size of the standard tape encoding) lives in
  :mod:`repro.objects.encoding`, which needs an atom enumeration.

Instances are immutable; "updates" construct new instances
(:meth:`Instance.with_relation`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .schema import DatabaseSchema, RelationSchema, SchemaError
from .values import Atom, CTuple, Value, atoms_of, make_value


class InstanceError(Exception):
    """Raised for ill-typed or malformed instance data."""


class Relation:
    """A finite set of tuples over a :class:`RelationSchema`.

    Tuples are stored as :class:`CTuple` values in a ``frozenset``; the
    relation is immutable and hashable.
    """

    __slots__ = ("schema", "tuples")

    def __init__(self, schema: RelationSchema, tuples: Iterable[object] = ()):
        converted = []
        for row in tuples:
            converted.append(_coerce_row(schema, row))
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "tuples", frozenset(converted))

    @classmethod
    def _trusted(cls, schema: RelationSchema,
                 tuples: frozenset[CTuple]) -> "Relation":
        """A relation of ``tuples`` built without typechecking them, for
        decoders that have already checked each row against ``schema``."""
        relation = object.__new__(cls)
        object.__setattr__(relation, "schema", schema)
        object.__setattr__(relation, "tuples", tuples)
        return relation

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Relation is immutable")

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def cardinality(self) -> int:
        """Number of tuples."""
        return len(self.tuples)

    def atoms(self) -> frozenset[Atom]:
        """Atomic constants occurring in any tuple."""
        return atoms_of(self.tuples)

    def contains(self, row: object) -> bool:
        return _coerce_row(self.schema, row) in self.tuples

    def __iter__(self) -> Iterator[CTuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, row: object) -> bool:
        try:
            return self.contains(row)
        except InstanceError:
            return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.schema == other.schema
            and self.tuples == other.tuples
        )

    def __hash__(self) -> int:
        return hash((Relation, self.schema, self.tuples))

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self.tuples)} tuples)"


def _coerce_row(schema: RelationSchema, row: object) -> CTuple:
    """Convert a row (CTuple, Value sequence or plain Python) and typecheck."""
    if isinstance(row, CTuple):
        value = row
    elif isinstance(row, Value):
        raise InstanceError(f"row must be a tuple of values, got {row!r}")
    else:
        if not isinstance(row, (tuple, list)):
            raise InstanceError(f"cannot interpret row {row!r}")
        value = CTuple(make_value(item) for item in row)
    if value.arity != schema.arity:
        raise InstanceError(
            f"row arity {value.arity} != schema arity {schema.arity} "
            f"for relation {schema.name!r}"
        )
    for item, typ in zip(value.items, schema.column_types):
        if not item.conforms_to(typ):
            raise InstanceError(
                f"value {item!r} does not conform to column type {typ!r} "
                f"in relation {schema.name!r}"
            )
    return value


class Instance:
    """An instance of a :class:`DatabaseSchema`.

    Missing relations default to empty.  Construction typechecks every
    tuple against its relation schema.

    ``_encoding`` holds the instance's interned encoding
    (:class:`repro.objects.intern.InstanceEncoding`), filled by the first
    seminaive evaluation and kept for the instance's lifetime.  It is
    not part of the instance's value: ``==`` and hashing ignore it.
    """

    __slots__ = ("schema", "_relations", "_encoding")

    def __init__(
        self,
        schema: DatabaseSchema,
        data: Mapping[str, Iterable[object]] | None = None,
    ):
        data = dict(data or {})
        relations: dict[str, Relation] = {}
        for rel_schema in schema:
            rows = data.pop(rel_schema.name, ())
            relations[rel_schema.name] = Relation(rel_schema, rows)
        if data:
            unknown = ", ".join(sorted(data))
            raise SchemaError(f"data for relations not in schema: {unknown}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_relations", relations)
        object.__setattr__(self, "_encoding", None)

    @classmethod
    def _trusted(cls, schema: DatabaseSchema,
                 relations: dict[str, Relation]) -> "Instance":
        """An instance of already-checked ``relations``: one per relation
        of ``schema``, in its declaration order."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "schema", schema)
        object.__setattr__(inst, "_relations", relations)
        object.__setattr__(inst, "_encoding", None)
        return inst

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Instance is immutable")

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def relations(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def cardinality(self) -> int:
        """``|I|``: the total number of tuples across all relations."""
        return sum(rel.cardinality for rel in self._relations.values())

    def atoms(self) -> frozenset[Atom]:
        """``atom(I)``: atomic constants occurring anywhere in the instance."""
        return atoms_of(row for rel in self._relations.values()
                        for row in rel.tuples)

    def with_relation(self, name: str, tuples: Iterable[object]) -> "Instance":
        """Return a new instance with relation ``name`` replaced."""
        data = {rel.name: rel.tuples for rel in self._relations.values()}
        data[name] = tuples  # type: ignore[assignment]
        return Instance(self.schema, data)

    def rename_atoms(self, mapping: Mapping[Atom, Atom]) -> "Instance":
        """Apply an injective renaming of atomic constants.

        Used by the genericity tests: queries must commute with atom
        isomorphisms.
        """
        values = set(mapping.values())
        if len(values) != len(mapping):
            raise InstanceError("atom renaming must be injective")

        def rename(value: Value) -> Value:
            from .values import Atom as A, CSet, CTuple as T

            if isinstance(value, A):
                return mapping.get(value, value)
            if isinstance(value, T):
                return T(rename(item) for item in value.items)
            if isinstance(value, CSet):
                return CSet(rename(element) for element in value.elements)
            raise InstanceError(f"unknown value {value!r}")

        data = {
            rel.name: [rename(row) for row in rel.tuples]
            for rel in self._relations.values()
        }
        return Instance(self.schema, data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self.schema == other.schema
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(
            (Instance, self.schema, tuple(self._relations[name]
                                          for name in sorted(self._relations)))
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{rel.cardinality}" for name, rel in self._relations.items()
        )
        return f"Instance({parts})"


def instance(schema: DatabaseSchema, **data: Iterable[object]) -> Instance:
    """Shorthand: ``instance(schema, G=[("a","b"), ("b","c")])``."""
    return Instance(schema, data)
