"""Value interning: dense integer ids for complex objects.

The engines of Sections 3-5 manipulate nested ``Atom``/``CTuple``/``CSet``
objects whose structural ``__eq__``/``__hash__`` walk the whole value on
every probe.  A :class:`ValueStore` replaces each distinct value by a
dense integer id assigned at construction via structural hashing: two
values receive the same id iff they are structurally equal, so relation
rows become tuples of machine ints and joins compare ids instead of
trees.

The engines (``datalog/engine.py``, ``core/evaluation.py``) start every
evaluation from an empty store wrapped in an :class:`InternedInstance`,
which interns a relation's rows the first time the evaluation reads
that relation (range derivation shares one across its evaluations of a
query).  Their ids are therefore assigned in first-read order,
not in the order below, and evaluation compares ids only by equality,
membership and member-set inclusion — never by ``<``.

Id assignment by :meth:`ValueStore.from_instance` (and by
:func:`intern_instance`, which builds on it) is deterministic and
order-aware.  Values are collected under their *declared* column types
(inference would reject heterogeneous-but-conformant sets), grouped by
type, and the groups are processed in ascending type depth — a proper
subobject always has a strict-subterm type, hence a strictly smaller
depth, hence an earlier id.  Within one group the values are sorted by
the induced order ``<_T`` of Definition 4.2, so

    for values ``a``, ``b`` of the same declared type whose ids were
    both first assigned while processing that type's group,
    ``store.intern(a) < store.intern(b)``  iff  ``a <_T b``.

The guarantee is per declared type: a value conforming to several
declared types (e.g. ``[x, {}]`` under both ``[U,{U}]`` and
``[U,{{U}}]``) keeps the id of the earliest (smallest-depth) group that
contains it, and a perfect global order cannot exist across such shared
values.  Atoms always form the depth-1 group, so atom ids are exactly
their :class:`~repro.objects.ordering.AtomOrder` ranks.  Because the
collection and sorts are deterministic, re-parsing the same instance
(e.g. through ``instance_to_json``/``instance_from_json``) reproduces
the same id for every value — ids are stable names within an instance.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .instance import Instance
from .ordering import AtomOrder, sort_key
from .types import AtomType, SetType, TupleType, Type
from .values import Atom, CSet, CTuple, Value

__all__ = [
    "InternError",
    "ValueStore",
    "InternedInstance",
    "intern_instance",
    "type_depth",
]


class InternError(Exception):
    """Raised for values a store cannot intern or ids it does not know."""


def type_depth(typ: Type) -> int:
    """Structural depth of a type expression: ``depth(U) = 1``,
    ``depth({T}) = depth(T) + 1``, ``depth([T1..Tk]) = 1 + max depth``.

    Every proper subobject of a ``T``-value has a strict-subterm type of
    ``T``, so its depth is strictly smaller — the invariant
    :meth:`ValueStore.from_instance` relies on for bottom-up ids.
    """
    if isinstance(typ, AtomType):
        return 1
    if isinstance(typ, SetType):
        return 1 + type_depth(typ.element)
    if isinstance(typ, TupleType):
        return 1 + max(type_depth(c) for c in typ.components)
    raise InternError(f"unknown type {typ!r}")


class ValueStore:
    """A per-instance intern table: structural value ⟷ dense integer id.

    Ids are assigned on first :meth:`intern` in increasing order; the
    structural key of an atom is its label, of a tuple the tuple of its
    component ids, of a set the frozenset of its element ids — so
    interning is injective by construction (equal ids iff structurally
    equal values) and membership/equality on ids coincide with the
    object-level semantics.
    """

    __slots__ = ("_ids", "_keys", "_values")

    def __init__(self) -> None:
        # key -> id; keys are ("a", label) | ("t", id-tuple) | ("s", id-frozenset)
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._values: list[Value | None] = []  # lazy reconstruction cache

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, value: object) -> bool:
        try:
            key = self._key_of(value)  # type: ignore[arg-type]
        except InternError:
            return False
        return key in self._ids

    def _key_of(self, value: Value) -> tuple:
        """The structural key of ``value`` **without** interning it.

        Raises :class:`InternError` when some subobject is unknown."""
        if isinstance(value, Atom):
            key: tuple = ("a", value.label)
        elif isinstance(value, CTuple):
            key = ("t", tuple(self._lookup(item) for item in value.items))
        elif isinstance(value, CSet):
            key = ("s", frozenset(self._lookup(e) for e in value.elements))
        else:
            raise InternError(f"cannot intern non-Value {value!r}")
        return key

    def _lookup(self, value: Value) -> int:
        vid = self._ids.get(self._key_of(value))
        if vid is None:
            raise InternError(f"value not interned: {value!r}")
        return vid

    def _add(self, key: tuple, value: Value | None) -> int:
        vid = len(self._keys)
        self._ids[key] = vid
        self._keys.append(key)
        self._values.append(value)
        return vid

    def intern(self, value: Value) -> int:
        """Return the dense id of ``value``, assigning one (and ids for
        all its subobjects) on first sight."""
        if isinstance(value, Atom):
            key: tuple = ("a", value.label)
        elif isinstance(value, CTuple):
            key = ("t", tuple(self.intern(item) for item in value.items))
        elif isinstance(value, CSet):
            key = ("s", frozenset(self.intern(e) for e in value.elements))
        else:
            raise InternError(f"cannot intern non-Value {value!r}")
        vid = self._ids.get(key)
        if vid is None:
            vid = self._add(key, value)
        elif self._values[vid] is None:
            self._values[vid] = value
        return vid

    def intern_row(self, row: Iterable[Value]) -> tuple[int, ...]:
        return tuple(self.intern(value) for value in row)

    def value(self, vid: int) -> Value:
        """The value named by ``vid`` (inverse of :meth:`intern`)."""
        try:
            cached = self._values[vid]
        except (IndexError, TypeError):
            raise InternError(f"unknown value id {vid!r}") from None
        if cached is not None:
            return cached
        kind, payload = self._keys[vid]
        if kind == "a":
            rebuilt: Value = Atom(payload)
        elif kind == "t":
            rebuilt = CTuple(self.value(i) for i in payload)
        else:
            rebuilt = CSet(self.value(i) for i in payload)
        self._values[vid] = rebuilt
        return rebuilt

    def unintern_row(self, ids: Iterable[int]) -> tuple[Value, ...]:
        return tuple(self.value(vid) for vid in ids)

    # -- id-level structure (what the interned engines operate on) --------

    def kind(self, vid: int) -> str:
        """``"atom"`` | ``"tuple"`` | ``"set"`` of the value behind ``vid``."""
        try:
            tag = self._keys[vid][0]
        except IndexError:
            raise InternError(f"unknown value id {vid!r}") from None
        return {"a": "atom", "t": "tuple", "s": "set"}[tag]

    def tuple_items(self, vid: int) -> tuple[int, ...] | None:
        """Component ids of a tuple value, ``None`` if not a tuple."""
        kind, payload = self._keys[vid]
        return payload if kind == "t" else None

    def set_members(self, vid: int) -> frozenset[int] | None:
        """Element ids of a set value, ``None`` if not a set."""
        kind, payload = self._keys[vid]
        return payload if kind == "s" else None

    def intern_tuple(self, item_ids: Iterable[int]) -> int:
        """Id of the tuple whose components are the given ids (building
        the structural key directly, no object materialisation)."""
        key = ("t", tuple(item_ids))
        self._check_ids(key[1])
        vid = self._ids.get(key)
        return self._add(key, None) if vid is None else vid

    def intern_set(self, member_ids: Iterable[int]) -> int:
        """Id of the set whose elements are the given ids."""
        key = ("s", frozenset(member_ids))
        self._check_ids(key[1])
        vid = self._ids.get(key)
        return self._add(key, None) if vid is None else vid

    def _check_ids(self, ids: Iterable[int]) -> None:
        total = len(self._keys)
        for vid in ids:
            if not 0 <= vid < total:
                raise InternError(f"unknown value id {vid!r}")

    # -- deterministic, order-compatible construction ----------------------

    @classmethod
    def from_instance(cls, inst: Instance,
                      order: AtomOrder | None = None) -> "ValueStore":
        """Intern every value occurring in ``inst`` deterministically.

        ``order`` defaults to ``AtomOrder.sorted_by_label(inst.atoms())``
        and must cover every atom of the instance.  See the module
        docstring for the order-compatibility guarantee.
        """
        if order is None:
            order = AtomOrder.sorted_by_label(inst.atoms())
        groups: dict[Type, set[Value]] = {}
        for rel in inst.relations():
            column_types = rel.schema.column_types
            for row in rel.tuples:
                for value, typ in zip(row.items, column_types):
                    _collect_typed(value, typ, groups)
        store = cls()
        # Atoms first (their group may be empty for atom-free instances,
        # but any atom mentioned by `order` still gets its rank as id).
        for atom_ in order.atoms:
            store.intern(atom_)
        for typ in sorted(groups, key=lambda t: (type_depth(t), repr(t))):
            for value in sorted(groups[typ], key=lambda v: sort_key(v, order)):
                store.intern(value)
        return store


def _collect_typed(value: Value, typ: Type,
                   groups: dict[Type, set[Value]]) -> None:
    """Record ``value`` under its declared type, recursing into subobjects
    (instance construction already typechecked conformance)."""
    groups.setdefault(typ, set()).add(value)
    if isinstance(value, CTuple) and isinstance(typ, TupleType):
        for item, component in zip(value.items, typ.components):
            _collect_typed(item, component, groups)
    elif isinstance(value, CSet) and isinstance(typ, SetType):
        for element in value.elements:
            _collect_typed(element, typ.element, groups)


class InternedInstance:
    """An instance seen through one evaluation's :class:`ValueStore`.

    The store starts empty (unless one is passed in) and each relation's
    rows are interned the first time :meth:`rows` reads them, so an
    evaluation interns only the values of the relations it touches —
    by Theorem 5.1 all a range-restricted query needs.
    """

    __slots__ = ("instance", "store", "_rows")

    def __init__(self, inst: Instance, store: ValueStore | None = None):
        self.instance = inst
        self.store = ValueStore() if store is None else store
        self._rows: dict[str, frozenset[tuple[int, ...]]] = {}

    def rows(self, name: str) -> frozenset[tuple[int, ...]]:
        """Id rows of relation ``name``, interned on first read (an
        unknown name raises the instance's usual error)."""
        rows = self._rows.get(name)
        if rows is None:
            intern_row = self.store.intern_row
            rows = frozenset(intern_row(row.items)
                             for row in self.instance.relation(name).tuples)
            self._rows[name] = rows
        return rows


def intern_instance(
    inst: Instance,
    order: AtomOrder | None = None,
    store: ValueStore | None = None,
) -> tuple[ValueStore, Mapping[str, frozenset[tuple[int, ...]]]]:
    """Intern all of ``inst`` into ``(store, {relation name: id rows})``.

    ``store`` defaults to :meth:`ValueStore.from_instance`, so ids follow
    the Definition 4.2 order.  The engines do not call this: they intern
    each relation on first read through :class:`InternedInstance`.
    """
    interned = InternedInstance(
        inst, ValueStore.from_instance(inst, order) if store is None else store)
    return interned.store, {rel.name: interned.rows(rel.name)
                            for rel in inst.relations()}
