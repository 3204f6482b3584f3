"""Value interning: dense integer ids for complex objects.

The engines of Sections 3-5 manipulate nested ``Atom``/``CTuple``/``CSet``
objects whose structural ``__eq__``/``__hash__`` walk the whole value on
every probe.  A :class:`ValueStore` replaces each distinct value by a
dense integer id assigned at construction via structural hashing: two
values receive the same id iff they are structurally equal, so relation
rows become tuples of machine ints and joins compare ids instead of
trees.

**One encoding per instance.**  A query is a function of one immutable
instance, and the engines (``datalog/engine.py``, ``core/evaluation.py``)
use ids only as names: they compare them by equality, membership and
member-set inclusion, never by ``<``.  So every seminaive evaluation
over an :class:`~repro.objects.instance.Instance` shares that
instance's :class:`InstanceEncoding`: one store, each relation's id rows
(interned the first time any evaluation reads the relation, so a
relation no evaluation reads gets no ids) and the hash indexes built
over those rows.  It is filled lazily and kept for the instance's
lifetime; an instance made by ``with_relation`` or ``rename_atoms`` is
a new instance with its own.  Values an evaluation derives (constants,
candidate lists, fixpoint-term tuples and sets) stay in the store too,
for the instance's lifetime; over a fixed question mix it stops growing
after the first round (measured on the supply-chain inventory: 1,415
values for the GREEN mix at scale 8, 1,288 for YELLOW at scale 8, 196
for the calculus mix at scale 1, 780 for all 30 questions at scale 4).
The encoding holds no reference to its instance, so a dropped instance
is freed by reference counting alone.  Evaluations over one instance
run one after another; nothing is locked.

Each evaluation reads the encoding through its own
:class:`InternedInstance`, which keeps the per-evaluation counts what
an evaluation starting from an empty store would report:

* ``space.interned_values`` is the number of distinct values the
  evaluation's ids name: the values of the relations it read, with
  their subvalues, and every value it interned itself;
* ``eval.index_builds`` counts the distinct indexes an evaluation
  probes (:class:`repro.core.fixpoint.IndexPool`): an instance index
  another evaluation built counts as this one's build.

Shared writes publish last: an id enters the store's table only once
its key and value are in place, and a relation's rows and an index are
stored only once complete, so an evaluation cut short by an exception
(an interrupt, an asynchronous abort, ``MemoryError``) leaves the
encoding consistent for the evaluations after it.

Ids in a shared encoding follow first-read order, not the order below.
Id assignment by :meth:`ValueStore.from_instance` (and by
:func:`intern_instance`, which builds on it) builds a standalone store,
deterministic and order-aware.  Values are collected under their
*declared* column types
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

from itertools import chain
from typing import Iterable, Mapping

from .instance import Instance, Relation
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
        return len(self._ids)

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
        # ``_ids`` names exactly the ids 0..n-1, and an id is published
        # there last: an ``_add`` cut short by an exception leaves at
        # most an unnamed tail in ``_keys``/``_values``, dropped here.
        vid = len(self._ids)
        del self._keys[vid:], self._values[vid:]
        self._keys.append(key)
        self._values.append(value)
        self._ids[key] = vid
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
        return tuple(map(self.value, ids))

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
        total = len(self._ids)
        for vid in ids:
            if not 0 <= vid < total:
                raise InternError(f"unknown value id {vid!r}")

    def closure(self, ids: Iterable[int]) -> set[int]:
        """``ids`` and the ids of all their subvalues."""
        keys = self._keys
        named = set(ids)
        pending = [vid for vid in named if keys[vid][0] != "a"]
        while pending:
            for vid in keys[pending.pop()][1]:
                if vid not in named:
                    named.add(vid)
                    if keys[vid][0] != "a":
                        pending.append(vid)
        return named

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


class InstanceEncoding:
    """An instance's interned encoding, shared by every seminaive
    evaluation over it (see the module docstring): the store, each read
    relation's id rows and the hash indexes over them, keyed
    ``(relation name, positions)`` as :class:`repro.core.fixpoint.IndexPool`
    keys them.  It holds no reference to its instance."""

    __slots__ = ("store", "indexes", "_rows", "_closures")

    def __init__(self) -> None:
        self.store = ValueStore()
        self.indexes: dict[tuple, dict] = {}
        self._rows: dict[str, frozenset[tuple[int, ...]]] = {}
        self._closures: dict[str, frozenset[int]] = {}

    @staticmethod
    def of(inst: Instance) -> "InstanceEncoding":
        """``inst``'s encoding, created empty on first use."""
        encoding = inst._encoding
        if encoding is None:
            encoding = InstanceEncoding()
            object.__setattr__(inst, "_encoding", encoding)
        return encoding

    def rows(self, relation: Relation) -> frozenset[tuple[int, ...]]:
        """Id rows of ``relation`` (one of the instance's own), interned
        on first read and stored only once complete."""
        rows = self._rows.get(relation.name)
        if rows is None:
            intern_row = self.store.intern_row
            rows = frozenset(intern_row(row.items) for row in relation.tuples)
            self._rows[relation.name] = rows
        return rows

    def closure(self, name: str) -> frozenset[int]:
        """The ids relation ``name``'s rows name, with their subvalues'
        (``name`` read already).  Computed on first demand and kept:
        every traced evaluation that reads ``name`` counts it, and an
        untraced one never asks."""
        closure = self._closures.get(name)
        if closure is None:
            closure = frozenset(self.store.closure(
                chain.from_iterable(self._rows[name])))
            self._closures[name] = closure
        return closure


class InternedInstance:
    """One evaluation's view of its instance's :class:`InstanceEncoding`.

    :meth:`rows` reads a relation's id rows, interned on the instance's
    first read.  The view is also the evaluation's store: ``value``,
    ``unintern_row``, ``tuple_items`` and ``set_members`` are the
    shared store's own methods, while :meth:`intern`,
    :meth:`intern_tuple` and :meth:`intern_set` also record the ids they
    return, so :meth:`interned_values` can count the values this
    evaluation's ids name.  ``store`` is the shared
    :class:`ValueStore` itself; ``indexes`` the encoding's instance
    indexes, for the evaluation's instance :class:`IndexPool`.
    """

    __slots__ = ("instance", "store", "indexes", "value", "unintern_row",
                 "tuple_items", "set_members", "_encoding", "_rows",
                 "_interned")

    def __init__(self, inst: Instance):
        encoding = InstanceEncoding.of(inst)
        store = encoding.store
        self.instance = inst
        self.store = store
        self.indexes = encoding.indexes
        self.value = store.value
        self.unintern_row = store.unintern_row
        self.tuple_items = store.tuple_items
        self.set_members = store.set_members
        self._encoding = encoding
        self._rows: dict[str, frozenset[tuple[int, ...]]] = {}
        self._interned: set[int] = set()

    def rows(self, name: str) -> frozenset[tuple[int, ...]]:
        """Id rows of relation ``name`` (an unknown name raises the
        instance's usual error)."""
        rows = self._rows.get(name)
        if rows is None:
            rows = self._rows[name] = self._encoding.rows(
                self.instance.relation(name))
        return rows

    def intern(self, value: Value) -> int:
        vid = self.store.intern(value)
        self._interned.add(vid)
        return vid

    def intern_tuple(self, item_ids: Iterable[int]) -> int:
        vid = self.store.intern_tuple(item_ids)
        self._interned.add(vid)
        return vid

    def intern_set(self, member_ids: Iterable[int]) -> int:
        vid = self.store.intern_set(member_ids)
        self._interned.add(vid)
        return vid

    def interned_values(self) -> int:
        """The distinct values this evaluation's ids name: the values of
        the relations it read and those it interned, with their
        subvalues — the size an empty store would have reached."""
        named = self.store.closure(self._interned)
        for name in self._rows:
            named |= self._encoding.closure(name)
        return len(named)


def intern_instance(
    inst: Instance,
    order: AtomOrder | None = None,
    store: ValueStore | None = None,
) -> tuple[ValueStore, Mapping[str, frozenset[tuple[int, ...]]]]:
    """Intern all of ``inst`` into ``(store, {relation name: id rows})``.

    ``store`` defaults to a standalone :meth:`ValueStore.from_instance`,
    so ids follow the Definition 4.2 order.  The engines do not call
    this: they read the instance's shared encoding through
    :class:`InternedInstance`.
    """
    if store is None:
        store = ValueStore.from_instance(inst, order)
    return store, {rel.name: frozenset(store.intern_row(row.items)
                                       for row in rel.tuples)
                   for rel in inst.relations()}
