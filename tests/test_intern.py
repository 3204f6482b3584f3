"""The interning layer: round-trip, injectivity, order compatibility.

Four properties pin :mod:`repro.objects.intern`:

* intern → unintern is the identity over random nested values;
* interning is injective — equal ids iff structurally equal values —
  and id-level set/tuple structure mirrors the object structure;
* on a fixed instance, :meth:`ValueStore.from_instance` assigns ids
  compatible with the induced order ``<_T`` of Definition 4.2 within
  each declared-type group (atoms get exactly their AtomOrder ranks),
  and the assignment is stable across JSON re-parses;
* the engines intern a relation only when an evaluation first reads
  it, so a relation no query literal reads gets no ids.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import small_types, values_of_type
from repro.core.safety import evaluate_range_restricted
from repro.datalog import Literal, Program, Rule, evaluate_inflationary
from repro.objects import (
    Atom,
    AtomOrder,
    CSet,
    CTuple,
    InternError,
    InternedInstance,
    SchemaError,
    ValueStore,
    database_schema,
    instance,
    instance_from_json,
    instance_to_json,
    intern_instance,
    less_than,
    parse_type,
    type_depth,
)
from repro.obs import Tracer, use_tracer
from repro.workloads import chain_graph, transitive_closure_query


def nested_values():
    return small_types().flatmap(values_of_type)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(value=nested_values())
    def test_intern_unintern_identity(self, value):
        store = ValueStore()
        vid = store.intern(value)
        assert store.value(vid) == value

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(nested_values(), min_size=1, max_size=6))
    def test_row_round_trip(self, values):
        store = ValueStore()
        ids = store.intern_row(values)
        assert store.unintern_row(ids) == tuple(values)

    @settings(max_examples=100, deadline=None)
    @given(value=nested_values())
    def test_reconstruction_without_cache(self, value):
        """``value()`` must rebuild from structural keys alone: a second
        store fed only the ids' keys (via intern_set/intern_tuple paths)
        still decodes."""
        store = ValueStore()
        vid = store.intern(value)
        # Drop the cached objects; force key-based reconstruction.
        store._values = [None] * len(store._values)
        assert store.value(vid) == value


class TestInjectivity:
    @settings(max_examples=150, deadline=None)
    @given(left=nested_values(), right=nested_values())
    def test_equal_ids_iff_equal_values(self, left, right):
        store = ValueStore()
        assert (store.intern(left) == store.intern(right)) == (left == right)

    @settings(max_examples=100, deadline=None)
    @given(value=nested_values())
    def test_idempotent(self, value):
        store = ValueStore()
        assert store.intern(value) == store.intern(value)
        assert value in store

    @settings(max_examples=100, deadline=None)
    @given(value=nested_values())
    def test_id_structure_mirrors_value_structure(self, value):
        store = ValueStore()
        vid = store.intern(value)
        if isinstance(value, Atom):
            assert store.kind(vid) == "atom"
            assert store.tuple_items(vid) is None
            assert store.set_members(vid) is None
        elif isinstance(value, CTuple):
            assert store.kind(vid) == "tuple"
            items = store.tuple_items(vid)
            assert items is not None
            assert store.unintern_row(items) == value.items
            assert store.intern_tuple(items) == vid
        else:
            assert store.kind(vid) == "set"
            members = store.set_members(vid)
            assert members is not None
            assert frozenset(store.value(m) for m in members) == value.elements
            assert store.intern_set(members) == vid

    def test_unknown_ids_rejected(self):
        store = ValueStore()
        with pytest.raises(InternError):
            store.value(0)
        with pytest.raises(InternError):
            store.intern_set([7])
        with pytest.raises(InternError):
            store.intern("not a value")


NESTED_SCHEMA = database_schema(P=["U", "{U}", "[U,{U}]"])

NESTED_INSTANCE = instance(
    NESTED_SCHEMA,
    P=[("b", {"a", "b"}, ("c", {"a", "c"})),
       ("c", {"c"}, ("a", {"b", "c"})),
       ("a", set(), ("b", {"a"}))],
)


class TestOrderCompatibility:
    def test_atom_ids_are_atom_order_ranks(self):
        store = ValueStore.from_instance(NESTED_INSTANCE)
        order = AtomOrder.sorted_by_label(NESTED_INSTANCE.atoms())
        for rank_, atom_ in enumerate(order.atoms):
            assert store.intern(atom_) == rank_

    def test_ids_follow_induced_order_within_declared_type(self):
        """Within each declared-type group of the fixed instance, id
        order equals the induced order ``<_T`` (module-docstring
        guarantee of ``intern.py``)."""
        store = ValueStore.from_instance(NESTED_INSTANCE)
        order = AtomOrder.sorted_by_label(NESTED_INSTANCE.atoms())
        by_type = {
            parse_type("U"): [row.component(1)
                              for row in NESTED_INSTANCE.relation("P")],
            parse_type("{U}"): [row.component(2)
                                for row in NESTED_INSTANCE.relation("P")],
            parse_type("[U,{U}]"): [row.component(3)
                                    for row in NESTED_INSTANCE.relation("P")],
        }
        for typ, values in by_type.items():
            distinct = set(values)
            for left in distinct:
                for right in distinct:
                    if less_than(left, right, order):
                        assert store.intern(left) < store.intern(right), \
                            (typ, left, right)

    def test_subobjects_precede_their_containers(self):
        store = ValueStore.from_instance(NESTED_INSTANCE)
        for row in NESTED_INSTANCE.relation("P"):
            for value in row.items:
                vid = store.intern(value)
                for sub in value.subobjects():
                    assert store.intern(sub) <= vid

    def test_ids_stable_across_reparse(self):
        reparsed = instance_from_json(
            json.loads(json.dumps(instance_to_json(NESTED_INSTANCE))))
        first = ValueStore.from_instance(NESTED_INSTANCE)
        second = ValueStore.from_instance(reparsed)
        for row in NESTED_INSTANCE.relation("P"):
            for value in row.items:
                assert first.intern(value) == second.intern(value)

    def test_type_depth(self):
        assert type_depth(parse_type("U")) == 1
        assert type_depth(parse_type("{U}")) == 2
        assert type_depth(parse_type("[U,{U}]")) == 3
        assert type_depth(parse_type("{[U,{{U}}]}")) == 5


class TestInternInstance:
    def test_round_trip(self):
        store, rows = intern_instance(NESTED_INSTANCE)
        assert set(rows) == {"P"}
        decoded = {store.unintern_row(row) for row in rows["P"]}
        assert decoded == {tuple(row.items)
                           for row in NESTED_INSTANCE.relation("P")}

    def test_heterogeneous_conformant_sets_intern(self):
        """Declared-type collection must not trip over sets whose
        elements only share the declared element type (infer_type would
        reject them)."""
        schema = database_schema(R=["{{{U}}}"])
        empty = CSet([])
        nested = CSet([CSet([Atom("a")])])
        inst = instance(schema, R=[(CSet([empty, nested]),)])
        store, _ = intern_instance(inst)
        assert store.value(store.intern(CSet([empty, nested]))) \
            == CSet([empty, nested])


def chain_with_unread_relation(n: int = 8):
    """A chain ``G`` on ``n`` nodes plus a relation ``H`` of 10 atoms
    that occur nowhere else and that TC over ``G`` never reads."""
    schema = database_schema(G=["U", "U"], H=["U"])
    return instance(
        schema,
        G=[tuple(row.items) for row in chain_graph(n).relation("G")],
        H=[(f"h{i}",) for i in range(10)],
    )


class TestFirstReadInterning:
    """The engines intern a relation when the evaluation first reads it,
    so values of relations a question never reads get no id."""

    def test_relations_intern_on_first_read(self):
        interned = InternedInstance(chain_with_unread_relation())
        assert len(interned.store) == 0
        rows = interned.rows("G")
        assert len(rows) == 7 and len(interned.store) == 8
        assert interned.rows("G") is rows
        interned.rows("H")
        assert len(interned.store) == 18
        with pytest.raises(SchemaError):
            interned.rows("missing")

    @staticmethod
    def _interned_values(run) -> int:
        tracer = Tracer()
        with use_tracer(tracer):
            run()
        return tracer.counters["space.interned_values"]

    def test_datalog_interns_only_read_relations(self):
        program = Program(
            [Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
             Rule(Literal("T", ["x", "y"]),
                  [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])])],
            idb_types={"T": ["U", "U"]},
        )
        inst = chain_with_unread_relation()
        assert self._interned_values(
            lambda: evaluate_inflationary(program, inst)) == 8

    def test_calculus_interns_only_read_relations(self):
        inst = chain_with_unread_relation()
        assert self._interned_values(
            lambda: evaluate_range_restricted(
                transitive_closure_query("U"), inst)) == 8
