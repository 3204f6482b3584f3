"""Tests for active-domain evaluation (Section 3; E05)."""

import pytest

from repro.core.builder import C, V, eq, exists, forall, member, proj, query, rel, subset
from repro.core.evaluation import EvalError, Evaluator, active_atoms, evaluate, evaluate_formula
from repro.objects import (
    Atom,
    atom,
    cset,
    ctuple,
    database_schema,
    instance,
    make_value,
)
from repro.objects.domains import DomainTooLarge
from repro.workloads import bipartite_query, chain_graph, cycle_graph


@pytest.fixture
def p_instance():
    schema = database_schema(P=["U", "U"])
    return instance(schema, P=[("a", "b"), ("a", "c"), ("b", "c")])


class TestAtomicFormulas:
    def test_relation_atom(self, p_instance):
        x, y = V("x", "U"), V("y", "U")
        q = query([x, y], rel("P")(x, y))
        assert len(evaluate(q, p_instance)) == 3

    def test_equality_with_constant(self, p_instance):
        x = V("x", "U")
        q = query([x], eq(x, C("a")))
        answers = evaluate(q, p_instance)
        assert answers == frozenset({ctuple(atom("a"))})

    def test_membership(self):
        schema = database_schema(R=["{U}"])
        inst = instance(schema, R=[({"a", "b"},), ({"c"},)])
        x, s = V("x", "U"), V("s", "{U}")
        q = query([x], exists(s, rel("R")(s) & member(x, s)))
        assert {str(t) for t in evaluate(q, inst)} == {"[a]", "[b]", "[c]"}

    def test_subset(self):
        schema = database_schema(R=["{U}"])
        inst = instance(schema, R=[({"a", "b"},), ({"a"},), ({"c"},)])
        s, t = V("s", "{U}"), V("t", "{U}")
        q = query([s, t], rel("R")(s) & rel("R")(t) & subset(s, t) & ~eq(s, t))
        answers = evaluate(q, inst)
        assert answers == frozenset({
            ctuple(cset(atom("a")), cset(atom("a"), atom("b")))
        })

    def test_projection(self, p_instance):
        t = V("t", "[U,U]")
        q = query([t], rel("P")(proj(t, 1), proj(t, 2)))
        assert len(evaluate(q, p_instance)) == 3


class TestConnectivesAndQuantifiers:
    def test_negation(self, p_instance):
        x, y = V("x", "U"), V("y", "U")
        q = query([x, y], ~rel("P")(x, y))
        # 9 pairs total, 3 in P
        assert len(evaluate(q, p_instance)) == 6

    def test_forall(self, p_instance):
        # sources with edges to everything P reaches from them... simpler:
        # nodes x such that every edge from x goes to c
        x, y = V("x", "U"), V("y", "U")
        q = query([x], exists(V("z", "U"), rel("P")(x, V("z", "U")))
                  & forall(y, rel("P")(x, y).implies(eq(y, C("c")))))
        assert {str(t) for t in evaluate(q, p_instance)} == {"[b]"}

    def test_iff(self, p_instance):
        x, s = V("x", "U"), V("s", "{U}")
        y = V("y", "U")
        q = query([x, s], exists(V("z", "U"), rel("P")(x, V("z", "U")))
                  & forall(y, member(y, s).iff(rel("P")(x, y))))
        answers = {str(t) for t in evaluate(q, p_instance)}
        assert answers == {"[a, {b, c}]", "[b, {c}]"}


class TestActiveDomain:
    def test_query_constants_extend_domain(self):
        """Atoms in the query count toward the active domain."""
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b")])
        x = V("x", "U")
        q = query([x], eq(x, C("z")) | rel("P")(x, x))
        answers = evaluate(q, inst)
        assert answers == frozenset({ctuple(atom("z"))})

    def test_active_atoms_helper(self):
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("b", "a")])
        atoms = active_atoms(inst, [make_value({"z"})])
        assert [a.label for a in atoms] == ["a", "b", "z"]

    def test_variables_range_over_full_domains(self):
        """An unconstrained set variable ranges over all 2^n subsets."""
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b")])
        s = V("s", "{U}")
        x = V("x", "U")
        q = query([s], member(C("a"), s) | subset(s, s))
        # every subset satisfies s sub s: answer = all of dom({U})
        assert len(evaluate(q, inst)) == 4


class TestBipartite:
    """The Section 3 worked example."""

    def test_even_cycle_is_bipartite(self):
        inst = cycle_graph(4)
        answers = evaluate(bipartite_query(), inst)
        assert len(answers) == 4  # the graph itself

    def test_odd_cycle_is_not(self):
        inst = cycle_graph(5)
        assert evaluate(bipartite_query(), inst) == frozenset()

    def test_path_is_bipartite(self):
        inst = chain_graph(4)
        assert len(evaluate(bipartite_query(), inst)) == 3


class TestGenericity:
    """Queries must commute with isomorphisms of the atomic constants
    (the Section 2 definition of a query)."""

    def test_renaming_commutes(self, p_instance):
        x, y = V("x", "U"), V("y", "U")
        q = query([x, y], exists(V("z", "U"),
                                 rel("P")(x, V("z", "U"))
                                 & rel("P")(V("z", "U"), y)))
        mapping = {Atom("a"): Atom("u"), Atom("b"): Atom("v"),
                   Atom("c"): Atom("w")}
        renamed_instance = p_instance.rename_atoms(mapping)
        direct = evaluate(q, renamed_instance)

        def rename_row(row):
            return ctuple(*(mapping.get(item, item) for item in row.items))

        mapped = frozenset(rename_row(row) for row in evaluate(q, p_instance))
        assert direct == mapped


class TestGuards:
    def test_domain_cap(self, p_instance):
        s = V("s", "{[U,U]}")
        q = query([s], subset(s, s))
        with pytest.raises(DomainTooLarge):
            evaluate(q, p_instance, max_domain_size=100)

    def test_product_cap(self, p_instance):
        x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
        q = query([x, y, z], eq(x, y) & eq(y, z))
        with pytest.raises(EvalError):
            evaluate(q, p_instance, max_product=10)

    def test_stats_collected(self, p_instance):
        """The naive lane checks the atom per candidate (the seminaive
        one joins it, checking no formula)."""
        evaluator = Evaluator(p_instance.schema, strategy="naive")
        x = V("x", "U")
        evaluator.evaluate(query([x], rel("P")(x, x)), p_instance)
        assert evaluator.last_stats is not None
        assert evaluator.last_stats["atom_checks"] > 0

    def test_atom_checks_count_atoms_only(self, p_instance):
        """Regression: ``atom_checks`` once counted every formula node.
        On a pure-atom body the two counters coincide; wrapping the atom
        in connectives grows ``formula_checks`` but not ``atom_checks``.
        Both run on the naive lane, which checks the body per candidate
        where the seminaive one joins a bare atom."""
        x = V("x", "U")
        plain = Evaluator(p_instance.schema, strategy="naive")
        plain.evaluate(query([x], rel("P")(x, x)), p_instance)
        assert (plain.last_stats["atom_checks"]
                == plain.last_stats["formula_checks"] > 0)

        wrapped = Evaluator(p_instance.schema, strategy="naive")
        wrapped.evaluate(query([x], ~(~rel("P")(x, x))), p_instance)
        assert (wrapped.last_stats["atom_checks"]
                == plain.last_stats["atom_checks"])
        assert (wrapped.last_stats["formula_checks"]
                == 3 * wrapped.last_stats["atom_checks"])


class TestEvaluateFormula:
    def test_sentence(self, p_instance):
        sentence = exists(V("x", "U"), rel("P")(V("x", "U"), C("c")))
        assert evaluate_formula(sentence, p_instance)

    def test_open_formula_with_env(self, p_instance):
        from repro.objects.types import U as AtomU

        f = rel("P")(V("x", "U"), V("y", "U"))
        assert evaluate_formula(f, p_instance,
                                {"x": atom("a"), "y": atom("b")},
                                free_variable_types={"x": AtomU, "y": AtomU})
        assert not evaluate_formula(f, p_instance,
                                    {"x": atom("b"), "y": atom("a")},
                                    free_variable_types={"x": AtomU, "y": AtomU})
