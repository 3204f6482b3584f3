"""Tests for C-safe evaluation (Definition 5.1, Proposition 5.1,
Theorem 5.2; E14)."""

import pytest

from repro.core.builder import V, eq, exists, forall, query, rel
from repro.core.evaluation import Evaluator, evaluate
from repro.core.order_formulas import ORDER_RELATION, with_order_relation
from repro.core.safety import (
    SafeEvaluationReport,
    evaluate_range_restricted,
    safety_diagnostics,
    verify_safety,
)
from repro.objects import atom, database_schema, instance
from repro.workloads import bipartite_query, chain_graph, nest_query


class TestSafeEvaluation:
    def test_report_fields(self):
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b")])
        report = evaluate_range_restricted(nest_query(), inst)
        assert isinstance(report, SafeEvaluationReport)
        assert report.range_sizes["x"] >= 1
        assert len(report.answer) == 1

    def test_restricted_equals_active_on_empty_instance(self):
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "a")])
        empty = inst.with_relation("P", [])
        # no atoms at all: both semantics give the empty answer
        report = evaluate_range_restricted(nest_query(), empty)
        assert report.answer == frozenset()

    def test_diagnostics_empty_for_rr(self):
        schema = database_schema(P=["U", "U"])
        assert safety_diagnostics(nest_query(), schema) == []

    def test_diagnostics_for_non_rr(self):
        schema = database_schema(G=["U", "U"])
        messages = safety_diagnostics(bipartite_query(), schema)
        assert messages
        assert all(isinstance(m, str) for m in messages)


class TestTheorem52:
    """Ordered inputs: RR queries with the explicit ``<_U`` relation.

    Theorem 5.2: with LTU given, RR-(CALC+IFP+<_U) captures PTIME on
    ordered inputs.  We check the machinery composes: queries may use
    LTU like any database relation and remain range restricted.
    """

    def test_order_relation_is_a_database_relation(self):
        inst = with_order_relation(chain_graph(3))
        assert ORDER_RELATION in inst.schema
        # strict order: n(n-1)/2 pairs
        assert inst.relation(ORDER_RELATION).cardinality == 3

    def test_minimum_query_over_ordered_input(self):
        """'The <_U-least node of the graph' — needs the order, is RR."""
        inst = with_order_relation(chain_graph(3))
        x, y = V("x", "U"), V("y", "U")
        node = (exists(V("w", "U"), rel("G")(x, V("w", "U")))
                | exists(V("w2", "U"), rel("G")(V("w2", "U"), x)))
        is_least = forall(y, rel(ORDER_RELATION)(y, x).implies(
            ~ (exists(V("u", "U"), rel("G")(y, V("u", "U")))
               | exists(V("u2", "U"), rel("G")(V("u2", "U"), y)))))
        q = query([x], node & is_least)
        report = evaluate_range_restricted(q, inst)
        assert {str(t) for t in report.answer} == {"[a00]"}
        assert verify_safety(q, inst)

    def test_even_cardinality_query(self):
        """Parity of the node count — inexpressible without order in
        plain calculus, expressible with LTU + IFP (the flat capture)."""
        from repro.core.builder import ifp

        # EvenUpTo(x): the prefix up to x (inclusive) has even size.
        # We iterate over successor pairs: Odd(x) for first element,
        # alternating via the strict order's immediate-successor relation.
        inst = with_order_relation(chain_graph(4))
        x = V("x", "U")
        lt = rel(ORDER_RELATION)
        z1, z2, z3 = V("z1", "U"), V("z2", "U"), V("z3", "U")
        # Odd positions: the least element, then successors of successors.
        least = ~exists(z1, lt(z1, x))
        w1, w2 = V("w1", "U"), V("w2", "U")
        odd = ifp("Odd", [x],
                  least | exists([w1, w2],
                                 rel("Odd")(w1)
                                 & lt(w1, w2)
                                 & ~exists(z2, lt(w1, z2) & lt(z2, w2))
                                 & lt(w2, x)
                                 & ~exists(z3, lt(w2, z3) & lt(z3, x))))
        q = query([x], odd(x))
        answers = {str(t) for t in evaluate(q, inst)}
        assert answers == {"[a00]", "[a02]"}  # positions 1 and 3


class TestRestrictedSemanticsDetails:
    def test_explicit_variable_ranges(self):
        """Evaluator honours hand-supplied ranges (restricted-domain
        semantics is a first-class mode, per Section 5's Definition 5.1)."""
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b"), ("b", "c")])
        x = V("x", "U")
        q = query([x], eq(x, x))
        full = evaluate(q, inst)
        assert len(full) == 3
        narrowed = Evaluator(
            schema, variable_ranges={"x": {atom("a")}}
        ).evaluate(q, inst)
        assert {str(t) for t in narrowed} == {"[a]"}

    def test_union_range_soundness(self):
        """Enlarging ranges (within the active domain) never changes the
        answer of an RR query — the soundness argument for union ranges."""
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b"), ("b", "c")])
        from repro.core.range_restriction import compute_ranges

        base = compute_ranges(nest_query(), inst)
        enlarged = {name: set(values) | {atom("a"), atom("b"), atom("c")}
                    if name in ("x", "y", "z") else set(values)
                    for name, values in base.items()}
        answer_base = Evaluator(schema, variable_ranges=base).evaluate(
            nest_query(), inst)
        answer_big = Evaluator(schema, variable_ranges=enlarged).evaluate(
            nest_query(), inst)
        assert answer_base == answer_big


class TestTypeCheckedOnce:
    """A range-restricted answer type checks its query once, for the
    range derivation and the evaluation both."""

    def test_one_check_per_calc_answer(self, monkeypatch):
        import repro.core.typecheck as typecheck
        from repro.workloads import (
            GOLDEN_SEED,
            QUESTIONS,
            answer_question,
            supply_chain_instance,
        )

        inst = supply_chain_instance(1, GOLDEN_SEED)
        checks = []
        check_formula = typecheck.check_formula

        def counting(*args, **kwargs):
            checks.append(args[0])
            return check_formula(*args, **kwargs)

        monkeypatch.setattr(typecheck, "check_formula", counting)
        for question in QUESTIONS:
            if question.kind == "calc":
                checks.clear()
                answer_question(question, inst)
                assert checks == [question.compiled.body], question.name

    def test_ill_typed_query_raises_the_checks_error(self):
        from repro.core.typecheck import TypeCheckError, check_query

        x, y = V("x", "U"), V("y", "U")
        q = query([x], exists(y, rel("G")(x) & rel("G")(x, y)))
        inst = chain_graph(3)
        with pytest.raises(TypeCheckError) as expected:
            check_query(q, inst.schema)
        with pytest.raises(TypeCheckError) as raised:
            evaluate_range_restricted(q, inst)
        assert str(raised.value) == str(expected.value)
