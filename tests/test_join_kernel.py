"""The seminaive calculus engine's join kernel.

A query formula or fixpoint body is split into disjuncts of joins that
the Datalog join planner compiles; fixpoint nodes are taken only where
the naive oracle reaches them with the same bindings, and a formula
that cannot be split that way is evaluated whole, as one residual over
the head's candidate product.  These tests pin the split itself and
the work it saves; answers and stage totals stay the oracle's.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.builder import V, exists, forall, ifp, member, rel
from repro.core.builder import query as build_query
from repro.core.evaluation import MAX_DISJUNCTS, _split, evaluate
from repro.core.fixpoint import PFPDivergenceError
from repro.objects import database_schema, instance
from repro.obs import Tracer, use_tracer
from repro.workloads import chain_graph, cycle_graph, transitive_closure_query

x, y, z, w = (V(name, "U") for name in ("x", "y", "z", "w"))
G = rel("G")


def _outcome(query, inst, strategy):
    tracer = Tracer()
    with use_tracer(tracer):
        try:
            outcome = ("ok", evaluate(query, inst, strategy=strategy))
        except PFPDivergenceError as error:
            outcome = ("diverged", error.period, error.stage)
    return outcome, dict(tracer.counters)


def _assert_agree(query, inst) -> dict:
    """Same answer and stage totals on both lanes; the seminaive
    counters."""
    naive, naive_counters = _outcome(query, inst, "naive")
    seminaive, counters = _outcome(query, inst, "seminaive")
    assert seminaive == naive
    for name in ("ifp.stages", "pfp.stages"):
        assert counters.get(name, 0) == naive_counters.get(name, 0)
    return counters


def _is_whole(query) -> bool:
    head = tuple(V(name, typ) for name, typ in query.head)
    return _split(query.body, head, None).disjuncts is None


def _parameterized(param):
    """An IFP over column w with parameter ``param``: the nodes reachable
    from ``param`` (a fixpoint node the kernel may not join)."""
    return ifp("R", [w], G(param, w)
               | exists(V("z2", "U"), rel("R")(V("z2", "U"))
                        & G(V("z2", "U"), w)))


class TestTransitiveClosureProbes:
    @pytest.mark.parametrize("n", [8, 16])
    def test_probes_follow_the_closure(self, n):
        """Each stage joins Δ::S with G, probing G once per delta row:
        n(n-1)/2 probes in all, not one per candidate pair (n² per
        stage)."""
        tracer = Tracer()
        with use_tracer(tracer):
            answer = evaluate(transitive_closure_query("U"), chain_graph(n))
        closure = n * (n - 1) // 2
        assert len(answer) == closure
        assert tracer.counters["eval.index_probes"] == closure
        assert tracer.counters["eval.delta_rows"] == closure
        assert "eval.quantifier_iterations" not in tracer.counters

    def test_tc_body_splits_into_a_delta_join(self):
        fixpoint = transitive_closure_query("U").body.fixpoint
        head = tuple(V(name, typ) for name, typ in fixpoint.columns)
        base, step = _split(fixpoint.body, head, fixpoint.name).disjuncts
        assert base.delta == () and not base.full
        assert [var.name for var in step.variables] == ["x", "y", "z"]
        assert step.delta == (0,) and not step.full and not step.residuals


class TestResidualExists:
    def test_exists_inside_a_residual_is_joined(self):
        """``∀w (G(x, w) → ∃z G(w, z))``: the ``∀`` walks w's range, and
        each ``∃`` it reaches takes z from a probe of G on w, not from
        z's range."""
        q = build_query([x], forall(w, G(x, w).implies(exists(z, G(w, z)))))
        counters = _assert_agree(q, chain_graph(5))
        # x's walk, then w's for each x: 5 + 5 × 5; the ∃ is memoized on
        # w, and G reaches 4 distinct w.
        assert counters["eval.quantifier_iterations"] == 30
        assert counters["eval.index_probes"] == 4

    def test_exists_without_a_join_walks_its_range(self):
        """``∃z ¬G(x, z)`` binds z by no join: it walks z's range and
        stops at the first witness, as the oracle does."""
        q = build_query([x], exists(z, ~G(x, z)))
        assert _split(q.body, (x,), None).disjuncts is None
        counters = _assert_agree(q, chain_graph(4))
        # x's walk (4), then z's until a non-edge: 1 for each x.
        assert counters["eval.quantifier_iterations"] == 4 + 4
        assert "eval.index_probes" not in counters


class TestPlacementRule:
    """Shapes that break the fixpoint-placement rule stay whole, and
    their stage totals equal the oracle's."""

    def test_fixpoint_in_a_second_disjunct(self):
        q = build_query([x], G(x, x) | _parameterized(x)(x))
        assert _is_whole(q)
        _assert_agree(q, chain_graph(5))
        _assert_agree(q, cycle_graph(4))

    def test_fixpoint_before_a_join_conjunct(self):
        q = build_query([x, y], _parameterized(x)(y) & G(y, x))
        assert _is_whole(q)
        _assert_agree(q, cycle_graph(4))

    def test_fixpoint_mentioning_an_exists_variable(self):
        q = build_query([x], exists(z, G(x, z) & _parameterized(z)(x)))
        assert _is_whole(q)
        _assert_agree(q, chain_graph(5))
        _assert_agree(q, cycle_graph(4))

    def test_fixpoint_last_without_exists_variables_is_joined(self):
        """The same fixpoint as a last conjunct reading only head
        variables is a residual after the join."""
        q = build_query([x, y], G(x, y) & _parameterized(x)(y))
        (disjunct,) = _split(q.body, (x, y), None).disjuncts
        assert len(disjunct.joins) == 1 and len(disjunct.residuals) == 1
        _assert_agree(q, chain_graph(5))


class TestSplitCap:
    def test_split_above_the_cap_stays_whole(self):
        """Five two-way disjunctions multiply into 32 disjuncts."""
        factors = [G(x, y) | G(y, x), G(x, x) | G(y, y), G(x, z) | G(z, y),
                   G(y, z) | G(z, x), G(x, y) | G(z, z)]
        body = factors[0]
        for factor in factors[1:]:
            body = body & factor
        q = build_query([x, y, z], body)
        assert 2 ** len(factors) > MAX_DISJUNCTS
        assert _is_whole(q)
        for inst in (cycle_graph(3), chain_graph(4)):
            _assert_agree(q, inst)

    def test_split_at_the_cap_is_joined(self):
        body = G(x, y) | G(y, x)
        for _ in range(3):
            body = body & (G(x, y) | G(y, x))
        q = build_query([x, y], body)
        assert len(_split(q.body, (x, y), None).disjuncts) == MAX_DISJUNCTS
        _assert_agree(q, cycle_graph(4))


class TestWalkedProductStreams:
    def test_a_walked_product_is_never_held_whole(self):
        """``{[x,u,v,y,z] | A(x) ∧ B(u) ∧ C(v) ∧ x,u,v ∈ y ∧ x,u,v ∈ z}``
        over 9 atoms: no join binds y or z, so the plan scans their
        walked candidate product, 512² = 262,144 rows, for 4,096
        answers.  The scan draws the product in bounded chunks, each run
        through the membership checks before the next, so the traced
        peak stays far below the product's size."""
        u, v = V("u", "U"), V("v", "U")
        sets = V("y", "{U}"), V("z", "{U}")
        inst = instance(database_schema(A=["U"], B=["U"], C=["U"],
                                        D=["U"]),
                        A=[("a0",)], B=[("a1",)], C=[("a2",)],
                        D=[(f"a{i}",) for i in range(9)])
        body = rel("A")(x) & rel("B")(u) & rel("C")(v)
        for container in sets:
            for element in (x, u, v):
                body = body & member(element, container)
        q = build_query([x, u, v, *sets], body)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            answer = evaluate(q, inst, max_product=10**10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(answer) == 4096
        assert peak < 10 * 2**20
