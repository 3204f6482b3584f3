"""Tests for IFP and PFP (Definition 3.1, Example 3.1; E06)."""

import pytest

from repro.core.builder import V, eq, exists, ifp, pfp, query, rel
from repro.core.evaluation import evaluate
from repro.core.fixpoint import (
    FixpointError,
    PFPDivergenceError,
    ifp_stages,
    iterate_ifp,
    iterate_pfp,
    pfp_stages,
)
from repro.objects import atom, cset, ctuple, database_schema, instance
from repro.obs import Tracer, use_tracer
from repro.workloads import (
    cyclic_nodes_query,
    pfp_transitive_closure_query,
    set_chain_graph,
    transitive_closure_query,
    transitive_closure_term_query,
)


class TestEngines:
    """The generic iteration engines on hand-rolled stage functions."""

    def test_ifp_accumulates(self):
        # stage: numbers reachable by +1 from 0, up to 5
        def stage(current):
            if not current:
                return frozenset({(0,)})
            return frozenset((n + 1,) for (n,) in current if n < 5)

        result = iterate_ifp(stage)
        assert result == frozenset((n,) for n in range(6))

    def test_ifp_stage_count(self):
        def stage(current):
            if not current:
                return frozenset({(0,)})
            return frozenset((n + 1,) for (n,) in current if n < 3)

        stages = list(ifp_stages(stage))
        assert stages[0] == frozenset()
        assert len(stages) == 5  # {}, {0}, {0,1}, {0,1,2}, {0,1,2,3}

    def test_pfp_reaches_fixed_point(self):
        def stage(current):
            return frozenset({(1,), (2,)})

        assert iterate_pfp(stage) == frozenset({(1,), (2,)})

    def test_pfp_cycle_detected(self):
        def stage(current):
            return frozenset({(1,)}) if (1,) not in current else frozenset({(2,)})

        with pytest.raises(PFPDivergenceError) as excinfo:
            iterate_pfp(stage)
        assert excinfo.value.period == 2

    def test_pfp_stages_yields_path(self):
        def stage(current):
            if len(current) >= 2:
                return current
            return current | frozenset({(len(current),)})

        stages = list(pfp_stages(stage))
        assert [len(s) for s in stages] == [0, 1, 2]

    def test_max_stage_guard(self):
        def stage(current):
            return frozenset({(len(current),)}) | current

        with pytest.raises(FixpointError):
            iterate_ifp(stage, max_stages=5)


@pytest.fixture
def graph_instance(set_graph_schema):
    a, b, c, d = (cset(atom(ch)) for ch in "abcd")
    return instance(set_graph_schema, G=[(a, b), (b, c), (c, d), (d, b)])


class TestExample31:
    """Example 3.1's three queries over a graph with {U}-typed nodes."""

    def test_transitive_closure(self, graph_instance):
        answers = evaluate(transitive_closure_query(), graph_instance)
        # a reaches b,c,d; b,c,d reach each of b,c,d
        assert len(answers) == 3 + 9

    def test_transitive_closure_as_term(self, set_graph_schema):
        """The CALC_2^2 variant computes the same closure, packaged as
        one set object (needs range-restricted evaluation to be
        feasible — checked in test_range_restriction; here we use a tiny
        2-atom instance so active-domain evaluation can enumerate)."""
        a, b = cset(atom("a")), cset(atom("b"))
        inst = instance(set_graph_schema, G=[(a, b)])
        answers = evaluate(transitive_closure_term_query(), inst,
                           max_domain_size=10 ** 6)
        assert len(answers) == 1
        (closure_value,) = next(iter(answers)).items
        assert closure_value == cset(ctuple(a, b))

    def test_cyclic_nodes(self, graph_instance):
        answers = evaluate(cyclic_nodes_query(), graph_instance)
        labels = {str(row.component(1)) for row in answers}
        assert labels == {"{b}", "{c}", "{d}"}

    def test_acyclic_graph_has_no_cyclic_nodes(self, set_graph_schema):
        inst = set_chain_graph(3)
        assert evaluate(cyclic_nodes_query(), inst) == frozenset()


class TestPFPQueries:
    def test_pfp_transitive_closure(self, graph_instance):
        ifp_answers = evaluate(transitive_closure_query(), graph_instance)
        pfp_answers = evaluate(pfp_transitive_closure_query(), graph_instance)
        assert ifp_answers == pfp_answers

    def test_pfp_divergence_surfaces(self, set_graph_schema):
        a, b = cset(atom("a")), cset(atom("b"))
        inst = instance(set_graph_schema, G=[(a, b)])
        x = V("x", "{U}")
        flip = pfp("S", [x], ~rel("S")(x))
        q = query([x], flip(x))
        with pytest.raises(PFPDivergenceError):
            evaluate(q, inst)


class TestFixpointSemantics:
    def test_inflationary_union(self, set_graph_schema):
        """IFP keeps earlier stages even if the formula stops producing
        them (J_i = phi(J_{i-1}) UNION J_{i-1})."""
        a, b = cset(atom("a")), cset(atom("b"))
        inst = instance(set_graph_schema, G=[(a, b)])
        x = V("x", "{U}")
        # phi(S): x = {a} if S empty... encode via: G(x, y) first stage only
        fix_ifp = ifp("S", [x],
                      (~exists(V("w", "{U}"), rel("S")(V("w", "{U}"))))
                      & exists(V("y", "{U}"), rel("G")(x, V("y", "{U}"))))
        q = query([x], fix_ifp(x))
        answers = evaluate(q, inst)
        # stage 1 adds {a}; stage 2's phi is empty but {a} persists
        assert answers == frozenset({ctuple(a)})

        fix_pfp = pfp("S", [x],
                      (~exists(V("w", "{U}"), rel("S")(V("w", "{U}"))))
                      & exists(V("y", "{U}"), rel("G")(x, V("y", "{U}"))))
        with pytest.raises(PFPDivergenceError):
            evaluate(query([x], fix_pfp(x)), inst)  # oscillates {}/{a}

    def test_parameterised_fixpoint(self):
        """Fixpoints with outer parameters (Example 5.3's shape)."""
        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b"), ("a", "c"), ("b", "c")])
        x, s = V("x", "U"), V("s", "{U}")
        fix = ifp("Q", [("yv", "U")], rel("P")(x, V("yv")) | rel("Q")(V("yv")))
        q = query([x, s], exists(V("z", "U"), rel("P")(x, V("z", "U")))
                  & eq(s, fix.as_term()))
        answers = {str(t) for t in evaluate(q, inst)}
        assert answers == {"[a, {b, c}]", "[b, {c}]"}

    def test_nested_fixpoints(self, set_graph_schema):
        """A fixpoint whose body applies another (renamed-apart) fixpoint:
        reachability in the square graph G^2."""
        a, b, c = (cset(atom(ch)) for ch in "abc")
        inst = instance(set_graph_schema, G=[(a, b), (b, c)])
        u, v, w = V("u", "{U}"), V("v", "{U}"), V("w", "{U}")
        square = ifp("Sq", [u, v],
                     exists(w, rel("G")(u, w) & rel("G")(w, v)))
        x, y, z = V("x", "{U}"), V("y", "{U}"), V("z", "{U}")
        reach = ifp("R2", [x, y],
                    square(x, y) | exists(z, rel("R2")(x, z) & square(z, y)))
        answers = evaluate(query([x, y], reach(x, y)), inst)
        assert answers == frozenset({ctuple(a, c)})


class TestViewsRunTheLoop:
    """The generator views run the loop the iterations run, so under a
    tracer they report the same stage events and counters."""

    @pytest.mark.parametrize("iterate,view", [(iterate_ifp, ifp_stages),
                                              (iterate_pfp, pfp_stages)])
    def test_same_stage_reports(self, iterate, view):
        def stage(current):
            return frozenset((n,) for n in range(min(len(current) + 1, 3)))

        def report(run):
            tracer = Tracer()
            with use_tracer(tracer):
                run()
            return ([(event.name, event.attrs)
                     for event in tracer.root.events], tracer.counters)

        iterated = report(lambda: iterate(stage))
        assert iterated == report(lambda: list(view(stage)))
        assert len(iterated[0]) == 4  # three growing stages, then the limit


class TestMaxStagesBound:
    """``max_stages=n`` permits at most n stage-function applications
    (regression: the old ``count > max_stages`` check allowed n+1)."""

    @staticmethod
    def _growing_stage(calls):
        def stage(current):
            calls.append(len(current))
            return frozenset({(len(current),)}) | current

        return stage

    def test_ifp_applies_stage_exactly_max_times(self):
        calls = []
        with pytest.raises(FixpointError):
            iterate_ifp(self._growing_stage(calls), max_stages=3)
        assert len(calls) == 3

    def test_pfp_applies_stage_exactly_max_times(self):
        calls = []
        with pytest.raises(FixpointError):
            iterate_pfp(self._growing_stage(calls), max_stages=3)
        assert len(calls) == 3

    def test_ifp_converging_at_the_bound_succeeds(self):
        # Converges on the 3rd application (the stage that returns no
        # new rows); max_stages=3 must accept it.
        def stage(current):
            if len(current) >= 2:
                return current
            return current | frozenset({(len(current),)})

        result = iterate_ifp(stage, max_stages=3)
        assert len(result) == 2

    def test_pfp_stages_takes_optional_bound(self):
        calls = []
        generator = pfp_stages(self._growing_stage(calls), max_stages=3)
        with pytest.raises(FixpointError):
            list(generator)
        assert len(calls) == 3

    def test_pfp_views_share_the_bound_and_its_message(self):
        """The generator view stops where the iteration does, with the
        same error."""
        iterated, viewed = [], []
        with pytest.raises(FixpointError) as iterate_error:
            iterate_pfp(self._growing_stage(iterated), max_stages=3)
        with pytest.raises(FixpointError) as view_error:
            list(pfp_stages(self._growing_stage(viewed), max_stages=3))
        assert len(iterated) == len(viewed) == 3
        assert str(iterate_error.value) == str(view_error.value) \
            == "PFP did not converge within 3 stages"

    def test_pfp_stages_unbounded_by_default(self):
        def stage(current):
            if len(current) >= 50:
                return current
            return current | frozenset({(len(current),)})

        stages = list(pfp_stages(stage))
        assert len(stages) == 51  # J_0 .. J_50
