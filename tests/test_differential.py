"""Differential tests: the naive oracle vs the production engine.

The production engine — delta-driven semi-naive evaluation over
interned ids with indexed joins — is only an optimisation: on every
query it must produce the same answer, the same stage count and the
same divergence behaviour as the naive re-derive-everything object
engine.  This suite checks that on:

* every canonical workload query over its worked instances,
* randomly generated CALC+IFP and CALC+PFP queries (hypothesis),
* randomly generated safe inf-Datalog programs (hypothesis),

including the *failure* channel: a PFP query or program that diverges
must raise ``PFPDivergenceError`` with the identical period and stage
under both lanes.  ``strategy="naive"`` is the oracle;
``strategy="seminaive"`` (the default) is the candidate.

Fast versions run in tier-1; ``-m slow`` runs the deeper sweeps
(hundreds of extra examples).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import (
    calc_queries,
    datalog_programs,
    flat_graph_instances,
    supply_chain_instances,
)
from repro.core.evaluation import evaluate
from repro.core.fixpoint import PFPDivergenceError
from repro.datalog import (
    evaluate_inflationary,
    evaluate_partial,
    inflationary_stages,
)
from repro.obs import Tracer, use_tracer
from repro.workloads import (
    bipartite_graph,
    bipartite_query,
    chain_graph,
    cyclic_nodes_query,
    cycle_graph,
    nest_query_ifp,
    pfp_transitive_closure_query,
    set_chain_graph,
    set_random_graph,
    transitive_closure_query,
)

FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
DEEP = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _outcome(run):
    """Run under a fresh tracer; normalise success and divergence into
    one comparable value, alongside the total fixpoint stage count."""
    tracer = Tracer()
    with use_tracer(tracer):
        try:
            outcome = ("ok", run())
        except PFPDivergenceError as error:
            outcome = ("diverged", error.period, error.stage)
    stages = (tracer.counters.get("ifp.stages", 0),
              tracer.counters.get("pfp.stages", 0))
    return outcome, stages


def _calc_outcome(query, inst, strategy):
    return _outcome(lambda: evaluate(query, inst, strategy=strategy))


def assert_calc_strategies_agree(query, inst):
    assert (_calc_outcome(query, inst, "naive")
            == _calc_outcome(query, inst, "seminaive"))


def assert_datalog_strategies_agree(program, inst):
    # Identical state *sequences*, not just final results.
    assert (list(inflationary_stages(program, inst, strategy="naive"))
            == list(inflationary_stages(program, inst,
                                        strategy="seminaive")))
    assert (evaluate_inflationary(program, inst, strategy="naive")
            == evaluate_inflationary(program, inst, strategy="seminaive"))
    # Partial semantics: the same answer, or the same divergence.
    assert (_outcome(lambda: evaluate_partial(program, inst,
                                              strategy="naive"))
            == _outcome(lambda: evaluate_partial(program, inst,
                                                 strategy="seminaive")))


# ---------------------------------------------------------------------------
# Canonical workload queries
# ---------------------------------------------------------------------------

WORKLOADS = [
    pytest.param(transitive_closure_query(), set_chain_graph(4),
                 id="tc-set-chain"),
    pytest.param(transitive_closure_query(), set_random_graph(3, 5),
                 id="tc-set-random"),
    pytest.param(transitive_closure_query("U"), chain_graph(6),
                 id="tc-flat-chain"),
    pytest.param(transitive_closure_query("U"), cycle_graph(5),
                 id="tc-flat-cycle"),
    pytest.param(pfp_transitive_closure_query(), set_chain_graph(4),
                 id="pfp-tc-set-chain"),
    pytest.param(pfp_transitive_closure_query("U"), cycle_graph(4),
                 id="pfp-tc-flat-cycle"),
    pytest.param(cyclic_nodes_query("U"), cycle_graph(4),
                 id="cyclic-nodes"),
    pytest.param(bipartite_query(), bipartite_graph(2, 2, p=1.0),
                 id="bipartite"),
]


class TestWorkloadQueries:
    @pytest.mark.parametrize("query,inst", WORKLOADS)
    def test_strategies_agree(self, query, inst):
        assert_calc_strategies_agree(query, inst)

    def test_nest_ifp_strategies_agree(self):
        from repro.objects import database_schema, instance

        schema = database_schema(P=["U", "U"])
        inst = instance(schema, P=[("a", "b"), ("a", "c"), ("b", "c")])
        assert_calc_strategies_agree(nest_query_ifp(), inst)

    def test_pfp_divergence_identical(self, set_graph_schema):
        """A diverging PFP raises with the same period/stage either way."""
        from repro.core.builder import V, pfp, query, rel
        from repro.objects import atom, cset, instance

        a, b = cset(atom("a")), cset(atom("b"))
        inst = instance(set_graph_schema, G=[(a, b)])
        x = V("x", "{U}")
        flip = pfp("S", [x], ~rel("S")(x))
        q = query([x], flip(x))
        naive = _calc_outcome(q, inst, "naive")
        assert naive == _calc_outcome(q, inst, "seminaive")
        assert naive[0][0] == "diverged"


# ---------------------------------------------------------------------------
# Random CALC(+IFP/PFP) queries
# ---------------------------------------------------------------------------

class TestRandomCalc:
    @FAST
    @given(query=calc_queries("ifp"), inst=flat_graph_instances())
    def test_ifp_strategies_agree(self, query, inst):
        assert_calc_strategies_agree(query, inst)

    @FAST
    @given(query=calc_queries("pfp"), inst=flat_graph_instances())
    def test_pfp_strategies_agree(self, query, inst):
        assert_calc_strategies_agree(query, inst)

    @pytest.mark.slow
    @DEEP
    @given(query=calc_queries("ifp"), inst=flat_graph_instances())
    def test_ifp_strategies_agree_deep(self, query, inst):
        assert_calc_strategies_agree(query, inst)

    @pytest.mark.slow
    @DEEP
    @given(query=calc_queries("pfp"), inst=flat_graph_instances())
    def test_pfp_strategies_agree_deep(self, query, inst):
        assert_calc_strategies_agree(query, inst)


# ---------------------------------------------------------------------------
# Random inf-Datalog programs
# ---------------------------------------------------------------------------

class TestRandomDatalog:
    @FAST
    @given(program=datalog_programs(), inst=flat_graph_instances())
    def test_strategies_agree(self, program, inst):
        assert_datalog_strategies_agree(program, inst)

    @pytest.mark.slow
    @DEEP
    @given(program=datalog_programs(), inst=flat_graph_instances())
    def test_strategies_agree_deep(self, program, inst):
        assert_datalog_strategies_agree(program, inst)


# ---------------------------------------------------------------------------
# Random supply-chain instances (PR 10): realistic nested values
# ---------------------------------------------------------------------------
#
# The flat-graph draws above never exercise set-valued columns.  Here the
# random differential answers the golden supply-chain inventory — nested
# membership, BOM fixpoints, PFP — over randomly drawn miniature nested
# instances, holding both lanes to identical answers *and* stage counts
# on every (instance, question) pair.

def assert_question_lanes_agree(question, inst):
    from repro.workloads import answer_question

    assert (answer_question(question, inst, strategy="naive")
            == answer_question(question, inst, strategy="seminaive"))


def _inventory_questions():
    from repro.workloads import QUESTIONS

    return st.sampled_from(QUESTIONS)


class TestSupplyChainDifferential:
    @FAST
    @given(inst=supply_chain_instances(), question=_inventory_questions())
    def test_lanes_agree(self, question, inst):
        assert_question_lanes_agree(question, inst)

    @pytest.mark.slow
    @DEEP
    @given(inst=supply_chain_instances(), question=_inventory_questions())
    def test_lanes_agree_deep(self, question, inst):
        assert_question_lanes_agree(question, inst)
