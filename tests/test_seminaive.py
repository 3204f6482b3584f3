"""Stage-count regressions for the delta-driven strategy (PR 3).

The semi-naive claim is quantitative, not just behavioural: on a chain
graph the delta-rewritten Datalog TC derives each closure edge exactly
once (O(n) fresh rows per stage, O(n^2) total work), where the naive
strategy re-derives the whole closure every stage (O(n^3) total).
These tests pin the exact derivation counts via the obs counters, so a
regression in the rewrite (e.g. a delta variant reading the full IDB)
shows up as a count change, not a silent slowdown.  The semi-naive
engine runs over interned ids with indexed joins, so its index-probe and
interned-value counts are pinned here too, as is the work the calculus
engine's join kernel saves (ratios against the naive oracle).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import calc_queries, flat_graph_instances
from repro.core.builder import V, eq, exists, forall, rel
from repro.core.builder import query as build_query
from repro.core.evaluation import Evaluator, evaluate
from repro.core.fixpoint import PFPDivergenceError
from repro.datalog import Literal, Program, Rule, evaluate_inflationary
from repro.obs import Tracer, use_tracer
from repro.workloads import (
    GOLDEN_SEED,
    answer_question,
    chain_graph,
    cycle_graph,
    question_by_name,
    supply_chain_instance,
    transitive_closure_query,
)


def tc_program() -> Program:
    return Program(
        [Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
         Rule(Literal("T", ["x", "y"]),
              [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])])],
        idb_types={"T": ["U", "U"]},
    )


def _closure_size(n: int) -> int:
    return n * (n - 1) // 2


def _datalog_counters(n: int, strategy: str = "seminaive") -> dict:
    tracer = Tracer()
    with use_tracer(tracer):
        result = evaluate_inflationary(tc_program(), chain_graph(n),
                                       strategy=strategy)
    assert len(result["T"]) == _closure_size(n)
    return dict(tracer.counters)


class TestDatalogDerivationCounts:
    def test_seminaive_derives_each_row_exactly_once(self):
        """chain_graph(64) at default arguments: 2016 closure rows, 2016
        derivations, zero duplicate hits — the headline guarantee of the
        delta rewrite — and only the 64 chain atoms interned."""
        counters = _datalog_counters(64)
        assert counters["datalog.rows_derived"] == 2016
        assert counters["datalog.delta_rows"] == 2016
        assert "datalog.dedup_hits" not in counters
        assert counters["datalog.refires_avoided"] > 0
        assert counters["space.interned_values"] == 64

    def test_index_probes_bounded_by_closure(self):
        """chain_graph(64): the planner scans Δ::T and probes the
        (persistent) G index on its bound position, so the recursive
        rule costs exactly one probe per derived closure row — 2016
        probes against one index build.  A scanning join would touch
        ~|G| rows per delta row: 63 * 2016 = 127,008 row visits."""
        counters = _datalog_counters(64)
        assert counters["eval.index_builds"] == 1
        assert counters["eval.index_probes"] == _closure_size(64) == 2016

    def test_a_join_that_matches_nothing_builds_no_index(self):
        """``T(x, y) :- E(x), G(x, y)`` with E empty: the plan scans E
        first (the smaller row set), and its empty batch ends the plan
        before G's index is built or probed."""
        from repro.objects import database_schema, instance

        inst = instance(database_schema(G=["U", "U"], E=["U"]),
                        G=[("a", "b"), ("b", "c")], E=[])
        program = Program(
            [Rule(Literal("T", ["x", "y"]),
                  [Literal("E", ["x"]), Literal("G", ["x", "y"])])],
            idb_types={"T": ["U", "U"]},
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = evaluate_inflationary(program, inst)
        assert result["T"] == frozenset()
        assert "eval.index_builds" not in tracer.counters
        assert "eval.index_probes" not in tracer.counters

    def test_probe_count_scales_with_closure_not_product(self):
        small = _datalog_counters(16)
        large = _datalog_counters(32)
        assert small["eval.index_probes"] == _closure_size(16)
        assert large["eval.index_probes"] == _closure_size(32)
        assert small["space.interned_values"] == 16
        assert large["space.interned_values"] == 32

    def test_naive_rederives_quadratically(self):
        """The naive strategy re-fires settled rows every stage: on a
        chain of n nodes it touches sum-of-closure-prefixes many rows,
        strictly more than the closure itself from n=3 on."""
        n = 16
        naive = _datalog_counters(n, "naive")
        seminaive = _datalog_counters(n, "seminaive")
        closure = _closure_size(n)
        assert seminaive["datalog.rows_derived"] == closure
        assert naive["datalog.rows_derived"] > 3 * closure
        assert naive["datalog.dedup_hits"] > 0
        # Identical stage counts: the rewrite changes work, not states.
        assert naive["ifp.stages"] == seminaive["ifp.stages"]

    def test_refires_avoided_grows_with_chain_length(self):
        small = _datalog_counters(8, "seminaive")
        large = _datalog_counters(16, "seminaive")
        assert (large["datalog.refires_avoided"]
                > small["datalog.refires_avoided"])


#: Semi-naive work per ``.dl`` inventory question at scale 1
#: (``GOLDEN_SEED``): ``(datalog.rows_derived, datalog.delta_rows,
#: datalog.dedup_hits, datalog.refires_avoided, ifp.stages)``.  The
#: rows derived are the satisfying bindings of each fired rule body, so
#: none of these depends on the order a join plan takes.
SEMINAIVE_WORK = {
    "parts-electronics": (8, 8, 0, 8, 2),
    "cert-iso9001": (13, 13, 0, 13, 2),
    "dual-cert": (3, 3, 0, 3, 2),
    "uncertified-parts": (10, 10, 0, 10, 2),
    "tier1-suppliers": (1, 1, 0, 1, 2),
    "suppliers-of-part": (2, 2, 0, 2, 2),
    "apex-components": (3, 3, 0, 3, 2),
    "customers-emea": (1, 1, 0, 1, 2),
    "orders-of-customer": (10, 10, 0, 10, 2),
    "parts-ordered-emea": (9, 9, 0, 9, 2),
    "low-stock": (34, 34, 0, 34, 2),
    "electronics-suppliers": (16, 5, 11, 5, 2),
    "co-suppliers": (80, 20, 60, 20, 2),
    "itar-suppliers": (16, 5, 11, 5, 2),
    "high-stock-assemblies": (8, 7, 1, 7, 2),
    "bom-closure": (102, 102, 0, 216, 4),
    "bom-explosion-apex": (39, 39, 0, 54, 4),
    "where-used-leaf": (3, 3, 0, 6, 4),
    "upstream-of-s0000": (6, 4, 2, 6, 3),
    "supplier-network-closure": (10, 8, 2, 14, 3),
    "itar-exposure": (24, 17, 7, 41, 4),
    "reach-exposed-customers": (67, 27, 40, 88, 5),
    "apex-component-suppliers": (117, 44, 73, 63, 4),
    "shared-subcomponents": (282, 144, 138, 384, 5),
}


def _question_counters(name: str, scale: int) -> dict:
    inst = supply_chain_instance(scale, GOLDEN_SEED)
    return _counters(lambda: answer_question(question_by_name(name), inst))


class TestQuestionWork:
    def test_every_datalog_question_is_pinned(self):
        from repro.workloads import QUESTIONS

        assert sorted(SEMINAIVE_WORK) == sorted(
            q.name for q in QUESTIONS if q.kind == "datalog")

    @pytest.mark.parametrize("name", sorted(SEMINAIVE_WORK))
    def test_seminaive_work_at_scale_1(self, name):
        counters = _question_counters(name, 1)
        assert tuple(counters.get(counter, 0) for counter in (
            "datalog.rows_derived", "datalog.delta_rows",
            "datalog.dedup_hits", "datalog.refires_avoided",
            "ifp.stages")) == SEMINAIVE_WORK[name]

    def test_where_used_leaf_probes_do_not_grow_with_scale(self):
        """The delta variant ``A(x) :- BOM(x, z), Δ::A(z)`` scans the
        delta and probes ``BOM`` on ``z``, so the index work follows
        the 3 rows derived, not the size of ``BOM``."""
        small = _question_counters("where-used-leaf", 8)
        large = _question_counters("where-used-leaf", 32)
        assert small["eval.index_probes"] == large["eval.index_probes"]
        assert small["datalog.rows_derived"] == 3


class TestCalcDeltaCounters:
    def _counters(self, n: int, strategy: str) -> dict:
        tracer = Tracer()
        with use_tracer(tracer):
            result = evaluate(transitive_closure_query("U"), chain_graph(n),
                              strategy=strategy)
        assert len(result) == _closure_size(n)
        return dict(tracer.counters)

    def test_delta_rows_match_closure(self):
        """Semi-naive calculus TC: every closure row enters the fixpoint
        as a delta row exactly once.  On a chain the ``Δ::S`` join never
        re-derives a settled row; on a cycle it does, and skips it."""
        counters = self._counters(8, "seminaive")
        assert counters["eval.delta_rows"] == _closure_size(8)
        assert "eval.stage_skips" not in counters
        tracer = Tracer()
        with use_tracer(tracer):
            evaluate(transitive_closure_query("U"), cycle_graph(8))
        assert tracer.counters["eval.delta_rows"] == 8 * 8
        assert tracer.counters["eval.stage_skips"] > 0

    def test_naive_has_no_delta_counters(self):
        counters = self._counters(8, "naive")
        assert "eval.delta_rows" not in counters
        assert "eval.stage_skips" not in counters

    def test_stage_counts_identical(self):
        naive = self._counters(8, "naive")
        seminaive = self._counters(8, "seminaive")
        assert naive["ifp.stages"] == seminaive["ifp.stages"]
        assert naive["eval.fixpoint_stages"] == seminaive["eval.fixpoint_stages"]


class TestSatisfyMemo:
    def test_closed_subformula_memoized(self):
        """A quantified subformula over EDB relations only is evaluated
        once per binding of its free variables and served from the memo
        for every other outer binding: inside the residual ``∀w``, the
        ``∃z`` on ``w = d`` recurs for ``y = b`` and ``y = c``."""
        from repro.objects import database_schema, instance

        inst = instance(database_schema(G=["U", "U"]),
                        G=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                           ("d", "a")])
        x, y, z, w = V("x", "U"), V("y", "U"), V("z", "U"), V("w", "U")
        q = build_query([x, y], rel("G")(x, y) & forall(
            w, rel("G")(y, w).implies(exists(z, rel("G")(w, z)))))
        evaluator = Evaluator(inst.schema, strategy="seminaive")
        evaluator.evaluate(q, inst)
        assert evaluator.last_stats["satisfy_memo_hits"] > 0

    def test_naive_never_memoizes(self):
        inst = chain_graph(4)
        x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
        q = build_query([x, y], rel("G")(x, y) & exists(z, eq(z, z)))
        evaluator = Evaluator(inst.schema, strategy="naive")
        evaluator.evaluate(q, inst)
        assert evaluator.last_stats["satisfy_memo_hits"] == 0


def _counters(run) -> dict:
    tracer = Tracer()
    with use_tracer(tracer):
        try:
            run()
        except PFPDivergenceError:
            pass
    return dict(tracer.counters)


class TestGuardedExists:
    """The seminaive join kernel takes values from candidate lists only
    for variables no join literal binds, walking their product once per
    firing, where the naive oracle walks every candidate of every
    variable."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(query=st.one_of(calc_queries("ifp"), calc_queries("pfp")),
           inst=flat_graph_instances())
    def test_never_iterates_more_than_naive(self, query, inst):
        naive = _counters(lambda: evaluate(query, inst, strategy="naive"))
        seminaive = _counters(lambda: evaluate(query, inst))
        assert (seminaive.get("eval.quantifier_iterations", 0)
                <= naive.get("eval.quantifier_iterations", 0))

    @pytest.mark.parametrize("name,probes", [("calc-bom-tc", True),
                                             ("calc-order-nest", False)])
    def test_inventory_question_iterates_5x_less(self, name, probes):
        """calc-bom-tc's closure probes BOM; calc-order-nest's IFP term
        runs lifted, scanning Order once instead of probing it per
        customer."""
        question = question_by_name(name)
        inst = supply_chain_instance(1, GOLDEN_SEED)
        naive = _counters(
            lambda: answer_question(question, inst, strategy="naive"))
        seminaive = _counters(lambda: answer_question(question, inst))
        assert (seminaive.get("eval.index_probes", 0) > 0) == probes
        assert (5 * seminaive.get("eval.quantifier_iterations", 0)
                <= naive["eval.quantifier_iterations"])
