"""Differential tests: the naive oracle vs the production engine.

The production engine — delta-driven semi-naive evaluation over
interned ids with indexed joins — is only an optimisation: on every
query it must produce the same answer, the same stage count and the
same divergence behaviour as the naive re-derive-everything object
engine.  This suite checks that on:

* every canonical workload query over its worked instances,
* randomly generated CALC+IFP and CALC+PFP queries (hypothesis), under
  active-domain semantics and under randomly restricted ranges,
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
from repro.core.builder import V, exists, ifp, pfp, rel
from repro.core.builder import query as build_query
from repro.core.evaluation import EvalError, Evaluator, active_atoms, evaluate
from repro.core.fixpoint import PFPDivergenceError
from repro.core.typecheck import check_query
from repro.datalog import (
    Program,
    evaluate_inflationary,
    evaluate_partial,
    inflationary_stages,
)
from repro.objects import Atom, CTuple
from repro.objects.domains import DomainTooLarge
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
# Fixpoints with parameters: stage totals
# ---------------------------------------------------------------------------

class TestParameterizedFixpointStages:
    """A fixpoint adds stages for every distinct parameter binding that
    reaches it, so the production engine must reach it exactly where the
    oracle does, and both must re-evaluate it only when an enclosing
    relation its body reads has changed."""

    def test_fixpoint_parameter_bound_by_exists(self):
        """``∃z (S_z(x) ∧ G(x, z))``: the oracle tries every z of the
        range at the fixpoint, whatever G holds."""
        x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
        G = rel("G")
        q = build_query([x], exists(z, ifp("S", [y], G(z, y))(x) & G(x, z)))
        assert _calc_outcome(q, chain_graph(5), "naive") == \
            (("ok", frozenset()), (9, 0))
        assert_calc_strategies_agree(q, chain_graph(5))

    def test_inner_fixpoint_ignores_unread_outer_relation(self):
        """R (parameter x) never reads the enclosing S, so it is not
        re-evaluated when S grows: 17 stages in both lanes."""
        x, y, z, z2, w = (V(name, "U") for name in ("x", "y", "z", "z2",
                                                    "w"))
        G = rel("G")
        R = ifp("R", [w], G(x, w) | exists(z2, rel("R")(z2) & G(z2, w)))
        S = ifp("S", [x, y],
                G(x, y) | (exists(z, rel("S")(x, z) & G(z, y)) & R(y)))
        q = build_query([x, y], S(x, y))
        outcome = _calc_outcome(q, chain_graph(5), "naive")
        assert outcome[0][0] == "ok" and outcome[1] == (17, 0)
        assert_calc_strategies_agree(q, chain_graph(5))


# ---------------------------------------------------------------------------
# Enumeration caps: raised where the oracle's walk reaches the quantifier
# ---------------------------------------------------------------------------

def _capped_outcome(query, inst, strategy, caps):
    try:
        evaluator = Evaluator(inst.schema, strategy=strategy, **caps)
        return ("ok", evaluator.evaluate(query, inst))
    except (EvalError, DomainTooLarge) as error:
        return (type(error).__name__, str(error))


def _set_relation_instance(g_rows):
    """Atoms a, b, c: ``|dom(U)| = 3`` and ``|dom({U})| = 8``."""
    from repro.objects import database_schema, instance

    schema = database_schema(R=["U", "{U}"], G=["U", "U"])
    return instance(schema, G=g_rows,
                    R=[("a", frozenset({"b"})), ("c", frozenset())])


CAPS = [pytest.param({"max_product": 4}, id="max_product"),
        pytest.param({"max_domain_size": 4}, id="max_domain_size")]


class TestCapsWhereTheOracleReaches:
    """``∃s:{U}`` has more candidates than the caps allow, the head's
    ``x:U`` fewer.  The oracle enumerates s, and so raises, only where
    its walk reaches the ``∃``: behind a conjunct that holds, or a
    disjunct that fails.  A join over R(x, s) would bind s on its own."""

    x, s = V("x", "U"), V("s", "{U}")
    SHAPES = [
        pytest.param(build_query([x], rel("G")(x, x)
                                 & exists(s, rel("R")(x, s))),
                     id="behind-a-conjunct"),
        pytest.param(build_query([x], ~rel("G")(x, x)
                                 | exists(s, rel("R")(x, s))),
                     id="in-a-later-disjunct"),
    ]

    @pytest.mark.parametrize("caps", CAPS)
    @pytest.mark.parametrize("query", SHAPES)
    def test_unreached_exists_raises_nothing(self, query, caps):
        inst = _set_relation_instance([("a", "b")])
        naive = _capped_outcome(query, inst, "naive", caps)
        assert naive[0] == "ok"
        assert _capped_outcome(query, inst, "seminaive", caps) == naive

    @pytest.mark.parametrize("caps", CAPS)
    @pytest.mark.parametrize("query", SHAPES)
    def test_reached_exists_raises_on_both_lanes(self, query, caps):
        """G(a, a) lets the walk reach the ``∃`` at x = a."""
        inst = _set_relation_instance([("a", "b"), ("a", "a")])
        naive = _capped_outcome(query, inst, "naive", caps)
        assert naive[0] in ("EvalError", "DomainTooLarge")
        assert _capped_outcome(query, inst, "seminaive", caps) == naive

    @pytest.mark.parametrize("caps", CAPS)
    def test_residual_ahead_of_a_join_is_reached(self, caps):
        """``¬∃s R(x, s) ∧ G(x, x)``: the walk reaches the ``∃`` for
        every x, though no G(x, x) row would survive a join."""
        x, s = self.x, self.s
        query = build_query([x], ~exists(s, rel("R")(x, s))
                            & rel("G")(x, x))
        inst = _set_relation_instance([("a", "b")])
        naive = _capped_outcome(query, inst, "naive", caps)
        assert naive[0] in ("EvalError", "DomainTooLarge")
        assert _capped_outcome(query, inst, "seminaive", caps) == naive


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
# Restricted ranges (Section 5)
# ---------------------------------------------------------------------------
#
# Under active-domain semantics every relation value is in range, so the
# draws above cannot tell a guarded ∃ (witnesses from an index probe on
# a relation conjunct) that forgets to intersect with the variable's
# range from one that does.  Here every variable ranges over a chosen
# set of atoms instead.

def _restricted_outcome(query, inst, ranges, strategy):
    evaluator = Evaluator(inst.schema, variable_ranges=ranges,
                          strategy=strategy)
    return _outcome(lambda: evaluator.evaluate(query, inst))


def assert_restricted_strategies_agree(query, inst, ranges):
    naive = _restricted_outcome(query, inst, ranges, "naive")
    assert naive == _restricted_outcome(query, inst, ranges, "seminaive")
    return naive


def _seminaive_counters(query, inst, ranges):
    tracer = Tracer()
    with use_tracer(tracer):
        Evaluator(inst.schema, variable_ranges=ranges).evaluate(query, inst)
    return tracer.counters


def _squaring_closure(build_fixpoint):
    """Transitive closure by squaring: in ∃z (S(x, z) ∧ S(z, y)) every
    guard is the fixpoint's own relation, whose rows change per stage
    (the PFP variant re-asserts S so that it converges)."""
    x, y, z = V("x", "U"), V("y", "U"), V("z", "U")
    S = rel("S")
    body = rel("G")(x, y) | exists(z, S(x, z) & S(z, y))
    if build_fixpoint is pfp:
        body = S(x, y) | body
    return build_query([x, y], build_fixpoint("S", [x, y], body)(x, y))


def _rg_instance(**relations):
    """An instance of ``R[U,U,U]`` and ``G[U,U]`` (empty unless given)."""
    from repro.objects import database_schema, instance

    schema = database_schema(R=["U", "U", "U"], G=["U", "U"])
    return instance(schema, **{"R": [], "G": [], **relations})


class TestRestrictedRanges:
    def test_guard_witness_outside_range_is_not_tried(self):
        """G(a, b) makes b a witness of z, but z's range is empty: the
        join stops at z's empty candidate list, before reading G."""
        inst = _rg_instance(G=[("a", "b")])
        x, z = V("x", "U"), V("z", "U")
        q = build_query([x], exists(z, rel("G")(x, z)))
        ranges = {"x": {Atom("a")}, "z": set()}
        assert assert_restricted_strategies_agree(q, inst, ranges) \
            == (("ok", frozenset()), (0, 0))
        assert "eval.index_probes" not in _seminaive_counters(q, inst,
                                                              ranges)

    def test_guard_on_enclosing_fixpoint_relation(self):
        """Squaring joins S with S, whose rows change every stage: each
        Δ::S row whose z lies in z's range probes an index on the
        stage's S, once per delta variant.  Stage 2 reads the 8 edges:
        4 have their target in range and 4 their source, so 8 probes
        over 2 indexes of stage-2 S (one per probed column).  Stage 3's
        3 delta rows are pairs of odd atoms, none in range, so it
        probes, and builds, nothing."""
        inst = chain_graph(9)
        atoms = sorted(inst.atoms(), key=repr)
        q = _squaring_closure(ifp)
        ranges = {"x": atoms, "y": atoms, "z": atoms[::2]}
        outcome = assert_restricted_strategies_agree(q, inst, ranges)
        assert outcome[0][0] == "ok" and outcome[0][1]
        counters = _seminaive_counters(q, inst, ranges)
        assert counters["eval.delta_rows"] == 11
        assert counters["eval.index_builds"] == 2
        assert counters["eval.index_probes"] == 8

    def test_nested_exists_chain(self):
        """∃o ∃p (R(o, c, p) ∧ G(p, o)): the outer ∃o is guarded by R on
        c alone (p is bound inside the chain), the inner ∃p by R on o
        and c; o's range drops the only witness that makes c1 true."""
        o1, o2, o3, c1, c2, p1, p2 = (
            Atom(label) for label in ("o1", "o2", "o3", "c1", "c2",
                                      "p1", "p2"))
        inst = _rg_instance(R=[(o1, c1, p1), (o2, c1, p2), (o3, c2, p2)],
                            G=[(p1, o1), (p2, o3)])
        c, o, p = V("c", "U"), V("o", "U"), V("p", "U")
        q = build_query([c], exists([o, p],
                                    rel("R")(o, c, p) & rel("G")(p, o)))
        full = {"c": {c1, c2}, "o": {o1, o2, o3}, "p": {p1, p2}}
        assert assert_restricted_strategies_agree(q, inst, full)[0] == \
            ("ok", frozenset({CTuple([c1]), CTuple([c2])}))
        restricted = {**full, "o": {o2, o3}}
        assert assert_restricted_strategies_agree(q, inst, restricted)[0] \
            == ("ok", frozenset({CTuple([c2])}))

    def test_repeated_variable_in_guard(self):
        """R(x, z, z): the probe yields z's values from one position and
        the body check rejects rows whose two z positions differ."""
        a, b, c, d = (Atom(label) for label in "abcd")
        inst = _rg_instance(R=[(a, b, c), (d, c, c)])
        x, z = V("x", "U"), V("z", "U")
        q = build_query([x], exists(z, rel("R")(x, z, z)))
        ranges = {"x": {a, b, c, d}, "z": {a, b, c, d}}
        assert assert_restricted_strategies_agree(q, inst, ranges)[0] == \
            ("ok", frozenset({CTuple([d])}))


def _draw_ranges(data, query, inst):
    """Each variable's range: the active atoms minus a drawn subset.
    Hypothesis favours small draws, so most ranges lose a few atoms —
    the case where a relation value falls outside a range."""
    atoms = active_atoms(inst)
    removed = (st.frozensets(st.sampled_from(atoms)) if atoms
               else st.just(frozenset()))
    names = sorted(check_query(query, inst.schema).variable_types)
    return {name: frozenset(atoms) - data.draw(removed, label=name)
            for name in names}


class TestRandomRestrictedCalc:
    @FAST
    @given(query=calc_queries("ifp"), inst=flat_graph_instances(),
           data=st.data())
    def test_ifp_strategies_agree(self, query, inst, data):
        assert_restricted_strategies_agree(
            query, inst, _draw_ranges(data, query, inst))

    @FAST
    @given(query=calc_queries("pfp"), inst=flat_graph_instances(),
           data=st.data())
    def test_pfp_strategies_agree(self, query, inst, data):
        assert_restricted_strategies_agree(
            query, inst, _draw_ranges(data, query, inst))

    @FAST
    @given(query=st.sampled_from([
               transitive_closure_query("U"),
               pfp_transitive_closure_query("U"),
               _squaring_closure(ifp),
               _squaring_closure(pfp),
           ]),
           inst=flat_graph_instances(), data=st.data())
    def test_guarded_closures_agree(self, query, inst, data):
        """Few drawn queries have a guarded ∃; every closure stage does,
        guarded by an instance relation or by the fixpoint's own."""
        assert_restricted_strategies_agree(
            query, inst, _draw_ranges(data, query, inst))


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
# Join plans: index lifetimes and where errors surface
# ---------------------------------------------------------------------------
# The semi-naive lane keeps IDB indexes for a whole inflationary run and
# appends each stage's fresh rows to them, while partial semantics gets
# a fresh IDB pool per stage.  Each case below probes an IDB literal on a
# bound key, so a stale index changes what the lane derives.

def _rules(*rules: str) -> Program:
    """A program over IDB ``T[U,U]`` (and ``Q[U,U]``) from rule texts."""
    from repro.datalog import parse_program

    program, _ = parse_program(
        "idb T(U, U).\nidb Q(U, U).\n" + "\n".join(rules))
    return program


#: Right-linear TC: ``T`` is probed on its first position whenever the
#: plan scans ``G`` first (every stage in which ``|G| <= |T|``).
RIGHT_TC = ("T(x, y) :- G(x, y).", "T(x, y) :- G(x, z), T(z, y).")
#: Doubling TC: each delta variant probes the full ``T`` on ``z``.
DOUBLING_TC = ("T(x, y) :- G(x, y).", "T(x, y) :- T(x, z), T(z, y).")
#: Pairs sharing a reachable node: ``T`` probed on ``z``.
SHARED = RIGHT_TC + ("Q(a, b) :- T(a, z), T(b, z), a != b.",)


def _run_counters(run, *names: str) -> tuple:
    """The answer of ``run()`` and the named counters."""
    tracer = Tracer()
    with use_tracer(tracer):
        answer = run()
    return answer, [tracer.counters.get(name) for name in names]


#: Under partial semantics both lanes fire every rule every stage.
PARTIAL_COUNTERS = ("pfp.stages", "datalog.rows_derived",
                    "datalog.dedup_hits")


class TestIndexLifetimes:
    @pytest.mark.parametrize("rules", [RIGHT_TC, SHARED],
                             ids=["right-tc", "shared"])
    def test_partial_gets_a_fresh_idb_pool_per_stage(self, rules):
        program, inst = _rules(*rules), chain_graph(6)
        naive = _run_counters(
            lambda: evaluate_partial(program, inst, strategy="naive"),
            *PARTIAL_COUNTERS)
        seminaive = _run_counters(
            lambda: evaluate_partial(program, inst, strategy="seminaive"),
            *PARTIAL_COUNTERS)
        assert len(naive[0]["T"]) == 15
        assert naive == seminaive

    def test_inflationary_appends_fresh_rows_to_idb_indexes(self):
        program, inst = _rules(*DOUBLING_TC), chain_graph(8)
        naive = _run_counters(
            lambda: evaluate_inflationary(program, inst, strategy="naive"),
            "ifp.stages")
        seminaive = _run_counters(
            lambda: evaluate_inflationary(program, inst,
                                          strategy="seminaive"),
            "ifp.stages")
        assert len(naive[0]["T"]) == 28
        assert naive == seminaive

    def test_inflationary_stages_see_appended_rows(self):
        program, inst = _rules(*DOUBLING_TC), chain_graph(8)
        assert (list(inflationary_stages(program, inst, strategy="naive"))
                == list(inflationary_stages(program, inst,
                                            strategy="seminaive")))


def _graph_with_h(g_rows, e_rows):
    from repro.objects import database_schema, instance

    schema = database_schema(G=["U", "U"], E=["U"], H=["U", "U"])
    return instance(schema, G=g_rows, E=e_rows, H=[("a", "b")])


#: Every entry point, run to completion.
ENTRY_POINTS = [
    pytest.param(lambda p, i, s: evaluate_inflationary(p, i, strategy=s),
                 id="inflationary"),
    pytest.param(lambda p, i, s: evaluate_partial(p, i, strategy=s),
                 id="partial"),
    pytest.param(lambda p, i, s: list(inflationary_stages(p, i, strategy=s)),
                 id="stages"),
]


class TestErrorsDoNotDependOnJoinOrder:
    """Malformed programs raise before the first stage and unsafe bodies
    raise exactly when a binding reaches them — on both lanes, whatever
    order the join takes."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("strategy", ("naive", "seminaive"))
    def test_unknown_relation_behind_an_empty_join(self, entry, strategy):
        from repro.objects import SchemaError

        program = _rules("Q(x, x) :- G(x, y), Zzz(x).")
        with pytest.raises(SchemaError):
            entry(program, _graph_with_h([], []), strategy)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("strategy", ("naive", "seminaive"))
    def test_wrong_arity_behind_an_empty_join(self, entry, strategy):
        from repro.datalog import DatalogError

        program = _rules("Q(x, x) :- G(x, y), H(x, 'a', 'b').")
        with pytest.raises(DatalogError, match="arity"):
            entry(program, _graph_with_h([], []), strategy)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_unsafe_only_past_an_empty_join(self, entry):
        from repro.datalog import DatalogError

        # `w` is bound by nothing: unsafe once G ⋈ E has a binding.
        program = _rules("Q(x, y) :- G(x, y), E(y), not H(x, w).")
        quiet = _graph_with_h([("a", "b")], [("c",)])
        assert (entry(program, quiet, "naive")
                == entry(program, quiet, "seminaive"))
        loud = _graph_with_h([("a", "b")], [("b",)])
        messages = []
        for strategy in ("naive", "seminaive"):
            with pytest.raises(DatalogError, match="unsafe rule") as error:
                entry(program, loud, strategy)
            messages.append(str(error.value))
        assert messages[0] == messages[1]


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
