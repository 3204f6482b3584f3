"""Tests for range restriction (Definitions 5.2/5.3, Theorem 5.1;
experiments E14, E15, E16)."""

import pytest

from repro.core.builder import C, V, eq, exists, forall, ifp, member, proj, query, rel
from repro.core.range_restriction import (
    RangeComputationError,
    analyze,
    analyze_query,
    compute_ranges,
    is_range_restricted,
    negate,
    nnf,
)
from repro.core.safety import evaluate_range_restricted, verify_safety
from repro.core.syntax import And, Forall, Implies, Not, Or
from repro.objects import atom, cset, database_schema, instance
from repro.workloads import (
    bipartite_query,
    nest_query,
    nest_query_ifp,
    transitive_closure_query,
    transitive_closure_term_query,
)


@pytest.fixture
def p_schema():
    return database_schema(P=["U", "U"])


@pytest.fixture
def p_instance(p_schema):
    return instance(p_schema, P=[("a", "b"), ("a", "c"), ("b", "c")])


class TestNNF:
    def test_double_negation(self):
        f = rel("P")(V("x", "U"))
        assert nnf(Not(Not(f))) == f

    def test_de_morgan(self):
        a, b = rel("P")(V("x", "U")), rel("Q")(V("x", "U"))
        assert nnf(Not(a & b)) == Or((Not(a), Not(b)))
        assert nnf(Not(a | b)) == And((Not(a), Not(b)))

    def test_quantifier_duality(self):
        f = exists(V("x", "U"), rel("P")(V("x", "U")))
        pushed = negate(f)
        assert isinstance(pushed, Forall)
        assert isinstance(pushed.body, Not)

    def test_implication_expansion(self):
        a, b = rel("P")(V("x", "U")), rel("Q")(V("x", "U"))
        assert nnf(Implies(a, b)) == Or((Not(a), b))
        assert nnf(Not(Implies(a, b))) == And((a, Not(b)))


class TestDefinition52Rules:
    """Each rule of Definition 5.2 exercised in isolation."""

    def _rr(self, formula, schema, **types):
        from repro.objects import parse_type as pt

        resolved = {n: pt(t) if isinstance(t, str) else t
                    for n, t in types.items()}
        return analyze(formula, resolved, frozenset(schema.relation_names))

    def test_rule1_database_atom(self, p_schema):
        f = rel("P")(V("x", "U"), V("y", "U"))
        result = self._rr(f, p_schema, x="U", y="U")
        assert ("x",) in result.restricted
        assert ("y",) in result.restricted

    def test_rules_2_3_projections(self):
        schema = database_schema(R=["[U,{U}]"])
        t = V("t", "[U,{U}]")
        f = rel("R")(t)
        result = self._rr(f, schema, t="[U,{U}]")
        # rule 2: t restricted => t.1, t.2 restricted
        assert ("t", 1) in result.restricted
        assert ("t", 2) in result.restricted

    def test_rule3_components_to_tuple(self, p_schema):
        t = V("t", "[U,U]")
        f = rel("P")(proj(t, 1), proj(t, 2))
        result = self._rr(f, p_schema, t="[U,U]")
        assert ("t",) in result.restricted  # all components restricted

    def test_rule4_equality_constant(self, p_schema):
        f = eq(V("x", "U"), C("a"))
        result = self._rr(f, p_schema, x="U")
        assert ("x",) in result.restricted

    def test_rule4_equality_chaining(self, p_schema):
        x, y = V("x", "U"), V("y", "U")
        f = eq(x, y) & rel("P")(y, y)
        result = self._rr(f, p_schema, x="U", y="U")
        assert ("x",) in result.restricted

    def test_rule4_membership_chaining(self):
        schema = database_schema(R=["{U}"])
        x, s = V("x", "U"), V("s", "{U}")
        f = member(x, s) & rel("R")(s)
        result = self._rr(f, schema, x="U", s="{U}")
        assert ("x",) in result.restricted

    def test_rule5_conjunction_union(self, p_schema):
        x, y = V("x", "U"), V("y", "U")
        f = rel("P")(x, x) & eq(y, C("b"))
        result = self._rr(f, p_schema, x="U", y="U")
        assert {("x",), ("y",)} <= set(result.restricted)

    def test_rule6_disjunction_needs_both(self, p_schema):
        x, y = V("x", "U"), V("y", "U")
        good = rel("P")(x, x) | eq(x, C("a"))
        result = self._rr(good, p_schema, x="U")
        assert ("x",) in result.restricted
        bad = rel("P")(x, x) | rel("P")(y, y)  # x missing from 2nd disjunct
        result = self._rr(bad, p_schema, x="U", y="U")
        assert ("x",) not in result.restricted
        assert ("y",) not in result.restricted

    def test_rule7_universal(self, p_schema):
        y = V("y", "U")
        # forall y (P(y,y) -> P(y,y)): nnf(not body) = P(y,y) and not P(y,y)
        f = forall(y, rel("P")(y, y).implies(rel("P")(y, y)))
        result = self._rr(f, p_schema, y="U")
        assert not result.violations

    def test_rule7_violation(self, p_schema):
        y = V("y", "U")
        f = forall(y, rel("P")(y, y))  # not(P(y,y)) gives y nothing
        result = self._rr(f, p_schema, y="U")
        assert result.violations

    def test_rule8_existential(self, p_schema):
        z = V("z", "U")
        f = exists(z, rel("P")(z, z))
        result = self._rr(f, p_schema, z="U")
        assert not result.violations

    def test_rule8_violation(self, p_schema):
        z = V("z", "U")
        f = exists(z, ~rel("P")(z, z))
        result = self._rr(f, p_schema, z="U")
        assert result.violations

    def test_rule9_nest_pattern(self, p_schema):
        """forall y (y in s <-> P(x, y)) restricts s."""
        x, s, y = V("x", "U"), V("s", "{U}"), V("y", "U")
        f = forall(y, member(y, s).iff(rel("P")(x, y)))
        result = self._rr(f, p_schema, x="U", s="{U}", y="U")
        assert ("s",) in result.restricted

    def test_negation_blocks_restriction(self, p_schema):
        x = V("x", "U")
        f = ~rel("P")(x, x)
        result = self._rr(f, p_schema, x="U")
        assert ("x",) not in result.restricted


class TestPaperExamples:
    def test_example_5_1_nest_is_rr(self, p_schema):
        assert is_range_restricted(nest_query(), p_schema)

    def test_example_5_3_nest_ifp_is_rr(self, p_schema):
        result = analyze_query(nest_query_ifp(), p_schema)
        assert result.is_range_restricted
        assert result.fixpoint_columns["Q"] == frozenset({1})

    def test_example_5_2_tau_star(self):
        """The paper's exact iteration: tau* = {2}, RR(xi) = {y}."""
        schema = database_schema(Pu=["U"])
        x, y, z, t = (V(n, "U") for n in "xyzt")
        phi = (exists(t, rel("S52")(z, x, t) & rel("S52")(t, y, y))
               | (~rel("Pu")(x) & rel("Pu")(y)))
        fix = ifp("S52", [x, y, z], phi)
        q = query([x, y, z], fix(x, y, z))
        result = analyze_query(q, schema)
        assert result.fixpoint_columns["S52"] == frozenset({2})
        assert ("y",) in result.restricted
        assert ("x",) not in result.restricted
        assert ("z",) not in result.restricted
        assert not result.is_range_restricted

    def test_tc_is_rr_with_all_columns(self, set_graph_schema):
        result = analyze_query(transitive_closure_query(), set_graph_schema)
        assert result.is_range_restricted
        assert result.fixpoint_columns["S"] == frozenset({1, 2})

    def test_tc_term_query_is_rr(self, set_graph_schema):
        """Rule 9': x = IFP(...) with all columns restricted."""
        result = analyze_query(transitive_closure_term_query(),
                               set_graph_schema)
        assert result.is_range_restricted

    def test_bipartite_is_not_rr(self, flat_graph_schema):
        result = analyze_query(bipartite_query(), flat_graph_schema)
        assert not result.is_range_restricted
        assert any("X" in v or "Y" in v for v in result.violations)


class TestRangeFunctions:
    """Theorem 5.1: derived ranges make restricted == active-domain."""

    def test_ranges_are_polynomial(self, p_instance):
        report = evaluate_range_restricted(nest_query(), p_instance)
        for name, size in report.range_sizes.items():
            assert size <= p_instance.cardinality * 4, name

    def test_nest_agreement(self, p_instance):
        assert verify_safety(nest_query(), p_instance)

    def test_nest_ifp_agreement(self, p_instance):
        assert verify_safety(nest_query_ifp(), p_instance)

    def test_tc_agreement(self, set_graph_instance):
        assert verify_safety(transitive_closure_query(), set_graph_instance)

    def test_tc_term_query_feasible_only_restricted(self, set_graph_schema):
        """The CALC_2^2 closure-as-object query has a 2^64-element head
        domain on 4 atoms — active-domain evaluation is impossible, the
        derived ranges make it instant (the point of Section 5)."""
        a, b, c, d = (cset(atom(ch)) for ch in "abcd")
        inst = instance(set_graph_schema, G=[(a, b), (b, c), (c, d)])
        report = evaluate_range_restricted(transitive_closure_term_query(),
                                           inst)
        assert len(report.answer) == 1
        (closure,) = next(iter(report.answer)).items
        assert len(closure) == 6  # 3+2+1 reachable pairs

    def test_not_rr_raises(self, flat_graph_schema):
        from repro.workloads import cycle_graph

        with pytest.raises(RangeComputationError):
            compute_ranges(bipartite_query(), cycle_graph(3))

    def test_term_reading_an_enclosing_relation_has_no_range(
            self, set_graph_instance):
        """Q's term reads S, which has rows only within S's stages: the
        query is range restricted, but rule 9' cannot range t, and the
        derivation says so instead of evaluating Q outside S."""
        from repro.core.parser import parse_query

        q = parse_query(
            "{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})](G(x,y) or exists "
            "t:{{U}} (t = ifp[Q(w:{U})](S(x,w) or G(x,w)) and y in t "
            "and G(y,y)))(x,y)}")
        assert is_range_restricted(q, set_graph_instance.schema)
        with pytest.raises(RangeComputationError,
                           match="no range for t: its IFP term on Q reads S"):
            compute_ranges(q, set_graph_instance)

    def test_constants_seed_ranges(self, p_instance):
        x, y = V("x", "U"), V("y", "U")
        q = query([x], eq(x, C("z")) & ~rel("P")(x, x))
        report = evaluate_range_restricted(q, p_instance)
        assert {str(t) for t in report.answer} == {"[z]"}

    def test_equality_chain_ranges(self, p_instance):
        x, y = V("x", "U"), V("y", "U")
        q = query([x], exists(y, eq(x, y) & rel("P")(y, y)))
        # P has no self-loops: empty, but must not error
        report = evaluate_range_restricted(q, p_instance)
        assert report.answer == frozenset()


#: Prints the counters of ``rr-vs-active``'s rr point at n=8 (Example
#: 5.1's nest query under derived ranges) as one JSON line.
_RR_POINT = """
import json
from repro.bench.registry import SUITES
from repro.obs import Tracer, use_tracer
tracer = Tracer()
with use_tracer(tracer):
    SUITES["rr-vs-active"].run(8, "rr")
print(json.dumps(tracer.counters, sort_keys=True))
"""


class TestCanonicalRangeOrder:
    """Quantifiers walk derived ranges in one canonical order, so the
    range-restricted work counters do not depend on set iteration
    order (which varies with the hash seed and from run to run)."""

    def test_ranges_are_listed_in_canonical_order(self, p_instance):
        from repro.objects import value_sort_key

        ranges = compute_ranges(nest_query(), p_instance)
        assert ranges
        for name, values in ranges.items():
            assert values == sorted(set(values), key=value_sort_key), name

    def test_rr_counters_do_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", _RR_POINT],
                                    env=env, capture_output=True,
                                    text=True, check=True)
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, outputs


class TestManyQueriesAgree:
    """Semantic check of Theorem 5.1 across a battery of RR queries."""

    @pytest.mark.parametrize("query_factory", [
        nest_query, nest_query_ifp, transitive_closure_query,
    ])
    def test_on_random_instances(self, query_factory):
        import random

        rng = random.Random(5)
        for trial in range(3):
            if query_factory in (nest_query, nest_query_ifp):
                schema = database_schema(P=["U", "U"])
                atoms = ["a", "b", "c", "d"]
                rows = {(rng.choice(atoms), rng.choice(atoms))
                        for _ in range(rng.randint(1, 6))}
                inst = instance(schema, P=list(rows))
                q = query_factory()
            else:
                schema = database_schema(G=["{U}", "{U}"])
                nodes = [cset(atom(ch)) for ch in "abc"]
                rows = {(rng.choice(nodes), rng.choice(nodes))
                        for _ in range(rng.randint(1, 4))}
                inst = instance(schema, G=list(rows))
                q = query_factory("{U}")
            assert verify_safety(q, inst), (query_factory, trial)


class TestRangeDerivationEvaluations:
    """Rule 9/9' ranges take one value per parameter binding, from one
    evaluation per round; those evaluations share one interned instance
    and let only the evaluator's typed errors drop a value."""

    def test_each_relation_interned_once(self, monkeypatch):
        """calc-order-nest evaluates its IFP term in each of two rounds,
        yet reads (and so interns) ``Order`` once."""
        from repro.objects.intern import InternedInstance
        from repro.workloads import (
            GOLDEN_SEED,
            question_by_name,
            supply_chain_instance,
        )

        first_reads = []
        rows = InternedInstance.rows

        def counting_rows(self, name):
            if name not in self._rows:
                first_reads.append(name)
            return rows(self, name)

        monkeypatch.setattr(InternedInstance, "rows", counting_rows)
        query = question_by_name("calc-order-nest").build()
        compute_ranges(query, supply_chain_instance(1, GOLDEN_SEED))
        assert first_reads == ["Order"]

    def test_evaluator_bug_propagates(self, p_instance, monkeypatch):
        """An untyped error inside the IFP term's evaluation (its lifted
        run, then its per-binding runs) is a bug, not an undefined
        value: it propagates."""
        from repro.core import evaluation

        def broken(*args, **kwargs):
            raise RuntimeError("evaluator bug")

        monkeypatch.setattr(evaluation, "iterate_ifp", broken)
        with pytest.raises(RuntimeError, match="evaluator bug"):
            compute_ranges(nest_query_ifp(), p_instance)

    def test_diverging_pfp_term_only_leaves_its_value_out(self):
        """``s = PFP(P(x, y) ∧ (¬Q(y) ∨ D(x)), Q)`` flips forever for
        x = a (no D(a)) and converges to {c} for x = b."""
        from repro.core.builder import pfp

        x, y, s = V("x", "U"), V("y", "U"), V("s", "{U}")
        y2 = V("y2", "U")
        Q = rel("Q")
        term = pfp("Q", [y2], rel("P")(x, y2) & (~Q(y2) | rel("D")(x)))
        q = query([x, s], exists(y, rel("P")(x, y)) & eq(s, term.as_term()))
        inst = instance(database_schema(P=["U", "U"], D=["U"]),
                        P=[("a", "c"), ("b", "c")], D=[("b",)])
        ranges = compute_ranges(q, inst)
        assert ranges["s"] == [cset(atom("c"))]
        assert ranges["x"] == [atom("a"), atom("b")]
