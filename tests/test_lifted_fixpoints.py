"""Lifted parameterised fixpoints: one run with the parameters as
columns, nested, in place of one run per binding.

The proof of Theorem 5.1 gives a fixpoint term's range (rule 9') and a
nest pattern's range (rule 9) one value per parameter binding; the
seminaive engine computes them set at a time, as Example 5.3 does, and
so does the answer's evaluation of an IFP whose parameters range over
derived ranges.  Pinned here:

* the derived ranges equal a reference that evaluates every binding on
  its own, on the naive oracle, round by round as the derivation does;
  with no fixpoint inside a nest pattern, so do the stage counts, and
  traced and untraced counts always agree;
* the three shapes that stay per binding (a parameter re-bound inside
  the body, a body reading an enclosing fixpoint's relation, a PFP
  term) keep their per-binding values and stages, and run no lifted
  fixpoint.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import flat_graph_instances
from repro.core.builder import V, eq, exists, forall, ifp, member, pfp, query, rel
from repro.core.evaluation import EvalError, Evaluator
from repro.core.fixpoint import FixpointError
from repro.core.range_restriction import (
    _Analyzer,
    _RangeComputer,
    compute_ranges,
    derive_ranges,
)
from repro.core.safety import evaluate_range_restricted
from repro.core.syntax import FixpointTerm
from repro.core.typecheck import check_query
from repro.objects import (
    CSet,
    CTuple,
    atom,
    cset,
    database_schema,
    instance,
    parse_type,
)
from repro.objects.domains import DomainTooLarge
from repro.obs import Tracer, use_tracer
from repro.objects.intern import ValueStore
from repro.workloads import (
    GOLDEN_SEED,
    answer_question,
    question_by_name,
    supply_chain_instance,
)


# ---------------------------------------------------------------------------
# The per-binding reference
# ---------------------------------------------------------------------------

class _PerBinding(_RangeComputer):
    """The range derivation with rules 9 and 9' evaluated one binding at
    a time, each on a fresh naive evaluator over the current ranges.
    ``rows_derived`` adds up the fixpoint terms' rows: what the
    seminaive engine counts as ``eval.delta_rows`` for them."""

    rows_derived = 0

    def _naive(self) -> Evaluator:
        return Evaluator(self.instance.schema,
                         variable_ranges=self.variable_ranges(),
                         strategy="naive")

    def _count(self, evaluator: Evaluator) -> None:
        if evaluator.last_stats is not None:
            self.stages += evaluator.last_stats["fixpoint_stages"]

    def _bindings(self, names):
        ranges = self.variable_ranges()
        if all(name in ranges for name in names):
            for values in itertools.product(*(ranges[n] for n in names)):
                yield dict(zip(names, values))

    def _flow_fixpoint_term(self, path, term: FixpointTerm) -> None:
        fixpoint = term.fixpoint
        names = sorted(var.name for var in fixpoint.parameters())
        for env in list(self._bindings(names)):
            evaluator = self._naive()
            try:
                rows = evaluator.evaluate_fixpoint(fixpoint, self.instance,
                                                   env)
            except (EvalError, DomainTooLarge, FixpointError):
                continue
            finally:
                self._count(evaluator)
            self.rows_derived += len(rows)
            self.add(path, (CSet(row[0] if fixpoint.arity == 1
                                 else CTuple(row) for row in rows),))

    def _collect_rule9(self, formula) -> None:
        pattern = _Analyzer._match_rule9(formula.body, formula.var.name)
        if pattern is None:
            return
        container, phi = pattern
        y = formula.var.name
        names = sorted(name for name in phi.free_variables() if name != y)
        ranges = self.variable_ranges()
        if y not in ranges:
            return
        for env in list(self._bindings(names)):
            members = []
            for candidate in ranges[y]:
                evaluator = self._naive()
                try:
                    if evaluator.evaluate_formula(
                            phi, self.instance, {**env, y: candidate},
                            {name: self.variable_types[name]
                             for name in phi.free_variables()}):
                        members.append(candidate)
                finally:
                    self._count(evaluator)
            self.add(container, (CSet(members),))


def _reference(q, inst):
    report = check_query(q, inst.schema)
    computer = _PerBinding(inst, report.variable_types,
                           frozenset(inst.schema.relation_names))
    computer.run(q.body)
    ranges = computer.variable_ranges()
    for name in report.variable_types:
        ranges.setdefault(name, [])
    return ranges, computer.stages, computer.rows_derived


def _traced(run):
    """``run()`` under a tracer, with the stages and delta rows it
    counted."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = run()
    counters = tracer.counters
    return result, (counters.get("ifp.stages", 0)
                    + counters.get("pfp.stages", 0),
                    counters.get("eval.delta_rows", 0))


# ---------------------------------------------------------------------------
# Random parameterised IFP terms and nest patterns over a flat graph
# ---------------------------------------------------------------------------

G = rel("G")


@st.composite
def lifted_queries(draw):
    """``{[x, (x2,) s] | guard ∧ s = IFP[Q(y)](φ)}`` (rule 9') or
    ``{[x, (x2,) s] | guard ∧ ∀y (y ∈ s ↔ φ)}`` (rule 9): range
    restricted by construction, with one or two parameters, and with
    recursion through Q, negation and, in a nest pattern, a transitive
    closure predicate.  Returns the query and whether a nest pattern
    holds a fixpoint."""
    params = [V("x", "U")] + ([V("x2", "U")] if draw(st.booleans()) else [])
    y, Q = V("y", "U"), rel("Q")
    term = draw(st.booleans())
    fresh = itertools.count(1)
    closures = []

    def disjunct():
        p = draw(st.sampled_from(params))
        w = V(f"w{next(fresh)}", "U")
        shapes = ["out", "in", "two-hops", "not-back"]
        shapes += ["recursive", "grown"] if term else ["closure"]
        shape = draw(st.sampled_from(shapes))
        if shape == "out":
            return G(p, y)
        if shape == "in":
            return G(y, p)
        if shape == "two-hops":
            return exists(w, G(p, w) & G(w, y))
        if shape == "not-back":
            return G(p, y) & ~G(y, p)
        if shape == "recursive":
            return exists(w, Q(w) & G(w, y))
        if shape == "grown":
            return Q(y) & ~G(y, p)
        n = next(fresh)
        u, v, R = V(f"u{n}", "U"), V(f"v{n}", "U"), f"R{n}"
        closures.append(R)
        return ifp(R, [u, v],
                   G(u, v) | exists(w, rel(R)(u, w) & G(w, v)))(p, y)

    parts = [disjunct() for _ in range(draw(st.integers(1, 3)))]
    body = parts[0]
    for part in parts[1:]:
        body = body | part
    guard = (exists(V("z", "U"), G(params[0], V("z", "U")))
             if len(params) == 1 else G(params[0], params[1]))
    s = V("s", "{U}")
    if term:
        rest = eq(s, ifp("Q", [y], body).as_term())
    else:
        rest = forall(y, member(y, s).iff(body))
    return query(params + [s], guard & rest), bool(closures)


class TestLiftedRanges:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=lifted_queries(), inst=flat_graph_instances())
    def test_ranges_equal_the_per_binding_reference(self, drawn, inst):
        q, nested_fixpoint = drawn
        expected, expected_stages, expected_rows = _reference(q, inst)
        assert compute_ranges(q, inst) == expected
        (ranges, stages), (traced, rows) = _traced(
            lambda: derive_ranges(q, inst))
        assert ranges == expected
        assert stages == traced == derive_ranges(q, inst)[1]
        if not nested_fixpoint:
            assert (stages, rows) == (expected_stages, expected_rows)
        naive = evaluate_range_restricted(q, inst, strategy="naive")
        seminaive = evaluate_range_restricted(q, inst)
        assert (naive.answer, naive.stages) == (seminaive.answer,
                                                seminaive.stages)

    def test_nest_pattern_constant_in_its_variable(self):
        """With ``y``'s type exempt (Theorem 5.3), ``∀y (y ∈ s ↔ P(x, x))``
        is a rule-9 nest whose φ does not mention ``y``: per binding of x,
        s is all of y's range or empty."""
        x, y, s, z = V("x", "U"), V("y", "U"), V("s", "{U}"), V("z", "U")
        P = rel("P")
        q = query([x, s], exists(z, P(x, z))
                  & forall(y, member(y, s).iff(P(x, x))))
        inst = instance(database_schema(P=["U", "U"]),
                        P=[("a", "a"), ("a", "b"), ("b", "c")])
        ranges = compute_ranges(q, inst, exempt_types={parse_type("U")})
        assert ranges["s"] == [cset(), cset(atom("a"), atom("b"), atom("c"))]


# ---------------------------------------------------------------------------
# Where the lift runs, and the three shapes that stay per binding
# ---------------------------------------------------------------------------

def _lifted_runs(monkeypatch) -> list[str]:
    """The names of the fixpoints run lifted from now on."""
    runs: list[str] = []
    iterate = Evaluator._iterate

    def recording(self, fixpoint, env, ctx, grown=None):
        if grown is not None:
            runs.append(fixpoint.name)
        return iterate(self, fixpoint, env, ctx, grown)

    monkeypatch.setattr(Evaluator, "_iterate", recording)
    return runs


def _graph():
    return instance(database_schema(G=["U", "U"]),
                    G=[("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
                       ("d", "d")])


def _assert_per_binding(q, inst):
    """Ranges, stages and both lanes' answers as evaluated one binding
    at a time."""
    expected, expected_stages, _ = _reference(q, inst)
    (ranges, stages), (traced, _) = _traced(lambda: derive_ranges(q, inst))
    assert ranges == expected
    assert stages == traced == expected_stages
    naive = evaluate_range_restricted(q, inst, strategy="naive")
    seminaive = evaluate_range_restricted(q, inst)
    assert (naive.answer, naive.stages) == (seminaive.answer,
                                            seminaive.stages)
    return ranges


class TestWhereTheLiftRuns:
    def test_order_nest_runs_one_lifted_fixpoint_per_evaluation(
            self, monkeypatch):
        """Two derivation rounds and the answer: three lifted runs of
        the IFP term, in place of 30 per-customer runs."""
        runs = _lifted_runs(monkeypatch)
        question = question_by_name("calc-order-nest")
        inst = supply_chain_instance(1, GOLDEN_SEED)
        report = evaluate_range_restricted(question.compiled, inst)
        assert runs == ["Q", "Q", "Q"]
        assert report.stages == 60

    def test_a_lifted_run_beats_once_per_stage(self, monkeypatch):
        """A lifted run reports no stage, but its loop still beats the
        heartbeat once per stage, so the stall watchdog sees it live."""
        beats: list[None] = []
        runs: list[tuple[int, int]] = []
        iterate = Evaluator._iterate

        def recording(self, fixpoint, env, ctx, grown=None):
            if grown is None:
                return iterate(self, fixpoint, env, ctx, grown)
            stages = []
            before = len(beats)
            rows = iterate(self, fixpoint, env, ctx,
                           lambda delta: (stages.append(delta), grown(delta)))
            runs.append((len(beats) - before, len(stages)))
            return rows

        monkeypatch.setattr(Evaluator, "_iterate", recording)
        tracer = Tracer()
        monkeypatch.setattr(tracer, "heartbeat", lambda: beats.append(None))
        question = question_by_name("calc-order-nest")
        with use_tracer(tracer):
            evaluate_range_restricted(question.compiled,
                                      supply_chain_instance(1, GOLDEN_SEED))
        assert len(runs) == 3
        assert all(beat_count == stage_count > 0
                   for beat_count, stage_count in runs)

    def test_a_term_set_is_interned_once_per_result(self, monkeypatch):
        """A warm calc-order-nest answer checks ``s = T(c)`` for every
        candidate pair, 90 of them fixpoint cache hits: each result's
        set is interned once, with the result, not once per check."""
        question = question_by_name("calc-order-nest")
        inst = supply_chain_instance(1, GOLDEN_SEED)
        cold = answer_question(question, inst)
        calls: list[None] = []
        intern_set = ValueStore.intern_set

        def counting(self, member_ids):
            calls.append(None)
            return intern_set(self, member_ids)

        monkeypatch.setattr(ValueStore, "intern_set", counting)
        tracer = Tracer()
        with use_tracer(tracer):
            warm = answer_question(question, inst)
        assert (warm.rows, warm.checksum, warm.stages) == (
            cold.rows, cold.checksum, cold.stages)
        assert tracer.counters["eval.fixpoint_cache_hits"] == 90
        assert len(calls) <= 30

    def test_a_binding_with_no_rows_gets_the_empty_set(self, monkeypatch):
        """x = c reaches nothing through G(x, y) ∧ ¬G(y, x)."""
        runs = _lifted_runs(monkeypatch)
        x, y, z, s = V("x", "U"), V("y", "U"), V("z", "U"), V("s", "{U}")
        term = ifp("Q", [y], G(x, y) & ~G(y, x)).as_term()
        q = query([x, s], exists(z, G(x, z)) & eq(s, term))
        inst = instance(database_schema(G=["U", "U"]),
                        G=[("a", "b"), ("b", "a"), ("c", "a"), ("a", "c"),
                           ("b", "d")])
        ranges = _assert_per_binding(q, inst)
        assert cset() in ranges["s"]
        assert runs


class TestStaysPerBinding:
    def test_parameter_rebound_inside_the_body(self, monkeypatch):
        """Q's parameter x is R's column inside Q's body."""
        runs = _lifted_runs(monkeypatch)
        x, y, z, s = V("x", "U"), V("y", "U"), V("z", "U"), V("s", "{U}")
        loop = ifp("R", [x], G(x, x))
        term = ifp("Q", [y], G(x, y) | (rel("Q")(y) & loop(y))).as_term()
        q = query([x, s], exists(z, G(x, z)) & eq(s, term))
        ranges = _assert_per_binding(q, _graph())
        assert ranges["s"]
        assert runs == []

    def test_body_reads_an_enclosing_fixpoint_relation(self, monkeypatch):
        """Q(x) reads S, whose rows change from stage to stage of S: it
        is evaluated per binding and per stage of S, as on the oracle."""
        runs = _lifted_runs(monkeypatch)
        x, y, w, t = V("x", "U"), V("y", "U"), V("w", "U"), V("t", "{U}")
        reach = ifp("Q", [w], rel("S")(x, w) | G(x, w)).as_term()
        S = ifp("S", [x, y],
                G(x, y) | exists(t, eq(t, reach) & member(y, t)
                                 & G(y, y)))
        q = query([x, y], S(x, y))
        inst = _graph()
        atoms = sorted(inst.atoms(), key=str)
        ranges = {"x": atoms, "y": atoms, "w": atoms,
                  "t": [cset(*atoms[:k]) for k in range(len(atoms) + 1)]}

        def outcome(strategy):
            evaluator = Evaluator(inst.schema, variable_ranges=ranges,
                                  strategy=strategy)
            answer = evaluator.evaluate(q, inst)
            return answer, evaluator.last_stats["fixpoint_stages"]

        naive, seminaive = outcome("naive"), outcome("seminaive")
        assert naive == seminaive
        assert naive[0] and runs == []

    def test_pfp_term(self, monkeypatch):
        """A PFP term whose x = a binding diverges: only its value is
        left out, and the x = b binding's value stays."""
        runs = _lifted_runs(monkeypatch)
        x, y, s, y2 = V("x", "U"), V("y", "U"), V("s", "{U}"), V("y2", "U")
        Q = rel("Q")
        term = pfp("Q", [y2], rel("P")(x, y2) & (~Q(y2) | rel("D")(x)))
        q = query([x, s], exists(y, rel("P")(x, y)) & eq(s, term.as_term()))
        inst = instance(database_schema(P=["U", "U"], D=["U"]),
                        P=[("a", "c"), ("b", "c"), ("b", "d")], D=[("b",)])
        expected, expected_stages, _ = _reference(q, inst)
        (ranges, stages), (traced, _) = _traced(
            lambda: derive_ranges(q, inst))
        assert ranges == expected
        assert ranges["s"] == [cset(atom("c"), atom("d"))]
        assert stages == traced == expected_stages
        assert runs == []
