"""The observability layer: tracer on/off, counter values on known
queries, JSON round-trips, and golden CLI output for ``repro profile``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.evaluation import evaluate
from repro.core.safety import evaluate_range_restricted
from repro.datalog import Literal, Program, Rule, evaluate_inflationary
from repro.obs import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    render_tree,
    set_tracer,
    summary_table,
    trace_from_json,
    trace_to_json,
    use_tracer,
)
from repro.workloads import transitive_closure_query

TC_QUERY_TEXT = (
    "{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})](G(x,y) or "
    "exists z:{U} (S(x,z) and G(z,y)))(x, y)}"
)


@pytest.fixture
def chain_graph():
    """The CLI example graph: {a} -> {b} -> {c} over set-typed nodes."""
    from repro.workloads import singleton_chain

    return singleton_chain("abc")


@pytest.fixture
def graph_file(chain_graph, tmp_path):
    from repro.objects.io import instance_to_json

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(instance_to_json(chain_graph)))
    return str(path)


class TestTracerCore:
    def test_span_nesting_and_events(self):
        tracer = Tracer()
        with tracer.span("outer", tag="a") as outer:
            tracer.event("point", n=1)
            with tracer.span("inner") as inner:
                inner.set(rows=7)
        assert [s.name for s in tracer.root.children] == ["outer"]
        assert outer.attrs == {"tag": "a"}
        assert [e.name for e in outer.events] == ["point"]
        assert outer.children[0].attrs == {"rows": 7}
        assert outer.end is not None and outer.end >= outer.start

    def test_counters_and_gauges(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 4)
        tracer.gauge("size", 10)
        tracer.gauge("size", 3)
        assert tracer.counters == {"hits": 5, "size": 3}

    def test_event_cap_drops_and_accounts(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.event("e", i=i)
        assert len(tracer.root.events) == 2
        assert tracer.dropped_events == 3
        assert "3 event(s) dropped" in render_tree(tracer)

    def test_name_does_not_collide_with_attrs(self):
        tracer = Tracer()
        with tracer.span("fixpoint", name="S", kind="ifp") as span:
            tracer.event("range", name="x", size=2)
        assert span.attrs["name"] == "S"
        assert span.events[0].attrs == {"name": "x", "size": 2}

    def test_default_tracer_is_noop_and_restored(self):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with use_tracer(NULL_TRACER):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER
        set_tracer(tracer)
        assert get_tracer() is tracer
        set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", x=1) as span:
            span.set(rows=5)
        NULL_TRACER.event("e")
        NULL_TRACER.count("c")
        NULL_TRACER.gauge("g", 1)
        assert not NULL_TRACER.enabled


class TestEvaluationCounters:
    def test_tc_active_domain_counters(self, chain_graph):
        tracer = Tracer()
        with use_tracer(tracer):
            answer = evaluate(transitive_closure_query(), chain_graph)
        assert len(answer) == 3
        # The chain {a}->{b}->{c} closes in 2 growing stages + 1
        # convergence check.
        assert tracer.counters["ifp.stages"] == 3
        assert tracer.counters["eval.fixpoint_stages"] == 3
        # One materialised domain: dom({U}) over 3 atoms = 2**3 values.
        assert tracer.counters["domains.materialized"] == 1
        assert tracer.counters["domain[{U}]"] == 8
        stages = [e for e in _all_events(tracer) if e.name == "ifp.stage"]
        assert [e.attrs["delta"] for e in stages] == [2, 1, 0]
        assert [e.attrs["size"] for e in stages] == [2, 3, 3]

    def test_tc_range_restricted_counters(self, chain_graph):
        tracer = Tracer()
        with use_tracer(tracer):
            report = evaluate_range_restricted(
                transitive_closure_query(), chain_graph)
        assert len(report.answer) == 3
        # Restricted evaluation materialises no domains; every variable
        # gets a polynomial range instead.
        assert "domains.materialized" not in tracer.counters
        assert tracer.counters["rr.evaluations"] == 1
        assert tracer.counters["range[x]"] == 2  # sources of G
        assert tracer.counters["range[y]"] == 2  # targets of G
        assert tracer.counters["ifp.stages"] == 3

    def test_tracing_off_has_no_observable_state(self, chain_graph):
        answer = evaluate(transitive_closure_query(), chain_graph)
        assert len(answer) == 3
        assert get_tracer() is NULL_TRACER

    def test_datalog_dedup_counters(self, chain_graph):
        program = Program(
            rules=[
                Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
                Rule(Literal("T", ["x", "y"]),
                     [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])]),
            ],
            idb_types={"T": ["{U}", "{U}"]},
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = evaluate_inflationary(program, chain_graph,
                                           strategy="naive")
        assert len(result["T"]) == 3
        assert tracer.counters["ifp.stages"] == 3
        # Naive evaluation re-derives earlier-stage rows every stage.
        assert tracer.counters["datalog.rows_derived"] > 3
        assert tracer.counters["datalog.dedup_hits"] >= 1
        assert tracer.counters["datalog.rows_derived"] - \
            tracer.counters["datalog.dedup_hits"] == 3

    def test_datalog_seminaive_counters(self, chain_graph):
        """The semi-naive default derives each closure row exactly once
        and reports the naive re-derivations it skipped."""
        program = Program(
            rules=[
                Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
                Rule(Literal("T", ["x", "y"]),
                     [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])]),
            ],
            idb_types={"T": ["{U}", "{U}"]},
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = evaluate_inflationary(program, chain_graph)
        assert len(result["T"]) == 3
        assert tracer.counters["ifp.stages"] == 3
        assert tracer.counters["datalog.rows_derived"] == 3
        assert "datalog.dedup_hits" not in tracer.counters
        assert tracer.counters["datalog.delta_rows"] == 3
        assert tracer.counters["datalog.refires_avoided"] > 0

    def test_algebra_operator_spans(self, chain_graph):
        from repro.algebra import BaseRel, Join, Project

        expr = Project(Join(BaseRel("G"), BaseRel("G"), on=[(2, 1)]),
                       [1, 4])
        tracer = Tracer()
        with use_tracer(tracer):
            rows = expr.evaluate(chain_graph)
        assert len(rows) == 1  # ({a}, {c})
        names = [s.name for s in _all_spans(tracer)]
        assert names.count("algebra.BaseRel") == 2
        assert "algebra.Join" in names and "algebra.Project" in names
        project_span = next(s for s in _all_spans(tracer)
                            if s.name == "algebra.Project")
        assert project_span.attrs["rows"] == 1
        assert tracer.counters["algebra.operator_applications"] == 4


class TestJsonRoundTrip:
    def test_round_trip_equality(self, chain_graph):
        tracer = Tracer()
        with use_tracer(tracer):
            evaluate(transitive_closure_query(), chain_graph)
        document = trace_to_json(tracer)
        # JSON-serialisable end to end.
        rebuilt = trace_from_json(json.loads(json.dumps(document)))
        assert trace_to_json(rebuilt) == document
        assert render_tree(rebuilt, times=False) == \
            render_tree(tracer, times=False)
        assert summary_table(rebuilt) == summary_table(tracer)

    def test_empty_tracer_round_trips(self):
        tracer = Tracer()
        document = trace_to_json(tracer)
        assert trace_to_json(trace_from_json(document)) == document
        assert summary_table(tracer) == "(no counters recorded)"


GOLDEN_PROFILE = """\
mode: active
== trace ==
trace
  load_instance
  parse_query
  query head=['x', 'y'] rows=3
    • domain type={U} cardinality=8
    fixpoint name=S kind=ifp strategy=seminaive rows=3
      • ifp.stage stage=1 size=2 delta=2
      • ifp.stage stage=2 size=3 delta=1
      • ifp.stage stage=3 size=3 delta=0
== counters ==
domain[{U}]               8
domains.materialized      1
eval.delta_rows           3
eval.fixpoint_stages      3
eval.index_builds         1
eval.index_probes         3
ifp.stages                3
space.answer_nodes        15
space.domain_nodes        20
space.domain_values       8
space.interned_values     11
space.peak_fixpoint_rows  3
== metrics ==
space.domain_cardinality  count=1 min=8 mean=8 p50=8 p90=8 max=8
space.fixpoint_rows       count=1 min=3 mean=3 p50=3 p90=3 max=3
space.ifp.stage_rows      count=3 min=2 mean=2.67 p50=3 p90=3 max=3
-- 3 tuple(s)
"""

GOLDEN_PROFILE_NAIVE = """\
mode: active
== trace ==
trace
  load_instance
  parse_query
  query head=['x', 'y'] rows=3
    • domain type={U} cardinality=8
    • enumerate vars=['x', 'y'] sizes=[8, 8] product=64
    fixpoint name=S kind=ifp strategy=naive rows=3
      • enumerate vars=['z'] sizes=[8] product=8
      • ifp.stage stage=1 size=2 delta=2
      • ifp.stage stage=2 size=3 delta=1
      • ifp.stage stage=3 size=3 delta=0
== counters ==
domain[{U}]                 8
domains.materialized        1
eval.atom_checks            1768
eval.enumerations           190
eval.fixpoint_cache_hits    63
eval.fixpoint_stages        3
eval.formula_checks         3624
eval.quantifier_iterations  1734
ifp.stages                  3
space.answer_nodes          15
space.domain_nodes          20
space.domain_values         8
space.peak_fixpoint_rows    3
== metrics ==
space.domain_cardinality  count=1 min=8 mean=8 p50=8 p90=8 max=8
space.fixpoint_rows       count=1 min=3 mean=3 p50=3 p90=3 max=3
space.ifp.stage_rows      count=3 min=2 mean=2.67 p50=3 p90=3 max=3
-- 3 tuple(s)
"""


class TestCli:
    def test_profile_golden(self, graph_file, capsys):
        status = main(["profile", graph_file, TC_QUERY_TEXT,
                       "--mode", "active", "--no-times"])
        assert status == 0
        assert capsys.readouterr().out == GOLDEN_PROFILE

    def test_profile_golden_naive(self, graph_file, capsys):
        status = main(["profile", graph_file, TC_QUERY_TEXT,
                       "--mode", "active", "--no-times",
                       "--strategy", "naive"])
        assert status == 0
        assert capsys.readouterr().out == GOLDEN_PROFILE_NAIVE

    def test_profile_json_export(self, graph_file, capsys):
        status = main(["profile", graph_file, TC_QUERY_TEXT,
                       "--mode", "active", "--json"])
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["mode"] == "active"
        assert document["answer_rows"] == 3
        assert document["counters"]["ifp.stages"] == 3
        stages = [e for e in _json_events(document["trace"])
                  if e["name"] == "ifp.stage"]
        assert [e["attrs"]["delta"] for e in stages] == [2, 1, 0]
        domains = [e for e in _json_events(document["trace"])
                   if e["name"] == "domain"]
        assert [(e["attrs"]["type"], e["attrs"]["cardinality"])
                for e in domains] == [("{U}", 8)]

    def test_query_trace_flag(self, graph_file, capsys):
        status = main(["query", graph_file, TC_QUERY_TEXT, "--trace",
                       "--stats"])
        assert status == 0
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 3  # the three answer rows
        assert "ifp.stage stage=1" in captured.err
        assert "range var=x size=2" in captured.err  # rr path in auto mode
        assert "ifp.stages" in captured.err

    def test_query_trace_json_flag(self, graph_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        status = main(["query", graph_file, TC_QUERY_TEXT,
                       "--trace-json", str(out)])
        assert status == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["counters"]["ifp.stages"] == 3
        assert trace_to_json(trace_from_json(document)) == document

    def test_query_untraced_output_unchanged(self, graph_file, capsys):
        status = main(["query", graph_file, TC_QUERY_TEXT])
        assert status == 0
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 3
        assert captured.err.strip() == "-- 3 tuple(s)"

    def test_auto_fallback_is_reported(self, graph_file, capsys):
        status = main(["query", graph_file,
                       "{[x:{U}] | not (exists y:{U} (G(x,y)))}",
                       "--trace"])
        assert status == 0
        captured = capsys.readouterr()
        assert "falling back to active-domain semantics" in captured.err
        assert "not range restricted" in captured.err
        assert "• fallback to=active" in captured.err


def _all_spans(tracer):
    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    return list(walk(tracer.root))


def _all_events(tracer):
    return [event for span in _all_spans(tracer) for event in span.events]


def _json_events(span_doc):
    yield from span_doc["events"]
    for child in span_doc["children"]:
        yield from _json_events(child)
