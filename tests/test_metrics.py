"""Counters, gauges and histograms: the tracer's counter semantics,
bucket boundaries, quantiles, JSON round-trips, tracer integration,
deep node counts, and the versioned run-relative trace schema."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    metrics_from_json,
    metrics_to_json,
    trace_from_json,
    trace_to_json,
    use_tracer,
    value_node_count,
)
from repro.obs.metrics import _bucket_index
from repro.objects import atom, cset, ctuple


class TestCounter:
    def test_monotonic(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 4)
        assert tracer.counters["hits"] == 5
        with pytest.raises(ValueError):
            tracer.count("hits", -1)
        assert tracer.counters["hits"] == 5


class TestGauge:
    def test_last_write_and_watermark(self):
        tracer = Tracer()
        tracer.gauge("size", 10)
        tracer.gauge("size", 3)
        assert tracer.counters["size"] == 3
        tracer.gauge_max("peak", 7)
        tracer.gauge_max("peak", 2)
        assert tracer.counters["peak"] == 7


class TestHistogramBuckets:
    def test_bucket_boundaries(self):
        """Bucket 0 holds v <= 1; bucket b holds (2**(b-1), 2**b].
        Exact powers of two land in the bucket they bound."""
        assert _bucket_index(0) == 0
        assert _bucket_index(1) == 0
        assert _bucket_index(2) == 1
        assert _bucket_index(3) == 2
        assert _bucket_index(4) == 2
        assert _bucket_index(5) == 3
        assert _bucket_index(8) == 3
        assert _bucket_index(9) == 4
        assert _bucket_index(1024) == 10
        assert _bucket_index(1025) == 11

    def test_float_values_bucket_consistently(self):
        assert _bucket_index(2.5) == 2  # in (2, 4]
        assert _bucket_index(0.25) == 0

    def test_record_tracks_extremes_and_counts(self):
        histogram = Histogram()
        for value in (1, 2, 3, 100):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total == 106
        assert histogram.min == 1
        assert histogram.max == 100
        assert histogram.mean == 26.5
        assert histogram.buckets == {0: 1, 1: 1, 2: 1, 7: 1}

    def test_quantiles_are_bucket_upper_bounds_clipped_to_max(self):
        histogram = Histogram()
        for value in (2, 3, 5, 9, 100):
            histogram.record(value)
        # p50 -> 3rd of 5 values; cumulative hits at bucket 3 (ub 8)...
        assert histogram.quantile(0.5) == 8
        # ...but the top quantile clips to the observed maximum, not 128.
        assert histogram.quantile(1.0) == 100
        assert histogram.quantile(0.0) == 2  # clipped ub of first bucket
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0

    def test_summary_shape(self):
        histogram = Histogram()
        for value in range(1, 9):
            histogram.record(value)
        summary = histogram.summary()
        assert set(summary) == {"count", "total", "min", "max", "mean",
                                "p50", "p90", "p99"}
        assert summary["p50"] == 4
        assert summary["p90"] == 8


class TestRegistry:
    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.histogram("rows").record(41)
        histogram = registry.histogram("sizes")
        for value in (1, 5, 5, 300):
            histogram.record(value)
        document = metrics_to_json(registry)
        assert document["schema"] == 1
        assert sorted(document["metrics"]) == ["rows", "sizes"]
        rebuilt = metrics_from_json(json.loads(json.dumps(document)))
        assert metrics_to_json(rebuilt) == document
        assert rebuilt.histogram("sizes").quantile(0.5) == 8  # bucket ub

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_json({"metrics": {"x": {"kind": "meter"}}})

    def test_counter_and_gauge_entries_are_skipped(self):
        """Older trace documents repeated every counter and gauge under
        ``metrics``; the reader keeps only their histograms."""
        registry = metrics_from_json({"metrics": {
            "hits": {"kind": "counter", "value": 3},
            "peak": {"kind": "gauge", "value": 5},
            "sizes": {"kind": "histogram", "count": 1, "total": 4,
                      "min": 4, "max": 4, "buckets": {"2": 1}},
        }})
        assert list(metrics_to_json(registry)["metrics"]) == ["sizes"]


class TestTracerIntegration:
    def test_counters_are_stored_once(self):
        """Counters and gauges live in the flat dict only; ``metrics``
        holds histograms."""
        tracer = Tracer()
        tracer.count("hits", 3)
        tracer.gauge("size", 9)
        tracer.gauge_max("peak", 5)
        assert tracer.counters == {"hits": 3, "size": 9, "peak": 5}
        assert list(tracer.metrics.histograms()) == []
        assert trace_to_json(tracer)["metrics"] == {}

    def test_observe_stays_out_of_flat_counters(self):
        tracer = Tracer()
        tracer.observe("stage_rows", 10)
        tracer.observe("stage_rows", 20)
        assert tracer.counters == {}
        assert tracer.metrics.histogram("stage_rows").count == 2

    def test_null_tracer_has_the_full_surface(self):
        from repro.obs import NULL_TRACER

        NULL_TRACER.gauge_max("x", 1)
        NULL_TRACER.observe("x", 1)
        assert not NULL_TRACER.enabled


class TestValueNodeCount:
    def test_nested_object_counts_every_node(self):
        # {a} is 2 nodes (set + atom); [{a}, b] is 1 + 2 + 1 = 4.
        assert value_node_count(atom("a")) == 1
        assert value_node_count(cset(atom("a"))) == 2
        assert value_node_count(ctuple(cset(atom("a")), atom("b"))) == 4

    def test_plain_containers_recurse(self):
        row = (cset(atom("a")), cset(atom("b"), atom("c")))
        assert value_node_count(row) == 1 + 2 + 3

    def test_opaque_values_count_as_one(self):
        assert value_node_count(42) == 1
        assert value_node_count("xyz") == 1


class TestTraceSchema:
    def test_schema_and_relative_timestamps(self):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.event("tick")
        document = trace_to_json(tracer)
        assert document["schema"] == 1
        assert document["trace"]["start"] == 0.0
        child = document["trace"]["children"][0]
        assert child["start"] >= 0.0
        assert child["events"][0]["time"] >= child["start"]
        assert "metrics" in document

    def test_round_trip_is_exact(self):
        tracer = Tracer()
        tracer.count("c", 2)
        tracer.observe("h", 17)
        with tracer.span("work"):
            pass
        document = trace_to_json(tracer)
        rebuilt = trace_from_json(json.loads(json.dumps(document)))
        assert trace_to_json(rebuilt) == document

    def test_legacy_unversioned_document_imports(self):
        """Pre-schema traces (absolute timestamps, no metrics) load; the
        re-export is normalised to the versioned relative form."""
        legacy = {
            "counters": {"ifp.stages": 3},
            "dropped_events": 0,
            "trace": {
                "name": "trace", "attrs": {},
                "start": 1234.5, "end": 1235.0,
                "events": [{"name": "e", "attrs": {}, "time": 1234.75}],
                "children": [],
            },
        }
        rebuilt = trace_from_json(legacy)
        assert rebuilt.counters == {"ifp.stages": 3}
        document = trace_to_json(rebuilt)
        assert document["schema"] == 1
        assert document["trace"]["start"] == 0.0
        assert document["trace"]["events"][0]["time"] == pytest.approx(0.25)


TC_QUERY = ("{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})]"
            "(G(x,y) or exists z:{U} (S(x,z) and G(z,y)))(x, y)}")


def _example_graph(tmp_path) -> str:
    """The ``repro example`` instance, written to ``tmp_path``."""
    from repro.objects import dump_instance
    from repro.workloads import singleton_chain

    graph = tmp_path / "graph.json"
    dump_instance(singleton_chain("abc"), str(graph))
    return str(graph)


class TestJsonExportsListCountersOnce:
    """The CLI's JSON documents carry each counter once, under
    ``counters``; ``metrics`` holds histograms only."""

    def test_query_stats_json(self, tmp_path, capsys):
        from repro.cli import EXIT_OK, main

        code = main(["query", _example_graph(tmp_path), TC_QUERY,
                     "--stats", "--format", "json", "--no-ledger"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        document = json.loads(captured.err)
        assert document["answer_rows"] == len(captured.out.splitlines())
        assert document["counters"]["ifp.stages"] > 0
        assert document["metrics"]
        assert {entry["kind"] for entry in
                document["metrics"].values()} == {"histogram"}

    def test_replay_json(self, tmp_path, capsys):
        from repro.cli import EXIT_OK, main

        stream = str(tmp_path / "run.jsonl")
        assert main(["query", _example_graph(tmp_path), TC_QUERY,
                     "--stream", stream, "--no-ledger"]) == EXIT_OK
        capsys.readouterr()
        assert main(["obs", "replay", stream, "--format", "json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["ifp.stages"] > 0
        assert document["metrics"] == {}  # streams carry no histograms


def _older_layout_trace(tmp_path, capsys, kind: str = "counter") -> str:
    """A live ``profile --json`` document rewritten in the older layout,
    which repeated every counter under ``metrics`` (``kind`` for the
    ``eval.*`` ones, ``gauge`` for the rest); returns its path."""
    from repro.cli import EXIT_OK, main

    code = main(["profile", _example_graph(tmp_path), TC_QUERY, "--json",
                 "--no-ledger"])
    assert code == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    for name, value in document["counters"].items():
        entry_kind = kind if name.startswith("eval.") else "gauge"
        document["metrics"][name] = {"kind": entry_kind, "value": value}
    path = tmp_path / "older.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestOlderTraceLayout:
    """``profile --from`` still reads trace documents whose ``metrics``
    repeated the counters as ``counter``/``gauge`` entries."""

    @pytest.mark.parametrize("fmt", ["text", "json", "chrome-trace",
                                     "flame"])
    def test_re_exports_in_every_format(self, fmt, tmp_path, capsys):
        from repro.cli import EXIT_OK, main

        path = _older_layout_trace(tmp_path, capsys)
        assert main(["profile", "--from", path, "--format", fmt,
                     "--no-ledger"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip()
        if fmt == "json":
            document = json.loads(out)
            assert document["counters"]["ifp.stages"] > 0
            assert {entry["kind"] for entry in
                    document["metrics"].values()} == {"histogram"}

    def test_unknown_kind_is_an_error(self, tmp_path, capsys):
        from repro.cli import EXIT_ERROR, main

        path = _older_layout_trace(tmp_path, capsys, kind="meter")
        assert main(["profile", "--from", path,
                     "--no-ledger"]) == EXIT_ERROR
        assert "meter" in capsys.readouterr().err


def _tc_program():
    from repro.datalog import Literal, Program, Rule

    return Program(
        rules=[
            Rule(Literal("T", ["x", "y"]), [Literal("G", ["x", "y"])]),
            Rule(Literal("T", ["x", "y"]),
                 [Literal("T", ["x", "z"]), Literal("G", ["z", "y"])]),
        ],
        idb_types={"T": ["U", "U"]},
    )


def _ifp_stage_sizes(span) -> list[int]:
    sizes = [e.attrs["size"] for e in span.events if e.name == "ifp.stage"]
    for child in span.children:
        sizes.extend(_ifp_stage_sizes(child))
    return sizes


class TestSpaceAccountingGolden:
    """Exact space counters for TC over chain_graph(8) — a deterministic
    workload whose stage cardinalities are computable by hand: stage i
    holds all paths of length <= i, so sizes are 7, 13, 18, 22, 25, 27,
    28, then 28 again at the no-change stage."""

    STAGE_SIZES = [7, 13, 18, 22, 25, 27, 28, 28]

    def test_chain8_stage_sizes_and_peaks(self):
        from repro.datalog import evaluate_inflationary
        from repro.workloads import chain_graph

        tracer = Tracer()
        with use_tracer(tracer):
            result = evaluate_inflationary(_tc_program(), chain_graph(8))
        assert len(result["T"]) == 28
        assert _ifp_stage_sizes(tracer.root) == self.STAGE_SIZES
        assert tracer.counters["ifp.stages"] == 8
        assert tracer.counters["space.peak_fixpoint_rows"] == 28
        assert tracer.counters["space.idb[T]"] == 28
        histogram = tracer.metrics.histogram("space.ifp.stage_rows")
        assert histogram.count == 8
        assert histogram.min == 7
        assert histogram.max == 28
        assert histogram.total == sum(self.STAGE_SIZES)

    def test_chain8_naive_agrees_on_space(self):
        from repro.datalog import evaluate_inflationary
        from repro.workloads import chain_graph

        tracer = Tracer()
        with use_tracer(tracer):
            evaluate_inflationary(_tc_program(), chain_graph(8),
                                  strategy="naive")
        assert _ifp_stage_sizes(tracer.root) == self.STAGE_SIZES
        assert tracer.counters["space.peak_fixpoint_rows"] == 28


class TestMillionEventFixpoint:
    def test_dropped_events_accounting_under_event_storm(self):
        """A million-event burst cannot exhaust memory: the default cap
        stores the first 100k and counts the rest."""
        tracer = Tracer()
        with use_tracer(tracer):
            for index in range(1_000_000):
                tracer.event("ifp.stage", stage=index)
        assert len(tracer.root.events) == tracer.max_events == 100_000
        assert tracer.dropped_events == 900_000
        document = trace_to_json(tracer)
        assert document["dropped_events"] == 900_000

    def test_small_cap_on_a_real_fixpoint(self):
        """The cap applies to engine-emitted events too; counters and
        histograms keep exact totals regardless."""
        from repro.datalog import evaluate_inflationary
        from repro.workloads import chain_graph

        tracer = Tracer(max_events=3)
        with use_tracer(tracer):
            evaluate_inflationary(_tc_program(), chain_graph(12))
        assert tracer.dropped_events > 0
        # 12 stages observed in the histogram even though events dropped.
        assert tracer.metrics.histogram("space.ifp.stage_rows").count == 12
        assert tracer.counters["ifp.stages"] == 12
