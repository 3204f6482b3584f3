"""The sharded parallel bench runner (PR 5 tentpole).

The central property, stated by the issue and checked here with
hypothesis: for *any* subset of suites and *any* ``--jobs`` in
{1, 2, 4}, the merged observatory document is byte-identical to the
serial one apart from wall-clock-derived fields (which
:func:`repro.bench.shard.strip_timing` removes).  Alongside it: failure
isolation (a raising worker marks only its own points failed), timeout
degradation to a flagged partial document, and the serial/sharded
equivalence of a real registry suite.

Worker processes resolve suites by name through the registry, so the
toy suites these tests register at runtime are only visible to workers
under the ``fork`` start method; pool-backed tests skip elsewhere.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import (
    BenchError,
    SUITES,
    Suite,
    failed_point,
    point_specs,
    run_suites,
    run_tasks,
    strip_timing,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="runtime-registered suites need the fork "
                         "start method to reach pool workers")


def _run_square(n: int, strategy: str) -> dict:
    from repro.obs import get_tracer

    factor = 1 if strategy == "naive" else 2
    get_tracer().count("toy.rows", factor * n * n)
    return {"checksum": n * n}


def _run_cube(n: int, strategy: str) -> dict:
    from repro.obs import get_tracer

    get_tracer().count("toy.rows", n**3)
    get_tracer().observe("toy.sizes", n)
    return {"checksum": n**3}


def _run_linear(n: int, strategy: str) -> dict:
    from repro.obs import get_tracer

    get_tracer().count("toy.rows", n)
    return {"checksum": n}


def _run_fragile(n: int, strategy: str) -> dict:
    if n == 3:
        raise ValueError(f"injected failure at n={n}")
    return _run_linear(n, strategy)


def _run_sleepy(n: int, strategy: str) -> dict:
    if n == 3:
        time.sleep(60.0)
    return _run_linear(n, strategy)


def _run_beacon_then_hang(n: int, strategy: str) -> dict:
    """Counts and emits an event (flushing a counter snapshot onto the
    worker's stream) *before* wedging — the shape of a real fixpoint
    that heartbeats per stage and then hits a pathological stage."""
    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.count("toy.rows", n)
    tracer.event("beacon", n=n)
    if n == 3:
        time.sleep(60.0)
    return {"checksum": n}


def _run_beacon_then_raise(n: int, strategy: str) -> dict:
    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.count("toy.rows", n)
    tracer.event("beacon", n=n)
    if n == 3:
        raise ValueError(f"injected failure at n={n}")
    return {"checksum": n}


TOY_SUITES = {
    "toy-square": Suite(
        name="toy-square", title="squares", sizes=(2, 3, 4),
        strategies=("naive", "seminaive"), run=_run_square, agree=True),
    "toy-cube": Suite(
        name="toy-cube", title="cubes", sizes=(2, 3, 4, 5),
        strategies=("seminaive",), run=_run_cube, agree=False),
    "toy-linear": Suite(
        name="toy-linear", title="lines", sizes=(1, 2, 3),
        strategies=("seminaive",), run=_run_linear, agree=False),
    "toy-fragile": Suite(
        name="toy-fragile", title="raises at n=3", sizes=(1, 2, 3, 4),
        strategies=("seminaive",), run=_run_fragile, agree=False),
    "toy-sleepy": Suite(
        name="toy-sleepy", title="hangs at n=3", sizes=(1, 2, 3, 4),
        strategies=("seminaive",), run=_run_sleepy, agree=False),
    "toy-beacon-hang": Suite(
        name="toy-beacon-hang", title="streams then hangs at n=3",
        sizes=(1, 2, 3), strategies=("seminaive",),
        run=_run_beacon_then_hang, agree=False),
    "toy-beacon-raise": Suite(
        name="toy-beacon-raise", title="streams then raises at n=3",
        sizes=(1, 2, 3), strategies=("seminaive",),
        run=_run_beacon_then_raise, agree=False),
}


@pytest.fixture(scope="module", autouse=True)
def _register_toys():
    """Pool workers look suites up in the registry, so the toys must be
    in ``SUITES`` (not just passed as objects) for sharded runs."""
    SUITES.update(TOY_SUITES)
    yield
    for name in TOY_SUITES:
        SUITES.pop(name, None)


def _canonical(document: dict) -> str:
    return json.dumps(strip_timing(document), sort_keys=True)


class TestShardProperty:
    @needs_fork
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        names=st.lists(
            st.sampled_from(["toy-square", "toy-cube", "toy-linear"]),
            min_size=1, max_size=3, unique=True),
        jobs=st.sampled_from([1, 2, 4]),
    )
    def test_sharded_document_identical_to_serial_modulo_timing(
            self, names, jobs):
        suites = [SUITES[name] for name in names]
        serial = run_suites(suites, jobs=1)
        sharded = run_suites(suites, jobs=jobs)
        assert _canonical(sharded) == _canonical(serial)

    @needs_fork
    def test_merge_order_is_declaration_order_not_completion_order(self):
        """toy-cube's points take as long as toy-linear's, but the
        document lists suites and points exactly as declared."""
        suites = [SUITES["toy-cube"], SUITES["toy-linear"]]
        document = run_suites(suites, jobs=4)
        assert list(document["suites"]) == ["toy-cube", "toy-linear"]
        cube_points = document["suites"]["toy-cube"]["points"]
        assert [p["n"] for p in cube_points] == [2, 3, 4, 5]


class TestFailureIsolation:
    @needs_fork
    def test_raising_worker_fails_only_its_own_point(self):
        document = run_suites([SUITES["toy-fragile"],
                               SUITES["toy-linear"]], jobs=2)
        fragile = document["suites"]["toy-fragile"]
        failed = [p for p in fragile["points"] if p.get("failed")]
        assert [(p["n"], p["strategy"]) for p in failed] == \
            [(3, "seminaive")]
        assert "injected failure" in failed[0]["error"]
        ok = [p for p in fragile["points"] if not p.get("failed")]
        assert [p["n"] for p in ok] == [1, 2, 4]
        assert all(p["checksum"] == p["n"] for p in ok)
        # The healthy suite is untouched, the document is flagged.
        linear = document["suites"]["toy-linear"]
        assert not any(p.get("failed") for p in linear["points"])
        assert document["partial"] is True
        assert fragile["failed_points"] == [
            {"n": 3, "strategy": "seminaive",
             "error": "ValueError: injected failure at n=3"}]

    @needs_fork
    def test_partial_document_fails_the_run(self):
        from repro.bench import document_failures

        document = run_suites([SUITES["toy-fragile"]], jobs=2)
        failures = document_failures(document)
        assert any("injected failure" in failure for failure in failures)

    @needs_fork
    def test_timeout_marks_point_failed_and_run_degrades(self):
        document = run_suites([SUITES["toy-sleepy"]], jobs=2,
                              point_timeout=1.0)
        points = document["suites"]["toy-sleepy"]["points"]
        by_n = {p["n"]: p for p in points}
        assert by_n[3]["failed"] and "timed out" in by_n[3]["error"]
        assert all(not by_n[n].get("failed") for n in (1, 2, 4))
        assert document["partial"] is True


class TestRealRegistrySuite:
    def test_jobs4_matches_serial_on_seminaive_smoke(self):
        """A declared suite end-to-end through the pool: identical to
        serial apart from timing, including fits being stripped and
        counters surviving."""
        suite = SUITES["seminaive-smoke"]
        serial = run_suites([suite], sizes=(8, 16))
        sharded = run_suites([suite], sizes=(8, 16), jobs=4)
        assert _canonical(sharded) == _canonical(serial)
        point = sharded["suites"]["seminaive-smoke"]["points"][0]
        assert point["counters"]["datalog.rows_derived"] > 0


class TestResourceTelemetry:
    """Subprocess isolation is what makes per-point RSS meaningful: each
    point gets a fresh process, so ``getrusage`` peak RSS is *its* high
    -water mark, not the accumulated maximum of everything run before."""

    @needs_fork
    def test_every_surviving_point_reports_rss_peak(self):
        document = run_suites([SUITES["toy-linear"]], jobs=2)
        points = document["suites"]["toy-linear"]["points"]
        assert points and not any(p.get("failed") for p in points)
        for point in points:
            # A CPython worker occupies at least a few MB.
            assert point["counters"]["space.rss_peak"] > 4 << 20

    @needs_fork
    def test_memory_attribution_rides_through_workers(self):
        document = run_suites([SUITES["seminaive-smoke"]], sizes=(8,),
                              jobs=2, memory=True)
        points = document["suites"]["seminaive-smoke"]["points"]
        assert points and not any(p.get("failed") for p in points)
        for point in points:
            assert point["counters"]["space.traced_peak"] > 0
            assert point["counters"]["space.rss_peak"] > 4 << 20

    @needs_fork
    def test_serial_run_records_no_rss(self):
        """RSS of a shared process would be cross-contaminated, so the
        serial path deliberately omits it."""
        document = run_suites([SUITES["toy-linear"]], jobs=1)
        for point in document["suites"]["toy-linear"]["points"]:
            assert "space.rss_peak" not in point["counters"]


class TestTelemetrySalvage:
    """Workers always stream their trace up the result pipe, so a point
    that times out or raises still degrades to *partial telemetry*
    (whatever counters reached the scheduler before death) instead of
    the empty placeholder the PR 5 runner left behind."""

    @needs_fork
    def test_timeout_killed_point_salvages_stream_counters(self):
        document = run_suites([SUITES["toy-beacon-hang"]], jobs=2,
                              point_timeout=1.0)
        points = document["suites"]["toy-beacon-hang"]["points"]
        by_n = {p["n"]: p for p in points}
        assert by_n[3]["failed"] and "timed out" in by_n[3]["error"]
        assert by_n[3]["partial_telemetry"] is True
        assert by_n[3]["counters"]["toy.rows"] == 3
        # Healthy points carry full telemetry, unflagged.
        assert not by_n[1].get("partial_telemetry")

    @needs_fork
    def test_raising_point_salvages_stream_counters(self):
        document = run_suites([SUITES["toy-beacon-raise"]], jobs=2)
        by_n = {p["n"]: p
                for p in document["suites"]["toy-beacon-raise"]["points"]}
        assert by_n[3]["failed"] and "injected failure" in by_n[3]["error"]
        assert by_n[3]["partial_telemetry"] is True
        assert by_n[3]["counters"]["toy.rows"] == 3

    @needs_fork
    def test_strip_timing_erases_salvaged_telemetry(self):
        """Serial runs have no worker stream to salvage from (a raising
        suite propagates in-process), so the byte-identity invariant
        demands strip_timing erase the salvage along with the other
        machine facts: a stripped failed point looks exactly like the
        bare placeholder."""
        from repro.bench import failed_point

        document = run_suites([SUITES["toy-beacon-raise"]], jobs=2)
        stripped = strip_timing(document)
        by_n = {p["n"]: p
                for p in stripped["suites"]["toy-beacon-raise"]["points"]}
        assert by_n[3]["counters"] == {}
        assert "partial_telemetry" not in by_n[3]
        placeholder = strip_timing(
            {"suites": {"s": {"points": [failed_point(
                3, "seminaive", by_n[3]["error"])]}}}
        )["suites"]["s"]["points"][0]
        assert by_n[3] == placeholder
        # The unstripped document keeps the salvage for humans.
        raw = document["suites"]["toy-beacon-raise"]["points"]
        assert {p["n"]: p for p in raw}[3]["partial_telemetry"] is True


class TestPlumbing:
    def test_point_specs_enumerates_declaration_order(self):
        suite = TOY_SUITES["toy-square"]
        assert point_specs(suite) == [
            (2, "naive"), (2, "seminaive"),
            (3, "naive"), (3, "seminaive"),
            (4, "naive"), (4, "seminaive"),
        ]

    def test_jobs_below_one_raises(self):
        with pytest.raises(BenchError, match="jobs"):
            run_suites([TOY_SUITES["toy-linear"]], jobs=0)

    def test_run_tasks_empty_is_empty(self):
        assert run_tasks([], jobs=4) == []

    def test_failed_point_shape_matches_measured_points(self):
        placeholder = failed_point(7, "seminaive", "boom")
        assert placeholder["failed"] is True
        for key in ("n", "strategy", "seconds", "checksum", "counters",
                    "histograms"):
            assert key in placeholder

    def test_strip_timing_removes_wall_clock_but_keeps_counters(self):
        document = run_suites([TOY_SUITES["toy-linear"]])
        stripped = strip_timing(document)
        suite_doc = stripped["suites"]["toy-linear"]
        assert "fits" not in suite_doc
        for point in suite_doc["points"]:
            assert "seconds" not in point
            assert point["counters"]["toy.rows"] == point["n"]
        # The original document is untouched (deep copy).
        original = document["suites"]["toy-linear"]
        assert "fits" in original
        assert all("seconds" in p for p in original["points"])

    def test_strip_timing_removes_machine_counters(self):
        """``space.rss_peak``/``space.traced_peak`` are machine facts
        like wall-clock: stripped so serial and sharded documents
        compare byte-identical."""
        document = {"suites": {"s": {"points": [{
            "n": 2, "strategy": "seminaive", "seconds": 0.5,
            "counters": {"toy.rows": 4, "space.rss_peak": 16 << 20,
                         "space.traced_peak": 999},
            "histograms": {},
        }]}}}
        point = strip_timing(document)["suites"]["s"]["points"][0]
        assert point["counters"] == {"toy.rows": 4}
        assert "seconds" not in point

    def test_strip_timing_keeps_counter_metric_gates(self):
        document = {"suites": {"s": {
            "points": [],
            "gates": [
                {"slow": "a", "fast": "b", "metric": "seconds",
                 "min_ratio": 2.0, "n": 4, "ratio": 3.0, "ok": True},
                {"slow": "a", "fast": "b",
                 "metric": "space.peak_fixpoint_rows",
                 "min_ratio": 10.0, "n": 4, "ratio": 390.0, "ok": True},
            ],
            "expectations": [
                {"kind": "poly", "metric": "seconds", "ok": True,
                 "fit": {"slope": 1.0}},
                {"kind": "bound", "metric": "collapse.domain_values",
                 "ok": True, "bound": "1.0 * n**1"},
            ],
        }}}
        stripped = strip_timing(document)
        gates = stripped["suites"]["s"]["gates"]
        assert "ratio" not in gates[0]          # seconds gate stripped
        assert gates[1]["ratio"] == 390.0       # counter gate survives
        expectations = stripped["suites"]["s"]["expectations"]
        assert "fit" not in expectations[0]
        assert expectations[1]["ok"] is True

    def test_scheduler_preloads_every_lazy_run_import(self):
        """Every package a registry ``run`` callable imports lazily is
        loaded in the scheduler before it forks — by the CLI or by
        ``_RUN_IMPORTS`` — so no sharded point times a first import.
        Checked in a fresh interpreter: this one has imported it all."""
        import ast
        import subprocess
        import sys
        from pathlib import Path

        from repro.bench import registry

        tree = ast.parse(Path(registry.__file__).read_text())
        lazy = sorted({
            "repro." + node.module
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.ImportFrom) and node.level == 2})
        assert "repro.algebra" in lazy
        code = ("import importlib, sys\n"
                "import repro.cli\n"
                "from repro.bench.shard import _RUN_IMPORTS\n"
                "for name in _RUN_IMPORTS:\n"
                "    importlib.import_module(name)\n"
                f"print([m for m in {lazy!r} if m not in sys.modules])\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
