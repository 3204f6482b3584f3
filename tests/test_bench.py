"""The bench observatory: curve fitting and classification, suite
running, schema-1 baseline diffing (the pre-schema-1 flat layout is
retired), and the ``repro bench`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchError,
    LegacyBaselineError,
    Suite,
    SUITES,
    Tolerance,
    classify,
    diff_against_baseline,
    document_failures,
    doubling_ratios,
    failed_point,
    local_degrees,
    loglog_fit,
    resolve_suites,
    run_suite,
    run_suites,
    series,
)
from repro.cli import main

SIZES = [4, 8, 16, 32, 64]

#: ``closure_rows`` per chain length in the flat ``datalog`` section of
#: ``BENCH_PR3.json`` before its conversion: the checksums its
#: ``seminaive-smoke`` points carry.
FLAT_CLOSURE_ROWS = {8: 28, 16: 120, 32: 496, 64: 2016}


class TestLogLogFit:
    def test_pure_power_law_recovers_degree(self):
        fit = loglog_fit(SIZES, [3 * n**2 for n in SIZES])
        assert fit.slope == pytest.approx(2.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_cubic(self):
        fit = loglog_fit(SIZES, [n**3 for n in SIZES])
        assert fit.slope == pytest.approx(3.0)

    def test_constant_series_is_slope_zero_perfect_fit(self):
        fit = loglog_fit(SIZES, [7.0] * len(SIZES))
        assert fit.slope == pytest.approx(0.0)
        assert fit.r2 == 1.0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            loglog_fit([4], [1.0])
        with pytest.raises(ValueError):
            loglog_fit([4, 4], [1.0, 2.0])
        with pytest.raises(ValueError):
            loglog_fit([4, 8], [1.0])


class TestLocalDegreesAndRatios:
    def test_polynomial_series_has_constant_local_degrees(self):
        degrees = local_degrees(SIZES, [n**2 for n in SIZES])
        assert degrees == pytest.approx([2.0] * 4)
        assert doubling_ratios(SIZES, [n**2 for n in SIZES]) == \
            pytest.approx([4.0] * 4)

    def test_exponential_series_has_increasing_local_degrees(self):
        degrees = local_degrees(SIZES, [2.0**n for n in SIZES])
        assert all(b > a for a, b in zip(degrees, degrees[1:]))

    def test_non_increasing_xs_raise(self):
        with pytest.raises(ValueError):
            local_degrees([4, 4, 8], [1, 2, 3])


class TestClassify:
    def test_quadratic_is_poly_degree_two(self):
        detected = classify(SIZES, [5 * n**2 for n in SIZES])
        assert detected.kind == "poly"
        assert detected.degree == pytest.approx(2.0)

    def test_cubic_is_poly_degree_three(self):
        detected = classify(SIZES, [n**3 for n in SIZES])
        assert detected.kind == "poly"
        assert detected.degree == pytest.approx(3.0)

    def test_exponential_is_superpoly(self):
        detected = classify(SIZES, [2.0**n for n in SIZES])
        assert detected.kind == "superpoly"

    def test_noisy_quadratic_stays_poly(self):
        """The one-sided guard: multiplicative noise wobbles local
        degrees but must not promote a polynomial to superpoly."""
        noise = [1.3, 0.8, 1.1, 0.9, 1.2]
        ys = [f * n**2 for f, n in zip(noise, SIZES)]
        assert classify(SIZES, ys).kind == "poly"

    def test_two_point_series_cannot_be_superpoly(self):
        detected = classify([4, 8], [16.0, 4096.0])
        assert detected.kind == "poly"  # one segment: no trend to read


def _run_counting(n: int, strategy: str) -> dict:
    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.count("toy.rows", n * n)
    tracer.observe("toy.sizes", n)
    return {"checksum": n * n}


TOY = Suite(
    name="toy",
    title="quadratic toy workload",
    sizes=(4, 8, 16),
    strategies=("naive", "seminaive"),
    run=_run_counting,
    tolerances=(Tolerance(metric="toy.rows"),),
)


class TestRunSuite:
    def test_document_shape_and_series(self):
        document = run_suite(TOY)
        assert document["name"] == "toy"
        assert len(document["points"]) == 6  # 3 sizes x 2 strategies
        point = document["points"][0]
        assert point["counters"]["toy.rows"] == 16
        assert point["histograms"]["toy.sizes"]["count"] == 1
        xs, ys = series(document["points"], "seminaive", "toy.rows")
        assert xs == [4, 8, 16]
        assert ys == [16.0, 64.0, 256.0]
        assert document["agreement"]["ok"]
        assert "seconds" in document["fits"]["seminaive"]

    def test_undeclared_strategy_raises(self):
        with pytest.raises(BenchError):
            run_suite(TOY, strategies=("magic",))

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
    def test_timeout_not_above_zero_raises(self, timeout):
        """A ``point_timeout`` that is not > 0 is refused before any
        point runs, as ``jobs < 1`` is."""
        calls = []

        def run(n: int, strategy: str) -> dict:
            calls.append(n)
            return {"checksum": n}

        suite = Suite(name="watched", title="t", sizes=(4,),
                      strategies=("seminaive",), run=run)
        with pytest.raises(BenchError, match="--timeout must be > 0"):
            run_suites([suite], point_timeout=timeout)
        assert calls == []

    def test_run_suites_skips_suites_without_the_strategy(self):
        single = Suite(name="single", title="t", sizes=(4, 8),
                       strategies=("seminaive",), run=_run_counting)
        document = run_suites([TOY, single], strategy="naive")
        assert "toy" in document["suites"]
        assert document["skipped"] == ["single"]
        assert document["schema"] == 1


class TestResolveSuites:
    def test_groups_expand_and_dedup(self):
        suites = resolve_suites(["smoke", "seminaive-smoke"])
        names = [suite.name for suite in suites]
        assert names[0] == "seminaive-smoke"
        assert len(names) == len(set(names))

    def test_default_is_smoke(self):
        assert resolve_suites(None) == resolve_suites(["smoke"])

    def test_unknown_name_lists_candidates(self):
        with pytest.raises(KeyError, match="seminaive-smoke"):
            resolve_suites(["nope"])


class TestBaselineDiff:
    def test_modern_baseline_round_trip_is_clean(self):
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        assert diff_against_baseline(document, baseline, [TOY]) == []

    def test_modern_baseline_counter_regression_is_a_breach(self):
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        point = baseline["suites"]["toy"]["points"][0]
        point["counters"]["toy.rows"] -= 1
        breaches = diff_against_baseline(document, baseline, [TOY])
        assert len(breaches) == 1
        assert "toy.rows" in breaches[0]

    def test_modern_baseline_counter_drop_is_a_breach(self):
        """Equality both ways: a counter below its baseline breaches as
        one above it does."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        point = baseline["suites"]["toy"]["points"][0]
        point["counters"]["toy.rows"] += 1
        breaches = diff_against_baseline(document, baseline, [TOY])
        assert len(breaches) == 1
        assert "toy.rows" in breaches[0]

    def test_big_int_counter_compares_exactly(self):
        """``2**72 + 1`` against ``2**72`` is a breach, though the two
        are equal as floats."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        document["suites"]["toy"]["points"][0]["counters"]["toy.rows"] = (
            2**72 + 1)
        baseline["suites"]["toy"]["points"][0]["counters"]["toy.rows"] = (
            2**72)
        breaches = diff_against_baseline(document, baseline, [TOY])
        assert len(breaches) == 1
        assert str(2**72 + 1) in breaches[0]

    def test_wall_seconds_never_breach(self):
        """Wall time does not compare across machines: a baseline whose
        every point ran 100x faster is clean."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        for point in baseline["suites"]["toy"]["points"]:
            point["seconds"] /= 100
        assert diff_against_baseline(document, baseline, [TOY]) == []

    def test_modern_baseline_checksum_change_is_a_breach(self):
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        baseline["suites"]["toy"]["points"][0]["checksum"] = 99
        breaches = diff_against_baseline(document, baseline, [TOY])
        assert any("checksum" in breach for breach in breaches)

    def test_uncovered_points_are_not_breaches(self):
        document = run_suites([TOY])
        assert diff_against_baseline(document, {"suites": {}}, [TOY]) == []

    def test_new_sizes_are_not_breaches_but_covered_ones_gate(self):
        """A baseline that covers only n=4 gates n=4 and ignores the
        sizes it predates."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        toy = baseline["suites"]["toy"]
        toy["points"] = [point for point in toy["points"]
                         if point["n"] == 4]
        assert diff_against_baseline(document, baseline, [TOY]) == []
        toy["points"][0]["counters"]["toy.rows"] = 15
        breaches = diff_against_baseline(document, baseline, [TOY])
        assert len(breaches) == 1
        assert "n=4" in breaches[0]

    def test_breach_names_suite_metric_point_and_both_values(self):
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        baseline["suites"]["toy"]["points"][0]["counters"]["toy.rows"] = 15
        assert diff_against_baseline(document, baseline, [TOY]) == [
            "toy: toy.rows at n=4 (naive) changed: 16 vs baseline 15"]

    def test_every_changed_point_is_its_own_breach(self):
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        for point in baseline["suites"]["toy"]["points"]:
            point["counters"]["toy.rows"] += 1
        breaches = diff_against_baseline(document, baseline, [TOY])
        assert len(breaches) == len(document["suites"]["toy"]["points"])
        assert all("toy.rows" in breach for breach in breaches)

    def test_counter_missing_from_the_run_reads_zero(self):
        """A gated counter the new run no longer records fell to 0."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        del document["suites"]["toy"]["points"][0]["counters"]["toy.rows"]
        assert diff_against_baseline(document, baseline, [TOY]) == [
            "toy: toy.rows at n=4 (naive) changed: 0 vs baseline 16"]

    def test_ungated_counter_change_is_not_a_breach(self):
        """Only the suite's declared tolerance counters (and the
        checksum) gate; other counters are informational."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        document["suites"]["toy"]["points"][0]["counters"]["toy.other"] = 1
        baseline["suites"]["toy"]["points"][0]["counters"]["toy.other"] = 2
        assert diff_against_baseline(document, baseline, [TOY]) == []

    def test_suites_not_passed_are_not_gated(self):
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        baseline["suites"]["toy"]["points"][0]["checksum"] = 99
        assert diff_against_baseline(document, baseline, []) == []

    @pytest.mark.parametrize("side", ["document", "baseline"])
    def test_failed_points_are_skipped(self, side):
        """A failed point on either side is reported through the
        partial flag, not as a counter or checksum breach."""
        document = run_suites([TOY])
        baseline = json.loads(json.dumps(document))
        target = document if side == "document" else baseline
        point = target["suites"]["toy"]["points"][0]
        target["suites"]["toy"]["points"][0] = failed_point(
            point["n"], point["strategy"], "worker killed")
        assert diff_against_baseline(document, baseline, [TOY]) == []

    def test_legacy_flat_baseline_is_retired(self):
        """The pre-schema-1 flat layout does not gate: the diff raises,
        naming the schema it needs."""
        document = run_suites([TOY])
        legacy = {"datalog": [{"n": 4, "closure_rows": 16,
                               "seminaive": {"rows": 16}}]}
        with pytest.raises(LegacyBaselineError, match="schema-1"):
            diff_against_baseline(document, legacy, [TOY])

    def test_migrated_pr3_baseline_still_gates_the_smoke_suite(self):
        """The committed BENCH_PR3.json, converted once to schema 1,
        gates the smoke suite exactly as the retired reader did."""
        with open("BENCH_PR3.json", encoding="utf-8") as handle:
            baseline = json.load(handle)
        suite = SUITES["seminaive-smoke"]
        document = run_suites([suite], sizes=(8, 16))
        assert diff_against_baseline(document, baseline, [suite]) == []

    def test_committed_pr18_baseline_gates_the_smoke_suite(self):
        """``BENCH_PR18.json``, the document CI gates against, covers
        the smoke suite's sizes and holds its counters exactly."""
        with open("BENCH_PR18.json", encoding="utf-8") as handle:
            baseline = json.load(handle)
        suite = SUITES["seminaive-smoke"]
        document = run_suites([suite], sizes=(8, 16))
        assert diff_against_baseline(document, baseline, [suite]) == []
        baseline["suites"]["seminaive-smoke"]["points"][0]["counters"][
            "datalog.rows_derived"] += 1
        breaches = diff_against_baseline(document, baseline, [suite])
        assert len(breaches) == 1
        assert "datalog.rows_derived at n=8" in breaches[0]

    def test_committed_pr3_converts_with_mapped_counters(self):
        """``BENCH_PR3.json``, rewritten once from the retired flat
        layout into schema 1."""
        with open("BENCH_PR3.json", encoding="utf-8") as handle:
            converted = json.load(handle)
        assert converted["schema"] == 1
        assert converted["converted_from"] == "legacy-pr3-flat"
        assert sorted(converted["suites"]) == [
            "algebra-loop", "calc-ifp-dense", "seminaive-smoke"]
        smoke = converted["suites"]["seminaive-smoke"]
        assert smoke["strategies"] == ["naive", "seminaive"]
        # The flat per-strategy fields became observatory counter names,
        # closure_rows became the checksum.
        for point in smoke["points"]:
            assert "datalog.rows_derived" in point["counters"]
            assert point["checksum"] == FLAT_CLOSURE_ROWS[point["n"]]
        assert {point["n"] for point in smoke["points"]} \
            == set(FLAT_CLOSURE_ROWS)


class TestDocumentFailures:
    def test_collects_failed_expectations_gates_and_agreement(self):
        document = {"suites": {"s": {
            "expectations": [
                {"kind": "poly", "metric": "seconds", "ok": False},
                {"kind": "bound", "metric": "rows", "ok": True},
            ],
            "gates": [{"slow": "naive", "fast": "seminaive", "ok": False}],
            "agreement": {"ok": False, "disagreements": {"4": [1, 2]}},
        }}}
        failures = document_failures(document)
        assert len(failures) == 3

    def test_clean_document_has_no_failures(self):
        assert document_failures(run_suites([TOY])) == []


class TestBenchCli:
    def test_list_exits_clean(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke (group)" in out
        assert "hyper-domain" in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert main(["bench", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_bad_sizes_is_a_usage_error(self, capsys):
        status = main(["bench", "--suite", "algebra-loop",
                       "--sizes", "x,y"])
        assert status == 2
        assert "bad --sizes" in capsys.readouterr().err

    def test_small_clean_run_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        status = main(["bench", "--suite", "algebra-loop",
                       "--sizes", "8,16", "--json", str(out_file)])
        assert status == 0
        captured = capsys.readouterr()
        assert "[PASS] cross-strategy agreement" in captured.out
        document = json.loads(out_file.read_text())
        assert document["schema"] == 1
        assert "algebra-loop" in document["suites"]

    def test_failed_gate_sets_findings_exit_code(self, capsys):
        """Restricting seminaive-smoke to one strategy starves its
        naive/seminaive speedup gate -> findings exit code."""
        status = main(["bench", "--suite", "seminaive-smoke",
                       "--sizes", "8", "--strategy", "seminaive"])
        assert status == 1
        assert "FAIL:" in capsys.readouterr().err
