"""The cross-PR trend subsystem: the converted ``BENCH_PR3.json``,
alignment across PRs, tolerance-driven regression flags, holes for
absent suites, and the ``repro bench --trend`` CLI.

The committed ``BENCH_PR3.json`` (converted once from the retired flat
layout) and ``BENCH_PR4.json`` act as real-world goldens; the
fabricated documents pin down the flagging and hole semantics exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    build_trend,
    label_for_path,
    load_documents,
    render_trend,
)
from repro.bench.trend import TrendError
from repro.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, main


def _fake_document(rows: int, seconds: float = 0.5,
                   checksum: int = 2016) -> dict:
    """A minimal schema-1 document for seminaive-smoke, parameterised
    by its exact-tolerance counter ``datalog.rows_derived``."""
    return {
        "schema": 1,
        "experiment": "repro-bench",
        "suites": {
            "seminaive-smoke": {
                "name": "seminaive-smoke",
                "title": "t",
                "sizes": [8],
                "strategies": ["seminaive"],
                "points": [{
                    "n": 8, "strategy": "seminaive",
                    "seconds": seconds, "checksum": checksum,
                    "counters": {"datalog.rows_derived": rows,
                                 "ifp.stages": 8},
                    "histograms": {},
                }],
                "fits": {},
                "expectations": [],
                "gates": [],
            },
        },
    }


def _write(tmp_path, name: str, document: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


#: ``closure_rows`` per chain length in the flat ``datalog`` section of
#: ``BENCH_PR3.json`` before its conversion: the checksums its
#: ``seminaive-smoke`` points carry.
FLAT_CLOSURE_ROWS = {8: 28, 16: 120, 32: 496, 64: 2016}


class TestLegacyConversion:
    """``BENCH_PR3.json``, rewritten once from the retired flat layout
    into schema 1."""

    def test_committed_pr3_converts_with_mapped_counters(self):
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

    def test_label_extraction(self):
        assert label_for_path("BENCH_PR3.json") == "PR3"
        assert label_for_path("/some/dir/BENCH_PR12.json") == "PR12"
        assert label_for_path("custom.json") == "custom"


class TestLoadDocuments:
    def test_mixed_inputs_sort_by_pr_number(self, tmp_path):
        newer = _write(tmp_path, "BENCH_PR10.json", _fake_document(2016))
        with open("BENCH_PR3.json", encoding="utf-8") as handle:
            committed = json.load(handle)
        older = _write(tmp_path, "BENCH_PR3.json", committed)
        records = load_documents([newer, older])  # glob order scrambled
        assert [r["label"] for r in records] == ["PR3", "PR10"]
        assert records[0]["document"] == committed

    def test_flat_layout_is_rejected(self, tmp_path):
        """Only schema-1 documents load; the message names the schema."""
        flat = _write(tmp_path, "BENCH_PR2.json", {"datalog": []})
        with pytest.raises(TrendError, match="schema-1"):
            load_documents([flat])

    def test_non_json_input_raises_trend_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TrendError, match="not JSON"):
            load_documents([str(path)])


class TestBuildTrend:
    def test_real_pr3_pr4_mix_aligns_without_regressions(self, tmp_path):
        records = load_documents(["BENCH_PR3.json", "BENCH_PR4.json"])
        trend = build_trend(records)
        assert trend["prs"] == ["PR3", "PR4"]
        smoke = trend["suites"]["seminaive-smoke"]
        assert smoke["present"] == [True, True]
        rows = {(r["metric"], r["strategy"]): r for r in smoke["rows"]}
        derived = rows[("datalog.rows_derived", "seminaive")]
        assert derived["values"][0] == derived["values"][1]
        # Suites PR 3 predates render as holes, not crashes.
        hyper = trend["suites"]["hyper-domain"]
        assert hyper["present"] == [False, True]
        assert all(row["values"][0] is None for row in hyper["rows"])
        assert trend["regressions"] == []

    def test_fabricated_three_pr_regression_is_flagged(self, tmp_path):
        paths = [
            _write(tmp_path, "BENCH_PR3.json", _fake_document(2016)),
            _write(tmp_path, "BENCH_PR4.json", _fake_document(2016)),
            _write(tmp_path, "BENCH_PR5.json", _fake_document(2100)),
        ]
        trend = build_trend(load_documents(paths))
        assert len(trend["regressions"]) == 1
        flag = trend["regressions"][0]
        assert "datalog.rows_derived" in flag
        assert "PR4->PR5" in flag and "2016" in flag and "2100" in flag
        row = next(r for r in trend["suites"]["seminaive-smoke"]["rows"]
                   if r["metric"] == "datalog.rows_derived")
        assert row["regressions"] == ["PR5"]

    def test_seconds_never_flag(self, tmp_path):
        """Wall time is informational: a 100x slowdown renders in the
        table but produces no regression flag."""
        paths = [
            _write(tmp_path, "BENCH_PR4.json", _fake_document(2016, 0.1)),
            _write(tmp_path, "BENCH_PR5.json", _fake_document(2016, 10.0)),
        ]
        trend = build_trend(load_documents(paths))
        assert trend["regressions"] == []
        row = next(r for r in trend["suites"]["seminaive-smoke"]["rows"]
                   if r["metric"] == "seconds")
        assert row["deltas"][1] == pytest.approx(100.0)

    def test_checksum_change_is_flagged_exactly(self, tmp_path):
        paths = [
            _write(tmp_path, "BENCH_PR4.json", _fake_document(2016)),
            _write(tmp_path, "BENCH_PR5.json",
                   _fake_document(2016, checksum=9)),
        ]
        trend = build_trend(load_documents(paths))
        assert any("checksum" in flag for flag in trend["regressions"])

    def test_missing_suite_gap_renders_as_hole(self, tmp_path):
        gapless = _fake_document(2016)
        gapped = {"schema": 1, "experiment": "repro-bench", "suites": {}}
        paths = [
            _write(tmp_path, "BENCH_PR3.json", _fake_document(2016)),
            _write(tmp_path, "BENCH_PR4.json", gapped),
            _write(tmp_path, "BENCH_PR5.json", gapless),
        ]
        trend = build_trend(load_documents(paths))
        smoke = trend["suites"]["seminaive-smoke"]
        assert smoke["present"] == [True, False, True]
        for row in smoke["rows"]:
            assert row["values"][1] is None
        # The gap does not flag: PR3 -> PR5 values are equal.
        assert trend["regressions"] == []
        text = render_trend(trend)
        assert "(PR4: absent)" in text
        assert "—" in text

    def test_trend_json_round_trips(self, tmp_path):
        paths = [
            _write(tmp_path, "BENCH_PR4.json", _fake_document(2016)),
            _write(tmp_path, "BENCH_PR5.json", _fake_document(2016)),
        ]
        trend = build_trend(load_documents(paths))
        rebuilt = json.loads(json.dumps(trend))
        assert rebuilt == trend
        assert render_trend(rebuilt) == render_trend(trend)


class TestTrendCli:
    def test_text_report_over_committed_documents(self, capsys):
        code = main(["bench", "--trend", "BENCH_PR3.json",
                     "BENCH_PR4.json"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "== seminaive-smoke" in out
        assert "no regressions flagged across PR3 -> PR4" in out

    def test_json_format(self, capsys):
        code = main(["bench", "--trend", "BENCH_PR3.json",
                     "BENCH_PR4.json", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "bench-trend"
        assert payload["prs"] == ["PR3", "PR4"]

    def test_regression_sets_findings_exit_code(self, tmp_path, capsys):
        paths = [
            _write(tmp_path, "BENCH_PR4.json", _fake_document(2016)),
            _write(tmp_path, "BENCH_PR5.json", _fake_document(2100)),
        ]
        assert main(["bench", "--trend", *paths]) == EXIT_FINDINGS
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "FAIL:" in captured.err

    def test_flat_layout_input_is_an_error(self, tmp_path, capsys):
        flat = _write(tmp_path, "BENCH_PR2.json", {"datalog": []})
        code = main(["bench", "--trend", flat, "BENCH_PR4.json"])
        assert code == EXIT_ERROR
        assert "schema-1" in capsys.readouterr().err

    def test_missing_trend_file_is_a_usage_error(self, tmp_path, capsys):
        code = main(["bench", "--trend", str(tmp_path / "absent.json")])
        assert code == EXIT_ERROR
