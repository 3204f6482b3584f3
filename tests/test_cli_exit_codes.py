"""The CLI exit-code convention, uniform across subcommands.

* ``0`` — success, nothing at/above the failure threshold.
* ``1`` — findings: a non-range-restricted query, lint diagnostics at
  or above ``--fail-on``.
* ``2`` — usage or load errors: malformed arguments, unreadable
  instance files, unknown diagnostic codes.
"""

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, main
from repro.objects import atom, cset, database_schema, dump_instance, instance

SAFE = ("{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})]"
        "(G(x,y) or exists z:{U} (S(x,z) and G(z,y)))(x, y)}")
UNSAFE = "{[x:{U}] | not G(x, x)}"
#: Range restricted, but carries a COST001 *warning* (s has set height 1
#: over a flat schema) — distinguishes --fail-on error from warning.
WARN_ONLY = ("{[x:U] | P(x, x) and exists s:{U} "
             "(forall y:U (y in s <-> P(x, y)))}")
#: Range restricted (lint: CPX001), but t's rule-9' term reads S, the
#: enclosing fixpoint's relation, so range derivation cannot range t.
NO_DERIVED_RANGE = ("{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})](G(x,y) or "
                    "exists t:{{U}} (t = ifp[Q(w:{U})](S(x,w) or G(x,w)) "
                    "and y in t and G(y,y)))(x,y)}")


@pytest.fixture
def graph_file(tmp_path):
    schema = database_schema(G=["{U}", "{U}"])
    a, b, c = cset(atom("a")), cset(atom("b")), cset(atom("c"))
    path = tmp_path / "graph.json"
    dump_instance(instance(schema, G=[(a, b), (b, c)]), str(path))
    return str(path)


@pytest.fixture
def flat_file(tmp_path):
    schema = database_schema(P=["U", "U"])
    path = tmp_path / "flat.json"
    dump_instance(instance(schema, P=[("a", "b"), ("a", "c")]), str(path))
    return str(path)


class TestQueryCommand:
    def test_safe_query_ok(self, graph_file, capsys):
        assert main(["query", graph_file, SAFE, "--mode", "rr"]) == EXIT_OK

    def test_unsafe_query_is_a_finding(self, graph_file, capsys):
        code = main(["query", graph_file, UNSAFE, "--mode", "rr"])
        assert code == EXIT_FINDINGS

    def test_missing_instance_is_an_error(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "absent.json"), SAFE])
        assert code == EXIT_ERROR

    def test_malformed_query_is_an_error(self, graph_file, capsys):
        assert main(["query", graph_file, "{[x:U] | G(x"]) == EXIT_ERROR

    def test_corrupt_instance_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["query", str(path), SAFE]) == EXIT_ERROR

    @pytest.mark.parametrize("command", ["query", "profile"])
    def test_removed_intern_flag_is_an_error(self, graph_file, command,
                                            capsys):
        """Only ``--strategy`` selects an engine; ``--intern`` is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, graph_file, SAFE, "--intern"])
        assert excinfo.value.code == EXIT_ERROR


class TestUnderivableRange:
    """``NO_DERIVED_RANGE`` under each mode: no traceback anywhere."""

    def test_auto_falls_back_to_active_domain(self, graph_file, capsys):
        assert main(["query", graph_file, NO_DERIVED_RANGE]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["[{a}, {b}]", "[{b}, {c}]"]
        assert "no range for t" in captured.err
        assert "falling back to active-domain semantics" in captured.err

    def test_rr_mode_is_a_finding(self, graph_file, capsys):
        code = main(["query", graph_file, NO_DERIVED_RANGE, "--mode", "rr"])
        assert code == EXIT_FINDINGS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "range-restricted evaluation failed: no range for t")

    def test_lint_verdict_unchanged(self, graph_file, capsys):
        assert main(["lint", graph_file, NO_DERIVED_RANGE]) == EXIT_OK
        assert "info[CPX001] range-restricted CALC+IFP query: evaluable " \
            "in PTIME" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_rr_query_ok(self, graph_file, capsys):
        assert main(["analyze", graph_file, SAFE]) == EXIT_OK

    def test_non_rr_query_is_a_finding(self, graph_file, capsys):
        assert main(["analyze", graph_file, UNSAFE]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "diagnostics:" in out
        assert "RR002" in out


class TestLintCommand:
    def test_clean_query_ok(self, graph_file, capsys):
        assert main(["lint", graph_file, SAFE]) == EXIT_OK
        assert "RR005" in capsys.readouterr().out

    def test_violation_is_a_finding(self, graph_file, capsys):
        assert main(["lint", graph_file, UNSAFE]) == EXIT_FINDINGS

    def test_fail_on_warning_threshold(self, flat_file, capsys):
        assert main(["lint", flat_file, WARN_ONLY]) == EXIT_OK
        code = main(["lint", flat_file, WARN_ONLY, "--fail-on", "warning"])
        assert code == EXIT_FINDINGS

    def test_query_file_argument(self, graph_file, tmp_path, capsys):
        query_file = tmp_path / "q.repro"
        query_file.write_text(SAFE + "\n")
        assert main(["lint", graph_file, str(query_file)]) == EXIT_OK
        assert f"== {query_file}" in capsys.readouterr().out

    def test_json_output_round_trips(self, graph_file, capsys):
        assert main(["lint", graph_file, UNSAFE, "--json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["query"] == UNSAFE
        codes = [d["code"] for d in payload[0]["diagnostics"]]
        assert "RR002" in codes

    def test_explain_known_code(self, capsys):
        assert main(["lint", "--explain", "RR004"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RR004" in out and "Definition 5.2" in out

    def test_explain_unknown_code_is_an_error(self, capsys):
        assert main(["lint", "--explain", "XXX999"]) == EXIT_ERROR

    def test_missing_arguments_is_an_error(self, capsys):
        assert main(["lint"]) == EXIT_ERROR

    def test_parse_failure_is_a_finding(self, graph_file, capsys):
        assert main(["lint", graph_file, "{[x:U] | G(x"]) == EXIT_FINDINGS
        assert "PAR001" in capsys.readouterr().out


#: Unstratified: T and S negate each other (DEP002, ERROR).
UNSTRATIFIED_DL = """\
idb T({U}, {U}).
idb S({U}, {U}).
T(x, y) :- G(x, y), not S(x, y).
S(x, y) :- G(x, y), not T(x, y).
"""

#: Stratified TC with a duplicated rule (DED003, WARNING).
DEAD_RULE_DL = """\
idb T({U}, {U}).
T(x, y) :- G(x, y).
T(x, y) :- G(x, y).
T(x, y) :- T(x, z), G(z, y).
?- T(x, y).
"""

#: Clean TC: only INFO-level findings (DEP001, ADN001/ADN002, DLG002...).
CLEAN_DL = """\
idb T({U}, {U}).
T(x, y) :- G(x, y).
T(x, y) :- T(x, z), G(z, y).
?- T(x, y).
"""


class TestLintProgramCommand:
    """Program-level diagnostics obey the same exit-code convention as
    the query-level ones: ERROR fails by default, WARNING only under
    ``--fail-on warning``, INFO never."""

    @pytest.fixture
    def dl_file(self, tmp_path):
        def write(text):
            path = tmp_path / "program.dl"
            path.write_text(text)
            return str(path)
        return write

    def test_program_error_is_a_finding(self, graph_file, dl_file, capsys):
        code = main(["lint", graph_file, dl_file(UNSTRATIFIED_DL)])
        assert code == EXIT_FINDINGS
        assert "DEP002" in capsys.readouterr().out

    def test_program_warning_respects_fail_on(self, graph_file, dl_file,
                                              capsys):
        path = dl_file(DEAD_RULE_DL)
        assert main(["lint", graph_file, path]) == EXIT_OK
        assert "DED003" in capsys.readouterr().out
        code = main(["lint", graph_file, path, "--fail-on", "warning"])
        assert code == EXIT_FINDINGS

    def test_clean_program_ok_even_on_warning_threshold(self, graph_file,
                                                        dl_file, capsys):
        code = main(["lint", graph_file, dl_file(CLEAN_DL),
                     "--fail-on", "warning"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "DEP001" in out and "ADN002" in out

    def test_program_parse_failure_is_a_finding(self, graph_file, dl_file,
                                                capsys):
        code = main(["lint", graph_file, dl_file("idb T(U). T(x :- G.")])
        assert code == EXIT_FINDINGS
        assert "DLG003" in capsys.readouterr().out

    def test_json_carries_program_section(self, graph_file, dl_file,
                                          capsys):
        code = main(["lint", graph_file, dl_file(CLEAN_DL), "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        section = payload[0]["program"]
        assert section["schema"] == 1
        t_verdict = next(v for v in section["routing"]
                         if "T" in v["scc"])
        assert t_verdict["route"] == "linear-recursive"

    def test_explain_renders_analysis_tables(self, graph_file, dl_file,
                                             capsys):
        code = main(["lint", graph_file, dl_file(CLEAN_DL), "--explain"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "-- dependency graph --" in out
        assert "-- routing (per SCC, bottom-up) --" in out
        assert "-- adorned program (query T(x, y)) --" in out


def _no_suite_runs(monkeypatch) -> None:
    """Make running any bench suite fail the test: the usage errors
    below must be reported before the first point runs."""
    import repro.bench

    def run_suites(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(repro.bench, "run_suites", run_suites)


class TestBenchCommand:
    def test_unknown_suite_exits_2_and_lists_available_suites(self, capsys):
        assert main(["bench", "--suite", "nope"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "unknown suite 'nope'" in err
        # The stderr message enumerates what IS available.
        for name in ("seminaive-smoke", "smoke", "theorems",
                     "sparse-collapse"):
            assert name in err

    def test_bad_jobs_is_an_error(self, capsys):
        code = main(["bench", "--suite", "seminaive-smoke", "--jobs", "0"])
        assert code == EXIT_ERROR
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_bad_timeout_is_an_error(self, timeout, capsys):
        """A timeout that is not > 0 is rejected before any worker
        starts: one error line, no point reported."""
        code = main(["bench", "--suite", "seminaive-smoke",
                     "--timeout", timeout])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: --timeout")

    @pytest.mark.parametrize("sizes", ["-3", "0", "8,0"])
    def test_size_below_one_is_an_error(self, sizes, monkeypatch, capsys):
        """A size below 1 is a usage error, caught before any point
        runs: one error line naming --sizes, no point reported."""
        _no_suite_runs(monkeypatch)
        code = main(["bench", "--suite", "seminaive-smoke",
                     f"--sizes={sizes}"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ") and "--sizes" in errors[0]

    def test_legacy_baseline_is_an_error(self, tmp_path, monkeypatch,
                                         capsys):
        _no_suite_runs(monkeypatch)
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(
            {"datalog": [{"n": 8, "closure_rows": 28,
                          "seminaive": {"rows_derived": 28}}]}))
        code = main(["bench", "--suite", "seminaive-smoke",
                     "--sizes", "8,16", "--baseline", str(flat)])
        assert code == EXIT_ERROR
        assert "schema-1" in capsys.readouterr().err

    def test_missing_baseline_file_is_an_error(self, tmp_path, monkeypatch,
                                               capsys):
        _no_suite_runs(monkeypatch)
        code = main(["bench", "--suite", "seminaive-smoke",
                     "--sizes", "8,16",
                     "--baseline", str(tmp_path / "absent.json")])
        assert code == EXIT_ERROR
        assert "absent.json" in capsys.readouterr().err

    def test_non_json_baseline_is_an_error(self, tmp_path, monkeypatch,
                                           capsys):
        _no_suite_runs(monkeypatch)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["bench", "--suite", "seminaive-smoke",
                     "--sizes", "8,16", "--baseline", str(bad)])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_baseline_breach_sets_findings_exit_code(self, tmp_path,
                                                      capsys):
        """A run gated against its own output is clean; against a copy
        with one counter changed it exits 1, and the breach is both a
        ``FAIL:`` line and part of the written document."""
        argv = ["bench", "--suite", "seminaive-smoke", "--sizes", "8,16"]
        own = tmp_path / "own.json"
        assert main([*argv, "--json", str(own)]) == EXIT_OK
        assert main([*argv, "--baseline", str(own)]) == EXIT_OK
        baseline = json.loads(own.read_text())
        baseline["suites"]["seminaive-smoke"]["points"][0]["counters"][
            "datalog.rows_derived"] += 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(baseline))
        gated = tmp_path / "gated.json"
        capsys.readouterr()
        code = main([*argv, "--baseline", str(changed),
                     "--json", str(gated)])
        assert code == EXIT_FINDINGS
        fails = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL:")]
        assert len(fails) == 1
        assert "datalog.rows_derived at n=8" in fails[0]
        recorded = json.loads(gated.read_text())["baseline"]
        assert recorded["path"] == str(changed)
        assert recorded["breaches"] == [fails[0][len("FAIL: "):]]

    @pytest.mark.parametrize("argv", [
        ["bench", "--trend", "BENCH_PR3.json", "--migrate"],
        ["bench", "--suite", "seminaive-smoke", "--tracemalloc"],
        ["bench", "--trend", "BENCH_PR3.json"],
        ["bench", "--full"],
    ], ids=["migrate", "tracemalloc", "trend", "full"])
    def test_removed_flags_are_errors(self, argv, capsys):
        """``--migrate`` went with the flat layout; ``--memory`` records
        the traced peak ``--tracemalloc`` did; ``--trend`` and its
        ``--full`` went with the cross-PR trend report, whose check
        ``--baseline`` makes."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_ERROR


class TestProfileCommand:
    def test_missing_arguments_is_an_error(self, capsys):
        assert main(["profile"]) == EXIT_ERROR
        assert "--from" in capsys.readouterr().err

    def test_from_with_instance_args_is_an_error(self, graph_file, capsys):
        code = main(["profile", graph_file, SAFE, "--from", "saved.json"])
        assert code == EXIT_ERROR
        assert "--from" in capsys.readouterr().err

    def test_memory_with_from_is_an_error(self, tmp_path, capsys):
        code = main(["profile", "--from", str(tmp_path / "saved.json"),
                     "--memory"])
        assert code == EXIT_ERROR
        assert "--memory" in capsys.readouterr().err

    def test_legacy_unversioned_trace_is_an_error(self, tmp_path, capsys):
        """Pre-PR6 trace documents carry absolute perf_counter
        timestamps and no schema marker; re-export refuses them."""
        legacy = {"counters": {}, "dropped_events": 0,
                  "trace": {"name": "trace", "attrs": {}, "start": 1.0,
                            "end": 2.0, "events": [], "children": []}}
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        assert main(["profile", "--from", str(path)]) == EXIT_ERROR
        assert "legacy" in capsys.readouterr().err

    def test_non_trace_json_is_an_error(self, graph_file, capsys):
        # An instance file is valid JSON but not a trace document.
        assert main(["profile", "--from", graph_file]) == EXIT_ERROR

    def test_missing_from_file_is_an_error(self, tmp_path, capsys):
        code = main(["profile", "--from", str(tmp_path / "absent.json")])
        assert code == EXIT_ERROR


class TestObsCommand:
    """``repro obs``: exit-code cases for the reporting side of the run
    ledger and trace streams (PR 9)."""

    @pytest.fixture
    def ledger_file(self, graph_file, tmp_path):
        path = str(tmp_path / "obs-ledger.jsonl")
        assert main(["query", graph_file, SAFE, "--ledger", path]) == EXIT_OK
        assert main(["query", graph_file, SAFE, "--ledger", path,
                     "--strategy", "naive"]) == EXIT_OK
        return path

    def test_history_ok(self, ledger_file, capsys):
        assert main(["obs", "history", "--ledger", ledger_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "query" in out and "seminaive" in out and "naive" in out

    def test_history_json_ok(self, ledger_file, capsys):
        code = main(["obs", "history", "--ledger", ledger_file,
                     "--format", "json"])
        assert code == EXIT_OK
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2 and records[0]["command"] == "query"

    def test_aggregate_ok(self, ledger_file, capsys):
        assert main(["obs", "aggregate", "--ledger", ledger_file]) == EXIT_OK
        assert "wall_p50" in capsys.readouterr().out

    def test_diff_by_negative_index_ok(self, ledger_file, capsys):
        assert main(["obs", "diff", "-2", "-1",
                     "--ledger", ledger_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "strategy" in out and "!=" in out

    def test_replay_ok(self, graph_file, tmp_path, capsys):
        stream = str(tmp_path / "run.stream")
        assert main(["query", graph_file, SAFE, "--stream", stream,
                     "--no-ledger"]) == EXIT_OK
        code = main(["obs", "replay", stream, "--no-times"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fixpoint" in out and "eval.fixpoint_stages" in out

    def test_replay_chrome_trace_ok(self, graph_file, tmp_path, capsys):
        stream = str(tmp_path / "run.stream")
        main(["query", graph_file, SAFE, "--stream", stream, "--no-ledger"])
        capsys.readouterr()  # drop the query's own stdout
        code = main(["obs", "replay", stream, "--format", "chrome-trace"])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        code = main(["obs", "history",
                     "--ledger", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_empty_ledger_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "history", "--ledger", str(path)]) == EXIT_ERROR
        assert "no records" in capsys.readouterr().err

    def test_unknown_run_id_is_an_error(self, ledger_file, capsys):
        code = main(["obs", "diff", "zzzzzz", "-1",
                     "--ledger", ledger_file])
        assert code == EXIT_ERROR
        assert "unknown run id" in capsys.readouterr().err

    def test_malformed_stream_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.stream"
        path.write_text("garbage not json\nmore garbage\n")
        assert main(["obs", "replay", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_sharded_bench_with_stream_is_an_error(self, capsys):
        code = main(["bench", "--suite", "toy", "--jobs", "2",
                     "--stream", "x.jsonl"])
        assert code == EXIT_ERROR


class TestOtherCommands:
    def test_encode_ok(self, graph_file, capsys):
        assert main(["encode", graph_file]) == EXIT_OK

    def test_density_ok(self, graph_file, capsys):
        code = main(["density", graph_file, "--i", "1", "--k", "2",
                     "--degree", "1", "--coefficient", "2"])
        assert code == EXIT_OK

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2


#: Well-tokenised query text an AST constructor rejects: a head variable
#: missing from the body, a projection past a tuple's arity.
REJECTED_BY_THE_AST = [
    pytest.param("{[x:{U}, y:{U}] | G(xo, y)}",
                 "head variables ['x'] do not occur free in the body "
                 "at position 0", id="head-not-free"),
    pytest.param("{[x:[U,{U}]] | G(x.3, x.1)}",
                 "projection index 3 exceeds arity 2 at position 17",
                 id="projection-past-arity"),
]


class TestQueryTextRejectedByTheAst:
    """Such text is malformed input like any other: a located message,
    no traceback.  ``query`` and ``profile`` exit 2; ``lint`` reports it
    as its ``PAR001`` finding (exit 1), as it does every query that does
    not parse."""

    @staticmethod
    def _run(*args):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "repro", *args],
                              env=env, capture_output=True, text=True)

    @pytest.mark.parametrize("command", ["query", "profile"])
    @pytest.mark.parametrize("text,message", REJECTED_BY_THE_AST)
    def test_exits_2_with_one_error_line(self, graph_file, command, text,
                                         message):
        run = self._run(command, graph_file, text)
        assert run.returncode == EXIT_ERROR
        assert "Traceback" not in run.stderr
        errors = [line for line in run.stderr.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {message}"]

    @pytest.mark.parametrize("text,message", REJECTED_BY_THE_AST)
    def test_lint_reports_one_parse_finding(self, graph_file, text,
                                            message):
        run = self._run("lint", graph_file, text)
        assert run.returncode == EXIT_FINDINGS
        assert "Traceback" not in run.stderr
        errors = [line for line in run.stdout.splitlines()
                  if line.startswith("error")]
        assert errors == [f"error[PAR001] {message}"]


_GRAPH_SCHEMA = {"relations": [{"name": "G", "columns": ["{U}", "{U}"]}]}
_A, _B = {"s": [{"a": "a"}]}, {"s": [{"a": "b"}]}
#: A set type nested deeper than the type parser can recurse.
_TOO_DEEP = "{" * 1000 + "U" + "}" * 1000

#: Documents that parse as JSON but are not instances, each with the
#: JSON path of its bad node.
MALFORMED_INSTANCES = [
    pytest.param({"schema": _GRAPH_SCHEMA, "data": []}, "data",
                 id="data-a-list"),
    pytest.param({"schema": _GRAPH_SCHEMA, "data": {"G": 3}}, "data.G",
                 id="rows-not-a-list"),
    pytest.param({"schema": _GRAPH_SCHEMA, "data": {"G": {}}}, "data.G",
                 id="rows-an-empty-object"),
    pytest.param({"schema": _GRAPH_SCHEMA, "data": {"G": [[_A, _B], 3]}},
                 "data.G[1]", id="row-not-a-list"),
    pytest.param({"schema": _GRAPH_SCHEMA, "data": {"G": [[_A, _B, _A]]}},
                 "data.G[0]", id="row-of-wrong-arity"),
    pytest.param({"schema": _GRAPH_SCHEMA,
                  "data": {"G": [[_A, {"a": "b"}]]}},
                 "data.G[0][1]", id="value-of-wrong-type"),
    pytest.param({"schema": _GRAPH_SCHEMA,
                  "data": {"G": [[_A, {"s": [{"a": "b"}, _B]}]]}},
                 "data.G[0][1].s[1]", id="heterogeneous-set"),
    pytest.param({"schema": {"relations": [{"name": "G",
                                            "columns": ["{Q}"]}]},
                  "data": {}},
                 "schema.relations[0].columns[0]", id="bad-column-type"),
    pytest.param({"schema": {"relations": [{"name": "G", "columns": 3}]},
                  "data": {}},
                 "schema.relations[0].columns", id="columns-a-number"),
    pytest.param({"schema": {"relations": [{"name": "G", "columns": "U"}]},
                  "data": {}},
                 "schema.relations[0].columns", id="columns-a-string"),
    pytest.param({"schema": _GRAPH_SCHEMA,
                  "data": {"G": [[{"s": [{"a": 1.5}]}, _B]]}},
                 "data.G[0][0].s[0]", id="float-atom-label"),
    pytest.param({"schema": _GRAPH_SCHEMA,
                  "data": {"G": [[_A, {"s": [{"a": ["b"]}]}]]}},
                 "data.G[0][1].s[0]", id="list-atom-label"),
    pytest.param([_GRAPH_SCHEMA], "instance document", id="top-level-list"),
    pytest.param({"schema": {"relations": 3}, "data": {}},
                 "schema.relations", id="relations-not-a-list"),
    pytest.param({"schema": {"relations": [{"name": "G",
                                            "columns": [_TOO_DEEP]}]},
                  "data": {}},
                 "schema.relations[0].columns[0]",
                 id="column-type-nested-too-deeply"),
]

#: One argument list per command that loads an instance, ``{}`` standing
#: for the instance file.
LOADING_COMMANDS = [
    pytest.param(["query", "{}", SAFE], id="query"),
    pytest.param(["density", "{}"], id="density"),
    pytest.param(["lint", "{}", SAFE], id="lint"),
]


class TestMalformedInstance:
    """A malformed instance document is a load error: exit 2 and one
    ``error:`` line naming the JSON path of the bad node."""

    @pytest.mark.parametrize("argv", LOADING_COMMANDS)
    @pytest.mark.parametrize("document,path", MALFORMED_INSTANCES)
    def test_exits_2_naming_the_path(self, tmp_path, argv, document, path,
                                     capsys):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(document))
        code = main([str(target) if arg == "{}" else arg for arg in argv])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("argv", LOADING_COMMANDS)
    def test_json_nested_too_deeply_to_parse(self, tmp_path, argv, capsys):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        code = main([str(target) if arg == "{}" else arg for arg in argv])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: instance document: ")
        assert len(err.splitlines()) == 1

    def test_no_traceback_from_the_process(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(
            {"schema": _GRAPH_SCHEMA, "data": {"G": [[_A, {"a": "b"}]]}}))
        run = TestQueryTextRejectedByTheAst._run("query", str(target), SAFE)
        assert run.returncode == EXIT_ERROR
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: data.G[0][1]: ")
