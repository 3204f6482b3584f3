"""Command-line interface: ``python -m repro <command> ...`` (or the
``repro`` console script).

Commands:

* ``query``    — evaluate a query (textual syntax) over a JSON instance;
* ``profile``  — evaluate with tracing on; print the EXPLAIN-style trace
  tree and a counter summary (or the trace as JSON);
* ``bench``    — the scaling observatory: run declared benchmark suites,
  record time + space per point, fit curves, gate against a baseline;
* ``analyze``  — type-check a query and run the range-restriction analysis;
* ``lint``     — the :mod:`repro.lint` static analyzer (structured
  diagnostics, ``--json``, ``--explain CODE``, ``--fail-on``);
* ``encode``   — print the standard TM-tape encoding of an instance;
* ``density``  — density/sparsity verdicts of an instance w.r.t. <i,k>;
* ``example``  — emit a sample instance document to get started;
* ``obs``      — the run ledger and trace streams: ``history``,
  ``aggregate``, ``diff``, ``replay``.

Every ``query``/``profile``/``bench``/``lint`` invocation appends a
record to the run ledger (``.repro/ledger.jsonl``; ``--ledger PATH`` to
redirect, ``--no-ledger`` or ``REPRO_LEDGER=""`` to disable).  The
evaluation commands also take ``--stream FILE`` (live JSONL trace
telemetry that survives a SIGKILL) and ``--stall-after``/
``--stall-abort`` (a watchdog over the engines' heartbeats).

The instance format is the tagged JSON of :mod:`repro.objects.io`.

Exit codes (uniform across commands, CI-friendly):

* ``0`` — clean: the command ran and found nothing wrong;
* ``1`` — findings: lint diagnostics at/above the ``--fail-on``
  threshold, a not-range-restricted query under ``analyze`` or
  ``query --mode rr``, a failed expectation/gate/tolerance under
  ``bench``;
* ``2`` — usage or load error: bad arguments, unreadable/malformed
  instance files, queries that do not parse or type check (where the
  command is not itself reporting that as a finding).

Examples::

    repro example > graph.json
    repro encode graph.json
    repro query graph.json \\
        "{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})](G(x,y) or \\
          exists z:{U} (S(x,z) and G(z,y)))(x, y)}"
    repro profile graph.json "..." --mode active
    repro analyze graph.json "{[x:{U}] | exists y:{U} (G(x,y))}"
    repro lint graph.json "{[x:{U}] | not G(x, x)}" --json
    repro lint --explain RR004
    repro density graph.json --i 1 --k 2
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Callable

from .analysis.density import is_dense_witness, is_sparse_witness, log2_dom_ik
from .analysis.statistics import instance_stats
from .core.fixpoint import PFPDivergenceError
from .core.parser import ParseError, parse_query
from .core.range_restriction import RangeComputationError, analyze_query
from .core.safety import evaluate_range_restricted
from .core.evaluation import STRATEGIES, evaluate
from .core.typecheck import TypeCheckError, check_query
from .datalog.parser import (
    DatalogParseError,
    looks_like_program,
    parse_program,
)
from .lint import (
    Diagnostic,
    LintReport,
    Severity,
    explain,
    lint_program,
    lint_query,
    lint_source,
)
from .obs import (
    NULL_TRACER,
    ExportError,
    RunRecorder,
    StallError,
    Tracer,
    Watchdog,
    aggregate_records,
    aggregate_table,
    append_record,
    chrome_trace,
    collapsed_stacks,
    default_ledger_path,
    diff_records,
    find_record,
    history_table,
    instance_checksum,
    memory_table,
    metrics_table,
    LedgerError,
    query_hash,
    read_ledger,
    render_tree,
    replay_stream,
    summary_table,
    titled_table,
    trace_to_json,
    tracer_from_document,
    use_tracer,
)
from .objects.encoding import encode_instance
from .objects.io import instance_from_json, instance_to_json
from .objects.schema import SchemaError
from .objects.types import parse_type
from .objects.values import CTuple

__all__ = ["EXIT_ERROR", "EXIT_FINDINGS", "EXIT_OK", "main"]

#: Exit-code convention (see the module docstring).
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Commands that append a record to the run ledger.
_LEDGERED_COMMANDS = ("query", "profile", "bench", "lint")

#: The invocation's active :class:`repro.obs.RunRecorder` (None when the
#: ledger is disabled or the command is not ledgered) and the ledger
#: path it will be appended to.  Command handlers feed fields in through
#: :func:`_record`; :func:`main` finalises in its ``finally`` block, so
#: even a run that dies with a traceback leaves a record.
_RECORDER: RunRecorder | None = None
_LEDGER_PATH: str | None = None


def _make_recorder(args: argparse.Namespace) -> None:
    """Install the module-level recorder for a ledgered invocation."""
    global _RECORDER, _LEDGER_PATH
    _RECORDER, _LEDGER_PATH = None, None
    if getattr(args, "command", None) not in _LEDGERED_COMMANDS:
        return
    if getattr(args, "no_ledger", False):
        return
    path = getattr(args, "ledger", None) or default_ledger_path()
    if path is None:  # REPRO_LEDGER="" disables recording
        return
    _RECORDER = RunRecorder(args.command)
    _LEDGER_PATH = path


def _record(**fields) -> None:
    """Note ledger fields as a command handler learns them (no-op when
    the run is not being recorded)."""
    if _RECORDER is not None:
        _RECORDER.note(**fields)


def _record_tracer(tracer) -> None:
    if _RECORDER is not None and isinstance(tracer, Tracer):
        _RECORDER.attach_tracer(tracer)


def _finalize_recorder(outcome: str, error_text: str | None) -> None:
    """Append the invocation's record; a ledger write failure is a
    stderr note, never a run failure."""
    global _RECORDER, _LEDGER_PATH
    recorder, path = _RECORDER, _LEDGER_PATH
    _RECORDER, _LEDGER_PATH = None, None
    if recorder is None or path is None:
        return
    record = recorder.finish(outcome, error=error_text)
    try:
        append_record(record, path)
    except OSError as error:
        print(f"note: could not write run ledger {path}: {error}",
              file=sys.stderr)


@contextlib.contextmanager
def _stream_sink(args: argparse.Namespace):
    """The ``--stream`` sink: None (off), stderr (``-``), or an opened
    file that is closed when the command finishes."""
    target = getattr(args, "stream", None)
    if not target:
        yield None
    elif target == "-":
        yield sys.stderr
    else:
        # Append, like the ledger: each run starts a new begin-delimited
        # segment, and `repro obs replay --segment` selects among them.
        with open(target, "a", encoding="utf-8") as handle:
            yield handle


def _wants_watchdog(args: argparse.Namespace) -> bool:
    return (getattr(args, "stall_after", None) is not None
            or getattr(args, "stall_abort", False))


@contextlib.contextmanager
def _maybe_watchdog(args: argparse.Namespace, tracer):
    """Run the body under a stall watchdog when ``--stall-after`` or
    ``--stall-abort`` asked for one (bare ``--stall-abort`` defaults the
    window to 30 seconds)."""
    if not _wants_watchdog(args) or not isinstance(tracer, Tracer):
        yield None
        return
    stall = getattr(args, "stall_after", None)
    if stall is None:
        stall = 30.0
    with Watchdog(tracer, stall, abort=args.stall_abort) as dog:
        yield dog


def _load_instance(path: str):
    with open(path, encoding="utf-8") as handle:
        return instance_from_json(json.load(handle))


def _format_row(row: CTuple) -> str:
    return str(row)


def _run_query(args: argparse.Namespace, tracer) -> tuple[frozenset, str]:
    """Evaluate per ``--mode``; returns (answer, mode actually used).

    In ``auto`` mode a range-restriction failure falls back to
    active-domain semantics; the reason is reported as a trace event and
    a stderr note rather than swallowed, so users learn why the fast
    path was skipped.
    """
    with tracer.span("load_instance"):
        inst = _load_instance(args.instance)
    with tracer.span("parse_query"):
        query = parse_query(args.query)
    strategy = getattr(args, "strategy", "seminaive")
    _record(query_hash=query_hash(args.query),
            instance_checksum=instance_checksum(inst),
            strategy=strategy)
    if args.mode == "active":
        return (evaluate(query, inst, max_domain_size=args.max_domain,
                         strategy=strategy), "active")
    try:
        return (evaluate_range_restricted(query, inst,
                                          strategy=strategy).answer, "rr")
    except RangeComputationError as error:
        # Only the RR-analysis rejection triggers the fallback; genuine
        # engine failures propagate instead of masquerading as "not RR".
        if args.mode == "rr":
            raise
        tracer.event("fallback", to="active", reason=str(error))
        print(f"note: range-restricted evaluation unavailable "
              f"({error}); falling back to active-domain semantics",
              file=sys.stderr)
        return (evaluate(query, inst, max_domain_size=args.max_domain,
                         strategy=strategy), "active")


def _traced_run(args: argparse.Namespace, *, trace: bool,
                partial_tree: bool = False) -> tuple | None:
    """Evaluate the query under a tracer: the one traced-run path of
    ``query`` and ``profile``.

    The tracer is live when ``trace`` asks for it, and also when a
    ``--stream`` sink, the stall watchdog or the ledger needs it (the
    record's headline counters come off it).  It is closed on every
    exit, so a ``--stream`` segment always ends with the root's close
    and the ``end`` record.  Returns ``(tracer, answer, mode_used,
    seconds)``, or None once a not-range-restricted query under
    ``--mode rr`` has been reported: a finding (exit 1), not a usage
    error.  With ``partial_tree``, a run that raises prints its partial
    tree (open spans aborted) to stderr before the traceback.
    """
    with _stream_sink(args) as sink:
        live = (trace or sink is not None or _wants_watchdog(args)
                or _RECORDER is not None)
        tracer = (Tracer(memory=getattr(args, "memory", False), stream=sink)
                  if live else NULL_TRACER)
        _record_tracer(tracer)
        start = time.perf_counter()
        try:
            with use_tracer(tracer), _maybe_watchdog(args, tracer):
                answer, mode_used = _run_query(args, tracer)
            seconds = time.perf_counter() - start
        except RangeComputationError as error:
            # Only --mode rr gets here: the other modes fall back inside
            # _run_query.
            print(f"range-restricted evaluation failed: {error}",
                  file=sys.stderr)
            _record(outcome="error", error=str(error))
            return None
        except Exception:
            if partial_tree and tracer.root.children:
                # Rendering closes the tracer, so the aborted spans are
                # streamed before the tree is printed.
                tree = render_tree(tracer, times=not args.no_times)
                print("-- query failed; partial trace (open spans "
                      "aborted):", file=sys.stderr)
                print(tree, file=sys.stderr)
            raise
        finally:
            tracer.close()
        _record(mode=mode_used, rows=len(answer))
    return tracer, answer, mode_used, seconds


def _cmd_query(args: argparse.Namespace) -> int:
    run = _traced_run(args, trace=bool(args.trace or args.stats
                                       or args.trace_json))
    if run is None:
        return EXIT_FINDINGS
    tracer, answer, _, _ = run
    stats_json = args.stats and args.format == "json"
    for row in sorted(answer, key=str):
        print(_format_row(row))
    if not stats_json:
        # In JSON stats mode stderr carries exactly one parseable
        # document; the row count rides inside it instead.
        print(f"-- {len(answer)} tuple(s)", file=sys.stderr)
    if args.trace:
        print(render_tree(tracer), file=sys.stderr)
    if args.stats:
        if stats_json:
            document = _stats_document(tracer)
            document["answer_rows"] = len(answer)
            json.dump(document, sys.stderr, indent=2)
            print(file=sys.stderr)
        else:
            print(summary_table(tracer), file=sys.stderr)
    if args.trace_json:
        with open(args.trace_json, "w", encoding="utf-8") as handle:
            json.dump(trace_to_json(tracer), handle, indent=2)
    return EXIT_OK


def _stats_document(tracer: Tracer) -> dict:
    """Counters + histograms as one machine-readable document
    (``query --stats --format json``)."""
    from .obs import metrics_to_json

    return {
        "schema": 1,
        "counters": dict(tracer.counters),
        "metrics": metrics_to_json(tracer.metrics)["metrics"],
    }


def _write_trace(tracer: Tracer, fmt: str, args: argparse.Namespace, *,
                 extra: dict | None = None,
                 text: Callable[[], str] | None = None) -> int:
    """Write a closed trace to stdout as ``fmt``: Chrome Trace Event
    JSON, collapsed flame stacks, the trace JSON document (``extra``
    fields appended), or text — ``text()`` when given, else the tree.
    The one output path of live ``profile``, ``profile --from`` and
    ``obs replay``."""
    if fmt == "chrome-trace":
        json.dump(chrome_trace(tracer), sys.stdout, indent=2)
        print()
    elif fmt == "flame":
        flame = collapsed_stacks(tracer, metric=args.flame_metric)
        if flame:
            print(flame)
    elif fmt == "json":
        json.dump({**trace_to_json(tracer), **(extra or {})}, sys.stdout,
                  indent=2)
        print()
    elif text is not None:
        print(text())
    else:
        print(render_tree(tracer, times=not args.no_times))
    return EXIT_OK


def _profile_text(tracer: Tracer, args: argparse.Namespace, answer,
                  mode_used: str, seconds: float) -> str:
    """The default ``profile`` report: tree, counter and histogram
    tables, the memory table under ``--memory``, and the answer size."""
    times = not args.no_times
    lines = [f"mode: {mode_used}",
             "== trace ==", render_tree(tracer, times=times),
             "== counters ==", summary_table(tracer),
             "== metrics ==", metrics_table(tracer.metrics)]
    if args.memory:
        lines += ["== memory ==", memory_table(tracer)]
    lines.append(f"-- {len(answer)} tuple(s)"
                 + (f" in {seconds * 1000:.1f} ms" if times else ""))
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> int:
    fmt = "json" if args.json else args.format
    if args.from_file is not None:
        # Re-export a saved `repro profile --json` document: no
        # evaluation, just format conversion of the recorded span tree.
        if args.instance is not None or args.query is not None:
            print("error: --from re-exports a saved trace; instance and "
                  "query arguments do not apply", file=sys.stderr)
            return EXIT_ERROR
        if args.memory:
            print("error: --memory attributes a live run; it cannot be "
                  "added to a saved trace (--from)", file=sys.stderr)
            return EXIT_ERROR
        with open(args.from_file, encoding="utf-8") as handle:
            tracer = tracer_from_document(json.load(handle))
        return _write_trace(tracer, fmt, args)
    if args.instance is None or args.query is None:
        print("error: profile needs an instance file and a query "
              "(or --from FILE to re-export a saved trace)",
              file=sys.stderr)
        return EXIT_ERROR
    run = _traced_run(args, trace=True, partial_tree=True)
    if run is None:
        return EXIT_FINDINGS
    tracer, answer, mode_used, seconds = run
    return _write_trace(
        tracer, fmt, args,
        extra={"mode": mode_used, "answer_rows": len(answer),
               "seconds": seconds},
        text=lambda: _profile_text(tracer, args, answer, mode_used,
                                   seconds))


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad --sizes {text!r}; expected e.g. 8,16,32") from None
    if not sizes:
        raise ValueError("--sizes needs at least one size")
    if min(sizes) < 1:
        raise ValueError(f"bad --sizes {text!r}; every size must be >= 1")
    return sizes


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        GROUPS,
        SUITES,
        BenchError,
        LegacyBaselineError,
        diff_against_baseline,
        document_failures,
        render_document,
        resolve_suites,
        run_suites,
    )
    from .bench.report import check_baseline

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return EXIT_ERROR
    if args.list:
        for name, members in sorted(GROUPS.items()):
            print(f"{name} (group): {', '.join(members)}")
        for name, suite in sorted(SUITES.items()):
            print(f"{name}: {suite.title} "
                  f"[sizes {','.join(map(str, suite.sizes))}; "
                  f"{'/'.join(suite.strategies)}]")
        return EXIT_OK
    try:
        suites = resolve_suites(args.suite)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    sizes = _parse_sizes(args.sizes) if args.sizes else None
    baseline = None
    if args.baseline:
        # Read and checked before any point runs.
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        try:
            check_baseline(baseline)
        except LegacyBaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_ERROR
    _record(suites=sorted(suite.name for suite in suites), jobs=args.jobs,
            strategy=args.strategy)
    try:
        with _stream_sink(args) as sink:
            document = run_suites(suites, sizes=sizes,
                                  strategy=args.strategy,
                                  jobs=args.jobs,
                                  point_timeout=args.timeout,
                                  memory=args.memory, stream=sink)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        _record(outcome="error", error=str(error))
        return EXIT_ERROR
    failures = document_failures(document)
    if baseline is not None:
        breaches = diff_against_baseline(document, baseline, suites)
        document["baseline"] = {"path": args.baseline, "breaches": breaches}
        failures.extend(breaches)
    if args.format == "json":
        print(json.dumps(document, indent=2))
    else:
        print(render_document(document))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"-- wrote {args.json}", file=sys.stderr)
    _record(failures=len(failures))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    query = parse_query(args.query)
    report = check_query(query, inst.schema)
    i, k = report.level
    print(f"level      : CALC_{i}^{k}"
          + (" + IFP/PFP" if report.fixpoints else ""))
    print(f"types      : {sorted(repr(t) for t in report.types)}")
    result = analyze_query(query, inst.schema)
    print(f"range-restricted: {result.is_range_restricted}")
    if result.fixpoint_columns:
        for name, columns in sorted(result.fixpoint_columns.items()):
            print(f"  tau*({name}) = {sorted(columns)}")
    for violation in result.violations:
        print(f"  violation: {violation}")
    print("diagnostics:")
    lint_report = lint_query(query, inst.schema)
    for diagnostic in lint_report:
        print("  " + diagnostic.render().replace("\n", "\n  "))
    return EXIT_OK if result.is_range_restricted else EXIT_FINDINGS


def _parse_severity(text: str) -> Severity:
    return Severity[text.upper()]


def _read_query_arg(argument: str) -> tuple[str, str]:
    """A lint query argument is a literal query or a path to one."""
    if os.path.exists(argument):
        with open(argument, encoding="utf-8") as handle:
            return argument, handle.read().strip()
    return "<arg>", argument


def _lint_argument(source: str, text: str, schema, exempt) -> LintReport:
    """Lint one CLI argument: a Datalog program (``.dl`` file or text
    that reads as one) through the program pipeline, anything else as a
    CALC/IFP/PFP query."""
    if source.endswith(".dl") or looks_like_program(text):
        try:
            program, query = parse_program(text)
        except DatalogParseError as exc:
            report = LintReport()
            report.add(Diagnostic("DLG003", Severity.ERROR, str(exc)))
            return report
        return lint_program(program, schema, exempt_types=exempt,
                            query=query)
    return lint_source(text, schema, exempt_types=exempt)


def _analysis_tables(analysis) -> str:
    """The ``--explain`` rendering of a program analysis: dependency
    edges, per-SCC routing (with strata), and the adorned program."""
    edge_rows = [("source", "target", "polarity")]
    for edge in sorted(analysis.edges):
        edge_rows.append((edge.source, edge.target,
                          "+" if edge.positive else "-"))
    scc_rows = [("scc", "recursion", "stratum", "route")]
    for verdict in analysis.routing:
        scc_rows.append((
            "{" + ", ".join(verdict.scc) + "}",
            verdict.recursion,
            "-" if verdict.stratum is None else str(verdict.stratum),
            verdict.route,
        ))
    adorn_rows = [("predicate", "adornments")]
    for predicate, adornments in sorted(analysis.adornment.table.items()):
        adorn_rows.append((predicate, ", ".join(adornments)))
    sections = [
        titled_table("dependency graph", edge_rows),
        titled_table("routing (per SCC, bottom-up)", scc_rows),
        titled_table(
            f"adorned program (query {analysis.query!r})", adorn_rows),
    ]
    return "\n".join(sections)


#: Sentinel for a bare ``--explain`` (no CODE): render analysis tables.
_EXPLAIN_TABLES = "@tables"


def _lint_verdict(reports) -> str | None:
    """The complexity verdict a lint run decided on, for the run ledger:
    the Theorem 5.1 bound (``LOGSPACE``/``PTIME``/``PSPACE``) of a
    range-restricted query, else ``no-BOUND-guarantee``.  The last
    verdict wins when several queries were linted together."""
    verdict = None
    for report in reports:
        if report.bound is not None:
            verdict = (report.bound if report.range_restricted
                       else f"no-{report.bound}-guarantee")
    return verdict


def _cmd_lint(args: argparse.Namespace) -> int:
    explain_tables = args.explain == _EXPLAIN_TABLES
    if args.explain is not None and not explain_tables:
        try:
            print(explain(args.explain))
        except KeyError:
            print(f"unknown diagnostic code {args.explain!r}",
                  file=sys.stderr)
            return EXIT_ERROR
        return EXIT_OK
    if args.instance is None or not args.queries:
        print("error: lint needs an instance file and at least one query "
              "(or --explain CODE)", file=sys.stderr)
        return EXIT_ERROR
    inst = _load_instance(args.instance)
    _record(instance_checksum=instance_checksum(inst))
    exempt = frozenset(parse_type(text) for text in args.exempt or ())
    fail_on = _parse_severity(args.fail_on)
    documents = []
    reports = []
    failed = False
    for argument in args.queries:
        source, text = _read_query_arg(argument)
        report = _lint_argument(source, text, inst.schema, exempt)
        reports.append(report)
        if len(args.queries) == 1:
            _record(query_hash=query_hash(text))
        failed = failed or report.fails(fail_on)
        if args.json:
            document = {"source": source, "query": text,
                        "diagnostics": report.to_dicts()}
            if report.analysis is not None:
                document["program"] = report.analysis.to_dict()
            documents.append(document)
        else:
            print(f"== {source}: {text}")
            print(report.render())
            if explain_tables and report.analysis is not None:
                print(_analysis_tables(report.analysis))
    if args.json:
        json.dump(documents, sys.stdout, indent=2)
        print()
    _record(verdict=_lint_verdict(reports))
    return EXIT_FINDINGS if failed else EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    print(encode_instance(inst))
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    stats = instance_stats(inst)
    log_dom = log2_dom_ik(args.i, args.k, stats.n_atoms)
    print(f"|I| = {stats.cardinality}, ||I|| = {stats.size}, "
          f"atoms = {stats.n_atoms}")
    print(f"log2 |dom({args.i},{args.k})| = {log_dom:.1f}")
    dense = is_dense_witness(inst, args.i, args.k,
                             degree=args.degree, coefficient=args.coefficient)
    sparse = is_sparse_witness(inst, args.i, args.k,
                               degree=args.degree,
                               coefficient=args.coefficient)
    print(f"dense  (|dom| <= {args.coefficient}*|I|^{args.degree}): {dense}")
    print(f"sparse (|I| <= {args.coefficient}*log^{args.degree}|dom|): "
          f"{sparse}")
    return EXIT_OK


def _cmd_example(args: argparse.Namespace) -> int:
    from .workloads import singleton_chain

    json.dump(instance_to_json(singleton_chain("abc")), sys.stdout, indent=2)
    print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro obs: the reporting side of the run ledger and trace streams
# ---------------------------------------------------------------------------

def _obs_read_records(args: argparse.Namespace) -> list:
    """The ledger records an obs subcommand reports over.  Missing,
    malformed, or empty ledgers raise :class:`LedgerError` (a
    ``ValueError``), which the uniform handler maps to exit 2."""
    path = args.ledger or default_ledger_path()
    if path is None:
        raise LedgerError(
            "the run ledger is disabled (REPRO_LEDGER is empty); "
            "pass --ledger PATH")
    records = read_ledger(path)
    if not records:
        raise LedgerError(f"ledger {path} has no records")
    return records


def _cmd_obs_history(args: argparse.Namespace) -> int:
    records = _obs_read_records(args)
    if args.limit > 0:
        records = records[-args.limit:]
    if args.format == "json":
        print(json.dumps(records, indent=2))
    else:
        print(history_table(records))
    return EXIT_OK


def _cmd_obs_aggregate(args: argparse.Namespace) -> int:
    aggregates = aggregate_records(_obs_read_records(args))
    if args.format == "json":
        print(json.dumps(aggregates, indent=2))
    else:
        print(aggregate_table(aggregates))
    return EXIT_OK


def _render_diff(diff: dict) -> str:
    """Text rendering of a :func:`repro.obs.diff_records` document."""
    rows = [("field", "a", "b", "delta")]
    rows.append(("ts", str(diff["a"]["ts"]), str(diff["b"]["ts"]), ""))
    for name, entry in diff["fields"].items():
        rows.append((name, str(entry["a"]), str(entry["b"]),
                     "=" if entry["equal"] else "!="))
    wall = diff.get("wall_seconds")
    if wall:
        ratio = wall.get("ratio")
        rows.append(("wall_seconds", f"{wall['a']:.4f}", f"{wall['b']:.4f}",
                     "-" if ratio is None else f"x{ratio}"))
    rss = diff.get("rss_peak_bytes")
    if rss:
        rows.append(("rss_peak_bytes", str(rss["a"]), str(rss["b"]),
                     f"{rss['delta']:+d}"))
    sections = [titled_table(
        f"run {diff['a']['id']} vs {diff['b']['id']}", rows)]
    if diff["counters"]:
        counter_rows = [("counter", "a", "b", "delta")]
        for name, entry in diff["counters"].items():
            delta = entry.get("delta")
            counter_rows.append((name, str(entry["a"]), str(entry["b"]),
                                 "" if delta is None else f"{delta:+g}"))
        sections.append(titled_table("counters", counter_rows))
    return "\n".join(sections)


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    records = _obs_read_records(args)
    diff = diff_records(find_record(records, args.run_a),
                        find_record(records, args.run_b))
    if args.format == "json":
        print(json.dumps(diff, indent=2))
    else:
        print(_render_diff(diff))
    return EXIT_OK


def _cmd_obs_replay(args: argparse.Namespace) -> int:
    """Reconstruct a (possibly torn) ``--stream`` file as a span tree
    and feed it through the normal render/export paths."""
    if args.stream_file == "-":
        tracer = replay_stream(sys.stdin, segment=args.segment)
    else:
        with open(args.stream_file, encoding="utf-8") as handle:
            tracer = replay_stream(handle, segment=args.segment)
    return _write_trace(
        tracer, args.format, args,
        text=lambda: (render_tree(tracer, times=not args.no_times) + "\n"
                      + summary_table(tracer)))


def _add_obs_flags(cmd: argparse.ArgumentParser, *, stream: bool = False,
                   watchdog: bool = False) -> None:
    """The shared observability flags: every ledgered command gets
    ``--ledger``/``--no-ledger``; live-traceable commands add
    ``--stream``; single-evaluation commands add the stall watchdog."""
    group = cmd.add_argument_group("observability")
    group.add_argument(
        "--ledger", metavar="PATH",
        help="append this run's ledger record to PATH "
             "(default: .repro/ledger.jsonl, or $REPRO_LEDGER)")
    group.add_argument("--no-ledger", action="store_true",
                       help="do not record this run in the ledger")
    if stream:
        group.add_argument(
            "--stream", metavar="FILE",
            help="stream span/event/counter JSONL live to FILE ('-' = "
                 "stderr), appending a new segment per run; a killed "
                 "run leaves a replayable partial trace "
                 "(repro obs replay)")
    if watchdog:
        group.add_argument(
            "--stall-after", type=float, metavar="SECONDS",
            help="dump engine counters to stderr after SECONDS without "
                 "a heartbeat (fixpoint stage / Datalog rule)")
        group.add_argument(
            "--stall-abort", action="store_true",
            help="also abort a stalled run with StallError (ledger "
                 "outcome 'timeout'; implies --stall-after 30 if unset)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tractable query languages for complex object databases",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query_cmd = commands.add_parser(
        "query", help="evaluate a query over a JSON instance")
    query_cmd.add_argument("instance", help="instance JSON file")
    query_cmd.add_argument("query", help="query in the textual syntax")
    query_cmd.add_argument(
        "--mode", choices=("auto", "rr", "active"), default="auto",
        help="rr: range-restricted only; active: reference semantics; "
             "auto: rr with active fallback (default)")
    query_cmd.add_argument("--max-domain", type=int, default=1_000_000,
                           help="cap on materialised domains (active mode)")
    query_cmd.add_argument(
        "--strategy", choices=STRATEGIES, default="seminaive",
        help="evaluation engine: seminaive (default) is the production "
             "engine, delta-driven over interned value ids with indexed "
             "joins; naive is the reference oracle, re-deriving "
             "everything each stage over nested values")
    query_cmd.add_argument("--trace", action="store_true",
                           help="print the trace tree to stderr")
    query_cmd.add_argument("--stats", action="store_true",
                           help="print engine counters to stderr")
    query_cmd.add_argument("--trace-json", metavar="FILE",
                           help="export the trace as JSON to FILE")
    query_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="--stats output format: aligned table (default) or JSON")
    _add_obs_flags(query_cmd, stream=True, watchdog=True)
    query_cmd.set_defaults(func=_cmd_query)

    profile_cmd = commands.add_parser(
        "profile",
        help="evaluate with tracing; print the EXPLAIN tree + counters")
    profile_cmd.add_argument("instance", nargs="?",
                             help="instance JSON file")
    profile_cmd.add_argument("query", nargs="?",
                             help="query in the textual syntax")
    profile_cmd.add_argument(
        "--mode", choices=("auto", "rr", "active"), default="auto",
        help="evaluation mode (as for the query command)")
    profile_cmd.add_argument("--max-domain", type=int, default=1_000_000,
                             help="cap on materialised domains (active mode)")
    profile_cmd.add_argument(
        "--strategy", choices=STRATEGIES, default="seminaive",
        help="evaluation engine (as for the query command)")
    profile_cmd.add_argument("--json", action="store_true",
                             help="emit the trace document as JSON on stdout "
                                  "(alias for --format json)")
    profile_cmd.add_argument(
        "--format", choices=("text", "json", "chrome-trace", "flame"),
        default="text",
        help="output format: EXPLAIN tree + tables (default), the "
             "trace/metrics document as JSON, Chrome Trace Event JSON "
             "(load into Perfetto / chrome://tracing), or collapsed "
             "flamegraph stacks")
    profile_cmd.add_argument(
        "--flame-metric", choices=("time", "alloc"), default="time",
        help="what --format flame weighs frames by: self wall time "
             "(default) or self-allocated bytes (needs --memory)")
    profile_cmd.add_argument(
        "--memory", action="store_true",
        help="attribute allocated bytes to spans via tracemalloc "
             "(~2x slower; adds the == memory == table / JSON fields)")
    profile_cmd.add_argument(
        "--from", dest="from_file", metavar="FILE",
        help="re-export a saved `profile --json` document instead of "
             "evaluating (schema-1 documents only)")
    profile_cmd.add_argument("--no-times", action="store_true",
                             help="omit wall times (deterministic output)")
    _add_obs_flags(profile_cmd, stream=True, watchdog=True)
    profile_cmd.set_defaults(func=_cmd_profile)

    bench_cmd = commands.add_parser(
        "bench",
        help="run benchmark suites: time + space per point, fitted "
             "scaling curves, baseline regression gates")
    bench_cmd.add_argument(
        "--suite", action="append", metavar="NAME",
        help="suite or group name (repeatable; default: smoke). "
             "See --list.")
    bench_cmd.add_argument("--list", action="store_true",
                           help="list suites and groups, then exit")
    bench_cmd.add_argument("--sizes", metavar="CSV",
                           help="override the size series, e.g. 8,16,32")
    bench_cmd.add_argument(
        "--strategy", metavar="NAME",
        help="run only this strategy, e.g. seminaive or ifp (suites "
             "not declaring it are skipped)")
    bench_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard points over N worker processes (default 1: serial, "
             "bit-for-bit today's behaviour)")
    bench_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point timeout; a point exceeding it is marked failed "
             "and the run degrades to a flagged partial report")
    bench_cmd.add_argument("--json", metavar="FILE",
                           help="write the observatory document to FILE")
    bench_cmd.add_argument("--baseline", metavar="FILE",
                           help="regress-gate counters against this "
                                "schema-1 baseline document")
    bench_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format for the report")
    bench_cmd.add_argument(
        "--memory", action="store_true",
        help="run each point under span-level memory attribution "
             "(records space.traced_peak; ~2x slower)")
    _add_obs_flags(bench_cmd, stream=True)
    bench_cmd.set_defaults(func=_cmd_bench)

    analyze_cmd = commands.add_parser(
        "analyze", help="type level + range-restriction analysis")
    analyze_cmd.add_argument("instance", help="instance JSON file (schema)")
    analyze_cmd.add_argument("query", help="query in the textual syntax")
    analyze_cmd.set_defaults(func=_cmd_analyze)

    lint_cmd = commands.add_parser(
        "lint",
        help="static analysis: types, CALC_i^k level + cost, "
             "range-restriction proof, complexity verdict")
    lint_cmd.add_argument("instance", nargs="?",
                          help="instance JSON file (schema source)")
    lint_cmd.add_argument("queries", nargs="*", metavar="query",
                          help="query text, a Datalog program (.dl file "
                               "or rule text), or a file containing one")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit diagnostics as a JSON document")
    lint_cmd.add_argument("--explain", metavar="CODE", nargs="?",
                          const=_EXPLAIN_TABLES,
                          help="explain a diagnostic code and exit; bare "
                               "--explain with a program argument renders "
                               "the dependency/strata/adornment tables")
    lint_cmd.add_argument("--fail-on", choices=("error", "warning"),
                          default="error",
                          help="severity that makes the exit code 1 "
                               "(default: error)")
    lint_cmd.add_argument("--exempt", action="append", metavar="TYPE",
                          help="exempt type for Theorem 5.3's RR_T "
                               "discipline (repeatable)")
    _add_obs_flags(lint_cmd)
    lint_cmd.set_defaults(func=_cmd_lint)

    encode_cmd = commands.add_parser(
        "encode", help="standard TM-tape encoding of an instance")
    encode_cmd.add_argument("instance", help="instance JSON file")
    encode_cmd.set_defaults(func=_cmd_encode)

    density_cmd = commands.add_parser(
        "density", help="density/sparsity verdicts w.r.t. <i,k>-types")
    density_cmd.add_argument("instance", help="instance JSON file")
    density_cmd.add_argument("--i", type=int, default=1)
    density_cmd.add_argument("--k", type=int, default=2)
    density_cmd.add_argument("--degree", type=int, default=3)
    density_cmd.add_argument("--coefficient", type=float, default=8.0)
    density_cmd.set_defaults(func=_cmd_density)

    example_cmd = commands.add_parser(
        "example", help="emit a sample instance JSON document")
    example_cmd.set_defaults(func=_cmd_example)

    obs_cmd = commands.add_parser(
        "obs",
        help="run-ledger history, aggregates, diffs, and trace-stream "
             "replay")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    history_cmd = obs_sub.add_parser(
        "history", help="recent ledger records as a table (or JSON)")
    history_cmd.add_argument("-n", "--limit", type=int, default=20,
                             metavar="N",
                             help="show the last N records (default 20; "
                                  "0 = all)")
    history_cmd.add_argument("--ledger", metavar="PATH",
                             help="ledger file to read "
                                  "(default: .repro/ledger.jsonl)")
    history_cmd.add_argument("--format", choices=("text", "json"),
                             default="text")
    history_cmd.set_defaults(func=_cmd_obs_history)

    agg_cmd = obs_sub.add_parser(
        "aggregate",
        help="per-query-hash aggregates: runs, outcomes, wall p50/p99, "
             "counter drift")
    agg_cmd.add_argument("--ledger", metavar="PATH",
                         help="ledger file to read "
                              "(default: .repro/ledger.jsonl)")
    agg_cmd.add_argument("--format", choices=("text", "json"),
                         default="text")
    agg_cmd.set_defaults(func=_cmd_obs_aggregate)

    diff_cmd = obs_sub.add_parser(
        "diff", help="field-by-field comparison of two ledger runs")
    diff_cmd.add_argument("run_a", metavar="RUN_A",
                          help="run id prefix, or a negative index like "
                               "-2 (second most recent)")
    diff_cmd.add_argument("run_b", metavar="RUN_B",
                          help="run id prefix or negative index")
    diff_cmd.add_argument("--ledger", metavar="PATH",
                          help="ledger file to read "
                               "(default: .repro/ledger.jsonl)")
    diff_cmd.add_argument("--format", choices=("text", "json"),
                          default="text")
    diff_cmd.set_defaults(func=_cmd_obs_diff)

    replay_cmd = obs_sub.add_parser(
        "replay",
        help="reconstruct a --stream JSONL file (possibly from a killed "
             "run) as a span tree")
    replay_cmd.add_argument("stream_file", metavar="FILE",
                            help="stream file ('-' = stdin)")
    replay_cmd.add_argument(
        "--format", choices=("text", "json", "chrome-trace", "flame"),
        default="text",
        help="tree + counter table (default), trace JSON, Chrome Trace "
             "Event JSON, or collapsed flamegraph stacks")
    replay_cmd.add_argument(
        "--flame-metric", choices=("time", "alloc"), default="time",
        help="what --format flame weighs frames by")
    replay_cmd.add_argument(
        "--segment", type=int, default=-1, metavar="K",
        help="which begin-delimited run to replay when the file holds "
             "several (default: -1, the last)")
    replay_cmd.add_argument("--no-times", action="store_true",
                            help="omit wall times (deterministic output)")
    replay_cmd.set_defaults(func=_cmd_obs_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _make_recorder(args)
    outcome, error_text = "ok", None
    try:
        code = args.func(args)
        if code == EXIT_ERROR and _RECORDER is not None \
                and _RECORDER.outcome is None:
            _RECORDER.outcome = "error"
        return code
    except StallError:
        outcome = "timeout"
        error_text = ("stalled: no engine heartbeat within the "
                      "--stall-after window; aborted by the watchdog")
        print(f"error: {error_text}", file=sys.stderr)
        return EXIT_ERROR
    except PFPDivergenceError as error:
        # A diverging PFP is an expected boundary of the paper's
        # semantics (Theorem 4.1), not a crash: friendly message,
        # ledger outcome "divergence".
        outcome, error_text = "divergence", str(error)
        print(f"error: pfp diverged: {error}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ParseError, TypeCheckError,
            SchemaError, ExportError, ValueError) as error:
        # Load/usage failures, per the exit-code convention.
        outcome, error_text = "error", str(error)
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except BaseException as error:
        # Unexpected crash: record it, then let the traceback escape.
        outcome = "error"
        error_text = f"{type(error).__name__}: {error}"
        raise
    finally:
        _finalize_recorder(outcome, error_text)


if __name__ == "__main__":
    raise SystemExit(main())
