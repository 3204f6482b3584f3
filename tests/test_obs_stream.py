"""Live trace streaming, replay, and the stall watchdog (PR 9).

Three properties anchor this file:

* **Replay equivalence** — a streamed run replays to the same span
  tree, events, and counters the in-memory tracer held (chain TC
  through the real range-restricted evaluator, not a toy).
* **Durability** — a SIGKILLed process leaves a replayable stream
  recovering >= 90% of the spans it opened (the acceptance bar), with
  unclosed spans flushed ``aborted``.
* **Stall detection** — a heartbeat-free window fires the watchdog's
  counter dump; with ``abort=True`` a :class:`StallError` lands in the
  watched thread, unwinding a genuinely wedged stage function.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.safety import evaluate_range_restricted
from repro.core.fixpoint import iterate_ifp
from repro.core.parser import parse_query
from repro.obs import (
    StallError,
    StreamError,
    StreamWriter,
    Tracer,
    Watchdog,
    read_segments,
    replay_stream,
    use_tracer,
)
from repro.workloads import singleton_chain

TC = ("{[x:{U}, y:{U}] | ifp[S(x:{U}, y:{U})]"
      "(G(x,y) or exists z:{U} (S(x,z) and G(z,y)))(x, y)}")

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK,
                                reason="SIGKILL test needs fork")


def _run_tc(n: int, sink) -> Tracer:
    """Chain TC over ``n`` nodes with streaming on; returns the closed
    live tracer."""
    inst = singleton_chain("".join(chr(97 + i % 26) for i in range(n)))
    query = parse_query(TC)
    tracer = Tracer(stream=sink)
    with use_tracer(tracer):
        evaluate_range_restricted(query, inst)
    tracer.close()
    return tracer


def _shape(span) -> list:
    """A span tree as JSON-safe nested lists (timing excluded)."""
    return json.loads(json.dumps(
        [span.name, span.status, span.attrs,
         [[event.name, event.attrs] for event in span.events],
         [_shape(child) for child in span.children]],
        default=repr))


class TestReplayEquivalence:
    def test_chain_tc_replays_identically(self):
        sink = io.StringIO()
        live = _run_tc(8, sink)
        replayed = replay_stream(sink.getvalue().splitlines())
        assert _shape(replayed.root) == _shape(live.root)
        assert replayed.counters == live.counters
        assert replayed.root.status == "ok"

    def test_torn_stream_replays_with_aborted_spans(self):
        sink = io.StringIO()
        _run_tc(8, sink)
        lines = sink.getvalue().splitlines()
        # Cut mid-run *and* tear the final line, as a SIGKILL would.
        torn = lines[: len(lines) // 2] + [lines[len(lines) // 2][:10]]
        replayed = replay_stream(torn)
        assert replayed.root.status == "aborted"
        opened = sum(1 for line in torn[:-1]
                     if json.loads(line).get("t") == "open")
        assert sum(1 for _ in replayed.root.walk()) == opened
        # Every span is closed (flushed), never dangling.
        assert all(span.end is not None for span in replayed.root.walk())

    def test_multiple_segments_select_by_index(self):
        sink = io.StringIO()
        _run_tc(4, sink)
        _run_tc(6, sink)
        lines = sink.getvalue().splitlines()
        assert len(read_segments(lines)) == 2
        first = replay_stream(lines, segment=0)
        last = replay_stream(lines, segment=-1)
        assert first.counters["eval.fixpoint_stages"] < \
            last.counters["eval.fixpoint_stages"]
        with pytest.raises(StreamError, match="segment"):
            replay_stream(lines, segment=5)

    def test_garbage_interior_line_raises(self):
        sink = io.StringIO()
        _run_tc(4, sink)
        lines = sink.getvalue().splitlines()
        lines.insert(2, "garbage not json")
        with pytest.raises(StreamError, match="not JSON"):
            replay_stream(lines)

    def test_content_before_begin_raises(self):
        with pytest.raises(StreamError, match="begin"):
            replay_stream(['{"t": "open", "id": 0, "name": "x", "ts": 0}'])


class TestCliRunsCloseTheirStream:
    """``query`` and ``profile`` close the tracer on every exit, so a
    clean exit-1 run — a not-range-restricted query under ``--mode rr``
    — still streams the root's close and the ``end`` record."""

    @pytest.mark.parametrize("command", ["query", "profile"])
    def test_not_rr_finding_ends_the_stream(self, command, tmp_path,
                                            capsys):
        from repro.cli import EXIT_FINDINGS, main
        from repro.objects import dump_instance

        graph = tmp_path / "graph.json"
        dump_instance(singleton_chain("abc"), str(graph))
        stream = tmp_path / "run.jsonl"
        code = main([command, str(graph),
                     "{[x:{U}] | not (exists y:{U} (G(x,y)))}",
                     "--mode", "rr", "--stream", str(stream),
                     "--no-ledger"])
        assert code == EXIT_FINDINGS
        lines = stream.read_text().splitlines()
        assert json.loads(lines[-1])["t"] == "end"
        replayed = replay_stream(lines)
        assert replayed.root.status == "ok"
        statuses = {span.name: span.status for span in replayed.root.walk()}
        assert statuses["range_restricted"] == "aborted"


class TestStreamWriter:
    def test_sink_death_disables_streaming_silently(self):
        class DyingSink:
            def __init__(self):
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 3:
                    raise OSError("broken pipe")

            def flush(self):
                pass

        sink = DyingSink()
        tracer = Tracer(stream=sink)
        with tracer.span("a"):
            for _ in range(10):
                tracer.event("tick")
        tracer.close()  # no exception: telemetry loss, not run failure
        assert tracer.stream._dead is True

    def test_counter_snapshots_are_deltas(self):
        sink = io.StringIO()
        tracer = Tracer(stream=sink)
        with tracer.span("a"):
            tracer.count("x", 5)
            tracer.event("e1")
            tracer.event("e2")  # x unchanged: no second snapshot
            tracer.count("x", 2)
            tracer.event("e3")
        tracer.close()
        snapshots = [json.loads(line)["values"]
                     for line in sink.getvalue().splitlines()
                     if json.loads(line)["t"] == "counters"]
        assert snapshots == [{"x": 5}, {"x": 7}]

    def test_wrapping_is_idempotent(self):
        sink = io.StringIO()
        writer = StreamWriter(sink)
        tracer = Tracer(stream=writer)
        assert tracer.stream is writer


class TestSigkillRecovery:
    @needs_fork
    def test_killed_run_recovers_90_percent_of_spans(self, tmp_path):
        path = str(tmp_path / "victim.stream")
        context = multiprocessing.get_context("fork")
        process = context.Process(target=_victim, args=(path,), daemon=True)
        process.start()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if os.path.exists(path) and _line_count(path) >= 40:
                break
            time.sleep(0.01)
        else:
            pytest.fail("victim never produced 40 stream lines")
        os.kill(process.pid, signal.SIGKILL)
        process.join(5.0)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        opened = 0
        for line in lines:
            try:
                opened += json.loads(line).get("t") == "open"
            except json.JSONDecodeError:
                pass  # the torn tail
        replayed = replay_stream(lines)
        recovered = sum(1 for _ in replayed.root.walk())
        assert opened > 0
        assert recovered >= 0.9 * opened  # the acceptance bar
        assert replayed.root.status == "aborted"
        assert replayed.counters  # per-stage snapshots survived the kill


def _line_count(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def _victim(path: str) -> None:
    """Child process: stream chain-TC evaluations until SIGKILLed."""
    inst = singleton_chain("abcdefgh")
    query = parse_query(TC)
    with open(path, "w", encoding="utf-8") as sink:
        tracer = Tracer(stream=sink)
        with use_tracer(tracer):
            while True:
                with tracer.span("tc_round"):
                    evaluate_range_restricted(query, inst)
                time.sleep(0.002)


class TestWatchdog:
    def test_fires_and_dumps_counters_on_stall(self):
        tracer = Tracer()
        tracer.count("eval.steps", 41)
        out = io.StringIO()
        with Watchdog(tracer, 0.05, out=out, poll_seconds=0.01) as dog:
            time.sleep(0.3)
        assert dog.fired is True
        dump = out.getvalue()
        assert "stall: no heartbeat" in dump
        assert "eval.steps" in dump and "41" in dump

    def test_heartbeats_keep_it_quiet(self):
        tracer = Tracer()
        out = io.StringIO()
        with Watchdog(tracer, 0.2, out=out, poll_seconds=0.01) as dog:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                tracer.heartbeat()
                time.sleep(0.01)
        assert dog.fired is False
        assert out.getvalue() == ""

    def test_dumps_once_per_stall_not_per_poll(self):
        tracer = Tracer()
        out = io.StringIO()
        with Watchdog(tracer, 0.05, out=out, poll_seconds=0.01):
            time.sleep(0.4)
        assert out.getvalue().count("stall: no heartbeat") == 1

    def test_abort_raises_stall_error_in_watched_thread(self):
        tracer = Tracer()
        out = io.StringIO()
        with pytest.raises(StallError):
            with Watchdog(tracer, 0.05, abort=True, out=out,
                          poll_seconds=0.01):
                deadline = time.monotonic() + 10.0
                # Busy-wait: async exceptions land at bytecode
                # boundaries, so the loop must stay in Python.
                while time.monotonic() < deadline:
                    pass
        assert "aborting" in out.getvalue()

    def test_abort_unwinds_a_wedged_fixpoint_stage(self):
        """The satellite case: a stage function that stops making
        progress (and stops beating) is cut short cleanly."""
        tracer = Tracer()

        def wedged_stage(current):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pass
            return frozenset()

        with pytest.raises(StallError):
            with Watchdog(tracer, 0.05, abort=True, out=io.StringIO(),
                          poll_seconds=0.01):
                iterate_ifp(wedged_stage, tracer=tracer)

    def test_nonpositive_stall_window_rejected(self):
        with pytest.raises(ValueError, match="stall_seconds"):
            Watchdog(Tracer(), 0.0)


class TestHeartbeatPlumbing:
    def test_heartbeat_updates_last_beat(self):
        tracer = Tracer()
        tracer.last_beat = 0.0
        tracer.heartbeat()
        assert tracer.last_beat > 0.0

    def test_null_tracer_has_heartbeat(self):
        from repro.obs import NULL_TRACER

        NULL_TRACER.heartbeat()  # no-op, no error

    def test_fixpoint_stages_beat_without_spans_or_events(self):
        """The engines' per-stage ``heartbeat()`` calls keep the beat
        fresh even when the event cap has been reached."""
        tracer = Tracer(max_events=0)

        def one_shot_stage(current):
            tracer.last_beat = 0.0  # cleared mid-stage...
            return frozenset()

        iterate_ifp(one_shot_stage, tracer=tracer)
        assert tracer.last_beat > 0.0  # ...and refreshed by the loop
