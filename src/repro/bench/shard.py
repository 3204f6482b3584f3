"""Sharded parallel execution of bench points, one subprocess per point.

The unit of work is one (suite, size, strategy) *point* — the same unit
:func:`repro.bench.runner.run_point` measures serially.  Each point runs
in its **own fresh process** wired to the scheduler by a one-shot pipe.
Process-per-point (rather than a reused pool) buys three things the
observatory wants:

* **Resource telemetry.**  The worker's ``resource.getrusage`` peak RSS
  is *that point's* peak, not an accumulation over whatever the worker
  ran before; it lands in the point's counters as ``space.rss_peak``,
  giving every point an OS-level space measurement to set beside the
  engine's own accounting (and, under ``memory=True``, the traced peak
  ``space.traced_peak``).
* **Hard timeouts.**  ``point_timeout`` is enforced by killing the
  worker (``terminate`` then ``kill``), not by abandoning it: a wedged
  point cannot poison later points or outlive the run.
* **Failure isolation.**  A worker that raises — or dies outright —
  marks *only its own point* as failed
  (:func:`repro.bench.runner.failed_point`); every other point completes
  and the document is flagged partial.

Guarantees kept from the pool era:

* **Deterministic merge.**  Tasks are enumerated in registry
  declaration order and results are stored by task index, so the merged
  document is independent of completion order.  Combined with per-point
  fresh tracers and process-independent checksums, a ``--jobs N``
  document is byte-identical to the serial one apart from wall-clock and
  machine-resource fields (:func:`strip_timing` removes exactly those,
  for comparisons).

Workers resolve suites by *name* through the registry rather than
pickling ``run`` callables, so sharding works under any start method for
declared suites; suites registered at runtime (tests do this)
additionally need the ``fork`` start method, which is preferred when the
platform offers it.
"""

from __future__ import annotations

import importlib
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Any

from .registry import Suite

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing
    from multiprocessing.connection import Connection

__all__ = ["PointTask", "run_sharded", "run_tasks", "strip_timing"]

#: One unit of work: (suite name, size, strategy, memory).
PointTask = tuple[str, int, str, bool]

#: Packages the registry's ``run`` callables import lazily that the CLI
#: has not already loaded.  :func:`run_tasks` imports them before its
#: first fork, so a forked worker never pays a first import inside its
#: timed point.
_RUN_IMPORTS = ("repro.algebra", "repro.machines")

#: Extra seconds granted on top of the timeout for points that pay
#: process start-up and cold-import costs: the first point of a run
#: always, every point under a non-fork start method (each spawn
#: re-imports the world).
_STARTUP_GRACE = 5.0


def _mp_context() -> multiprocessing.context.BaseContext:
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _PipeSink:
    """File-like shim a worker's :class:`repro.obs.StreamWriter` writes
    to: each line travels up the result pipe as a ``("stream", line)``
    message, so the scheduler holds whatever the worker measured even if
    the worker is later hard-killed mid-point."""

    __slots__ = ("_conn",)

    def __init__(self, conn: Connection):
        self._conn = conn

    def write(self, text: str) -> None:
        self._conn.send(("stream", text))

    def flush(self) -> None:
        pass


def _execute_task(task: PointTask, stream: Any = None) -> dict[str, Any]:
    """Worker body: resolve the suite by name, measure the point."""
    from .registry import SUITES
    from .runner import run_point

    suite_name, n, strategy, memory = task
    return run_point(SUITES[suite_name], n, strategy, memory=memory,
                     stream=stream)


def _attach_resource_telemetry(point: dict[str, Any]) -> None:
    """Inject the worker process's OS-level space figures into the
    point's counters.  Meaningful only process-per-point: this process
    ran exactly this point, so its peak RSS is the point's peak RSS."""
    from ..obs import peak_rss_bytes

    rss = peak_rss_bytes()
    if rss is None:  # pragma: no cover - non-POSIX
        return
    point.setdefault("counters", {})["space.rss_peak"] = rss


def _point_worker(task: PointTask, conn: Connection) -> None:
    """Subprocess entry point: run one point while live-streaming its
    trace up the pipe, then send ("ok", point) or ("error", message) and
    exit.  The stream is what survives a hard kill: the scheduler
    salvages partial counters from it for timed-out points."""
    try:
        point = _execute_task(task, stream=_PipeSink(conn))
        _attach_resource_telemetry(point)
        conn.send(("ok", point))
    except Exception as error:
        conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


def _drain_stream(receiver: Connection, lines: list[str]) -> None:
    """Pull any stream messages still buffered in a dead worker's pipe."""
    try:
        while receiver.poll(0):
            kind, payload = receiver.recv()
            if kind == "stream":
                lines.append(payload)
    except (EOFError, OSError):
        pass


def _salvage_stream(point: dict[str, Any], lines: list[str]) -> None:
    """Recover partial telemetry for a failed point from its worker's
    stream lines: the replayed tracer's counters become the point's,
    flagged ``partial_telemetry`` (and erased again by
    :func:`strip_timing`, preserving serial/sharded byte-identity)."""
    if not lines:
        return
    from ..obs import StreamError, replay_stream

    try:
        tracer = replay_stream("".join(lines).splitlines())
    except StreamError:
        return
    if not tracer.counters:
        return
    point["counters"] = dict(tracer.counters)
    point["partial_telemetry"] = True


def _hard_kill(process: Any) -> None:
    """Terminate a worker for real: SIGTERM, then SIGKILL if it lingers
    (a wedged evaluation loop never sees SIGTERM's default handler run
    if it is stuck in C-level code)."""
    process.terminate()
    process.join(1.0)
    if process.is_alive():
        process.kill()
        process.join(1.0)


def run_tasks(
    tasks: list[PointTask],
    jobs: int,
    point_timeout: float | None = None,
) -> list[dict[str, Any]]:
    """Run point tasks, each in a fresh subprocess, at most ``jobs`` at
    a time; returns one point dict per task, in task order.  Failures,
    worker deaths, and timeouts yield
    :func:`repro.bench.runner.failed_point` entries in place; a
    timed-out worker is hard-killed, never abandoned."""
    from .runner import failed_point

    if not tasks:
        return []
    for name in _RUN_IMPORTS:
        importlib.import_module(name)
    context = _mp_context()
    grace_every_point = context.get_start_method() != "fork"
    results: list[dict[str, Any] | None] = [None] * len(tasks)
    pending = deque(enumerate(tasks))
    #: receiving pipe end -> (task index, task, process, deadline).
    running: dict[Any, tuple[int, PointTask, Any, float | None]] = {}
    #: receiving pipe end -> stream lines received so far (the worker's
    #: live trace; salvaged into the point if the worker dies).
    streams: dict[Any, list[str]] = {}
    first_point = True

    def launch() -> None:
        nonlocal first_point
        index, task = pending.popleft()
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_point_worker, args=(task, sender), daemon=True)
        process.start()
        sender.close()  # the worker holds the only sending end now
        deadline = None
        if point_timeout is not None:
            grace = (_STARTUP_GRACE
                     if first_point or grace_every_point else 0.0)
            deadline = time.monotonic() + point_timeout + grace
        first_point = False
        running[receiver] = (index, task, process, deadline)

    try:
        while pending or running:
            while pending and len(running) < jobs:
                launch()
            deadlines = [entry[3] for entry in running.values()
                         if entry[3] is not None]
            wait_timeout = None
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - time.monotonic())
            ready = connection_wait(list(running), timeout=wait_timeout)
            for receiver in ready:
                index, task, process, _ = running[receiver]
                _, n, strategy, _ = task
                try:
                    kind, payload = receiver.recv()
                except EOFError:
                    # The worker died without reporting (crash, kill -9).
                    running.pop(receiver)
                    process.join()
                    point = failed_point(
                        n, strategy,
                        f"worker exited with code {process.exitcode} "
                        f"before reporting a result")
                    _salvage_stream(point, streams.pop(receiver, []))
                    results[index] = point
                    receiver.close()
                    continue
                if kind == "stream":
                    # A live trace line; the worker is still measuring.
                    streams.setdefault(receiver, []).append(payload)
                    continue
                running.pop(receiver)
                lines = streams.pop(receiver, [])
                process.join()
                if kind == "ok":
                    results[index] = payload
                else:
                    point = failed_point(n, strategy, payload)
                    _salvage_stream(point, lines)
                    results[index] = point
                receiver.close()
            now = time.monotonic()
            expired = [receiver for receiver, entry in running.items()
                       if entry[3] is not None and entry[3] <= now]
            for receiver in expired:
                index, task, process, _ = running.pop(receiver)
                _, n, strategy, _ = task
                _hard_kill(process)
                lines = streams.pop(receiver, [])
                _drain_stream(receiver, lines)
                receiver.close()
                point = failed_point(
                    n, strategy,
                    f"timed out after {point_timeout}s (worker killed)")
                _salvage_stream(point, lines)
                results[index] = point
    finally:
        # Unwind on error paths: no worker outlives the scheduler.
        for index, task, process, _ in running.values():
            _hard_kill(process)
    return [point for point in results if point is not None]


def run_sharded(
    plan: list[tuple[Suite, tuple[str, ...] | None]],
    sizes: tuple[int, ...] | None,
    jobs: int,
    point_timeout: float | None,
    memory: bool = False,
) -> dict[str, Any]:
    """The parallel back end of :func:`repro.bench.runner.run_suites`:
    flatten the plan's point grids into one task list, run each task in
    its own subprocess, and reassemble per-suite documents in
    declaration order."""
    from .runner import build_suite_document, point_specs

    tasks: list[PointTask] = []
    layout: list[tuple[Suite, tuple[int, ...], tuple[str, ...], int]] = []
    for suite, strategies in plan:
        specs = point_specs(suite, sizes, strategies)
        layout.append((
            suite,
            sizes or suite.sizes,
            strategies or suite.strategies,
            len(specs),
        ))
        tasks.extend((suite.name, n, strategy, memory)
                     for n, strategy in specs)
    points = run_tasks(tasks, jobs, point_timeout)
    documents: dict[str, Any] = {}
    offset = 0
    for suite, suite_sizes, suite_strategies, count in layout:
        documents[suite.name] = build_suite_document(
            suite, suite_sizes, suite_strategies,
            points[offset:offset + count])
        offset += count
    return documents


#: Counters measured from the worker process/allocator rather than the
#: engine — machine- and isolation-dependent, so stripped alongside
#: timing when comparing documents.
_MACHINE_COUNTERS = ("space.rss_peak", "space.traced_peak")
#: Gate fields measured from a timing series (identity fields stay).
_TIMING_GATE_FIELDS = ("n", "slow_value", "fast_value", "ratio", "ok",
                      "slow_seconds", "fast_seconds", "reason")
#: Expectation fields derived from a timing series.
_TIMING_EXPECTATION_FIELDS = ("fit", "doubling_ratios", "ok", "max_degree",
                             "bound", "points", "breaches", "reason")


def strip_timing(document: dict[str, Any]) -> dict[str, Any]:
    """A deep copy of an observatory document with every wall-clock- or
    machine-derived field removed: per-point ``seconds``, the
    worker-resource counters (``space.rss_peak``,
    ``space.traced_peak``), per-strategy ``fits``, and the measured
    parts of ``seconds``-based gates and expectations.  Deterministic
    fields — engine counters, histograms, checksums, agreement,
    counter-metric gates and expectations — survive untouched, so two
    stripped documents of the same workload compare equal byte-for-byte
    regardless of machine, wall time, or ``--jobs``.  Failed points lose
    their salvaged ``partial_telemetry`` counters too: what a killed
    worker managed to measure depends on the kill timing."""
    import copy

    stripped = copy.deepcopy(document)
    for suite_doc in stripped.get("suites", {}).values():
        for point in suite_doc.get("points", ()):
            point.pop("seconds", None)
            for counter in _MACHINE_COUNTERS:
                point.get("counters", {}).pop(counter, None)
            if point.get("failed"):
                # Salvaged partial telemetry depends on *when* the worker
                # was killed — erase it so serial and sharded documents
                # of the same workload stay byte-identical.
                point["counters"] = {}
                point.pop("partial_telemetry", None)
        suite_doc.pop("fits", None)
        for gate in suite_doc.get("gates", ()):
            if gate.get("metric", "seconds") == "seconds":
                for field in _TIMING_GATE_FIELDS:
                    gate.pop(field, None)
        for expectation in suite_doc.get("expectations", ()):
            if expectation.get("metric") == "seconds":
                for field in _TIMING_EXPECTATION_FIELDS:
                    expectation.pop(field, None)
    return stripped
