"""Supply-chain question benchmark: end-to-end latency and throughput of
the production lane, and traced rounds that say which layer the time
went to.

    PYTHONPATH=src python benchmark/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--json OUT]

Each workload runs in a fresh worker process, one after another: a
closed loop with one client and one thread.  The runner generates the
workload's instance with ``supply_chain_instance(scale, seed)`` and
writes it with ``dump_instance``; the worker only ever sees that JSON
file.  Every answer is checked: at the seed ``expected.json`` was
computed at, against its checksums; at any other seed, against the
naive oracle lane, run untimed before the worker starts.  Wrong answers
and exceptions are counted as failed and never stop the run.

The worker answers one untimed warm-up question on a scale-1 instance,
then runs whole rounds of the workload's question mix through
``answer_question`` until ``--seconds`` (``run_seconds`` in
``BENCHMARK.json`` by default) have passed, at least two rounds.  Before
each round it times one ``load_instance`` call for ``setup_s``.  Every
timing is scaled by the machine's speed at that moment, measured with a
short fixed reference loop just before and just after each call (see
``reference_loop``).  With ``--trace 1`` it then runs ``TRACED_ROUNDS``
traced rounds, which call each layer's public function themselves and
record a span around each call, and one counter round under
``repro.obs.Tracer``.  Metric names and units come from
``BENCHMARK.json``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"

#: The reference loop's duration on a quiet 2-core Xeon at 2.1 GHz with
#: CPython 3.11.  Reported times are wall times scaled to that speed.
REFERENCE_S = 0.0025
#: Per-layer times are the median over this many traced rounds.
TRACED_ROUNDS = 5
#: A worker that has not finished by then is killed (the whole run must
#: end within 180 s).
WORKER_TIMEOUT_S = 150
#: At most this many failures are described in the output.
ERRORS_SHOWN = 3
#: Per-layer counts, each the sum of these counters of the program.
COUNTERS = {
    "fixpoint.stages": ("ifp.stages", "pfp.stages"),
    "fixpoint.rows_derived": ("datalog.rows_derived", "eval.delta_rows"),
    "intern.values": ("space.interned_values",),
    "ranges.values": ("space.range_values",),
    "index.builds": ("eval.index_builds",),
    "index.probes": ("eval.index_probes",),
}


@dataclass(frozen=True)
class Workload:
    scale: int
    mix: str  # "GREEN" / "YELLOW": the .dl questions of that color; "calc"
    cold: bool  # load the instance inside every operation


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The scales keep the naive oracle check of a non-default seed, which
# runs before every window, to a few seconds per run.
WORKLOADS: dict[str, Workload] = {
    "green-lookup": Workload(8, "GREEN", cold=False),
    "yellow-closure": Workload(8, "YELLOW", cold=False),
    "calc-rr": Workload(1, "calc", cold=False),
    "cold-question": Workload(8, "GREEN", cold=True),
}


def mix_questions(mix: str) -> list:
    """The inventory questions of one workload mix, in inventory order."""
    from repro.workloads.supply_chain import QUESTIONS

    if mix == "calc":
        return [q for q in QUESTIONS if q.kind == "calc"]
    return [q for q in QUESTIONS if q.kind == "datalog" and q.verdict == mix]


def production_lane(fn) -> dict:
    """Keyword arguments selecting the production lane (semi-naive over
    interned ids) for ``fn``: ``intern=True`` while ``fn`` accepts it.
    Once interning is internal, the defaults are the production lane."""
    return {"intern": True} if "intern" in inspect.signature(fn).parameters else {}


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between the
    closest ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def benchmark_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Runner side: inputs, answer checking, one worker per workload
# ---------------------------------------------------------------------------

def load_expected(scale: int, seed: int, instance_checksum: int,
                  questions) -> dict[str, int] | None:
    """Committed answer checksums for these questions, or None when
    ``expected.json`` does not cover this (seed, scale, instance)."""
    with open(EXPECTED_JSON, encoding="utf-8") as handle:
        document = json.load(handle)
    entry = document["scales"].get(str(scale))
    if (seed != document["seed"] or entry is None
            or entry["instance_checksum"] != instance_checksum):
        return None
    answers = entry["questions"]
    if any(q.name not in answers for q in questions):
        return None
    return {q.name: answers[q.name]["checksum"] for q in questions}


def oracle_answers(questions, instance_path: str) -> dict[str, int]:
    """Answer checksums from the naive object lane, the Definition 3.1
    oracle, on the same JSON file the worker loads."""
    from repro.objects.io import load_instance
    from repro.workloads.supply_chain import answer_question

    inst = load_instance(instance_path)
    return {q.name: answer_question(q, inst, strategy="naive").checksum
            for q in questions}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 scale: int | None = None,
                 expected: dict[str, int] | None = None) -> dict:
    """Run one workload in a fresh worker process and return its result.

    ``scale`` overrides the workload's scale and ``expected`` the answer
    checksums (both for tests)."""
    from repro.obs import instance_checksum
    from repro.objects.io import dump_instance
    from repro.workloads.supply_chain import supply_chain_instance

    workload = WORKLOADS[name]
    scale = scale or workload.scale
    questions = mix_questions(workload.mix)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        instance_path = os.path.join(work, "instance.json")
        warmup_path = os.path.join(work, "warmup.json")
        inst = supply_chain_instance(scale, seed)
        dump_instance(inst, instance_path)
        dump_instance(supply_chain_instance(1, seed), warmup_path)
        checksum = instance_checksum(inst)
        rows = sum(len(inst.relation(r)) for r in inst.schema.relation_names)
        del inst
        oracle = "given"
        if expected is None:
            expected = load_expected(scale, seed, checksum, questions)
            oracle = "expected.json"
        if expected is None:
            expected = oracle_answers(questions, instance_path)
            oracle = "naive"
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump({
                "questions": [q.name for q in questions],
                "cold": workload.cold,
                "seconds": seconds,
                "trace": trace,
                "instance": instance_path,
                "warmup": warmup_path,
                "expected": expected,
            }, handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             job_path, result_path],
            env=env, check=True, timeout=WORKER_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    result.update(workload=name, seed=seed, scale=scale, rows=rows,
                  instance_checksum=checksum, oracle=oracle)
    return result


def report(result: dict, spec: dict) -> None:
    """Print one workload's metrics by name, with units."""
    print(f"{result['workload']}: scale {result['scale']} "
          f"({result['rows']:,} rows), seed {result['seed']}, "
          f"{result['rounds']} rounds in {result['window_s']:.1f} s, "
          f"reference loop {result['slowdown']:.2f}x its reference time, "
          f"answers checked against {result['oracle']}")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<22} "
              f"{result['end_to_end'][metric['name']]:>12.4f} "
              f"{metric['unit']}")
    for name in ("q_p50_ms", "q_p90_ms"):
        print(f"  {name:<22} {result[name]:>12.4f} ms  "
              f"(n={result['samples']}, pooled over the mix, not gated)")
    fraction = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<22} {fraction:>12.4f} ratio  "
          f"({result['failed']} of {result['attempted']})")
    for error in result["errors"]:
        print(f"  error: {error}")
    if "per_layer" in result:
        print(f"  traced rounds (median of {TRACED_ROUNDS}):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = result["per_layer"][name]
            shown = f"{value:>12d}" if isinstance(value, int) else f"{value:>12.4f}"
            print(f"  {name:<22} {shown} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed window per workload (default and the "
                             "only value the bounds hold for: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced and counter rounds")
    parser.add_argument("--json", metavar="OUT",
                        help="write every result, with spans, to OUT")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.worker:
        return worker(*args.worker)
    try:
        import repro.workloads.supply_chain  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds,
                                         bool(args.trace))
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"{name}: worker failed: {exc}", file=sys.stderr)
            return 1
        report(results[name], spec)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "nproc": os.cpu_count(),
                       "python": sys.version.split()[0],
                       "workloads": results}, handle, indent=1)
            handle.write("\n")
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric in spec[group]:
            metrics[prefix + metric["name"]] = {
                "value": result[group][metric["name"]],
                "unit": metric["unit"]}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# Worker side: the timed window, the traced rounds, the counter round
# ---------------------------------------------------------------------------

#: The second half of the reference loop's work: 600 nested rows.
REFERENCE_DOC = json.dumps([
    {"id": f"P{i:05d}", "tags": [f"c{j}" for j in range(i % 5)],
     "qty": i * 7 % 101,
     "parts": [[f"A{i % 37}", i % 11], [f"B{i % 13}", i % 3]]}
    for i in range(600)])


def reference_loop() -> int:
    """A fixed piece of pure-Python work, the yardstick for the
    machine's speed.  One half hashes tuple keys into a dict, groups
    them into sets, freezes and sorts them; the other parses
    ``REFERENCE_DOC`` and turns its rows into hashable tuples and
    frozensets, as loading and interning an instance do.

    The machine's other tenants slow the program by up to 2x, in bursts
    shorter than a second and in stretches of many minutes.  They slow
    this loop by about the same share at the same moment, so a time
    divided by the loop's times just before and after it varies far
    less.  Either half alone slows more, or less, than some workload;
    README.md has the numbers."""
    table: dict = {}
    for i in range(2000):
        key = ("t", str(i % 997), (i % 61, i * 7 % 13))
        table[key] = table.get(key, 0) + 1
    groups: dict = {}
    for key, count in table.items():
        groups.setdefault(key[2], set()).add((key[1], count))
    seen: dict = {}
    for row in json.loads(REFERENCE_DOC):
        key = (row["id"], frozenset(row["tags"]),
               tuple(tuple(part) for part in row["parts"]))
        seen[key] = len(seen)
    return len(sorted(frozenset(group) for group in groups.values())) + len(seen)


class Speedometer:
    """Times the reference loop between pieces of work.  ``lap()``
    times it again and returns the factor that scales the work done
    since the previous timing to the reference machine: ``REFERENCE_S``
    over the mean of the loop times just before and just after the
    work."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._time_loop()

    def _time_loop(self) -> None:
        # The program's garbage must not be collected on the loop's time.
        gc.disable()
        try:
            began = time.perf_counter()
            reference_loop()
            self.times.append(time.perf_counter() - began)
        finally:
            gc.enable()

    def lap(self) -> float:
        self._time_loop()
        return 2 * REFERENCE_S / (self.times[-2] + self.times[-1])

    def slowdown(self) -> float:
        """The median loop time as a multiple of ``REFERENCE_S``."""
        return statistics.median(self.times) / REFERENCE_S


def outcome(question, expected: dict[str, int], call) -> str | None:
    """Run ``call()``, which answers ``question`` and returns the
    answer's checksum.  None when the checksum is the expected one,
    else what went wrong: an exception counts as a wrong answer and
    never stops the run."""
    try:
        checksum = call()
    except Exception as exc:
        return f"{question.name}: {exc!r}"
    if checksum != expected[question.name]:
        return (f"{question.name}: checksum {checksum} != "
                f"{expected[question.name]}")
    return None


class Tally:
    """Answers attempted and failed, and the first few failures."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.errors) < ERRORS_SHOWN:
            self.errors.append(problem)
        return False


def timed_window(questions, inst, instance_path: str, cold: bool,
                 expected: dict[str, int], seconds: float,
                 tally: Tally) -> dict:
    """Whole rounds of ``answer_question`` until ``seconds`` have passed
    (at least two), each after one timed ``load_instance`` call.

    Returns each load's seconds, each round's seconds and rate of
    correct answers, and each question's latencies of correct answers,
    all scaled to the reference machine one call at a time."""
    from repro.objects.io import load_instance
    from repro.workloads.supply_chain import answer_question

    lane = production_lane(answer_question)
    latencies: dict[str, list[float]] = {q.name: [] for q in questions}
    loads: list[float] = []
    rounds: list[float] = []
    rates: list[float] = []
    speed = Speedometer()
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        # Garbage is not collected between rounds: from a collected heap,
        # every round of one seed would trigger the same collections at
        # the same calls, and the seed, not the program, would decide
        # what they cost.
        began = time.perf_counter()
        load_instance(instance_path)
        elapsed = time.perf_counter() - began
        loads.append(elapsed * speed.lap())
        round_s = 0.0
        correct = 0
        for question in questions:

            def call():
                answer_inst = load_instance(instance_path) if cold else inst
                return answer_question(question, answer_inst, **lane).checksum

            began = time.perf_counter()
            ok = tally.add(outcome(question, expected, call))
            elapsed = time.perf_counter() - began
            latency = elapsed * speed.lap()
            round_s += latency
            if ok:
                correct += 1
                latencies[question.name].append(latency)
        rounds.append(round_s)
        rates.append(correct / round_s)
    return {"window_s": time.perf_counter() - start, "loads": loads,
            "rounds": rounds, "rates": rates, "latencies": latencies,
            "slowdown": speed.slowdown()}


class SpanLog:
    """Spans recorded around the benchmark's own calls, kept in memory:
    id, name, start and end (seconds from the log's creation), parent
    id, the question they belong to and, on the spans timed between two
    reference loops, the factor that scales them and their children to
    the reference machine."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             question: str | None = None):
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "question": question,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter() - self.origin

    def scaled(self, span: dict) -> float:
        """A span's duration scaled to the reference machine by its own
        ``factor`` or, failing that, its nearest ancestor's."""
        owner = span
        while "factor" not in owner and owner["parent"] is not None:
            owner = self.spans[owner["parent"]]
        return (span["end"] - span["start"]) * owner.get("factor", 1.0)

    def total(self, name: str) -> float:
        return sum(self.scaled(s) for s in self.spans if s["name"] == name)


def layered_answer(question, inst, log: SpanLog, parent: int,
                   qid: str) -> int:
    """Answer ``question`` the way ``answer_question`` does, one public
    layer call at a time, with a span around each call.

    The ``intern`` span is an extra call to the function each engine
    makes first; the engine interns again inside ``evaluate``, so the
    evaluate layer's own time is the evaluate span minus the intern
    span."""
    from repro.obs import Tracer, rows_checksum, use_tracer

    with use_tracer(Tracer()):
        if question.kind == "datalog":
            from repro.datalog import evaluate_inflationary, parse_program
            from repro.objects.intern import intern_instance

            with log.span("plan", parent, qid):
                program, query = parse_program(question.source)
            with log.span("intern", parent, qid):
                intern_instance(inst)
            with log.span("evaluate", parent, qid):
                result = evaluate_inflationary(
                    program, inst, **production_lane(evaluate_inflationary))
                rows = frozenset(tuple(r) for r in result[query.predicate])
        else:
            from repro.core.evaluation import Evaluator
            from repro.core.range_restriction import compute_ranges
            from repro.objects.intern import ValueStore

            with log.span("plan", parent, qid):
                query = question.build()
                ranges = compute_ranges(query, inst)
            with log.span("intern", parent, qid):
                ValueStore.from_instance(inst)
            with log.span("evaluate", parent, qid):
                evaluator = Evaluator(inst.schema, variable_ranges=ranges,
                                      **production_lane(Evaluator))
                rows = frozenset(r.items for r in evaluator.evaluate(query,
                                                                     inst))
        with log.span("checksum", parent, qid):
            return rows_checksum(rows)


def traced_round(questions, instance_path: str, cold: bool,
                 expected: dict[str, int], tally: Tally,
                 speed: Speedometer) -> SpanLog:
    """One round of the mix, layer by layer, each question (and the
    round's load) scaled by ``speed``; failures go to ``tally``."""
    from repro.objects.io import load_instance

    log = SpanLog()
    with log.span("round") as root:
        inst = None
        if not cold:
            with log.span("load", root) as load:
                inst = load_instance(instance_path)
            log.spans[load]["factor"] = speed.lap()
        for position, question in enumerate(questions):
            qid = f"{position}:{question.name}"
            with log.span("question", root, qid) as parent:

                def call():
                    answer_inst = inst
                    if cold:
                        with log.span("load", parent, qid):
                            answer_inst = load_instance(instance_path)
                    return layered_answer(question, answer_inst, log,
                                          parent, qid)

                tally.add(outcome(question, expected, call))
            log.spans[parent]["factor"] = speed.lap()
    return log


def counter_round(questions, inst, expected: dict[str, int],
                  tally: Tally) -> dict[str, float]:
    """The program's own counters over one round of ``answer_question``,
    each question under a fresh ``repro.obs.Tracer``; failures go to
    ``tally``."""
    from repro.obs import Tracer, use_tracer
    from repro.workloads.supply_chain import answer_question

    lane = production_lane(answer_question)
    totals: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    answered = derived = 0
    for question in questions:
        tracer = Tracer()
        rows = []

        def call():
            with use_tracer(tracer):
                answer = answer_question(question, inst, **lane)
            rows.append(len(answer.rows))
            return answer.checksum

        tally.add(outcome(question, expected, call))
        counts = {name: sum(tracer.counters.get(s, 0) for s in sources)
                  for name, sources in COUNTERS.items()}
        for name, value in counts.items():
            totals[name] += value
        if counts["fixpoint.stages"] and rows:
            answered += rows[0]
            derived += counts["fixpoint.rows_derived"]
    totals["fixpoint.useful_ratio"] = answered / derived if derived else 0.0
    return totals


def layer_metrics(log: SpanLog, untraced_round_s: float) -> dict:
    """Per-layer milliseconds of one traced round, and the tracing
    overhead against the median untraced round; all scaled to the
    reference machine."""
    ids = {s["id"] for s in log.spans if s["name"] == "question"}
    inside = sum(log.scaled(s) for s in log.spans if s["parent"] in ids)
    questions = log.total("question")
    intern = log.total("intern")
    return {
        "load.ms": 1000 * log.total("load"),
        "plan.ms": 1000 * log.total("plan"),
        "intern.ms": 1000 * intern,
        "evaluate.ms": 1000 * (log.total("evaluate") - intern),
        "checksum.ms": 1000 * log.total("checksum"),
        "self.ms": 1000 * (questions - inside),
        # The extra intern calls are the benchmark's, not the program's.
        "trace.overhead": (questions - intern) / untraced_round_s,
    }


def traced_round_ms(log: SpanLog) -> float:
    """The traced round's load and question spans, less the extra
    intern calls: what the layer values and ``self.ms`` add up to."""
    return 1000 * (sum(log.scaled(s) for s in log.spans if s["parent"] == 0)
                   - log.total("intern"))


def worker(job_path: str, result_path: str) -> int:
    from repro.objects.io import load_instance
    from repro.workloads.supply_chain import answer_question, question_by_name

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    questions = [question_by_name(name) for name in job["questions"]]
    expected = job["expected"]
    path = job["instance"]

    answer_question(questions[0], load_instance(job["warmup"]),
                    **production_lane(answer_question))
    inst = load_instance(path)
    tally = Tally()
    window = timed_window(questions, inst, path, job["cold"], expected,
                          job["seconds"], tally)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_question = window["latencies"]
    pooled = [s for samples in per_question.values() for s in samples]
    medians = [statistics.median(s) for s in per_question.values() if s]
    untraced_round_s = statistics.median(window["rounds"])
    result = {
        "questions": job["questions"],
        "rounds": len(window["rounds"]),
        "window_s": window["window_s"],
        "slowdown": window["slowdown"],
        "samples": len(pooled),
        "latencies_ms": {name: [1000 * s for s in samples]
                         for name, samples in per_question.items()},
        "rounds_ms": [1000 * s for s in window["rounds"]],
        "rates": window["rates"],
        "setup_ms": [1000 * s for s in window["loads"]],
        "end_to_end": {
            "setup_s": statistics.median(window["loads"]),
            # The median round's rate: what scaling leaves of a burst of
            # load from other processes slows a few rounds, not the
            # median one.
            "qps": statistics.median(window["rates"]),
            # Each question's median, so no question's bursts or data
            # decide it, combined over the mix by geometric mean.
            "q_p50_gmean_ms": (1000 * statistics.geometric_mean(medians)
                               if medians else 0.0),
            "peak_rss_mb": peak_rss_kb / 1024,
        },
        "q_p50_ms": 1000 * percentile(pooled or [0.0], 50),
        "q_p90_ms": 1000 * percentile(pooled or [0.0], 90),
    }
    if job["trace"]:
        speed = Speedometer()
        logs = [traced_round(questions, path, job["cold"], expected, tally,
                             speed)
                for _ in range(TRACED_ROUNDS)]
        layers = [layer_metrics(log, untraced_round_s) for log in logs]
        result["per_layer"] = {name: statistics.median(m[name] for m in layers)
                               for name in layers[0]}
        result["per_layer"].update(
            counter_round(questions, inst, expected, tally))
        result["traced_round_ms"] = statistics.median(
            traced_round_ms(log) for log in logs)
        result["spans"] = [
            {**span, "round": index,
             "start": round(span["start"], 6), "end": round(span["end"], 6)}
            for index, log in enumerate(logs) for span in log.spans]
    result.update(attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
