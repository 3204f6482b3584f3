"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python benchmark/compare.py --base A.json [A2.json ...] --new B.json [B2.json ...]

Each file is a ``run.py --json`` document.  For every (workload,
end-to-end metric) the table shows each set's median and quartiles and
a verdict:

* ``unresolved``: the spread between runs of either set, (q3 - q1) /
  median, is wider than the metric's bound;
* ``worse`` / ``better``: the new median moved past the bound, as a
  share of the base median;
* ``ok``: otherwise.

Per-layer counts (units ``count`` and ``ratio``) must be identical in
every run of both sets.  Per-layer times are shown without a verdict.
Exits 1 when a metric is worse or a count differs, and 2 when a run's
window is not ``run_seconds``, the window the bounds were set for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT_UNITS = ("count", "ratio")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_median = quartiles(base)[1]
    change = (quartiles(new)[1] - base_median) / base_median
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "ok"


def collect(documents: list[dict], group: str, workload: str,
            name: str) -> list[float]:
    return [doc["workloads"][workload][group][name] for doc in documents
            if workload in doc["workloads"]
            and group in doc["workloads"][workload]]


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[list[str], bool]:
    """The table's lines, and whether any metric is worse or any count
    differs."""
    lines = []
    failed = False
    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':<16} {'metric':<22} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    lines.append(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = collect(base, "end_to_end", workload, metric["name"])
            b = collect(new, "end_to_end", workload, metric["name"])
            if not a or not b:
                continue
            outcome = verdict(a, b, metric["better"], metric["bound"])
            failed |= outcome == "worse"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1]
            lines.append(
                f"{workload:<16} {metric['name']:<22} {_cell(qa):>32} "
                f"{_cell(qb):>32} {change:>+8.1%} {metric['bound']:>6.0%}  "
                f"{outcome}")
        for metric in spec["per_layer"]:
            a = collect(base, "per_layer", workload, metric["name"])
            b = collect(new, "per_layer", workload, metric["name"])
            if not a or not b:
                continue
            outcome = "-"
            if metric["unit"] in EXACT_UNITS:
                outcome = "same" if len(set(a + b)) == 1 else "differs"
                failed |= outcome == "differs"
            lines.append(
                f"{workload:<16} {metric['name']:<22} "
                f"{_cell(quartiles(a)):>32} {_cell(quartiles(b)):>32} "
                f"{'':>8} {'':>6}  {outcome}")
    return lines, failed


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--new", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    documents = []
    for paths in (args.base, args.new):
        loaded = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        documents.append(loaded)
    windows = {doc.get("seconds") for loaded in documents for doc in loaded}
    if windows != {spec["run_seconds"]}:
        print(f"the bounds hold for {spec['run_seconds']} s windows; these "
              f"runs used {sorted(windows, key=str)}", file=sys.stderr)
        return 2
    lines, failed = compare(documents[0], documents[1], spec)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
