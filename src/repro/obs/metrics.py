"""Log-bucketed histograms, their JSON export, and deep node counts.

The paper's theorems are statements about *curves* — time and space as
functions of instance size (PTIME/PSPACE on dense inputs, Theorem 4.1;
``P(hyper(j,k))`` under mixed density, Theorem 4.2; the LOGSPACE/PTIME/
PSPACE safety ladder of Theorem 5.1).  The flat ``Tracer.counters`` dict
holds every monotonic count and gauge as one number per name, which
erases *distributions* (a million fixpoint stages collapse to one
number).  This module keeps them:

* :class:`Histogram` — power-of-two log-bucketed distributions with
  count/total/min/max and bucket-resolution quantiles (per-stage
  relation cardinalities, per-variable range sizes);
* :class:`MetricsRegistry` — the name-keyed histograms of one tracer;
* :func:`metrics_to_json` / :func:`metrics_from_json` — a versioned,
  JSON-safe export that round-trips.

:func:`value_node_count` lives here too: the deep node count of a
nested complex object (every atom, tuple, and set node — the
``||o||``-flavoured size the engines report for materialised domains
and answers).

Zero dependencies by design, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Union

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "metrics_to_json",
    "metrics_from_json",
    "value_node_count",
]

Number = Union[int, float]


def _bucket_index(value: Number) -> int:
    """The log-2 bucket of a value.

    Bucket ``0`` holds everything ``<= 1`` (including zero and negative
    readings); bucket ``b >= 1`` holds values in ``(2**(b-1), 2**b]``.
    Exact powers of two land in the bucket they bound, so boundaries
    are deterministic for the integer readings the engines record.
    """
    if value <= 1:
        return 0
    if isinstance(value, int):
        return (value - 1).bit_length()
    return max(1, math.ceil(math.log2(value)))


class Histogram:
    """A power-of-two log-bucketed distribution.

    Bucket ``b`` has upper bound ``2**b`` (bucket 0: values ``<= 1``),
    so fifty buckets cover every cardinality up to ``2**50`` with
    constant memory — the right resolution for quantities that the
    paper's bounds describe up to polynomial factors anyway.
    """

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total: Number = 0
        self.min: Number | None = None
        self.max: Number | None = None
        self.buckets: dict[int, int] = {}

    def record(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = _bucket_index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_upper_bound(self, bucket: int) -> int:
        return 1 if bucket == 0 else 2**bucket

    def quantile(self, q: float) -> Number:
        """An upper bound on the ``q``-quantile at bucket resolution.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * count``, clipped to the observed maximum
        (exact when all mass in that bucket sits at one value).
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0
        target = q * self.count
        cumulative = 0
        assert self.max is not None
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            if cumulative >= target:
                return min(self.bucket_upper_bound(bucket), self.max)
        return self.max

    def summary(self) -> dict[str, Any]:
        """Count/total/min/max/mean plus p50/p90/p99 bucket quantiles."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, min={self.min}, max={self.max})"


class MetricsRegistry:
    """Name-keyed histograms, created on first use (what
    :meth:`repro.obs.Tracer.observe` records into)."""

    __slots__ = ("_histograms",)

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def histograms(self) -> Iterator[tuple[str, Histogram]]:
        """``(name, histogram)`` pairs in name order."""
        yield from sorted(self._histograms.items())


def metrics_to_json(metrics: MetricsRegistry) -> dict[str, Any]:
    """A versioned JSON-safe document; round-trips through
    :func:`metrics_from_json`."""
    return {
        "schema": 1,
        "metrics": {name: histogram.to_json()
                    for name, histogram in metrics.histograms()},
    }


def metrics_from_json(doc: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from :func:`metrics_to_json`
    output.

    Older trace documents also listed every counter and gauge here, as
    ``counter``/``gauge`` entries; their values are the document's flat
    ``counters``, so those entries are skipped.  Any other kind raises.
    """
    registry = MetricsRegistry()
    for name, entry in doc.get("metrics", {}).items():
        kind = entry.get("kind")
        if kind in ("counter", "gauge"):
            continue
        if kind != Histogram.kind:
            raise ValueError(f"unknown metric kind {kind!r}")
        histogram = registry.histogram(name)
        histogram.count = entry["count"]
        histogram.total = entry["total"]
        histogram.min = entry["min"]
        histogram.max = entry["max"]
        histogram.buckets = {int(b): n for b, n in entry["buckets"].items()}
    return registry


def value_node_count(value: Any) -> int:
    """Deep node count of a nested object: every atom, tuple, and set
    node, pre-order — the space accounting unit for materialised
    complex objects.

    Duck-typed on the value layer's ``subobjects()`` iterator so this
    module stays dependency-free; plain tuples/frozensets (engine row
    containers) recurse structurally, and anything else counts as one
    node.
    """
    subobjects = getattr(value, "subobjects", None)
    if subobjects is not None:
        return sum(1 for _ in subobjects())
    if isinstance(value, (tuple, list, set, frozenset)):
        return 1 + sum(value_node_count(item) for item in value)
    return 1
