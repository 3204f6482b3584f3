"""Curve fitting and scaling-class detection for benchmark series.

The observatory's job is to check *measured* resource curves against the
paper's *predicted* shapes: transitive closure under semi-naive
evaluation on dense inputs must look polynomial of low degree
(Theorem 4.1's PTIME side), ``hyper(i, k)`` domain materialisation must
look superpolynomial (Section 2's hyperexponential lower bounds), and
range-restricted space must stay inside an explicit polynomial bound
(Theorem 5.1).  Everything here is exact arithmetic over the measured
points — no numpy, no fitting libraries.

Tools:

* :func:`loglog_fit` — least-squares slope/intercept on
  ``(log2 n, log2 y)``; for a clean ``y = c * n**d`` series the slope is
  ``d``.
* :func:`local_degrees` — the per-segment slopes
  ``log(y2/y1) / log(n2/n1)``: constant for polynomial series, strictly
  increasing for superpolynomial ones.  This is the discriminator:
  a global slope cannot tell ``n**8`` from ``2**n`` over a short range,
  the local-degree *trend* can.
* :func:`doubling_ratios` — ``y`` growth factors between consecutive
  points (``2**d`` per doubling for a degree-``d`` polynomial).
* :func:`classify` — poly-degree-d vs superpolynomial, with guards
  against noise promoting a polynomial curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Fit",
    "Classification",
    "loglog_fit",
    "local_degrees",
    "doubling_ratios",
    "classify",
    "bound_value",
    "format_bound",
]

#: Floor applied to measured values before taking logs, so zero counters
#: and sub-microsecond timings do not blow up the arithmetic.
_EPSILON = 1e-12

#: Each local-degree step must grow by at least this much for a series
#: to count as superpolynomial...
SUPERPOLY_STEP = 0.25
#: ...and the total local-degree increase must reach this margin.  Both
#: conditions together keep noisy polynomial timings (whose local
#: degrees wobble) from being classified superpolynomial.
SUPERPOLY_MARGIN = 1.0


@dataclass(frozen=True)
class Fit:
    """A least-squares line through ``(log2 x, log2 y)``."""

    slope: float
    intercept: float
    r2: float

    def to_json(self) -> dict[str, float]:
        return {"slope": self.slope, "intercept": self.intercept,
                "r2": self.r2}


@dataclass(frozen=True)
class Classification:
    """The detected scaling class of a series.

    ``kind`` is ``"poly"`` (with ``degree`` the fitted log-log slope) or
    ``"superpoly"`` (local degrees monotonically increasing past the
    margin).  ``local_degrees`` is kept for reports.
    """

    kind: str
    degree: float
    r2: float
    local_degrees: tuple[float, ...]

    def to_json(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "r2": self.r2,
            "local_degrees": list(self.local_degrees),
        }


def bound_value(n: float, coefficient: float, degree: int,
                base: float | None = None) -> float:
    """The declared envelope ``coefficient * base**n * n**degree`` at
    one size (``base=None`` drops the exponential factor: a pure
    polynomial bound)."""
    value = coefficient * float(n) ** degree
    if base is not None:
        value *= base ** n
    return value


def format_bound(coefficient: float, degree: int,
                 base: float | None = None) -> str:
    """Human form of the same envelope, for reports."""
    parts = [str(coefficient)]
    if base is not None:
        parts.append(f"{base}**n")
    parts.append(f"n**{degree}")
    return " * ".join(parts)


def _logs(values: Sequence[float]) -> list[float]:
    return [math.log2(max(float(v), _EPSILON)) for v in values]


def loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> Fit:
    """Least-squares ``log2 y = slope * log2 x + intercept``.

    Needs at least two distinct ``x`` values; the slope of a pure
    power law ``y = c * x**d`` is exactly ``d``.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    lx, ly = _logs(xs), _logs(ys)
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((x - mean_x) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("xs are all equal; slope is undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    syy = sum((y - mean_y) ** 2 for y in ly)
    if syy == 0:
        r2 = 1.0  # a constant series is fit perfectly by slope 0
    else:
        residual = sum(
            (y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly)
        )
        r2 = 1.0 - residual / syy
    return Fit(slope=slope, intercept=intercept, r2=r2)


def local_degrees(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """Per-segment slopes ``log(y2/y1) / log(x2/x1)``.

    Constant (= the degree) for a polynomial series; strictly increasing
    for a superpolynomial one (each segment of ``2**n`` looks like a
    higher-degree polynomial than the last).
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    lx, ly = _logs(xs), _logs(ys)
    degrees = []
    for i in range(1, len(xs)):
        dx = lx[i] - lx[i - 1]
        if dx <= 0:
            raise ValueError("xs must be strictly increasing")
        degrees.append((ly[i] - ly[i - 1]) / dx)
    return degrees


def doubling_ratios(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """``y`` growth factor between consecutive points, normalised to a
    per-doubling rate: ``(y2/y1) ** (1 / log2(x2/x1))``.

    For a degree-``d`` polynomial every entry is ``2**d`` regardless of
    the ``x`` spacing.
    """
    ratios = []
    for degree in local_degrees(xs, ys):
        ratios.append(2.0**degree)
    return ratios


def classify(xs: Sequence[float], ys: Sequence[float]) -> Classification:
    """Poly-degree-d vs superpolynomial.

    A series is superpolynomial when its local degrees increase
    monotonically with every step at least :data:`SUPERPOLY_STEP` and a
    total increase of at least :data:`SUPERPOLY_MARGIN`; otherwise it is
    polynomial with the fitted log-log slope as its degree.  The double
    condition makes the detector one-sided in the safe direction: noisy
    polynomial timings stay "poly", while any genuinely exponential
    series sampled over a growing range trips both conditions.
    """
    degrees = local_degrees(xs, ys)
    fit = loglog_fit(xs, ys)
    if len(degrees) >= 2:
        steps = [b - a for a, b in zip(degrees, degrees[1:])]
        monotone = all(step >= SUPERPOLY_STEP for step in steps)
        total = degrees[-1] - degrees[0]
        if monotone and total >= SUPERPOLY_MARGIN:
            return Classification(
                kind="superpoly", degree=fit.slope, r2=fit.r2,
                local_degrees=tuple(degrees),
            )
    return Classification(
        kind="poly", degree=fit.slope, r2=fit.r2,
        local_degrees=tuple(degrees),
    )
