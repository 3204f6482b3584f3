"""Density and sparsity of instance families (Definition 4.1).

A family of instances over an ``<i,k>``-database schema is

* **dense** w.r.t. ``<i,k>``-types if ``|dom(i,k,atom(I))| <= P(|I|)``
  for some fixed polynomial P — the database makes full use of its
  types;
* **sparse** if ``|I| <= P(log |dom(i,k,atom(I))|)`` — the top nesting
  level is "cosmetic".

Density and sparsity are properties of *families* (one polynomial for
all members), so the checkers come in two forms:

* **pointwise witnesses** (:func:`is_dense_witness`,
  :func:`is_sparse_witness`) check a single instance against an explicit
  polynomial bound ``coefficient * x**degree``;
* **family classification** (:func:`classify_family`) fits growth
  exponents over a size sweep — the empirical analogue, used by the
  benchmarks to confirm which generated workloads are dense and which
  are sparse.

Lemma 4.1 (cardinality- and size-based density/sparsity coincide) gets
an executable face too: :func:`lemma41_witness` computes all four
measures so the tests can confirm the polynomial relationships.

Because ``|dom(i,k,D)|`` is hyperexponential, the checkers work with
``log2`` of the domain cardinality (:func:`log2_dom_ik`), which only
requires materialising one fewer level of exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ..objects.domains import (
    DEFAULT_MAX_BITS,
    all_ik_types,
    dom_ik_cardinality,
    domain_cardinality,
)
from ..objects.encoding import domain_encoding_size
from ..objects.instance import Instance
from ..objects.types import AtomType, SetType, TupleType, Type
from .statistics import instance_stats, subobject_counts

__all__ = [
    "log2_domain_cardinality",
    "log2_dom_ik",
    "is_dense_witness",
    "is_sparse_witness",
    "is_dense_for_type",
    "is_sparse_for_type",
    "DensityVerdict",
    "classify_family",
    "lemma41_witness",
    "Lemma41Witness",
]


def log2_domain_cardinality(typ: Type, n: int,
                            max_bits: int = DEFAULT_MAX_BITS) -> float:
    """``log2 |dom(typ, D)|`` for ``|D| = n``, without building the top
    exponential.

    * ``U``: ``log2 n``;
    * ``{T}``: ``|dom(T, D)|`` exactly (one fewer exponential level);
    * tuples: sum of component logs.

    Raises :class:`DomainTooLarge` when even the inner cardinality is out
    of reach.
    """
    if n <= 0:
        return float("-inf")
    if isinstance(typ, AtomType):
        return math.log2(n)
    if isinstance(typ, SetType):
        return float(domain_cardinality(typ.element, n, max_bits))
    if isinstance(typ, TupleType):
        return sum(log2_domain_cardinality(c, n, max_bits)
                   for c in typ.components)
    raise TypeError(f"unknown type {typ!r}")


def log2_dom_ik(i: int, k: int, n: int) -> float:
    """``log2 |dom(i, k, D)|`` for ``|D| = n`` (typed disjoint union).

    The sum over types is dominated by the largest domain; the remaining
    types contribute at most ``log2(#types)`` bits, which we add for a
    faithful upper value.
    """
    if n <= 0:
        return float("-inf")
    types = all_ik_types(i, k)
    largest = max(log2_domain_cardinality(t, n) for t in types)
    return largest + math.log2(len(types))


# ---------------------------------------------------------------------------
# Pointwise witnesses
# ---------------------------------------------------------------------------

def is_dense_witness(inst: Instance, i: int, k: int,
                     degree: int = 3, coefficient: float = 8.0) -> bool:
    """Does ``|dom(i,k,atom(I))| <= coefficient * |I|**degree`` hold?

    Checked in log space: ``log2|dom| <= log2(coefficient) + degree*log2|I|``.
    """
    cardinality = max(1, inst.cardinality)
    log_dom = log2_dom_ik(i, k, len(inst.atoms()))
    return log_dom <= math.log2(coefficient) + degree * math.log2(cardinality + 1)


def is_sparse_witness(inst: Instance, i: int, k: int,
                      degree: int = 3, coefficient: float = 8.0) -> bool:
    """Does ``|I| <= coefficient * (log |dom(i,k,atom(I))|)**degree`` hold?"""
    log_dom = log2_dom_ik(i, k, len(inst.atoms()))
    if log_dom <= 0:
        return inst.cardinality <= coefficient
    return inst.cardinality <= coefficient * (log_dom ** degree)


def is_dense_for_type(inst: Instance, typ: Type,
                      degree: int = 3, coefficient: float = 8.0) -> bool:
    """Single-type density: sub-objects of type T vs ``|dom(T, atom(I))|``.

    Definition 4.1's per-type variant: ``|I|`` is replaced by the number
    of distinct sub-objects of type T in I.
    """
    counts = subobject_counts(inst)
    used = max(1, counts.get(typ, 0))
    log_dom = log2_domain_cardinality(typ, len(inst.atoms()))
    return log_dom <= math.log2(coefficient) + degree * math.log2(used + 1)


def is_sparse_for_type(inst: Instance, typ: Type,
                       degree: int = 3, coefficient: float = 8.0) -> bool:
    """Single-type sparsity: few T-objects relative to ``log |dom(T)|``."""
    counts = subobject_counts(inst)
    used = counts.get(typ, 0)
    log_dom = log2_domain_cardinality(typ, len(inst.atoms()))
    if log_dom <= 0:
        return used <= coefficient
    return used <= coefficient * (log_dom ** degree)


# ---------------------------------------------------------------------------
# Family classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityVerdict:
    """Empirical classification of an instance family.

    Density means ``|dom| <= P(|I|)`` for one fixed polynomial, i.e.
    the *implied degree* ``log2|dom| / log2|I|`` stays bounded across the
    sweep.  Sparsity means ``|I| <= P(log|dom|)``, i.e. the implied
    degree ``log2|I| / log2(log2|dom|)`` stays bounded.  The verdicts
    require the respective degree sequence not to grow (last point within
    ``tolerance`` of the minimum observed degree).
    """

    points: tuple[tuple[int, float], ...]  # (|I|, log2|dom|)
    dense_degrees: tuple[float, ...]
    sparse_degrees: tuple[float, ...]
    looks_dense: bool
    looks_sparse: bool


def classify_family(
    make_instance: Callable[[int], Instance],
    i: int,
    k: int,
    sizes: Iterable[int],
    tolerance: float = 1.5,
) -> DensityVerdict:
    """Empirically classify a family as dense/sparse w.r.t. ``<i,k>``-types.

    ``make_instance(n)`` generates the family member of parameter n.  For
    each member, the implied polynomial degrees are computed; the family
    looks dense (resp. sparse) if the corresponding degree sequence does
    not grow — the final degree is at most ``tolerance`` times the
    minimum observed degree.
    """
    points: list[tuple[int, float]] = []
    for n in sizes:
        inst = make_instance(n)
        log_dom = log2_dom_ik(i, k, len(inst.atoms()))
        points.append((max(2, inst.cardinality), log_dom))
    dense_degrees = tuple(
        max(0.0, log_dom) / math.log2(card) for card, log_dom in points
    )
    sparse_degrees = tuple(
        math.log2(card) / max(1.0, math.log2(max(2.0, log_dom)))
        for card, log_dom in points
    )

    def stable(degrees: tuple[float, ...]) -> bool:
        if len(degrees) < 2:
            return False
        smallest = min(degrees)
        return degrees[-1] <= max(smallest * tolerance, smallest + 0.5)

    return DensityVerdict(
        points=tuple(points),
        dense_degrees=dense_degrees,
        sparse_degrees=sparse_degrees,
        looks_dense=stable(dense_degrees),
        looks_sparse=stable(sparse_degrees),
    )


# ---------------------------------------------------------------------------
# Lemma 4.1: size vs cardinality measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma41Witness:
    """All four measures of one instance, for Lemma 4.1's equivalences.

    Attributes:
        cardinality: ``|I|``.
        size: ``||I||``.
        dom_cardinality: ``|dom(i,k,atom(I))|`` (exact big int).
        dom_size: ``||dom(i,k,atom(I))||`` (exact big int).
    """

    cardinality: int
    size: int
    dom_cardinality: int
    dom_size: int

    @property
    def facts(self) -> dict[str, bool]:
        """The three "easily checked facts" (a)-(c) from the proof."""
        import math as _math

        log_dom = max(1.0, _math.log2(self.dom_cardinality))
        return {
            # (a) |I| <= ||I||
            "a_card_le_size": self.cardinality <= self.size,
            # (b) ||I|| <= |I| * P(log|dom|): generous fixed P(x) = 64 x^4
            "b_size_poly": self.size
            <= max(1, self.cardinality) * 64 * (log_dom ** 4),
            # (c) ||dom|| <= |dom| * P(log|dom|)
            "c_dom_size_poly": self.dom_size
            <= self.dom_cardinality * 64 * (log_dom ** 4),
        }


def lemma41_witness(inst: Instance, i: int, k: int,
                    max_bits: int = DEFAULT_MAX_BITS) -> Lemma41Witness:
    """Compute the four measures of Lemma 4.1 for one instance.

    Feasible only when ``|dom(i,k,atom(I))|`` fits in ``max_bits`` bits;
    raises :class:`DomainTooLarge` otherwise.
    """
    stats = instance_stats(inst)
    n = stats.n_atoms
    dom_card = dom_ik_cardinality(i, k, n, max_bits)
    dom_size = sum(
        domain_encoding_size(t, n) for t in all_ik_types(i, k)
    )
    return Lemma41Witness(
        cardinality=stats.cardinality,
        size=stats.size,
        dom_cardinality=dom_card,
        dom_size=dom_size,
    )
