"""Domains of complex object types.

Implements ``dom(T, D)`` — the set of objects of type ``T`` over a finite
set ``D`` of atomic constants — together with

* exact (big-integer) cardinality arithmetic ``|dom(T, D)|``,
* lazy and materialised enumeration of ``dom(T, D)``,
* the union domain ``dom(i, k, D)`` over all ``<i,k>``-types, and
* the hyperexponential bound ``hyper(i, k)(n)`` from Section 2.

Domain cardinalities explode hyperexponentially; every function that
could materialise or compute an astronomically large object takes an
explicit cap and raises :class:`DomainTooLarge` instead of hanging.

Following the paper (proof of Proposition 2.1) we use the normal form in
which tuple constructors are never nested directly inside tuple
constructors — there is always a set constructor between two nested
tuples.  ``all_ik_types`` enumerates exactly the normalised
``<i,k>``-types, which makes ``dom(i, k, D)`` a finite (typed, disjoint)
union.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from ..obs import get_tracer
from ..obs.metrics import value_node_count
from .types import AtomType, SetType, TupleType, Type
from .values import Atom, CSet, CTuple, Value

#: Default guard: refuse to compute exact integers with more than this
#: many bits (the value still fits comfortably in memory; the guard exists
#: to keep *towers* of exponentials from being attempted).
DEFAULT_MAX_BITS = 1_000_000

#: Default guard for materialised enumeration.
DEFAULT_MAX_ENUMERATION = 1_000_000


class DomainTooLarge(Exception):
    """Raised when a domain is too large for the requested operation."""


def hyper(i: int, k: int, n: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """The hyperexponential function ``hyper(i, k)(n)`` of Section 2.

    ``hyper(0, k)(n) = n**k`` and
    ``hyper(i, k)(n) = 2**(k * hyper(i-1, k)(n))`` — a tower of ``i``
    exponentials.  It bounds ``|dom(T, D)|`` for every ``<i,k>``-type T
    with ``|D| = n``.

    Raises :class:`DomainTooLarge` if the result would exceed ``max_bits``
    bits.
    """
    if i < 0 or k < 0 or n < 0:
        raise ValueError("hyper arguments must be non-negative")
    value = n**k
    for _ in range(i):
        exponent = k * value
        if exponent > max_bits:
            # Avoid str()-ing an astronomically large exponent.
            raise DomainTooLarge(
                f"hyper({i},{k})({n}) needs an exponent of about "
                f"2**{exponent.bit_length() - 1} bits (> {max_bits})"
            )
        value = 2**exponent
    return value


def hyper_log2(i: int, k: int, n: int) -> float:
    """``log2(hyper(i, k)(n))`` computed without building the tower.

    Exact for ``i <= 1``; for larger ``i`` the tower itself is the
    exponent, so the *value* is returned as ``k * hyper(i-1, k)(n)`` when
    that fits, else :class:`DomainTooLarge` is raised.
    """
    import math

    if i == 0:
        return k * math.log2(n) if n > 0 else float("-inf")
    return float(k * hyper(i - 1, k, n))


def domain_cardinality(typ: Type, n: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Exact ``|dom(typ, D)|`` for ``|D| = n`` as a Python big integer.

    * ``|dom(U)| = n``
    * ``|dom({T})| = 2**|dom(T)|``
    * ``|dom([T1..Tm])| = prod |dom(Tj)|``

    Raises :class:`DomainTooLarge` when a power-set exponent exceeds
    ``max_bits``.
    """
    if isinstance(typ, AtomType):
        return n
    if isinstance(typ, SetType):
        inner = domain_cardinality(typ.element, n, max_bits)
        if inner > max_bits:
            raise DomainTooLarge(
                f"|dom({typ!r})| = 2**{inner} exceeds {max_bits} bits"
            )
        return 2**inner
    if isinstance(typ, TupleType):
        result = 1
        for comp in typ.components:
            result *= domain_cardinality(comp, n, max_bits)
            if result.bit_length() > max_bits:
                raise DomainTooLarge(f"|dom({typ!r})| exceeds {max_bits} bits")
        return result
    raise TypeError(f"unknown type {typ!r}")


def enumerate_domain(
    typ: Type,
    atoms: Sequence[Atom],
    max_size: int | None = DEFAULT_MAX_ENUMERATION,
) -> Iterator[Value]:
    """Lazily enumerate ``dom(typ, D)`` for ``D = atoms``.

    The enumeration order is deterministic given the order of ``atoms``
    (but it is *not* the paper's induced order ``<_T``; see
    :func:`repro.objects.ordering.ordered_domain` for that).

    If ``max_size`` is not None, :class:`DomainTooLarge` is raised up
    front when ``|dom(typ, D)| > max_size``.
    """
    atoms = list(atoms)
    if max_size is not None:
        cardinality = domain_cardinality(typ, len(atoms))
        if cardinality > max_size:
            raise DomainTooLarge(
                f"|dom({typ!r}, D)| = {cardinality} > cap {max_size}"
            )
    yield from _enumerate(typ, atoms)


def _enumerate(typ: Type, atoms: list[Atom]) -> Iterator[Value]:
    if isinstance(typ, AtomType):
        yield from atoms
        return
    if isinstance(typ, SetType):
        inner = list(_enumerate(typ.element, atoms))
        for size in range(len(inner) + 1):
            for combo in itertools.combinations(inner, size):
                yield CSet(combo)
        return
    if isinstance(typ, TupleType):
        component_domains = [list(_enumerate(c, atoms)) for c in typ.components]
        for combo in itertools.product(*component_domains):
            yield CTuple(combo)
        return
    raise TypeError(f"unknown type {typ!r}")


def materialize_domain(
    typ: Type,
    atoms: Sequence[Atom],
    max_size: int | None = DEFAULT_MAX_ENUMERATION,
) -> list[Value]:
    """Materialise ``dom(typ, D)`` as a list (guarded by ``max_size``).

    This is the chokepoint every domain materialisation funnels through,
    so space accounting lives here: the active tracer receives the value
    count, the deep node count (every atom/tuple/set node of every
    materialised object), and a histogram observation of the domain
    cardinality — the quantity ``hyper(i, k)`` bounds.
    """
    values = list(enumerate_domain(typ, atoms, max_size))
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("space.domain_values", len(values))
        tracer.count(
            "space.domain_nodes",
            sum(value_node_count(value) for value in values),
        )
        tracer.observe("space.domain_cardinality", len(values))
    return values


@lru_cache(maxsize=256)
def all_ik_types(i: int, k: int) -> tuple[Type, ...]:
    """All normalised ``<i,k>``-types, as a deterministic tuple.

    Normal form: tuple components are either ``U`` or set types (no tuple
    directly inside a tuple), matching the assumption in the proof of
    Proposition 2.1.  For fixed ``i`` and ``k`` the collection is finite.

    The count grows extremely fast with ``i`` and ``k``; callers should
    keep ``i <= 2`` and ``k <= 3`` (the tests document the exact counts).
    """
    if i < 0 or k < 0:
        raise ValueError("i and k must be non-negative")

    def build(h: int) -> list[Type]:
        """All normalised types of set height <= h (width bounded by k)."""
        result: list[Type] = [AtomType()]
        set_types: list[Type] = []
        if h >= 1:
            # Set types {T} where T is normalised of height <= h-1.
            set_types = [SetType(t) for t in build(h - 1)]
            result.extend(set_types)
        if k >= 2:
            # Tuple types of width 2..k; components are U or the set types
            # above (no tuple directly inside a tuple).
            comps: list[Type] = [AtomType()] + set_types
            for width in range(2, k + 1):
                for combo in itertools.product(comps, repeat=width):
                    result.append(TupleType(combo))
        return result

    return tuple(t for t in build(i) if t.is_ik_type(i, k))


def dom_ik_cardinality(i: int, k: int, n: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """``|dom(i, k, D)|`` for ``|D| = n``.

    Computed as the sum of ``|dom(T, D)|`` over all normalised
    ``<i,k>``-types T (the typed disjoint-union convention).  This is
    polynomially equivalent to ``hyper(i, k)(n)``, which is all the
    density/sparsity definitions require.
    """
    total = 0
    for typ in all_ik_types(i, k):
        total += domain_cardinality(typ, n, max_bits)
    return total
