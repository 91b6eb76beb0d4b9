"""Filters, characters, and the weighted-chain transform.

A *filter* in a semilattice is a nonempty subset that is closed under the
product and upward closed in the induced order.  In the finite case every
filter is the up-set of its least element (the product of all its members),
so there are exactly ``n`` of them; with the zero map, their indicators are
the characters of ``l1(S)`` (Hewitt and Zuckerman, 1956): the rows of the
table ``S._mult_rows``, proved multiplicative once per semilattice, from which
:func:`enumerate_filters`, :func:`filter_generated` and :func:`characters`
read.  :func:`brute_force_filters` re-derives the list definition-first over
all subsets with :func:`is_filter` (the test-bench's independent cross-check).

:func:`gelfand_nmin` implements the summing transform on a weighted finite
chain: ``a -> f`` with ``f_j = sum_{m >= j} a_m``, with the target norm
``sum_j |f_j - f_{j+1}| omega(j)`` (reading ``f_{M+1} = 0``).  With this
index convention the transform is an isometry on point masses and the norm
identity holds with equality for every input (the defining differences
telescope back to the coefficients); the convention is fixed here once and
used consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .defects import AlgebraMap, scalar_map
from .errors import ClassificationFailure, StructureMismatch
from .semilattice import Semilattice, _elements
from .weights import WeightedSemilattice

__all__ = [
    "Filter",
    "is_filter",
    "filter_generated",
    "enumerate_filters",
    "brute_force_filters",
    "characters",
    "filter_indicator",
    "zero_map",
    "GelfandReport",
    "gelfand_nmin",
]


@dataclass(frozen=True)
class Filter:
    """A filter together with its principal (least) element."""

    members: frozenset[int]
    principal: int


def is_filter(S: Semilattice, E) -> bool:
    """Literal check of the three defining clauses: nonempty, closed under
    the product, and upward closed in the induced order."""
    members = _elements(S, E)
    if not members:
        return False
    table = S.table
    leq = S.leq
    for e in members:
        for f in members:
            if int(table[e, f]) not in members:
                return False
    for y in members:
        for x in range(S.n):
            if leq[y, x] and x not in members:
                return False
    return True


def filter_generated(S: Semilattice, E) -> Filter:
    """Smallest filter containing ``E``: the up-set of the product of all of
    ``E``, a row of the proved table.  Raises ``ValueError`` on an empty
    generating set or an index outside ``0..n-1``."""
    members = sorted(_elements(S, E))
    if not members:
        raise ValueError("cannot generate a filter from an empty set")
    principal = reduce(lambda x, y: int(S.table[x, y]), members)
    return Filter(S.upset(principal), principal)


def enumerate_filters(S: Semilattice) -> list[Filter]:
    """All filters, ordered by principal element index.

    In a finite semilattice every filter is principal (its members' product
    is a least member, and upward closure gives the whole up-set), so rows
    ``1..n`` of the proved table are a complete, duplicate-free listing.
    """
    return [_row_filter(S, k) for k in range(1, S.n + 1)]


def _row_filter(S: Semilattice, k: int) -> Filter | None:
    """Row ``k`` of the proved table as a filter: ``None`` for the zero row 0."""
    return None if k == 0 else Filter(S.upset(k - 1), k - 1)


def brute_force_filters(S: Semilattice) -> list[frozenset[int]]:
    """Definition-first enumeration over all ``2^n`` subsets (cross-check)."""
    if S.n > 16:
        raise ValueError("brute-force filter scan supports n <= 16")
    found = []
    for mask in range(1, 1 << S.n):
        subset = frozenset(i for i in range(S.n) if (mask >> i) & 1)
        if is_filter(S, subset):
            found.append(subset)
    return found


def filter_indicator(S: Semilattice, filt: Filter | None) -> AlgebraMap:
    """The 0/1 scalar map of a filter (or the zero map for ``None``)."""
    members = filt.members if filt is not None else ()
    return scalar_map([1 if e in members else 0 for e in range(S.n)])


def zero_map(S: Semilattice) -> AlgebraMap:
    return filter_indicator(S, None)


def characters(S: Semilattice) -> list[AlgebraMap]:
    """All nonzero multiplicative scalar maps: the filter indicators, in
    :func:`enumerate_filters` order.  Row ``m + 1`` of the proved table is the
    up-set of m, the filter with principal m."""
    return [scalar_map(row) for row in S._mult_rows[1:].astype(int).tolist()]


@dataclass(frozen=True)
class GelfandReport:
    """Summing transform of a coefficient sequence on a weighted chain."""

    transform: tuple
    source_norm: float
    target_norm: float


def _is_nmin_table(S: Semilattice) -> bool:
    idx = np.arange(S.n)
    return bool(np.array_equal(S.table, np.minimum(idx[:, None], idx[None, :])))


def gelfand_nmin(WS: WeightedSemilattice, a) -> GelfandReport:
    """Transform ``f_j = sum_{m >= j} a_m`` on a weighted min-chain.

    Certifies the norm identity ``sum_j |f_j - f_{j+1}| omega(j) ==
    sum_j |a_j| omega(j)`` (with ``f`` padded by a trailing zero): the
    left side telescopes to the right one, so equality holds for every
    input and in particular for nonnegative ones.
    """
    if not _is_nmin_table(WS.S):
        raise StructureMismatch("gelfand_nmin requires a min-chain Cayley table")
    coeffs = [complex(x) for x in a]
    if len(coeffs) != WS.n:
        raise ValueError(f"expected {WS.n} coefficients, got {len(coeffs)}")
    m = WS.n
    transform = []
    running = 0j
    for j in range(m - 1, -1, -1):
        running += coeffs[j]
        transform.append(running)
    transform.reverse()
    w = WS.omega_float
    source = float(sum(abs(coeffs[j]) * w[j] for j in range(m)))
    padded = transform + [0j]
    target = float(sum(abs(padded[j] - padded[j + 1]) * w[j] for j in range(m)))
    if target > source * (1.0 + 1e-12) + 1e-15:
        raise ClassificationFailure(
            f"transform norm {target!r} exceeded the coefficient norm {source!r}"
        )
    if all(z.imag == 0.0 and z.real >= 0.0 for z in coeffs):
        if abs(target - source) > 1e-12 * (1.0 + source):
            raise ClassificationFailure(
                "norm identity failed for a nonnegative coefficient sequence"
            )
    return GelfandReport(tuple(transform), source, target)
