"""Submultiplicative weights on semilattices.

A weight assigns a strictly positive real ``omega(x)`` to every element with
``omega(x*y) <= omega(x) * omega(y)``.  On a semilattice this forces
``omega >= 1`` everywhere (take ``x = y``).  Weights may be floats or exact
``fractions.Fraction`` values; the exact form is what the counterexample
certificates use.

Provided here:

* validation (:func:`check_submultiplicative`, :class:`WeightedSemilattice`),
  in numpy row blocks: exact weights compare as integers over their common
  denominator (:func:`_over_common_denominator`), others as float64,
* the building-block weight ``C^gamma`` on a free semilattice and its
  orthogonal-sum extension used by the non-AMNM counterexample families,
* the flighty constant: the maximum weight reachable by products of
  elements whose weight lies below a threshold,
* a repaired random weight generator for the test bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonPositiveWeight, NotSubmultiplicative, StructureMismatch
from .mat2 import _as_complex
from .semilattice import FreeSemilattice, Semilattice, generated

__all__ = [
    "WeightedSemilattice",
    "check_submultiplicative",
    "weighted",
    "unit_weight",
    "building_block_weight",
    "counterexample_weight",
    "sublevel_set",
    "flighty_constant",
    "FlightyReport",
    "flighty_report",
    "random_submultiplicative_weight",
]


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _over_common_denominator(values) -> tuple[np.ndarray, int]:
    """Exact rationals as read-only integers ``N = L * values`` over their least
    common denominator ``L``: ``int64`` when ``2 max|N|**2 + L max|N| < 2**63``
    proves that no ``N_a N_b + N_c N_d - L N_e`` overflows, else Python ints."""
    L = math.lcm(*{x.denominator for x in values})
    N = [x.numerator * (L // x.denominator) for x in values]
    big = max(map(abs, N))
    N = np.array(N, dtype=np.int64 if 2 * big * big + L * big < 2**63 else object)
    N.setflags(write=False)
    return N, L


_BLOCK_CELLS = 1 << 14  # pairs per row block of the vectorised pair scans


def check_submultiplicative(S: Semilattice, omega: Sequence) -> tuple[int, int] | None:
    """Validate positivity and return the first pair with
    ``omega(x*y) > omega(x)*omega(y)``, or None if the weight is valid.

    Comparisons are exact (no tolerance): ``W(x*y) L > W(x) W(y)`` on the integers
    ``W = L omega``, or on float64 if any weight is a float (an exact weight below 1
    that rounds to 1.0 or 0.0 then fails at ``(x, x)``).  Raises :class:`NonPositiveWeight`
    if some value is not a strictly positive real number (an infinite weight compares as
    a float here; :class:`WeightedSemilattice` refuses it).
    """
    if len(omega) != S.n:
        raise ValueError(f"weight has {len(omega)} entries for a {S.n}-element semilattice")
    for i, w in enumerate(omega):
        if isinstance(w, bool) or not isinstance(w, (int, float, Fraction)):
            raise NonPositiveWeight(f"omega[{i}] = {w!r} is not a real number", i)
        if not w > 0:
            raise NonPositiveWeight(f"omega[{i}] = {w!r} is not strictly positive", i)
    low = min(omega, default=1)
    low = float(low) if isinstance(low, float) else low  # a numpy float64 square warns on overflow
    if max(omega, default=1) <= low * low:
        return None  # then omega(x*y) <= max <= min**2 <= omega(x) * omega(y)
    exact = all(map(_is_exact, omega))
    W, L = _over_common_denominator(omega) if exact else (np.array(omega, dtype=float), 1)
    # with omega >= 1 a comparable pair passes, as x*y = x gives omega(x) <=
    # omega(x) omega(y): where the products are Python ints, only the incomparable
    # pairs are compared (in int64 or float64 the full block costs less than picking)
    sparse = low >= 1 and W.dtype == object
    step = max(1, _BLOCK_CELLS // S.n)
    index = np.arange(S.n)
    with np.errstate(over="ignore"):  # an overflowing float product is inf, as in Python
        for i0 in range(0, S.n, step):
            T = S.table[i0 : i0 + step]
            if sparse:
                bad = np.zeros(T.shape, bool)
                I, J = np.nonzero((T != index[i0 : i0 + step, None]) & (T != index))
                bad[I, J] = W[T[I, J]] * L > W[i0 + I] * W[J]
            else:
                bad = W[T] * L > W[i0 : i0 + step, None] * W
            if bad.any():
                i, j = divmod(int(np.argmax(bad)), S.n)
                return (i0 + i, j)
    return next((i, i) for i, w in enumerate(omega) if w < 1) if low < 1 else None


@dataclass(frozen=True, eq=False)
class WeightedSemilattice:
    """A semilattice together with a validated submultiplicative weight."""

    S: Semilattice
    omega: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(self.omega))
        if math.inf in self.omega:
            i = self.omega.index(math.inf)
            raise NonPositiveWeight(f"omega[{i}] = inf is not finite", i)
        witness = check_submultiplicative(self.S, self.omega)
        if witness is not None:
            i, j = witness
            raise NotSubmultiplicative(
                f"omega[{int(self.S.table[i, j])}] > omega[{i}] * omega[{j}]", (i, j)
            )

    @property
    def n(self) -> int:
        return self.S.n

    @cached_property
    def omega_float(self) -> np.ndarray:
        arr = np.array([_as_complex(w).real for w in self.omega])  # inf past the float range
        arr.setflags(write=False)
        return arr

    @cached_property
    def _float_pairs(self) -> tuple:
        """The float defect's largest weight, products ``w_e w_f`` and pairs below the diagonal."""
        w = self.omega_float
        with np.errstate(over="ignore"):
            return w.max(), w[:, None] * w, np.tri(self.n, k=-1, dtype=bool)

    @cached_property
    def _omega_frexp(self) -> tuple | None:
        """The weights' mantissas and powers of two, as ``np.frexp``, each read off the exact
        weight where it is past the float range; None when no weight is (one frexp serves)."""
        mant, e = np.frexp(self.omega_float)
        for i in (past := np.flatnonzero(np.isinf(mant))):
            x = Fraction(self.omega[i])
            k = x.numerator.bit_length() - x.denominator.bit_length()
            mant[i], j = math.frexp(x / 2**k)
            e[i] = k + j
        return (mant, e) if past.size else None

    @cached_property
    def is_exact(self) -> bool:
        return all(_is_exact(w) for w in self.omega)

    @cached_property
    def _omega_integers(self) -> tuple[tuple, int]:
        """``(W, K)`` with ``omega(e) = W_e / K``: an exact weight's integers, as a
        tuple of ints, over their common denominator; made once per weight."""
        W, K = _over_common_denominator(self.omega)
        return tuple(W.tolist()), K


def weighted(S: Semilattice, omega: Sequence) -> WeightedSemilattice:
    """Validate and attach a weight to a semilattice."""
    return WeightedSemilattice(S, tuple(omega))


def unit_weight(S: Semilattice) -> WeightedSemilattice:
    """The constant weight 1 (exact)."""
    return WeightedSemilattice(S, (1,) * S.n)


def _building_block(C, gamma, zeros) -> tuple:
    """``C**gamma(e)`` at each element ``e``, but ``C`` at each element of ``zeros``."""
    if not C >= 1:
        raise ValueError(f"building-block base must satisfy C >= 1, got {C!r}")
    base = Fraction(C) if _is_exact(C) else float(C)
    return tuple(base if e in zeros else base ** int(g) for e, g in enumerate(gamma))


def building_block_weight(F: FreeSemilattice, C) -> tuple:
    """The weight ``C^gamma(e)`` for ``e`` above the zero, and ``C`` at the zero.

    ``C >= 1`` is required.  When ``C`` is an int or Fraction the returned
    values are exact Fractions.
    """
    return _building_block(C, F.gamma, {F.zero})


def _recover_blocks(T: Semilattice) -> tuple[int, list[list[int]]]:
    """Find the absorbing zero and the connected blocks of an orthogonal sum:
    the components of the graph linking two elements whose product is not
    the zero, each labelled by its least element."""
    zeros = np.flatnonzero((T.table == np.arange(T.n)[:, None]).all(axis=1))
    if len(zeros) != 1:
        raise StructureMismatch(f"expected a unique absorbing zero element, found {len(zeros)}")
    zero = int(zeros[0])
    linked = np.triu(T.table != zero, 1)  # read above the diagonal, as on a commutative table
    linked |= linked.T
    linked[zero, :] = linked[:, zero] = False
    label = np.arange(T.n)
    while True:  # each element takes the least label among its neighbours
        new = np.minimum(label, np.where(linked, label, T.n).min(axis=1))
        if np.array_equal(new, label):
            break
        label = new
    roots = np.flatnonzero(label == np.arange(T.n))  # the least element of each block
    return zero, [np.flatnonzero(label == b).tolist() for b in roots if b != zero]


def _verify_free_block(T: Semilattice, block: list[int]) -> dict[int, int]:
    """Check a block is a free semilattice; return the length function on it. Once
    it is closed and has ``2**k - 1`` elements, distinct generator products exhaust it."""
    table = T.table
    if not np.isin(table[np.ix_(block, block)], block).all():
        raise StructureMismatch("block is not closed under the product")
    generators = [
        i for i in block if all(int(table[i, j]) != i for j in block if j != i)
    ]
    k = len(generators)
    if len(block) != (1 << k) - 1 or k == 0:
        raise StructureMismatch(
            f"block of size {len(block)} is not free on its {k} maximal elements"
        )
    gamma: dict[int, int] = {}
    for mask in range(1, 1 << k):
        prod = None
        for b in range(k):
            if (mask >> b) & 1:
                g = generators[b]
                prod = g if prod is None else int(table[prod, g])
        if prod in gamma:
            raise StructureMismatch("two generator subsets share a product; block not free")
        gamma[prod] = mask.bit_count()
    return gamma


def counterexample_weight(T: Semilattice, C) -> tuple:
    """Building-block weight on each block of an orthogonal sum of free blocks.

    The zero of the sum gets weight 1; each block carries ``C^gamma`` with the
    block's own zero demoted to ``C``.  The table is *verified* to have the
    orthogonal-sum-of-free-blocks shape (raises :class:`StructureMismatch`
    otherwise), so the function can be used on reconstructed inputs.
    """
    blocks = _recover_blocks(T)[1]
    gamma, zeros = [0] * T.n, set()
    for block in blocks:
        lengths = _verify_free_block(T, block)
        for e, g in lengths.items():
            gamma[e] = g
        zeros.add(max(lengths, key=lengths.get))
    return _building_block(C, gamma, zeros)


def sublevel_set(WS: WeightedSemilattice, K) -> frozenset[int]:
    """Indices with ``omega(x) <= K`` (ties included; exact comparison)."""
    return frozenset(i for i, w in enumerate(WS.omega) if w <= K)


@dataclass(frozen=True)
class FlightyReport:
    """Details behind a flighty-constant evaluation."""

    value: object
    threshold: object
    sublevel: frozenset[int]
    closure: frozenset[int]
    sublevel_empty: bool


def flighty_report(WS: WeightedSemilattice, K) -> FlightyReport:
    """Maximum weight over the subsemilattice generated by the K-sublevel set.

    An empty sublevel set yields the neutral value 1 and is flagged.
    """
    sub = sublevel_set(WS, K)
    if not sub:
        return FlightyReport(1, K, sub, frozenset(), True)
    closure = generated(WS.S, sub)
    value = max(WS.omega[i] for i in closure)
    return FlightyReport(value, K, sub, closure, False)


def flighty_constant(WS: WeightedSemilattice, K):
    """The value of :func:`flighty_report` (exact when the weight is exact)."""
    return flighty_report(WS, K).value


def random_submultiplicative_weight(
    rng: np.random.Generator, S: Semilattice
) -> WeightedSemilattice:
    """Random float weight >= 1, repaired to submultiplicativity.

    Starts from log-uniform values in ``[1, e**2.5]`` and repeatedly caps
    ``omega(x*y)`` by ``omega(x)*omega(y)`` until a fixpoint; the result
    stays >= 1 because the caps are products of values >= 1.
    """
    n = S.n
    vals = [float(v) for v in np.exp(rng.uniform(0.0, 2.5, n))]
    table = S.table
    for _ in range(5 * n + 10):
        changed = False
        for i in range(n):
            for j in range(n):
                p = int(table[i, j])
                cap = vals[i] * vals[j]
                if vals[p] > cap:
                    vals[p] = cap
                    changed = True
        if not changed:
            break
    return WeightedSemilattice(S, tuple(vals))
