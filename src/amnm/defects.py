"""Multiplicativity defects and weighted sup-distances for semilattice maps.

An :class:`AlgebraMap` assigns every semilattice element a value in one of
three codomains: scalars, the two-dimensional algebra ``T2`` (product
``(a,b)(c,d) = (ac, ad+bc)``, norm ``|a|+|b|``), or 2x2 complex matrices.
The weighted multiplicativity defect of a map ``theta`` is

    max over pairs (e, f) of ||theta(e) theta(f) - theta(ef)|| / (omega(e) omega(f)),

and the weighted sup-distance between maps is
``max_e ||theta(e) - phi(e)|| / omega(e)``.

Two evaluation paths exist and agree: a vectorized float path, and an exact
path used when the map and weight are rational-valued (real), which tracks
maxima through exact squared ratios so that defects of the certified
counterexample families are reported as exact rationals whenever the square
root is rational, and as an exact rational square otherwise (``_root``).
This module is the only one that decides between the two (``_can_run_exact``):
the oracle's exhaustive scan costs all its candidate values in one call of
``_element_ratios``, the distance report's kernel, and callers read the path
off a report's ``defect_sq`` or ``value_sq``.  Before either path, ``defect``
recognises a character of ``l1(S)`` (:func:`_is_character`) and reads its
exact 0 off the semilattice's proved character table instead of scanning.

The float path reads every codomain through :meth:`AlgebraMap.as_m2`, as the
exact filter below does: scalars embed diagonally and T2 values as
``[[a, b], [0, a]]``, so one ``(n, 2, 2)`` stack and one norm function
(``_norms``, also the filter's: :func:`mat2._complex_norm` on arrays) serve all
three; past ``2**250`` the products are formed on values scaled by powers of
two.  The exact scans use the same embedding on integers, ``N = L theta`` over
the common denominator ``L`` of the entries, and build a ``Fraction`` only for
a ratio.  Each integer form is made once, a map's on its embedding and a
weight's ``omega = W / K`` on the weight; ``_integers`` combines several maps'
over the lcm of their ``L``.

For matrix codomains the scan covers all ordered pairs — matrix values need
not commute, and there are natural maps whose defect is attained at (e, f)
but not (f, e).  For scalar and T2 codomains the defect function is symmetric
and the scan covers unordered pairs; witnesses are lexicographically first.

The exact defect is filtered (Shewchuk 1997; Bronnimann, Burnikel and Pion
1998).  In row blocks of about ``_BLOCK_CELLS`` pairs, each pair's difference
``P = N_e N_f - L N_ef = L**2 (theta(e) theta(f) - theta(ef))`` is formed on
the integers, in ``int64`` when ``2 max|N|**2 + L max|N| < 2**63`` proves that
nothing overflows, else on Python ints; pairs whose terms are all zero are
skipped and exact zeros dropped.  With ``omega = W / K``, a pair's ratio is ``||P|| / (W_e
W_f)`` times ``K**2 / L**2``, a factor common to all pairs, so a float pass
encloses ``||P|| / (w_e w_f)`` in ``[lo, hi]``, for ``w`` the correctly rounded
``W`` over the power of two that brings it below ``2**500`` (a subnormal ``w``
counts as 0).  Only pairs whose ``hi`` reaches the largest ``lo`` so far are
evaluated exactly, in the full scan's order and with its strict ``>``; every
pair at the maximum is among them, so the value and the first witness are the
full scan's.  As ``P`` is exact and nonzero, the float ratio carries
relative roundings alone (the entries, squares, sum, root, weights, their
product and the quotient: about ``12u``, ``u = 2**-53``) against the width
``2**-40``: nothing cancels, the quotient is at least ``2**-1000``, and a finite
one has ``w_e w_f >= 2**-1024``, which keeps even a subnormal product within
``2**-51``.  The operator norm's closed form cancels badly, so it is enclosed by
``[hs/sqrt(2), hs]``.  A pair whose quotient is infinite, or in a block where an
entry of ``P`` does not fit a float, gets ``[0, inf]`` and survives.
A survivor whose operator norm is irrational raises only when its HS norm,
which bounds the operator norm, exceeds the maximum of the rational ones; an
irrational square never ties that rational maximum, so the value and the
first witness stay the full scan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ClassificationFailure, ParseError
from .mat2 import (
    _DIRECT_MIN,
    M2_ID,
    M2_ZERO,
    Mat2,
    T2Element,
    _hs_from_gram,
    _op_from_gram,
    _rescaled,
    _rounded,
    hs_norm_sq,
)
from .semilattice import Semilattice
from .weights import _BLOCK_CELLS, WeightedSemilattice, _is_exact, _over_common_denominator

__all__ = [
    "AlgebraMap",
    "scalar_map",
    "t2_map",
    "m2_map",
    "DefectReport",
    "defect",
    "weighted_sup_distance",
    "DistanceReport",
    "weighted_sup_distance_report",
    "round_to_binary",
    "map_to_json",
    "map_from_json",
    "default_norm",
]

_CODOMAINS = ("scalar", "t2", "m2")
_DEFAULT_NORMS = {"scalar": "abs", "t2": "t2", "m2": "hs"}
_ALLOWED_NORMS = {"scalar": ("abs",), "t2": ("t2",), "m2": ("hs", "op")}


@dataclass(frozen=True, eq=False)
class AlgebraMap:
    """A function from semilattice element indices into a target algebra.

    ``values[i]`` is a number (codomain "scalar"), a :class:`T2Element`
    ("t2") or a :class:`Mat2` ("m2").  Entries may be exact rationals, in
    which case defect and distance computations are certified exactly.
    """

    codomain: str
    values: tuple

    def __post_init__(self):
        if self.codomain not in _CODOMAINS:
            raise ValueError(f"unknown codomain {self.codomain!r}")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def is_exact(self) -> bool:
        # exactness is a property of the entry's type: test one entry per type
        flat = self.values if self.codomain == "scalar" else tuple(chain.from_iterable(self.values))
        return all(map(_is_exact, dict(zip(map(type, flat), flat)).values()))

    def as_m2(self) -> "AlgebraMap":
        """Embed into 2x2 matrices (scalars diagonally, T2 upper-triangularly): a
        matrix map is its own embedding, and another map makes its embedding once."""
        return self if self.codomain == "m2" else self._embedding

    @cached_property
    def _embedding(self) -> "AlgebraMap":
        # never read on a matrix map: caching self in self would make a cycle
        if self.codomain == "scalar":
            vals = tuple(Mat2(v, v * 0, v * 0, v) for v in self.values)
        else:
            vals = tuple(x.as_mat2() for x in self.values)
        return AlgebraMap("m2", vals)

    @cached_property
    def _integer_stack(self) -> tuple[np.ndarray, int]:
        """An exact matrix map's values as a read-only ``(n, 2, 2)`` stack of
        integers ``N = L theta`` and their common denominator ``L``."""
        N, L = _over_common_denominator(list(chain.from_iterable(self.values)))
        return N.reshape(-1, 2, 2), L


def scalar_map(values) -> AlgebraMap:
    return AlgebraMap("scalar", tuple(values))


def t2_map(values) -> AlgebraMap:
    return AlgebraMap("t2", tuple(T2Element(*v) for v in values))


def m2_map(values) -> AlgebraMap:
    vals = []
    for v in values:
        if isinstance(v, Mat2):
            vals.append(v)
        else:
            rows = list(v)
            vals.append(Mat2(rows[0][0], rows[0][1], rows[1][0], rows[1][1]))
    return AlgebraMap("m2", tuple(vals))


def default_norm(codomain: str) -> str:
    return _DEFAULT_NORMS[codomain]


def _resolve(ws_or_s) -> WeightedSemilattice:
    if isinstance(ws_or_s, WeightedSemilattice):
        return ws_or_s
    if isinstance(ws_or_s, Semilattice):
        return ws_or_s._unit_weight
    raise TypeError(f"expected Semilattice or WeightedSemilattice, got {type(ws_or_s)!r}")


def _carrier(ws_or_s, codomain: str | None, *maps: AlgebraMap) -> WeightedSemilattice:
    """The weighted semilattice of ``ws_or_s``, once every map of ``maps`` fits
    it: ``ValueError`` unless all take values in ``codomain`` (the first
    map's when None), then ``ParseError`` unless each has one value per element."""
    WS = _resolve(ws_or_s)
    codomain = codomain or maps[0].codomain
    for m in maps:
        if m.codomain != codomain:
            raise ValueError(f"expected a map into {codomain!r}, got one into {m.codomain!r}")
    for m in maps:
        if m.n != WS.n:
            raise ParseError(f"map has {m.n} values for a {WS.n}-element semilattice")
    return WS


def _check_norm(codomain: str, norm: str | None) -> str:
    if norm is None:
        return _DEFAULT_NORMS[codomain]
    if norm not in _ALLOWED_NORMS[codomain]:
        raise ValueError(f"norm {norm!r} is not valid for codomain {codomain!r}")
    return norm


@dataclass(frozen=True)
class DefectReport:
    """Maximum weighted multiplicativity failure, with its witnessing pair.

    ``defect_sq`` is the exact squared value when the exact path ran (the
    defect itself is then exact iff its square has a rational square root,
    which is flagged by ``exact_value``).
    """

    defect: object
    witness: tuple[int, int]
    norm: str
    defect_sq: Fraction | None = None
    exact_value: bool = False

    @property
    def defect_float(self) -> float:
        return _float(self.defect)


# ---------------------------------------------------------------------------
# Exact helpers.
# ---------------------------------------------------------------------------


def _float(x) -> float:
    try:  # float(x) for a value x >= 0, and inf past the float range
        return float(x)
    except OverflowError:
        return math.inf


def _root(q: Fraction) -> tuple:
    """``(sqrt(q), True)`` when ``q >= 0`` has a rational root, else the float
    root, :func:`mat2._rescaled`'s view (0.0 or inf only where the root itself
    is out of the float range), and ``False``."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd), True
    return _rescaled(_hs_from_gram, q), False


def _norm_sq_exact(diff: Mat2, norm: str):
    """Exact squared norm of an embedded difference with integer entries."""
    if norm == "abs":
        return diff.a**2
    if norm == "t2":
        return (abs(diff.a) + abs(diff.b)) ** 2
    hs_sq = hs_norm_sq(diff)
    if norm == "hs":
        return hs_sq
    det = diff.det
    if det == 0:
        return hs_sq  # rank <= 1: operator and HS norms coincide
    # General case: op^2 = (T + sqrt(T^2 - 4 |det|^2))/2, exact only when the
    # discriminant is a perfect square.
    disc = hs_sq * hs_sq - 4 * det * det
    root = math.isqrt(disc)
    if root * root != disc:
        raise ValueError("exact operator norm needs rank <= 1 or a perfect-square discriminant")
    return Fraction(hs_sq + root, 2)


def _can_run_exact(WS: WeightedSemilattice, *maps: AlgebraMap) -> bool:
    # the one place that decides between the exact and the float path
    return WS.is_exact and all(m.is_exact for m in maps)


# Filter constants; the module docstring derives the bound they implement.
_FILTER_REL = 2.0**-40  # the enclosure's relative width
_INV_SQRT2_DOWN = 0.7071067811865  # below 1/sqrt(2), even after rounding a product
_UNSCALED_RANGE = 2.0**250  # the float defect scales values and weights past this


def _stack(theta: AlgebraMap, *more: AlgebraMap) -> np.ndarray:
    """The :meth:`AlgebraMap.as_m2` values, of ``theta`` and then of each map
    in ``more``, as an ``(n, 2, 2)`` complex array."""
    values = theta.as_m2().values
    for m in more:
        values += m.as_m2().values
    return np.fromiter(chain.from_iterable(values), complex, 4 * len(values)).reshape(-1, 2, 2)


def _refuse_non_finite(V: np.ndarray, *maps: AlgebraMap) -> None:
    """Raise ``ValueError`` naming the first value of ``theta`` (then of each
    ``phi``) with an inf or NaN entry in ``V``, the :func:`_stack` of the maps."""
    if not np.isfinite(V).all():
        m, e = divmod(int(np.argmin(np.isfinite(V).all(axis=(1, 2)))), maps[0].n)
        name = "phi" if m else "theta"
        raise ValueError(f"{name}({e}) has a non-finite entry: {maps[m].values[e]!r}")


def _scaled(D: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``2**k D`` per matrix of a complex ``(..., 2, 2)`` stack, on the float
    parts: a complex product would turn inf into nan."""
    return np.ldexp(D.view(float), k[..., None, None]).view(D.dtype)


def _largest_parts(D: np.ndarray) -> np.ndarray:
    """The largest ``|real|`` or ``|imag|`` per matrix: a modulus overflows near 1.8e308."""
    return np.abs(D.view(float)).max(axis=(-2, -1))


# Products of parts (a.re, a.im, ..., d.im) to sum in twos: squares, a*d, b*c (re*re + -im*im)
_LEFT, _RIGHT = np.array([[*range(8), 0, 1, 0, 1, 2, 3, 2, 3], [*range(8), 6, 7, 7, 6, 4, 5, 5, 4]])
_SIGN = np.array([1.0] * 9 + [-1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])


def _formula(X: np.ndarray, op: bool) -> np.ndarray:
    """:func:`mat2._complex_norm`'s direct formula on rows of parts, two per entry."""
    p = X.take(_LEFT, axis=1) * X.take(_RIGHT, axis=1) * _SIGN if op else X * X
    u = p[:, 0::2] + p[:, 1::2]  # then t in _complex_hs_sq's order
    t = u[:, 0] + u[:, 1] + u[:, 2] + u[:, 3] if X.shape[1] > 2 else u[:, 0]
    if not op:
        return np.sqrt(t)
    det = np.square(u[:, 4:6] - u[:, 6:8])
    return _op_from_gram(t, det[:, 0] + det[:, 1], np.sqrt, np.maximum)


def _norms(D: np.ndarray, norm: str) -> np.ndarray:
    """Norms of a real or complex ``(..., 2, 2)`` stack of embedded differences:
    :func:`mat2._complex_norm`'s formula and rule on the parts, one ufunc per
    IEEE operation, so bit for bit under every SIMD dispatch.  ``abs`` is
    ``|d00|`` and ``t2`` is ``|d00| + |d01|``, as :meth:`AlgebraMap.as_m2` embeds."""
    shape, parts = D.shape[:-2], 8
    if norm in ("abs", "t2"):  # each modulus is a one-entry HS norm
        D, parts = D[..., 0, : 1 if norm == "abs" else 2], 2
    X = np.ascontiguousarray(D, complex).view(float).reshape(-1, parts)
    with np.errstate(over="ignore", invalid="ignore"):  # the rule redoes what overflows
        r = _formula(X, norm == "op")
        lo, hi = np.minimum.reduce(r, None, initial=np.inf), np.maximum.reduce(r, None, initial=0.0)
        if not (_DIRECT_MIN <= lo and hi < np.inf):  # also on NaN
            redo = r < _DIRECT_MIN if hi < np.inf else ~((r >= _DIRECT_MIN) & (r < np.inf))
            if np.count_nonzero(X[redo]):  # not only exact zeros
                k = np.frexp(np.abs(X[redo]).max(axis=1))[1]  # 0 for zero, inf and NaN rows
                r[redo] = np.ldexp(_formula(np.ldexp(X[redo], -k[:, None]), norm == "op"), k)
        return (r[0::2] + r[1::2] if norm == "t2" else r).reshape(shape)


def _integers(*maps: AlgebraMap):
    """The :meth:`AlgebraMap.as_m2` values of exact maps, one after the other,
    as an ``(n, 2, 2)`` stack of integers ``N = L theta`` and their ``L``: one
    map's own read-only stack, made once, or several over the lcm of their
    ``L``, in ``int64`` only if the rescaled integers meet the bound of
    :func:`weights._over_common_denominator` themselves (``int64`` wraps)."""
    stacks = [m.as_m2()._integer_stack for m in maps]
    if len(stacks) == 1:
        return stacks[0]
    L = math.lcm(*(Li for _, Li in stacks))
    big = max(int(np.abs(N).max(initial=0)) * (L // Li) for N, Li in stacks)
    dtype = np.int64 if 2 * big * big + L * big < 2**63 else object
    return np.concatenate([N.astype(dtype) * (L // Li) for N, Li in stacks]), L


def _pair_bounds(P, ww, norm: str):
    """``(lo, hi)`` around ``||P|| / ww`` for rows ``P`` of nonzero integer
    differences over weight products ``ww``: ``(0, inf)`` where the quotient is
    infinite, and for all when an entry of ``P`` is past the float range."""
    try:
        D = P.astype(float).reshape(-1, 2, 2)
    except OverflowError:
        return np.zeros(len(P)), np.full(len(P), np.inf)
    with np.errstate(over="ignore", divide="ignore"):  # past the float range: inf
        ratio = _norms(D, "hs" if norm == "op" else norm) / ww
    lo, hi = ratio * (1.0 - _FILTER_REL), ratio * (1.0 + _FILTER_REL)
    lo[ratio == np.inf] = 0.0  # an infinite ratio bounds nothing from below
    return (lo * _INV_SQRT2_DOWN if norm == "op" else lo), hi


def _candidate_pairs(WS: WeightedSemilattice, W, N, L: int, norm: str):
    """The pairs ``(e, f)`` whose difference is nonzero and that the float filter
    keeps, in lexicographic order (ordered pairs for matrix norms), each with
    the entries of ``N_e N_f - L N_ef = L**2 (theta(e) theta(f) - theta(ef))``
    for ``N, L = _integers(theta)`` and ``W`` the weight integers as a sequence."""
    n, table = WS.n, WS.S.table
    step = max(1, _BLOCK_CELLS // n)
    # the weights over a common power of two, below 2**500 and correctly rounded;
    # a subnormal one has lost its relative accuracy and counts as 0
    shift = 1 << max(max(W).bit_length() - 500, 0)
    w = np.array([x / shift for x in W])
    w[w < 2.0**-1022] = 0.0
    nonzero = (N.reshape(n, 4) != 0).any(axis=1)
    best_lo = 0.0
    for i0 in range(0, n, step):
        rows = slice(i0, i0 + step)
        # a pair whose terms are all zero has a zero difference
        cells = (nonzero[rows, None] & nonzero[None, :]) | nonzero[table[rows]]
        I, J = np.nonzero(cells if norm in ("hs", "op") else np.triu(cells, i0))
        I += i0
        P = (N[I] @ N[J] - L * N[table[I, J]]).reshape(-1, 4)
        differs = (P != 0).any(axis=1)
        I, J, P = I[differs], J[differs], P[differs]
        lo, hi = _pair_bounds(P, w[I] * w[J], norm)
        best_lo = max(best_lo, lo.max(initial=0.0))
        keep = hi >= best_lo
        yield from zip(I[keep].tolist(), J[keep].tolist(), P[keep].tolist())


def _defect_exact(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    N, L = _integers(theta)
    W, K = WS._omega_integers  # omega(e) = W_e / K
    K4 = K**4
    best_sq = Fraction(0)
    witness = (0, 0)
    # the largest HS ratio square among pairs with an irrational operator norm
    irrational_sq, irrational = Fraction(0), None
    for i, j, d in _candidate_pairs(WS, W, N, L, norm):
        diff = Mat2(*d)  # over L**2 omega(e) omega(f) = L**2 W_e W_f / K**2
        weight_sq = (L * L * W[i] * W[j]) ** 2
        try:
            ratio_sq = Fraction(_norm_sq_exact(diff, norm) * K4, weight_sq)
        except ValueError as err:  # op <= hs: the pair matters only if hs beats best_sq
            irrational_sq = max(irrational_sq, Fraction(hs_norm_sq(diff) * K4, weight_sq))
            irrational = err
            continue
        if ratio_sq > best_sq:
            best_sq = ratio_sq
            witness = (i, j)
    if irrational_sq > best_sq:
        raise irrational
    value, exact = _root(best_sq)
    return DefectReport(value, witness, norm, best_sq, exact_value=exact)


# ---------------------------------------------------------------------------
# Float (vectorized) helpers.
# ---------------------------------------------------------------------------


def _defect_float(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    w, table = WS.omega_float, WS.S.table
    V = _stack(theta)
    if not np.abs(V.view(float)).max() <= _UNSCALED_RANGE:  # or an inf or NaN entry
        _refuse_non_finite(V, theta)
        # the products could overflow: scale each value down to its largest part,
        # each difference to its own and the weights to their mantissas, by powers of two
        k = np.maximum(np.frexp(_largest_parts(V))[1], 0)
        K = k[:, None] + k[None, :]
        U = _scaled(V, -k)
        D = np.einsum("iab,jbc->ijac", U, U) - _scaled(V[table], -K)
        j = np.frexp(_largest_parts(D))[1]
        mant, e = np.frexp(w)
        norms = _norms(_scaled(D, -j), norm) / (mant[:, None] * mant[None, :])
        with np.errstate(over="ignore"):  # a defect past the float range is inf
            ratios = np.ldexp(norms, K + j - e[:, None] - e[None, :])
    else:
        norms = _norms(np.einsum("iab,jbc->ijac", V, V) - V[table], norm)
        wide = w.max() > _UNSCALED_RANGE  # the product of two weights could overflow
        ratios = norms / w[:, None] / w[None, :] if wide else norms / (w[:, None] * w[None, :])
    if theta.codomain != "m2":
        # symmetric defect function: restrict to i <= j (keeps the same
        # maximum and the same lexicographically-first witness)
        np.putmask(ratios, np.tri(WS.n, k=-1, dtype=bool), -1.0)
    flat = int(np.argmax(ratios))
    i, j = divmod(flat, WS.n)
    return DefectReport(float(ratios[i, j]), (i, j), norm)


_EXACT_ZERO = Fraction(0)


def _is_character(S: Semilattice, theta: AlgebraMap) -> bool:
    """Whether ``theta`` is a character of ``l1(S)``, a row of the proved table
    ``S._mult_rows``: every :meth:`AlgebraMap.as_m2` value is ``I`` or ``0``
    (the test stops at the first other value), and the set of ``I``s is
    empty (row 0) or the up-set of the product ``m`` of its elements (row
    ``m + 1``).  The zero map is multiplicative on any table; reading a row
    proves the table, else :class:`ClassificationFailure`."""
    ones, m = bytearray(S.n), None  # the set's bytes, as a boolean row's, and its product
    for e, v in enumerate(theta.as_m2().values):
        if v == M2_ID:
            ones[e] = 1
            m = e if m is None else S.table.item(m, e)
        elif v != M2_ZERO:
            return False
    return m is None or S._mult_rows[m + 1].tobytes() == ones


def defect(ws_or_s, theta: AlgebraMap, norm: str | None = None) -> DefectReport:
    """Weighted multiplicativity defect, maximized over all element pairs.

    The unweighted form is obtained by passing a bare semilattice.  Runs the
    exact path automatically when both the weight and the map are
    rational-valued.  A character (:func:`_is_character`) is not scanned: its
    defect is read off the proved table as exactly 0 at ``(0, 0)``, the value
    and witness the scan would report.
    """
    WS = _carrier(ws_or_s, None, theta)
    norm = _check_norm(theta.codomain, norm)
    exact = _can_run_exact(WS, theta)
    if _is_character(WS.S, theta):
        if exact:
            return DefectReport(_EXACT_ZERO, (0, 0), norm, _EXACT_ZERO, exact_value=True)
        return DefectReport(0.0, (0, 0), norm)
    if exact:
        return _defect_exact(WS, theta, norm)
    return _defect_float(WS, theta, norm)


@dataclass(frozen=True)
class DistanceReport:
    """Weighted sup-distance between two maps, with its witnessing element."""

    value: object
    witness: int
    norm: str
    value_sq: Fraction | None = None
    exact_value: bool = False

    @property
    def value_float(self) -> float:
        return _float(self.value)


def _element_ratios(WS: WeightedSemilattice, theta: AlgebraMap, phis, norm: str):
    """``||theta(e) - phi(e)|| / omega(e)``, a row per map ``phi`` of ``phis`` and
    a column per element: lists of exact squared ratios, from the maps' and the
    weight's integer forms, when the weight and every map are exact, else a
    float array from one :func:`_norms` call on their stack of differences.
    Where a difference has a part past ``2**1021``, its modulus, ``|a| + |b|``
    or its norm could overflow: that pair is costed on its values over ``2**3``,
    exactly, and its ratio scaled back, to inf past the float range; every
    other pair keeps the direct formula's bits."""
    n = WS.n
    if _can_run_exact(WS, theta, *phis):
        N, L = _integers(theta, *phis)  # theta(e) - phi_v(e) = (N_e - N_{(v+1)n+e}) / L
        W, K = WS._omega_integers  # omega(e) = W_e / K
        K2, den, zero = K * K, [(L * w) ** 2 for w in W], Fraction(0)
        D = (N[:n] - N[n:].reshape(-1, n, 2, 2)).reshape(len(phis), n, 4).tolist()
        return [  # a zero difference, common where the maps agree, needs no norm
            [
                Fraction(_norm_sq_exact(Mat2(*d), norm) * K2, q) if any(d) else zero
                for d, q in zip(row, den)
            ]
            for row in D
        ]
    V = _stack(theta, *phis)
    T, P = V[:n], V[n:].reshape(-1, n, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # both show in the check below
        D = T - P
    k = None
    if not np.abs(D.view(float)).max(initial=0.0) <= 2.0**1021:  # or an inf or NaN entry
        _refuse_non_finite(V, theta, *phis)
        k = np.where(_largest_parts(D) > 2.0**1021, 3, 0)
        D = _scaled(T, -k) - _scaled(P, -k)
    ratios = _norms(D, norm) / WS.omega_float
    if k is None:
        return ratios
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        return np.ldexp(ratios, k)


def weighted_sup_distance_report(
    ws_or_s, theta: AlgebraMap, phi: AlgebraMap, norm: str | None = None
) -> DistanceReport:
    """``max_e ||theta(e) - phi(e)|| / omega(e)`` with witness and exactness info."""
    WS = _carrier(ws_or_s, None, theta, phi)
    norm = _check_norm(theta.codomain, norm)
    ratios = _element_ratios(WS, theta, [phi], norm)[0]
    if isinstance(ratios, np.ndarray):
        e = int(np.argmax(ratios))
        return DistanceReport(float(ratios[e]), e, norm)
    best_sq = max(ratios)
    value, exact = _root(best_sq)
    # the first maximum, as a strict > scan finds it
    return DistanceReport(value, ratios.index(best_sq), norm, best_sq, exact)


def weighted_sup_distance(ws_or_s, theta: AlgebraMap, phi: AlgebraMap, norm: str | None = None):
    """The value of :func:`weighted_sup_distance_report` (exact when possible)."""
    return weighted_sup_distance_report(ws_or_s, theta, phi, norm).value


# ---------------------------------------------------------------------------
# Binary rounding.
# ---------------------------------------------------------------------------


def round_to_binary(ws_or_s, psi: AlgebraMap) -> AlgebraMap:
    """Round a scalar map pointwise to the nearer of {0, 1} by
    :func:`mat2._rounded` (ties to 0, exact at any magnitude).

    Valid for any defect delta; certifies the two standard consequences:
    the weighted sup-distance to the rounding is at most sqrt(delta), and the
    rounding's own defect is at most 3 sqrt(delta) + 2 delta (this last uses
    omega >= 1, which submultiplicativity guarantees).
    """
    WS = _carrier(ws_or_s, "scalar", psi)
    phi = scalar_map([_rounded(v) for v in psi.values])
    delta = defect(WS, psi).defect_float
    dist = weighted_sup_distance_report(WS, psi, phi).value_float
    if dist > math.sqrt(delta) + 1e-12:
        raise ClassificationFailure(
            f"rounding distance {dist!r} exceeds sqrt(defect) = {math.sqrt(delta)!r}"
        )
    phi_delta = defect(WS, phi).defect_float
    cap = 3.0 * math.sqrt(delta) + 2.0 * delta + 1e-12
    if phi_delta > cap:
        raise ClassificationFailure(
            f"rounded map defect {phi_delta!r} exceeds certified cap {cap!r}"
        )
    return phi


# ---------------------------------------------------------------------------
# JSON round-trip.
# ---------------------------------------------------------------------------


def _num_to_json(x):
    # exact entries go out as _num_from_json reads them back exactly
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if _is_exact(x):
        return int(x)
    z = complex(x)
    return [z.real, z.imag]


def map_to_json(theta: AlgebraMap) -> dict:
    if theta.codomain == "scalar":
        values = [_num_to_json(v) for v in theta.values]
    elif theta.codomain == "t2":
        values = [[_num_to_json(v.a), _num_to_json(v.b)] for v in theta.values]
    else:
        values = [
            [[_num_to_json(v.a), _num_to_json(v.b)], [_num_to_json(v.c), _num_to_json(v.d)]]
            for v in theta.values
        ]
    return {"codomain": theta.codomain, "values": values}


def _json_number(x):
    """A number of a JSON document: an int (not a bool) as it is, a ``"p/q"``
    string as a :class:`Fraction`, a finite float; else :class:`ParseError`."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {x!r}") from exc
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParseError(f"value {x!r} is not finite")
        return x
    raise ParseError(f"expected a number or 'p/q' string, got {x!r}")


def _positive_finite(name: str, x, or_zero: bool = False) -> float:
    """``x`` as a float once finite and positive, or zero if ``or_zero``, else ``ValueError``."""
    x = float(x)
    if not (0.0 < x < math.inf or or_zero and x == 0.0):
        sign = "non-negative" if or_zero else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {x!r}")
    return x


def _num_from_json(x):
    # integers and "p/q" strings stay exact so rational certificates survive
    # the wire format; floats and [re, im] pairs take the numeric path
    if isinstance(x, list) and len(x) == 2:
        parts = (_json_number(x[0]), _json_number(x[1]))
    else:
        parts = (_json_number(x),)
        if not isinstance(parts[0], float):
            return parts[0]
    try:  # a part past the float range
        return complex(*parts)
    except OverflowError:
        raise ParseError(f"map value {x!r} is not finite") from None


def map_from_json(doc: dict) -> AlgebraMap:
    if not isinstance(doc, dict) or "codomain" not in doc or "values" not in doc:
        raise ParseError('map document needs "codomain" and "values" fields')
    codomain = doc["codomain"]
    values = doc["values"]
    if codomain not in _CODOMAINS:
        raise ParseError(f"unknown codomain {codomain!r}")
    if not isinstance(values, list):
        raise ParseError('"values" must be a list')
    try:
        if codomain == "scalar":
            return scalar_map([_num_from_json(v) for v in values])
        if codomain == "t2":
            return t2_map([(_num_from_json(v[0]), _num_from_json(v[1])) for v in values])
        return m2_map(
            [
                [
                    [_num_from_json(v[0][0]), _num_from_json(v[0][1])],
                    [_num_from_json(v[1][0]), _num_from_json(v[1][1])],
                ]
                for v in values
            ]
        )
    except (TypeError, IndexError, KeyError) as exc:
        raise ParseError(f"malformed map values: {exc}") from exc
