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
the oracle's exhaustive scan costs its candidates with ``_element_ratios``,
and callers read the path off a report's ``defect_sq`` or ``value_sq``.

The float path reads every codomain through :meth:`AlgebraMap.as_m2`, as the
exact filter below does: scalars embed diagonally and T2 values as
``[[a, b], [0, a]]``, so one ``(n, 2, 2)`` stack and one norm function
(``_norms``, also the filter's) serve all three; past ``2**250`` the products
are formed on values scaled by powers of two.  The exact scans use the same
embedding on integers, ``N = L theta`` over the common denominator ``L`` of
the entries (``_integers``), and build a ``Fraction`` only for a ratio.

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
from .mat2 import Mat2, T2Element, abs2, hs_norm_sq
from .semilattice import Semilattice
from .weights import _BLOCK_CELLS, WeightedSemilattice, _is_exact, _over_common_denominator
from .weights import unit_weight

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
        """Embed into 2x2 matrices (scalars diagonally, T2 upper-triangularly)."""
        if self.codomain == "m2":
            return self
        if self.codomain == "scalar":
            vals = tuple(Mat2(v, v * 0, v * 0, v) for v in self.values)
        else:
            vals = tuple(x.as_mat2() for x in self.values)
        return AlgebraMap("m2", vals)


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
        return unit_weight(ws_or_s)
    raise TypeError(f"expected Semilattice or WeightedSemilattice, got {type(ws_or_s)!r}")


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
    root and ``False``; past the float range, the root of ``q``'s integer part."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd), True
    try:
        return math.sqrt(float(q)), False
    except OverflowError:
        return float(math.isqrt(num // den)), False


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
_UNSCALED_RANGE = 2.0**250  # the float kernels rescale past this entry or weight


def _stack(theta: AlgebraMap) -> np.ndarray:
    """The :meth:`AlgebraMap.as_m2` values as an ``(n, 2, 2)`` complex array."""
    entries = chain.from_iterable(theta.as_m2().values)
    return np.fromiter(entries, complex, 4 * theta.n).reshape(-1, 2, 2)


def _scaled(D: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``2**k D`` per matrix of a complex ``(..., 2, 2)`` stack, on the float
    parts: a complex product would turn inf into nan."""
    return np.ldexp(D.view(float), k[..., None, None]).view(D.dtype)


def _norms(D: np.ndarray, norm: str) -> np.ndarray:
    """Norms of a ``(..., 2, 2)`` stack of embedded differences.

    ``abs`` is ``|d00|`` and ``t2`` is ``|d00| + |d01|``, the norms of the
    scalar and T2 values that :meth:`AlgebraMap.as_m2` embeds.  For ``hs`` and
    ``op``, past ``_UNSCALED_RANGE`` the squares, or the operator norm's
    ``t * t``, could overflow: then each matrix is scaled by the power of two
    at its largest entry, which is exact, and its norm scaled back.
    """
    if norm == "abs":
        return np.abs(D[..., 0, 0])
    if norm == "t2":
        return np.abs(D[..., 0, 0]) + np.abs(D[..., 0, 1])
    A = np.abs(D)
    k = None
    if A.max(initial=0.0) > _UNSCALED_RANGE:
        k = np.frexp(A.max(axis=(-2, -1)))[1]
        D = _scaled(D, -k)
        A = np.abs(D)
    t = np.sum(A**2, axis=(-2, -1))
    if norm == "hs":
        out = np.sqrt(t)
    else:
        det = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] * D[..., 1, 0]
        disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
        out = np.sqrt((t + np.sqrt(disc)) / 2.0)
    return out if k is None else np.ldexp(out, k)


def _integers(*maps: AlgebraMap):
    """The :meth:`AlgebraMap.as_m2` values of exact maps, one after the other,
    as an ``(n, 2, 2)`` stack of integers ``N = L theta`` and their ``L``."""
    entries = chain.from_iterable(chain.from_iterable(m.as_m2().values for m in maps))
    N, L = _over_common_denominator(list(entries))
    return N.reshape(-1, 2, 2), L


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
    for ``N, L = _integers(theta)`` and ``W`` the weight integers as a list."""
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
    W, K = _over_common_denominator(WS.omega)  # omega(e) = W_e / K
    W, K4 = W.tolist(), K**4
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
    big = np.abs(V).max(axis=(1, 2))
    if big.max() > _UNSCALED_RANGE:
        # the products could overflow: scale each value down to its largest entry,
        # each difference to its own and the weights to their mantissas, by powers of two
        k = np.maximum(np.frexp(big)[1], 0)
        K = k[:, None] + k[None, :]
        U = _scaled(V, -k)
        D = np.einsum("iab,jbc->ijac", U, U) - _scaled(V[table], -K)
        j = np.frexp(np.abs(D).max(axis=(-2, -1)))[1]
        mant, e = np.frexp(w)
        norms = _norms(_scaled(D, -j), norm) / (mant[:, None] * mant[None, :])
        ratios = np.ldexp(norms, K + j - e[:, None] - e[None, :])
    else:
        norms = _norms(np.einsum("iab,jbc->ijac", V, V) - V[table], norm)
        wide = w.max() > _UNSCALED_RANGE  # the product of two weights could overflow
        ratios = norms / w[:, None] / w[None, :] if wide else norms / (w[:, None] * w[None, :])
    if theta.codomain != "m2":
        # symmetric defect function: restrict to i <= j (keeps the same
        # maximum and the same lexicographically-first witness)
        ratios = np.triu(ratios) - np.tril(np.ones_like(ratios), -1)
    flat = int(np.argmax(ratios))
    i, j = divmod(flat, WS.n)
    return DefectReport(float(ratios[i, j]), (i, j), norm)


def defect(ws_or_s, theta: AlgebraMap, norm: str | None = None) -> DefectReport:
    """Weighted multiplicativity defect, maximized over all element pairs.

    The unweighted form is obtained by passing a bare semilattice.  Runs the
    exact path automatically when both the weight and the map are
    rational-valued.
    """
    WS = _resolve(ws_or_s)
    if theta.n != WS.n:
        raise ParseError(f"map has {theta.n} values for a {WS.n}-element semilattice")
    norm = _check_norm(theta.codomain, norm)
    if _can_run_exact(WS, theta):
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


def _element_ratios(WS: WeightedSemilattice, theta: AlgebraMap, phi: AlgebraMap, norm: str):
    """``||theta(e) - phi(e)|| / omega(e)`` per element: the exact squared ratios
    as a list when the weight and both maps are exact, else a numpy array of
    the float ratios."""
    if _can_run_exact(WS, theta, phi):
        N, L = _integers(theta, phi)  # theta(e) - phi(e) = (N_e - N_{n+e}) / L
        W, K = _over_common_denominator(WS.omega)  # omega(e) = W_e / K
        D = (N[: WS.n] - N[WS.n :]).reshape(-1, 4).tolist()
        return [
            Fraction(_norm_sq_exact(Mat2(*d), norm) * K * K, (L * w) ** 2)
            for d, w in zip(D, W.tolist())
        ]
    return _norms(_stack(theta) - _stack(phi), norm) / WS.omega_float


def weighted_sup_distance_report(
    ws_or_s, theta: AlgebraMap, phi: AlgebraMap, norm: str | None = None
) -> DistanceReport:
    """``max_e ||theta(e) - phi(e)|| / omega(e)`` with witness and exactness info."""
    WS = _resolve(ws_or_s)
    if theta.codomain != phi.codomain:
        raise ValueError(
            f"maps have different codomains: {theta.codomain!r} vs {phi.codomain!r}"
        )
    if theta.n != WS.n or phi.n != WS.n:
        raise ParseError("map length does not match the semilattice")
    norm = _check_norm(theta.codomain, norm)
    ratios = _element_ratios(WS, theta, phi, norm)
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
    """Round a scalar map pointwise to the nearer of {0, 1} (ties to 0).

    Valid for any defect delta; certifies the two standard consequences:
    the weighted sup-distance to the rounding is at most sqrt(delta), and the
    rounding's own defect is at most 3 sqrt(delta) + 2 delta (this last uses
    omega >= 1, which submultiplicativity guarantees).
    """
    WS = _resolve(ws_or_s)
    if psi.codomain != "scalar":
        raise ValueError("round_to_binary expects a scalar map")
    rounded = []
    for v in psi.values:
        d0 = abs2(v)
        d1 = abs2(v - 1)
        rounded.append(0 if d0 <= d1 else 1)
    phi = scalar_map(rounded)
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


def _num_from_json(x):
    # integers and "p/q" strings stay exact so rational certificates survive
    # the wire format; floats and [re, im] pairs take the numeric path
    if isinstance(x, bool):
        raise ParseError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {x!r}") from exc
    if isinstance(x, float):
        z = complex(x)
    elif isinstance(x, list) and len(x) == 2:
        z = complex(float(x[0]), float(x[1]))
    else:
        raise ParseError(f"expected a number, 'p/q' string or [re, im] pair, got {x!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"map value {x!r} is not finite")
    return z


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
