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
(``_norms``, also the filter's) serve all three.  The exact scans keep the
native values, whose ``Fraction`` products are cheaper than embedded ones.

For matrix codomains the scan covers all ordered pairs — matrix values need
not commute, and there are natural maps whose defect is attained at (e, f)
but not (f, e).  For scalar and T2 codomains the defect function is symmetric
and the scan covers unordered pairs; witnesses are lexicographically first.

The exact defect is filtered (Shewchuk 1997; Bronnimann, Burnikel and Pion
1998).  A float pass, in row blocks of about ``_FILTER_CELLS`` pairs, encloses
every pair's exact ratio in ``[lo, hi]``; only pairs with ``hi > 0`` and
``hi >= max lo`` are evaluated in ``Fraction``, in the full scan's order and
with its strict ``>``, so the value and the first witness are the full
scan's.  The pass normalises the :meth:`AlgebraMap.as_m2` matrices by the
weights, ``x = theta(e)/omega(e)`` and ``r = omega(ef)/(omega(e) omega(f))``,
so the ratio is a norm of ``D = x_e x_f - r x_ef``.  Each ``x`` is one
correctly rounded integer division and ``r`` is ``ldexp`` of three rounded
weight mantissas.  In the standard model, ``fl(a op b) = (a op b)(1 + d) + e``
with ``|d| <= u = 2**-53`` and ``|e| <= 2**-1075``, an entry of ``D`` has at
most three terms and is off by ``gamma_9 = 9u/(1 - 9u)`` times the sum of
their absolute values (``mag`` sums these; it bounds every norm of ``D``),
plus ``2**-820`` while all ``|x| <= 2**250``.  The norm adds ``gamma_4``
relatively and ``2**-536`` for squares below the normal range.  As ``r <= 1``
for a submultiplicative weight, ``|D|`` stays below about ``2**501``, and past
``2**250`` the norm rescales ``D`` by the power of two at its largest entry:
that is exact except for entries pushed below the normal range, and their
error is under ``2**-1070`` of the rescaled norm (at least 1/2).  So
``|nu - exact| <= 2**-48 mag + 2**-535``, and the code's width
``2**-40 (mag + nu) + 2**-500`` also covers its own roundings; a pair whose
terms are all exactly zero has ``D = 0`` and no width.  The operator norm's
closed form cancels badly, so it is enclosed by ``[hs/sqrt(2), hs]``.  When
a value overflows a float or ``|x| > 2**250``, every pair is evaluated
exactly.  Survivors whose exact difference is zero are skipped before any
norm is taken.  A survivor whose operator norm is irrational raises only when
its HS norm, which bounds the operator norm, exceeds the maximum of the
rational ones; an irrational square never ties that rational maximum, so the
value and the first witness stay the full scan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain

import numpy as np

from .errors import ClassificationFailure, ParseError
from .mat2 import Mat2, T2Element, abs2, hs_norm_sq
from .semilattice import Semilattice
from .weights import WeightedSemilattice, _is_exact, unit_weight

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
        return float(self.defect)


# ---------------------------------------------------------------------------
# Exact helpers.
# ---------------------------------------------------------------------------


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


def _norm_sq_exact(diff, norm: str) -> Fraction:
    """Exact squared norm of a difference value (real rational entries)."""
    if norm == "abs":
        return Fraction(diff) ** 2
    if norm == "t2":
        return (abs(Fraction(diff.a)) + abs(Fraction(diff.b))) ** 2
    hs_sq = Fraction(hs_norm_sq(diff))
    if norm == "hs":
        return hs_sq
    det = Fraction(diff.det)
    if det == 0:
        return hs_sq  # rank <= 1: operator and HS norms coincide
    # General case: op^2 = (T + sqrt(T^2 - 4 |det|^2))/2, exact only when the
    # discriminant is a perfect square.
    root, exact = _root(hs_sq * hs_sq - 4 * det * det)
    if not exact:
        raise ValueError(
            "exact operator norm needs rank <= 1 or a perfect-square discriminant"
        )
    return (hs_sq + root) / 2


def _can_run_exact(WS: WeightedSemilattice, *maps: AlgebraMap) -> bool:
    # the one place that decides between the exact and the float path
    return WS.is_exact and all(m.is_exact for m in maps)


# Filter constants; the module docstring derives the bound they implement.
_FILTER_CELLS = 1 << 14  # pairs per row block of the float pass
_FILTER_RANGE = 2.0**250  # largest normalised entry the float pass accepts
_FILTER_REL, _FILTER_ABS = 2.0**-40, 2.0**-500  # the enclosure's relative and absolute width
_INV_SQRT2_DOWN = 0.7071067811865  # below 1/sqrt(2), even after rounding a product
_UNSCALED_RANGE = 2.0**250  # the float kernels rescale past this entry or weight


def _stack(theta: AlgebraMap) -> np.ndarray:
    """The :meth:`AlgebraMap.as_m2` values as an ``(n, 2, 2)`` complex array."""
    entries = chain.from_iterable(theta.as_m2().values)
    return np.fromiter(entries, complex, 4 * theta.n).reshape(-1, 2, 2)


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
        # scale the float parts apart: a complex product turns inf into nan
        D = np.ldexp(D.view(float), -k[..., None, None]).view(D.dtype)
        A = np.abs(D)
    t = np.sum(A**2, axis=(-2, -1))
    if norm == "hs":
        out = np.sqrt(t)
    else:
        det = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] * D[..., 1, 0]
        disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
        out = np.sqrt((t + np.sqrt(disc)) / 2.0)
    return out if k is None else np.ldexp(out, k)


def _normalised_entries(WS: WeightedSemilattice, theta: AlgebraMap):
    """The matrices ``theta(e)/omega(e)`` of :meth:`AlgebraMap.as_m2` as rows,
    which are exactly nonzero, and the weights' mantissas and exponents."""
    rows, nonzero, mant, expo = [], [], [], []
    for entries, w in zip(theta.as_m2().values, WS.omega):
        p, q = w.numerator, w.denominator
        row = [(x.numerator * q) / (x.denominator * p) for x in entries]  # correctly rounded
        if max(map(abs, row)) > _FILTER_RANGE:
            raise OverflowError("normalised entry outside the filter's range")
        rows.append(row)
        nonzero.append(any(entries))
        k = p.bit_length() - q.bit_length()
        k -= (p << max(-k, 0)) < (q << max(k, 0))  # now 2**k <= w < 2**(k + 1)
        mant.append((p << max(-k, 0)) / (q << max(k, 0)))
        expo.append(k)
    return np.array(rows), np.array(nonzero), np.array(mant), np.array(expo, dtype=np.int64)


def _pair_enclosures(M, nonzero, mant, expo, table, norm: str, rows: slice):
    """``(lo, hi)`` around the exact ratios of the pairs in a block of rows."""
    P = table[rows]
    k = np.clip(expo[P] - expo[rows, None] - expo[None, :], -2000, 2000)
    r = np.ldexp(mant[P] / (mant[rows, None] * mant[None, :]), k.astype(np.int32))
    x, y = M.T, M[rows].T[..., None]
    # entry i = 2 row + col of x_e x_f - r x_ef, as a (block, n, 2, 2) stack
    D = [y[i & 2] * x[i & 1] + y[(i & 2) + 1] * x[(i & 1) + 2] - r * x[i][P] for i in range(4)]
    D = np.stack(D, axis=-1).reshape(r.shape + (2, 2))
    A = np.abs(M)
    # the sum over entries of |x_e| |x_f| + r |x_ef|, which bounds every norm of D
    col, row = A[:, [0, 1]] + A[:, [2, 3]], A[:, [0, 2]] + A[:, [1, 3]]
    mag = col[rows] @ row.T + r * A.sum(axis=1)[P]
    nu = _norms(D, "hs" if norm == "op" else norm)
    live = (nonzero[rows, None] & nonzero[None, :]) | nonzero[P]
    width = _FILTER_REL * (mag + nu) + _FILTER_ABS * live
    lo, hi = np.maximum(nu - width, 0.0), nu + width
    return (lo * _INV_SQRT2_DOWN if norm == "op" else lo), hi


def _candidate_pairs(WS: WeightedSemilattice, theta: AlgebraMap, norm: str):
    """The pairs that can attain the exact maximum, in lexicographic order:
    those the float filter keeps, or all when it cannot bound this input."""
    n, table, ordered = WS.n, WS.S.table, theta.codomain == "m2"
    try:
        entries = _normalised_entries(WS, theta)
    except OverflowError:
        yield from ((i, j) for i in range(n) for j in range(0 if ordered else i, n))
        return
    step = max(1, _FILTER_CELLS // n)
    blocks = [slice(i0, i0 + step) for i0 in range(0, n, step)]

    enclose = partial(_pair_enclosures, *entries, table, norm)
    # two passes keep extra memory to one block: max lo, then the survivors
    first = enclose(blocks[0])
    best_lo = max(float(lo.max()) for lo, _ in chain([first], map(enclose, blocks[1:])))
    for b in blocks:
        hi = (first if b is blocks[0] else enclose(b))[1]
        keep = (hi > 0) & (hi >= best_lo)
        for i, j in zip(*np.nonzero(keep if ordered else np.triu(keep, b.start))):
            yield b.start + int(i), int(j)


def _defect_exact(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    table = WS.S.table
    omega = [Fraction(w) for w in WS.omega]
    best_sq = Fraction(0)
    witness = (0, 0)
    vals = theta.values
    scalar = theta.codomain == "scalar"
    # the largest HS ratio square among pairs with an irrational operator norm
    irrational_sq, irrational = Fraction(0), None
    for i, j in _candidate_pairs(WS, theta, norm):
        diff = (vals[i] * vals[j] if scalar else vals[i] @ vals[j]) - vals[int(table[i, j])]
        if not (diff if scalar else any(diff)):
            continue  # a zero ratio never beats best_sq >= 0
        weight_sq = (omega[i] * omega[j]) ** 2
        try:
            ratio_sq = _norm_sq_exact(diff, norm) / weight_sq
        except ValueError as err:  # op <= hs: the pair matters only if hs beats best_sq
            irrational_sq = max(irrational_sq, Fraction(hs_norm_sq(diff)) / weight_sq)
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
    w = WS.omega_float
    V = _stack(theta)
    norms = _norms(np.einsum("iab,jbc->ijac", V, V) - V[WS.S.table], norm)
    if w.max() > _UNSCALED_RANGE:  # the product of two weights could overflow
        ratios = norms / w[:, None] / w[None, :]
    else:
        ratios = norms / (w[:, None] * w[None, :])
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
        return float(self.value)


def _element_ratios(WS: WeightedSemilattice, theta: AlgebraMap, phi: AlgebraMap, norm: str):
    """``||theta(e) - phi(e)|| / omega(e)`` per element: the exact squared ratios
    as a list when the weight and both maps are exact, else a numpy array of
    the float ratios."""
    if _can_run_exact(WS, theta, phi):
        return [
            _norm_sq_exact(t - p, norm) / Fraction(w) ** 2
            for t, p, w in zip(theta.values, phi.values, WS.omega)
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
