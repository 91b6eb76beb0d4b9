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
root is rational, and as an exact rational square otherwise.

For matrix codomains the scan covers all ordered pairs — matrix values need
not commute, and there are natural maps whose defect is attained at (e, f)
but not (f, e).  For scalar and T2 codomains the defect function is symmetric
and the scan covers unordered pairs; witnesses are lexicographically first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def is_exact(self) -> bool:
        if self.codomain == "scalar":
            return all(_is_exact(v) for v in self.values)
        return all(all(_is_exact(x) for x in v) for v in self.values)

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


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _norm_sq_exact(diff, codomain: str, norm: str) -> Fraction:
    """Exact squared norm of a difference value (real rational entries)."""
    if codomain == "scalar":
        return Fraction(diff) ** 2
    if codomain == "t2":
        return (abs(Fraction(diff.a)) + abs(Fraction(diff.b))) ** 2
    hs_sq = Fraction(hs_norm_sq(diff))
    if norm == "hs":
        return hs_sq
    det = Fraction(diff.det)
    if det == 0:
        return hs_sq  # rank <= 1: operator and HS norms coincide
    # General case: op^2 = (T + sqrt(T^2 - 4 |det|^2))/2, exact only when the
    # discriminant is a perfect square.
    disc = hs_sq * hs_sq - 4 * det * det
    root = _exact_sqrt(disc)
    if root is None:
        raise ValueError(
            "exact operator norm needs rank <= 1 or a perfect-square discriminant"
        )
    return (hs_sq + root) / 2


def _value_mul(x, y, codomain: str):
    if codomain == "scalar":
        return x * y
    return x @ y


def _can_run_exact(WS: WeightedSemilattice, *maps: AlgebraMap) -> bool:
    return WS.is_exact and all(m.is_exact for m in maps)


def _defect_exact(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    table = WS.S.table
    omega = [Fraction(w) for w in WS.omega]
    n = WS.n
    ordered = theta.codomain == "m2"
    best_sq = Fraction(0)
    witness = (0, 0)
    vals = theta.values
    for i in range(n):
        j_start = 0 if ordered else i
        for j in range(j_start, n):
            diff = _value_mul(vals[i], vals[j], theta.codomain) - vals[int(table[i, j])]
            ratio_sq = _norm_sq_exact(diff, theta.codomain, norm) / (omega[i] * omega[j]) ** 2
            if ratio_sq > best_sq:
                best_sq = ratio_sq
                witness = (i, j)
    root = _exact_sqrt(best_sq)
    if root is not None:
        return DefectReport(root, witness, norm, best_sq, exact_value=True)
    return DefectReport(math.sqrt(float(best_sq)), witness, norm, best_sq, exact_value=False)


# ---------------------------------------------------------------------------
# Float (vectorized) helpers.
# ---------------------------------------------------------------------------


def _scalar_stack(theta: AlgebraMap) -> np.ndarray:
    return np.array([complex(v) for v in theta.values])


def _t2_stacks(theta: AlgebraMap) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([complex(v.a) for v in theta.values])
    b = np.array([complex(v.b) for v in theta.values])
    return a, b


def _m2_stack(theta: AlgebraMap) -> np.ndarray:
    return np.array([v.to_array() for v in theta.values])


def _m2_norms(D: np.ndarray, norm: str) -> np.ndarray:
    """HS or operator norms of a ``(..., 2, 2)`` stack of matrices."""
    t = np.sum(np.abs(D) ** 2, axis=(-2, -1))
    if norm == "hs":
        return np.sqrt(t)
    det = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] * D[..., 1, 0]
    disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
    return np.sqrt((t + np.sqrt(disc)) / 2.0)


def _pair_norms_float(theta: AlgebraMap, table: np.ndarray, norm: str) -> np.ndarray:
    """Matrix of ||theta(i) theta(j) - theta(ij)|| over all ordered pairs."""
    if theta.codomain == "scalar":
        v = _scalar_stack(theta)
        return np.abs(v[:, None] * v[None, :] - v[table])
    if theta.codomain == "t2":
        a, b = _t2_stacks(theta)
        pa = a[:, None] * a[None, :]
        pb = a[:, None] * b[None, :] + b[:, None] * a[None, :]
        return np.abs(pa - a[table]) + np.abs(pb - b[table])
    V = _m2_stack(theta)
    return _m2_norms(np.einsum("iab,jbc->ijac", V, V) - V[table], norm)


def _defect_float(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    table = WS.S.table
    w = WS.omega_float
    ratios = _pair_norms_float(theta, table, norm) / (w[:, None] * w[None, :])
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
    if _can_run_exact(WS, theta, phi):
        omega = [Fraction(w) for w in WS.omega]
        best_sq = Fraction(0)
        witness = 0
        for e in range(WS.n):
            diff = theta.values[e] - phi.values[e]
            ratio_sq = _norm_sq_exact(diff, theta.codomain, norm) / omega[e] ** 2
            if ratio_sq > best_sq:
                best_sq = ratio_sq
                witness = e
        root = _exact_sqrt(best_sq)
        if root is not None:
            return DistanceReport(root, witness, norm, best_sq, exact_value=True)
        return DistanceReport(math.sqrt(float(best_sq)), witness, norm, best_sq, False)
    w = WS.omega_float
    if theta.codomain == "scalar":
        diffs = np.abs(_scalar_stack(theta) - _scalar_stack(phi))
    elif theta.codomain == "t2":
        ta, tb = _t2_stacks(theta)
        pa, pb = _t2_stacks(phi)
        diffs = np.abs(ta - pa) + np.abs(tb - pb)
    else:
        diffs = _m2_norms(_m2_stack(theta) - _m2_stack(phi), norm)
    ratios = diffs / w
    e = int(np.argmax(ratios))
    return DistanceReport(float(ratios[e]), e, norm)


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
        return complex(x)
    if isinstance(x, list) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise ParseError(f"expected a number, 'p/q' string or [re, im] pair, got {x!r}")


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
