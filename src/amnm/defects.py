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
the oracle's exhaustive scan, like the distance report, ranks the keys of one
call of ``_element_ratios`` (integers on the exact path, then one ``Fraction``,
for the winner), and callers read the path off a report's ``defect_sq`` or
``value_sq``.  Before either path, ``defect`` recognises a character of ``l1(S)``
(:func:`_is_character`) and reads its exact 0 off the proved character table.

Both paths read every codomain in the layout of :meth:`AlgebraMap.as_m2`, built
from the values (scalars on the diagonal, T2 values as ``[[a, b], [0, a]]``), so
one ``(n, 2, 2)`` stack and one norm function (``_norms``, also the oracle's:
:func:`mat2._complex_norm` on arrays) serve all three.  Past ``2**250`` in a value
or a weight, the float products are formed on values and weights scaled by powers
of two (one weight rule, ``norm / (w_e w_f)``).  The exact scans read integers
``N = L theta`` over the common denominator ``L`` of the entries and build a
``Fraction`` only for a ratio.  Each form is made once: a map's stacks and its
``defect`` reports (one per carrier object and norm) on the map, a weight's float
products and ``omega = W / K`` on the weight.

For matrix codomains the scan covers all ordered pairs — matrix values need
not commute, and there are natural maps whose defect is attained at (e, f)
but not (f, e).  For scalar and T2 codomains the defect function is symmetric
and the scan covers unordered pairs; witnesses are lexicographically first.

The exact scans read a map by its distinct values (``AlgebraMap._classes``,
``N = U[c]``).  The defect scan forms each product of two values once, in
``int64`` when ``2 max|N|**2 + L max|N| < 2**63`` proves that nothing
overflows, else on Python ints, finds the pairs whose difference ``P = N_e N_f
- L N_ef = L**2 (theta(e) theta(f) - theta(ef))`` is nonzero from class ids
(:func:`_candidate_pairs`), and forms ``P`` for those only.  With ``omega = W
/ K``, a pair's squared ratio is ``||P||**2 / (W_e W_f)**2`` times ``K**4 /
L**4``, a factor common to all pairs, so the scan ranks the former by
cross-multiplying integers, with the full scan's strict ``>``, and builds one
``Fraction`` for the maximum.  A pair whose operator norm is irrational raises
only when its HS norm, which bounds the operator norm, exceeds the maximum of
the rational ones; an irrational square never ties that rational maximum.
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
    _as_complex,
    _hs_from_gram,
    _op_from_gram,
    _rescaled,
    _rounded,
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
_LAYOUT = {"scalar": lambda v: (v, 0, 0, v), "t2": lambda v: (v.a, v.b, 0, v.a), "m2": lambda v: v}


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
        embedding = AlgebraMap("m2", vals)
        for name in ("_classes", "_integer_stack"):  # the same integers: the embedding shares them
            if name in vars(self):
                vars(embedding)[name] = vars(self)[name]
        return embedding

    def _entries(self):
        """The values' entries as :meth:`as_m2` embeds them (``_LAYOUT``), four a value."""
        return chain.from_iterable(map(_LAYOUT[self.codomain], self.values))

    @cached_property
    def _float_stack(self) -> np.ndarray:
        """The read-only complex ``(n, 2, 2)`` stack of :meth:`_entries` (its largest part is
        read where used, by ``_largest_part``); an exact entry past the float range reads as inf."""
        try:
            V = np.fromiter(self._entries(), complex, 4 * self.n).reshape(-1, 2, 2)
        except OverflowError:
            V = np.array(list(map(_as_complex, self._entries()))).reshape(-1, 2, 2)
        V.setflags(write=False)
        return V

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray, int]:
        """An exact map's distinct values as read-only integers ``U = L v`` (``(k, 2, 2)``)
        over their common denominator ``L``, each element's class ``c`` (its row of ``U``), and
        ``L``.  ``1`` and ``Fraction(1)`` share a class: only integer kernels read classes."""
        ids = {}
        c = np.array([ids.setdefault(v, len(ids)) for v in self.values], np.intp)
        c.setflags(write=False)
        U, L = _over_common_denominator(list(chain.from_iterable(map(_LAYOUT[self.codomain], ids))))
        return U.reshape(-1, 2, 2), c, L

    @cached_property
    def _integer_stack(self) -> tuple[np.ndarray, int]:
        """An exact map's integers ``N = L theta = U[c]`` (read-only, ``(n, 2, 2)``) and ``L``."""
        U, c, L = self._classes
        N = U[c]
        N.setflags(write=False)
        return N, L

    @cached_property
    def _reports(self) -> dict:  # defect reports by (carrier, norm); a carrier compares by identity
        return {}


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


def _carrier(ws_or_s, codomain: str | None, *maps: AlgebraMap) -> WeightedSemilattice:
    """The weighted semilattice of ``ws_or_s``, once every map of ``maps`` fits
    it (a bare semilattice's is its unit weight): ``ValueError`` unless all take values
    in ``codomain`` (the first map's when None), then ``ParseError`` unless each has
    one value per element."""
    WS = ws_or_s._unit_weight if isinstance(ws_or_s, Semilattice) else ws_or_s
    if not isinstance(WS, WeightedSemilattice):
        raise TypeError(f"expected Semilattice or WeightedSemilattice, got {type(ws_or_s)!r}")
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
        return _as_complex(self.defect).real


# ---------------------------------------------------------------------------
# Exact helpers.
# ---------------------------------------------------------------------------


def _root(q: Fraction) -> tuple:
    """``(sqrt(q), True)`` when ``q >= 0`` has a rational root, else the float
    root, :func:`mat2._rescaled`'s view (0.0 or inf only where the root itself
    is out of the float range), and ``False``."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd), True
    return _rescaled(_hs_from_gram, q), False


def _norm_sq_exact(diff, norm: str) -> int | None:
    """Exact squared norm, an int, of an embedded difference ``(a, b, c, d)``
    with integer entries; None where the operator norm is irrational."""
    a, b, c, d = diff
    if norm == "abs":
        return a * a
    if norm == "t2":
        return (abs(a) + abs(b)) ** 2
    hs_sq = a * a + b * b + c * c + d * d
    det = a * d - b * c
    if norm == "hs" or det == 0:
        return hs_sq  # rank <= 1: operator and HS norms coincide
    # op^2 = (T + sqrt(T^2 - 4 det^2))/2, exact only when the discriminant is a
    # perfect square; T and its root then share a parity, as (T - r)(T + r) = 4 det^2
    disc = hs_sq * hs_sq - 4 * det * det
    root = math.isqrt(disc)
    return (hs_sq + root) // 2 if root * root == disc else None


def _can_run_exact(WS: WeightedSemilattice, *maps: AlgebraMap) -> bool:
    # the one place that decides between the exact and the float path
    return WS.is_exact and all(m.is_exact for m in maps)


# The float defect's range, the exact scans' one error and the per-element scan's 0 and I.
_UNSCALED_RANGE = 2.0**250  # the float defect scales past a value or weight this large
_IRRATIONAL_OP = "exact operator norm needs rank <= 1 or a perfect-square discriminant"
_ZERO_ID = np.array([0, 0, 0, 0, 1, 0, 0, 1], complex).reshape(2, 1, 2, 2)  # 0 and I, for any n


def _stack(theta: AlgebraMap, *more: AlgebraMap) -> np.ndarray:
    """The float stacks of ``theta`` and then of each map in ``more`` as one
    ``(n, 2, 2)`` complex array: one map's own read-only stack, made once."""
    return np.concatenate([m._float_stack for m in (theta, *more)]) if more else theta._float_stack


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


def _largest_part(D: np.ndarray) -> float:
    """The largest ``|real|`` or ``|imag|`` of a whole stack, 0 when it is empty."""
    return float(np.abs(D.view(float)).max(initial=0.0))


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
                top = np.abs(X[redo]).max(axis=1)  # inf: an inf part and no NaN part
                k = np.frexp(top)[1]  # 0 for zero, inf and NaN rows
                scaled = np.ldexp(_formula(np.ldexp(X[redo], -k[:, None]), norm == "op"), k)
                r[redo] = np.where(top == np.inf, np.inf, scaled)
        return (r[0::2] + r[1::2] if norm == "t2" else r).reshape(shape)


def _integers(*maps: AlgebraMap):
    """The :meth:`AlgebraMap.as_m2` values of exact maps, one after the other,
    as an ``(n, 2, 2)`` stack of integers ``N = L theta`` and their ``L``: one
    map's own read-only stack, made once, or several over the lcm of their
    ``L``, in ``int64`` only if the rescaled integers meet the bound of
    :func:`weights._over_common_denominator` themselves (``int64`` wraps)."""
    stacks = [m._integer_stack for m in maps]
    if len(stacks) == 1:
        return stacks[0]
    L = math.lcm(*(Li for _, Li in stacks))
    big = max(int(np.abs(N).max(initial=0)) * (L // Li) for N, Li in stacks)
    dtype = np.int64 if 2 * big * big + L * big < 2**63 else object
    return np.concatenate([N.astype(dtype) * (L // Li) for N, Li in stacks]), L


def _candidate_pairs(WS: WeightedSemilattice, theta: AlgebraMap, norm: str):
    """The pairs ``(e, f)`` whose difference is nonzero, in lexicographic order (ordered pairs
    for matrix norms), each with the entries of ``N_e N_f - L N_ef = L**2 (theta(e) theta(f) -
    theta(ef))``, that is ``U_a U_b - L U_{c_ef}`` for ``N = U[c]`` (:attr:`AlgebraMap._classes`)
    and ``a, b = c_e, c_f``.  Each ``U_a U_b`` is formed once; a cell is nonzero exactly when the
    class its product equals is not ``c_ef`` (past ``n**(2/3)`` classes, where matching each
    product with each class costs more than the cells, when the cell's integers differ)."""
    U, c, L = theta._classes
    n, k, table = WS.n, len(U), WS.S.table
    Q = np.matmul(U[:, None], U).reshape(k * k, 4)  # U_a U_b at row a k + b
    M = L * U.reshape(k, 4)
    if few := k**3 <= n * n:  # [a, f]: the class equal to U_a U_{c_f} (rows are distinct), or -1
        match = ((Q[:, None] == M).all(axis=2) @ np.arange(1, k + 1) - 1).reshape(k, k)[:, c]
    step = max(1, _BLOCK_CELLS // n)
    for i0 in range(0, n, step):
        cef = c[table[i0 : i0 + step]].ravel()  # cell F of the block is (i0 + F // n, F % n)
        F = np.flatnonzero(match[c[i0 : i0 + step]].ravel() != cef) if few else np.arange(cef.size)
        if norm not in ("hs", "op"):  # a symmetric defect: the pairs with e <= f
            F = F[F // n + i0 <= F % n]
        I, J = np.divmod(F, n)
        P = Q[c[I + i0] * k + c[J]] - M[cef[F]]
        if not few:  # a row's four bools read as one int32, nonzero when any is
            I, J, P = I[nonzero := (P != 0).view(np.int32).ravel() != 0], J[nonzero], P[nonzero]
        yield from zip((I + i0).tolist(), J.tolist(), P.tolist())


def _defect_exact(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    L = theta._classes[2]
    W, K = WS._omega_integers  # omega(e) = W_e / K
    # s / w for s = ||d||**2 and w = (W_e W_f)**2 orders the squared ratios s K**4 / (L**4 w)
    best, best_w, witness = 0, 1, (0, 0)
    hs, hs_w = 0, 1  # the largest such HS ratio of an irrational operator norm
    for i, j, d in _candidate_pairs(WS, theta, norm):
        w = (W[i] * W[j]) ** 2
        s = _norm_sq_exact(d, norm)
        if s is None:  # op <= hs: the pair matters only if hs beats the maximum
            s = _norm_sq_exact(d, "hs")
            if s * hs_w > hs * w:
                hs, hs_w = s, w
        elif s * best_w > best * w:
            best, best_w, witness = s, w, (i, j)
    if hs * best_w > best * hs_w:
        raise ValueError(_IRRATIONAL_OP)
    best_sq = Fraction(best * K**4, best_w * L**4)
    value, exact = _root(best_sq)
    return DefectReport(value, witness, norm, best_sq, exact_value=exact)


# ---------------------------------------------------------------------------
# Float (vectorized) helpers.
# ---------------------------------------------------------------------------


def _defect_float(WS: WeightedSemilattice, theta: AlgebraMap, norm: str) -> DefectReport:
    V, (w_top, ww, below), table = theta._float_stack, WS._float_pairs, WS.S.table
    if not max(_largest_part(V), w_top) <= _UNSCALED_RANGE:  # or inf or NaN; not kept on the map
        _refuse_non_finite(V, theta)
        # a product could overflow: scale each value down to its largest part,
        # each difference to its own and the weights to their mantissas, by powers of two
        k = np.maximum(np.frexp(_largest_parts(V))[1], 0)
        K = k[:, None] + k[None, :]
        U = _scaled(V, -k)
        D = np.einsum("iab,jbc->ijac", U, U) - _scaled(V[table], -K)
        j = np.frexp(_largest_parts(D))[1]
        mant, e = WS._omega_frexp or np.frexp(WS.omega_float)
        norms = _norms(_scaled(D, -j), norm) / (mant[:, None] * mant[None, :])
        with np.errstate(over="ignore"):  # a defect past the float range is inf
            ratios = np.ldexp(norms, K + j - e[:, None] - e[None, :])
    else:
        ratios = _norms(np.einsum("iab,jbc->ijac", V, V) - V[table], norm) / ww
    if theta.codomain != "m2":
        # symmetric defect function: restrict to i <= j (keeps the same
        # maximum and the same lexicographically-first witness)
        np.putmask(ratios, below, -1.0)
    i, j = divmod(int(np.argmax(ratios)), WS.n)
    return DefectReport(float(ratios[i, j]), (i, j), norm)


_EXACT_ZERO = Fraction(0)
_UNITS = {"scalar": (0, 1), "t2": (T2Element(0, 0), T2Element(1, 0)), "m2": (M2_ZERO, M2_ID)}


def _is_character(S: Semilattice, theta: AlgebraMap) -> bool:
    """Whether ``theta`` is a character of ``l1(S)``, a row of the proved table
    ``S._mult_rows``: every value is its codomain's 1 or 0 (``I`` or ``0`` once
    embedded; the test stops at the first other value), and the set of 1s is
    empty (row 0) or the up-set of the product ``m`` of its elements (row
    ``m + 1``).  The zero map is multiplicative on any table; reading a row
    proves the table, else :class:`ClassificationFailure`."""
    zero, one = _UNITS[theta.codomain]
    ones, m = bytearray(S.n), None  # the set's bytes, as a boolean row's, and its product
    for e, v in enumerate(theta.values):
        if v == one:
            ones[e] = 1
            m = e if m is None else S.table.item(m, e)
        elif v != zero:
            return False
    return m is None or S._mult_rows[m + 1].tobytes() == ones


def defect(ws_or_s, theta: AlgebraMap, norm: str | None = None) -> DefectReport:
    """Weighted multiplicativity defect, maximized over all element pairs.

    The unweighted form is obtained by passing a bare semilattice.  Runs the
    exact path automatically when both the weight and the map are
    rational-valued.  A character (:func:`_is_character`) is not scanned: its
    defect is read off the proved table as exactly 0 at ``(0, 0)``, the value
    and witness the scan would report.  The report is kept on ``theta`` per
    carrier and norm, so a second call on the same carrier object scans nothing.
    """
    WS = _carrier(ws_or_s, None, theta)
    norm = _check_norm(theta.codomain, norm)
    if (key := (WS, norm)) not in theta._reports:
        exact = _can_run_exact(WS, theta)
        if _is_character(WS.S, theta):
            zero = _EXACT_ZERO if exact else 0.0
            theta._reports[key] = DefectReport(zero, (0, 0), norm, zero if exact else None, exact)
        else:
            theta._reports[key] = (_defect_exact if exact else _defect_float)(WS, theta, norm)
    return theta._reports[key]


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
        return _as_complex(self.value).real


def _exact_costs(WS: WeightedSemilattice, D, ids, L: int, norm: str):
    """Integer keys ordering the exact costs ``||d|| / omega(e)`` of differences ``d = L
    (theta(e) - phi(e))``, where row ``v`` of ``D`` lists map ``v``'s distinct differences as
    integer 4-lists and element ``e`` takes the ``ids[e]``-th, one norm each, and ``cost(v,
    e)``, row ``v``'s squared cost at ``e`` as one ``Fraction``: with ``omega = W / K``, ``s
    K**2 / (L W_e)**2`` for ``s = ||d||**2``, whose key ``s (lcm(W) / W_e)**2`` is it times a
    factor common to every element.  An irrational operator norm is keyed -1 and raises
    ``ValueError`` unless its HS key, which bounds it, is at most the largest rational key; it
    is then below the maximum, which it cannot tie.  Keys past ``2**63`` are replaced by their
    ranks."""
    W, K = WS._omega_integers
    scale = WS._omega_scale
    squares = [[_norm_sq_exact(d, norm) if any(d) else 0 for d in row] for row in D]
    keys = [[-1 if sq[i] is None else sq[i] * q for i, q in zip(ids, scale)] for sq in squares]
    top = max(map(max, keys))
    for row, sq in zip(D, squares):
        if any(_norm_sq_exact(row[i], "hs") * q > top for i, q in zip(ids, scale) if sq[i] is None):
            raise ValueError(_IRRATIONAL_OP)

    def cost(v: int, e: int) -> Fraction:
        return Fraction(squares[v][ids[e]] * K * K, (L * W[e]) ** 2)

    if top >= 2**63:  # ties and order kept: the scans then run on int64, not on objects
        rank = {key: r for r, key in enumerate(sorted(set(chain.from_iterable(keys))))}
        keys = [[rank[key] for key in row] for row in keys]
    return np.array(keys, np.int64), cost


def _element_ratios(WS: WeightedSemilattice, theta: AlgebraMap, phis, norm: str):
    """``||theta(e) - phi(e)|| / omega(e)``, a row per map ``phi`` of ``phis`` (per
    value 0 and 1 of ``theta``'s codomain, embedded as 0 and ``I``, when ``phis``
    is None) and a column per element, as ``(keys, cost)``: the :func:`_exact_costs`
    of the maps' integer forms (per class of ``theta`` when ``phis`` is None) when the
    weight and every map are exact, else the float costs, from one :func:`_norms` call
    on the stack of differences, and None.  Where a float difference has a part past
    ``2**1021``, its modulus, ``|a| + |b|`` or its norm could overflow: that pair
    is costed on its values over ``2**3``, exactly, and its ratio scaled back, to
    inf past the float range; every other pair keeps the direct formula's bits.
    Under a weight past the float range the ratios divide by the weights' mantissas
    and scale by their powers of two (``WeightedSemilattice._omega_frexp``)."""
    n, maps = WS.n, phis or ()
    if _can_run_exact(WS, theta, *maps):
        if phis is None:  # theta(e) - 0 and theta(e) - I, per class
            U, ids, L = theta._classes
            T = U.reshape(-1, 4).tolist()
            D = [T, [[a - L, b, c, d - L] for a, b, c, d in T]]
            return _exact_costs(WS, D, ids.tolist(), L, norm)
        N, L = _integers(theta, *maps)  # theta(e) - phi_v(e) = (N_e - N_{(v+1)n+e}) / L
        D = (N[:n] - N[n:].reshape(-1, n, 2, 2)).reshape(len(phis), n, 4).tolist()
        return _exact_costs(WS, D, range(n), L, norm)
    V = _stack(theta, *maps)
    T, P = V[:n], _ZERO_ID if phis is None else V[n:].reshape(-1, n, 2, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # both show in the check below
        D = T - P
    k = None
    if not _largest_part(D) <= 2.0**1021:  # or an inf or NaN entry
        _refuse_non_finite(V, theta, *maps)
        k = np.where(_largest_parts(D) > 2.0**1021, 3, 0)
        D = _scaled(T, -k) - _scaled(P, -k)
    w, e = WS._omega_frexp or (WS.omega_float, None)
    ratios = _norms(D, norm) / w
    if e is not None:
        k = -e if k is None else k - e
    if k is None:
        return ratios, None
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        return np.ldexp(ratios, k), None


def weighted_sup_distance_report(
    ws_or_s, theta: AlgebraMap, phi: AlgebraMap, norm: str | None = None
) -> DistanceReport:
    """``max_e ||theta(e) - phi(e)|| / omega(e)`` with witness and exactness info."""
    WS = _carrier(ws_or_s, None, theta, phi)
    norm = _check_norm(theta.codomain, norm)
    keys, cost = _element_ratios(WS, theta, [phi], norm)
    e = int(np.argmax(keys[0]))  # the first maximum, as a strict > scan finds it
    if cost is None:
        return DistanceReport(float(keys[0, e]), e, norm)
    value, exact = _root(value_sq := cost(0, e))
    return DistanceReport(value, e, norm, value_sq, exact)


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
