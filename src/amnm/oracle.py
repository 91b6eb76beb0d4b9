"""Independent nearest-multiplicative-map search.

For scalar and upper-triangular codomains the multiplicative maps are the
0/1 maps that the rows of one boolean table name (``S._mult_rows``, proved
once per semilattice: row 0 the zero map, row ``m + 1`` the up-set of ``m``),
so the nearest one is found exhaustively — exactly, when the inputs are rational.
The scan costs the codomain's 0 and 1 at every element in one call of the
defects module's per-element kernel, which decides between exact and float
costs, and reads each row's cost off those two.  For the 2x2-matrix codomain
the multiplicative maps form the finite-dimensional family

    phi = chi_F1 * P + chi_F2 * (I - P)

over pairs of rows of the same table and idempotents ``P``.  Element
``e`` carries the label ``[e in F1] + 2 [e in F2]``, which names its value
in ``(0, P, I - P, I)``.  The search tabulates the P-independent part of
every (F1, F2) cell's cost (the elements labelled 0 or 3) in one numpy
table, whose diagonal is the cost of the P-independent maps ``chi_F * I``.
It prunes the cells by that table, seeds each surviving cell with
idempotents read off from the map's own values, and polishes the leaders
with a derivative-free simplex descent over a rank-one parametrization.
The descent is this module's own Nelder-Mead (:func:`minimize`), run on one
scalar cell objective over the map's ``complex`` entries, so the search
needs nothing beyond numpy.  The result is an upper bound on the true
distance that is certified to be attained by an exactly multiplicative map.

With ``c_e = theta(e)`` on label 1 and ``I - theta(e)`` on label 2, a cell's
cost ``max(const, max_e ||c_e - P|| / omega_e)`` is at least ``|tr c_e - 1| /
(kappa omega_e)`` for rank-one ``P`` (kappa is sqrt 2 for HS, 2 for op) and
``||c_e - c_f|| / (omega_e + omega_f)`` (the triangle inequality).  A leader
whose bound is not below the best cost found cannot win: its descent is
skipped.  The bounds, with the pruned and diagonal cells' ``const``, give
``details["lower"]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, product
from operator import add, itemgetter, sub

import numpy as np

from .defects import (
    AlgebraMap,
    _carrier,
    _check_norm,
    _element_ratios,
    _float,
    _root,
    default_norm,
    m2_map,
    t2_map,
    weighted_sup_distance_report,
)
from .filters import Filter, _row_filter
from .mat2 import (
    M2_ID,
    Mat2,
    T2Element,
    _SQRT2,
    _complex_norm,
    _rank_one,
    is_idempotent_within,
    nearest_binary_idempotent,
)

__all__ = [
    "NearestReport",
    "enumerate_mult_scalar",
    "enumerate_mult_t2",
    "m2_family_map",
    "enumerate_mult_m2_with",
    "nearest_mult_scalar",
    "nearest_mult_t2",
    "nearest_mult_m2",
]

# Survivor cells that get the simplex polish, best first.
_POLISH_TOP = 3


@dataclass(frozen=True, eq=False)
class NearestReport:
    """Nearest multiplicative map found, with the method that certifies it.

    ``value`` is an exact minimum for ``method == "exhaustive"`` and a
    certified upper bound (the map is exactly multiplicative, the distance
    is recomputed independently) for ``method == "cell-scan"``, where
    ``details["lower"]`` is a float-computed lower bound on the distance to the
    family, by the per-cell trace and triangle-inequality bounds, deflated for
    rounding so that ``lower <= value`` holds as floats.
    """

    codomain: str
    value: float
    value_exact: Fraction | None
    best_map: AlgebraMap
    witness: int
    norm: str
    method: str
    details: dict


# ---------------------------------------------------------------------------
# Finite codomains: exhaustive enumeration.
# ---------------------------------------------------------------------------


_ZERO_ONE = {"scalar": (0, 1), "t2": (T2Element(0, 0), T2Element(1, 0))}  # a codomain's 0, 1


def _row_map(codomain: str, row) -> AlgebraMap:
    """The 0/1 map in ``codomain`` that a row of ``S._mult_rows`` names."""
    return AlgebraMap(codomain, tuple(map(_ZERO_ONE[codomain].__getitem__, row)))


def enumerate_mult_scalar(S) -> list[AlgebraMap]:
    """All multiplicative scalar maps: the zero map and one per filter."""
    return [_row_map("scalar", row) for row in S._mult_rows.tolist()]


def enumerate_mult_t2(S) -> list[AlgebraMap]:
    """All multiplicative upper-triangular maps.

    The off-diagonal part of a multiplicative map vanishes (evaluate at an
    idempotent argument: b = 2ab forces b = 0 for a in {0,1}), so the list
    is exactly the scalar one embedded on the diagonal.
    """
    return [_row_map("t2", row) for row in S._mult_rows.tolist()]


def _exhaustive_nearest(WS, theta) -> tuple[NearestReport, int]:
    """The 0/1 map nearest ``theta`` (the first on ties) and its row of ``S._mult_rows``.

    The codomain's 0 and 1 are costed against every element in one call of
    :func:`defects._element_ratios`: exact squared costs from ``theta``'s
    integer stack and the weight's integers when both are exact, float costs
    otherwise.  The ``2n`` costs are ranked as integers on both paths; row
    ``k`` reads, at element ``e``, the rank of the value it takes there, the
    row whose largest rank is least wins, and only its map is built.
    """
    norm = default_norm(theta.codomain)
    rows = WS.S._mult_rows
    constant = [AlgebraMap(theta.codomain, (c,) * WS.n) for c in _ZERO_ONE[theta.codomain]]
    costs = _element_ratios(WS, theta, constant, norm)  # costs[v][e]: value v at element e
    exact_costs = isinstance(costs, list)  # exact squared costs, not floats
    flat = list(chain.from_iterable(costs)) if exact_costs else costs.ravel().tolist()
    # an exact cost is keyed by its (numerator, denominator): a Fraction's own
    # hash takes a modular inverse
    keys = [(q.numerator, q.denominator) for q in flat] if exact_costs else flat
    first = dict(zip(reversed(keys), reversed(flat)))  # each distinct cost, first seen
    levels = sorted(first, key=first.__getitem__)
    rank = {k: i for i, k in enumerate(levels)}
    ranks = np.array(list(map(rank.__getitem__, keys))).reshape(2, WS.n)
    scan = np.where(rows, ranks[1], ranks[0])  # scan[k, e]: the rank of row k's cost at e
    best = int(np.argmin(scan.max(axis=1)))
    top = int(scan[best].max())
    value, exact = _root(first[levels[top]]) if exact_costs else (first[levels[top]], False)
    return NearestReport(
        codomain=theta.codomain,
        value=_float(value),
        value_exact=value if exact else None,
        best_map=_row_map(theta.codomain, rows[best].tolist()),
        witness=int(np.argmax(scan[best] == top)),
        norm=norm,
        method="exhaustive",
        details={"maps_scanned": len(rows)},
    ), best


def nearest_mult_scalar(ws_or_s, theta: AlgebraMap) -> NearestReport:
    """Exact nearest multiplicative scalar map, by exhaustive scan."""
    return _exhaustive_nearest(_carrier(ws_or_s, "scalar", theta), theta)[0]


def nearest_mult_t2(ws_or_s, theta: AlgebraMap) -> NearestReport:
    """Exact nearest multiplicative upper-triangular map, by exhaustive scan."""
    return _exhaustive_nearest(_carrier(ws_or_s, "t2", theta), theta)[0]


# ---------------------------------------------------------------------------
# The 2x2-matrix family.
# ---------------------------------------------------------------------------


def m2_family_map(S, F1: Filter | None, F2: Filter | None, P: Mat2) -> AlgebraMap:
    """The multiplicative map ``chi_F1 * P + chi_F2 * (I - P)``.

    ``P`` must be idempotent.  Element ``e`` takes the value that its label
    ``[e in F1] + 2 [e in F2]`` names in ``(0, P, I - P, I)``.
    """
    if not is_idempotent_within(P, 1e-9):
        raise ValueError("P must be idempotent")
    zero_el = P.a * 0
    one_el = zero_el + 1
    ident = Mat2(one_el, zero_el, zero_el, one_el)
    values = (Mat2(zero_el, zero_el, zero_el, zero_el), P, ident - P, ident)
    m1 = F1.members if F1 is not None else frozenset()
    m2 = F2.members if F2 is not None else frozenset()
    return m2_map([values[(e in m1) + 2 * (e in m2)] for e in range(S.n)])


def enumerate_mult_m2_with(S, P: Mat2) -> list[AlgebraMap]:
    """All family maps over (F1, F2) cells for a fixed idempotent ``P``.

    Deduplicated by value, first seen first; for ``P`` not in {0, I} and
    ``P != I - P`` this is the complete list of multiplicative maps taking
    values in ``{0, P, I - P, I}``.
    """
    maps: dict = {}
    for i1, i2 in product(range(S.n + 1), repeat=2):
        m = m2_family_map(S, _row_filter(S, i1), _row_filter(S, i2), P)
        maps.setdefault(m.values, m)
    return list(maps.values())


def _params_from_idempotent(P: Mat2):
    """Back-solve (alpha, phi1, beta, phi2) with P = v u* / (u* v).

    Returns None for matrices that are not cleanly rank one (trace far from
    1 or negligible entries), or whose squares or norms overflow, which the
    caller treats as unseedable.
    """
    entries = [complex(x) for x in P]
    a, b, c, d = entries
    if abs(a + d - 1.0) > 1e-6:
        return None
    try:
        col = (a, c) if abs(a) ** 2 + abs(c) ** 2 >= abs(b) ** 2 + abs(d) ** 2 else (b, d)
        row = (a, b) if abs(a) ** 2 + abs(b) ** 2 >= abs(c) ** 2 + abs(d) ** 2 else (c, d)
    except OverflowError:
        return None
    v = col
    u = (row[0].conjugate(), row[1].conjugate())

    def angles(w):
        nw = math.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2)  # inf where the sum overflows
        if not 1e-12 <= nw < math.inf:
            return None
        w0, w1 = w[0] / nw, w[1] / nw
        anchor = w0 if abs(w0) >= abs(w1) else w1
        phase = anchor / abs(anchor)
        w0, w1 = w0 / phase, w1 / phase
        alpha = math.atan2(abs(w1), w0.real)
        phi = math.atan2(w1.imag, w1.real) if abs(w1) > 1e-12 else 0.0
        return alpha, phi

    au = angles(u)
    av = angles(v)
    if au is None or av is None:
        return None
    return au[0], au[1], av[0], av[1]


def _idempotent_from_params(x) -> Mat2 | None:
    alpha, phi1, beta, phi2 = x
    u = (math.cos(alpha), math.sin(alpha) * complex(math.cos(phi1), math.sin(phi1)))
    v = (math.cos(beta), math.sin(beta) * complex(math.cos(phi2), math.sin(phi2)))
    pairing = u[0] * v[0] + u[1].conjugate() * v[1]
    if abs(pairing) < 1e-3:
        return None
    return _rank_one(v, (u[0], u[1].conjugate()), pairing)


# The simplex polish: the non-adaptive Nelder-Mead method (Nelder and Mead,
# Comput. J. 7, 1965; Lagarias et al., SIAM J. Optim. 9, 1998), with at most
# 400 iterations and the stopping tolerances below.
_MAXITER = 400
_XATOL = 1e-9
_FATOL = 1e-12


def _ordered(sim, fsim):
    # np.argsort, not sorted(): equal values keep the reference's tie order
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def minimize(fun, x0) -> list[float]:
    """Nelder-Mead descent of ``fun`` from ``x0``; returns the best vertex.

    A port of the widely used reference implementation with the options
    above: the same initial simplex (each coordinate times 1.05, or 0.00025
    where it is zero), the same float expressions in the same order
    (rho = 1, chi = 2, psi = sigma = 1/2), the same vertex order, so the same
    calls of ``fun`` and the same bits in the result.  ``tests/test_oracle.py``
    compares the two where the reference is installed.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]
    sim, fsim = _ordered(*_ordered(sim, fsim))  # the reference sorts twice here
    for _ in range(_MAXITER - 1):  # the initial simplex counts as iteration 1
        best = sim[0]
        if all(abs(x - b) <= _XATOL for v in sim[1:] for x, b in zip(v, best)) and all(
            abs(fsim[0] - f) <= _FATOL for f in fsim[1:]
        ):
            break
        last = sim[-1]
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        xr = [2 * c - x for c, x in zip(xbar, last)]
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = [3 * c - 2 * x for c, x in zip(xbar, last)]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * c - 0.5 * x for c, x in zip(xbar, last)]
                fxc = fun(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * c + 0.5 * x for c, x in zip(xbar, last)]
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
        sim, fsim = _ordered(sim, fsim)
    return sim[0]


def _bound(theta_c, om, op: bool):
    """``bound(a, b)``, the per-cell bound's terms over the 2n points ``c``:
    ``theta(e)`` (label 1), then ``I - theta(e)`` (label 2).  Off the diagonal
    ``||c_a - c_b|| / (omega_a + omega_b)``, on it ``|tr c_a - 1| / (kappa omega_a)``."""
    points, w2 = [*theta_c, *(M2_ID - t for t in theta_c)], om + om
    kappa = 2.0 if op else _SQRT2

    @cache
    def bound(a: int, b: int) -> float:
        if a == b:
            tr = points[a][0] + points[a][3] - 1.0
            return math.hypot(tr.real, tr.imag) / (kappa * w2[a])
        return _complex_norm(*map(sub, points[a], points[b]), op) / (w2[a] + w2[b])

    return bound


def _deflate(x: float, slack: float) -> float:
    """A float-computed lower bound made safe to compare with float costs.

    Their differences are of numbers of modulus at most ``slack / 1e-12``: 1,
    the entries of ``theta`` and those of a chart idempotent, at most 1e3 as
    ``|u| = |v| = 1`` and ``|u* v| >= 1e-3``.  A difference and its norm err by
    under ``8 * 2**-53`` of that, weights are at least 1, and ``tr P`` is 1 to
    about ``1e3 * 2**-50``.  The relative 1e-6 covers the norms' rounding, up
    to about 2e-8 where the op norm's discriminant cancels.  Past ``2**250``,
    where the norms rescale, no bound is claimed: ``slack`` is inf and the
    bound 0.0 (0.0 comes first, so ``max`` also gives it for ``inf - inf``)."""
    return max(0.0, x * (1.0 - 1e-6) - slack)


def _cannot_win(const: float, term: float, slack: float, best: float) -> bool:
    """Whether no ``P`` brings a cell's cost below ``best``: the float cost starts
    at ``const``, and is at least the :func:`_bound` term up to rounding."""
    return max(const, _deflate(term, slack)) >= best


def _cell_objective(theta_c, om, p_only, q_only, const, op: bool):
    """The cost of ``P`` in one (F1, F2) cell: the largest of ``const`` and
    ``||theta(e) - P|| / omega(e)`` over ``p_only``, ``||theta(e) - (I - P)||
    / omega(e)`` over ``q_only``.  ``theta_c`` holds the values with
    ``complex`` entries; the differences and norms are those of ``Mat2``
    arithmetic with :func:`hs_norm` or :func:`op_norm`, bit for bit."""
    p_terms = [(*theta_c[e], om[e]) for e in p_only]
    q_terms = [(*theta_c[e], om[e]) for e in q_only]

    def cost(P) -> float:
        pa, pb, pc, pd = P
        qa, qb, qc, qd = 1 - pa, 0 - pb, 0 - pc, 1 - pd  # M2_ID - P
        val = const
        for a, b, c, d, w in p_terms:
            r = _complex_norm(a - pa, b - pb, c - pc, d - pd, op) / w
            if r > val:  # max(val, r)
                val = r
        for a, b, c, d, w in q_terms:
            r = _complex_norm(a - qa, b - qb, c - qc, d - qd, op) / w
            if r > val:
                val = r
        return val

    return cost


def nearest_mult_m2(
    ws_or_s,
    theta: AlgebraMap,
    *,
    norm: str = "hs",
    starts: int = 8,
    seed: int = 0,
    polish: bool = True,
) -> NearestReport:
    """Search the multiplicative 2x2 family for the map nearest ``theta``.

    Deterministic for fixed ``seed``.  ``starts`` extra random idempotents
    are tried in every cell that survives pruning; the three most promising
    cells get a simplex descent over the rank-one parametrization.  Raises
    ``ValueError`` on a negative ``starts``, on an entry that is not finite as a
    float, and when every family map is at infinite distance.
    """
    WS = _carrier(ws_or_s, "m2", theta)
    S = WS.S
    norm = _check_norm("m2", norm)
    op = norm == "op"
    if starts < 0:
        raise ValueError(f"starts must be non-negative, got {starts!r}")
    theta_c = []
    for e, v in enumerate(theta.values):
        try:
            m = Mat2(*map(complex, v))
        except OverflowError:  # an exact entry past the float range
            m = (math.inf,)
        if not all(map(cmath.isfinite, m)):
            raise ValueError(f"theta({e}) has a non-finite entry: {v!r}")
        theta_c.append(m)
    big = max(max(abs(x.real), abs(x.imag)) for v in theta_c for x in v)  # |x| <= 2 big
    slack = 1e-12 * (1001.0 + 2.0 * big) if big < 2.0**250 else math.inf  # see _deflate
    om = [float(x) for x in WS.omega_float]
    rng = np.random.default_rng(seed)
    rows = S._mult_rows  # cell (i1, i2): F1 and F2 are rows i1 and i2
    k = len(rows)

    norm_to_id = [_complex_norm(a - 1, b, c, d - 1, op) / w for (a, b, c, d), w in zip(theta_c, om)]
    norm_to_zero = [_complex_norm(*t, op) / w for t, w in zip(theta_c, om)]
    # const[i1][i2]: the P-independent part of cell (i1, i2)'s cost, the largest
    # norm over its elements labelled 3 (to I) and 0 (to 0)
    both = rows[:, None, :] & rows[None, :, :]
    neither = ~(rows[:, None, :] | rows[None, :, :])
    terms = np.where(both, norm_to_id, np.where(neither, norm_to_zero, 0.0))
    const = terms.max(axis=2, initial=0.0).tolist()

    # the P-independent maps chi_F * I (including the zero map) first: the diagonal
    evaluations = k
    diagonal = [const[i][i] for i in range(k)]
    lower = best_val = min(diagonal)  # the first least, as no cost is NaN
    i = diagonal.index(lower)
    best_cell = (i, i, None) if lower < math.inf else None  # (i1, i2, P or None)

    seed_of = cache(lambda e: nearest_binary_idempotent(theta_c[e])[0])
    bound = _bound(theta_c, om, op)
    pruned = 0
    survivors = []  # (cell_val, i1, i2, P, cost, const, bound term)
    for i1, i2 in product(range(k), repeat=2):
        if i1 == i2:
            continue
        if const[i1][i2] >= best_val:
            pruned += 1
            lower = min(lower, const[i1][i2])
            continue
        p_only = np.flatnonzero(rows[i1] > rows[i2]).tolist()
        q_only = np.flatnonzero(rows[i2] > rows[i1]).tolist()
        idx = p_only + [S.n + e for e in q_only]
        term = max(bound(a, b) for i, a in enumerate(idx) for b in idx[i:])
        lower = min(lower, max(const[i1][i2], term))
        cost = _cell_objective(theta_c, om, p_only, q_only, const[i1][i2], op)
        candidates = [seed_of(e) for e in p_only] + [M2_ID - seed_of(e) for e in q_only]
        for _ in range(starts):
            P = _idempotent_from_params(rng.uniform(0.0, 2.0 * math.pi, size=4).tolist())
            if P is not None:
                candidates.append(P)
        vals = [cost(P) for P in candidates]  # never NaN: each starts at const
        evaluations += len(vals)
        val = min(vals)
        P = candidates[vals.index(val)]  # the first of the least
        survivors.append((val, i1, i2, P, cost, const[i1][i2], term))
        if val < best_val:
            best_val, best_cell = val, (i1, i2, P)

    polish_improved = False
    skipped = 0
    if polish:
        survivors.sort(key=itemgetter(0))  # stable: the first of equal cells first
        for val, i1, i2, P, cost, c, term in survivors[:_POLISH_TOP]:
            if _cannot_win(c, term, slack, best_val):
                skipped += 1
                continue
            x0 = _params_from_idempotent(P)
            if x0 is None:
                continue

            def objective(x):
                nonlocal evaluations
                evaluations += 1
                cand = _idempotent_from_params(x)
                if cand is None:
                    return 1e6
                return cost(cand)

            cand = _idempotent_from_params(minimize(objective, x0))
            if cand is None:
                continue
            val = cost(cand)
            if val < best_val:
                best_val, best_cell = val, (i1, i2, cand)
                polish_improved = True

    if best_cell is None:
        raise ValueError("every multiplicative map is at infinite distance: the norms overflow")
    i1, i2, P = best_cell
    F1, F2 = _row_filter(S, i1), _row_filter(S, i2)
    best_map = m2_family_map(S, F1, F2, P if P is not None else M2_ID)
    dr = weighted_sup_distance_report(WS, theta, best_map, norm)
    return NearestReport(
        codomain="m2",
        value=dr.value_float,
        value_exact=dr.value if dr.exact_value else None,
        best_map=best_map,
        witness=dr.witness,
        norm=norm,
        method="cell-scan",
        details={
            "F1": F1.principal if F1 is not None else None,
            "F2": F2.principal if F2 is not None else None,
            "P": None if P is None else [[P.a, P.b], [P.c, P.d]],
            "cells": k**2,
            "pruned": pruned,
            "evaluations": evaluations,
            "polish_skipped": skipped,
            "polish_improved": polish_improved,
            "internal_value": best_val,
            "lower": _deflate(lower, slack),
        },
    )
