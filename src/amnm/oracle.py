"""Independent nearest-multiplicative-map search.

For scalar and upper-triangular codomains the multiplicative maps form a
finite, explicitly enumerable set (the zero map plus one map per filter),
so the nearest one is found exhaustively — exactly, when the inputs are
rational.  The scan costs every candidate value in one call of the defects
module's per-element kernel, which decides between exact and float costs,
and ranks the float costs as it ranks the exact ones.  For the 2x2-matrix
codomain the multiplicative maps form the finite-dimensional family

    phi = chi_F1 * P + chi_F2 * (I - P)

over pairs of empty-or-filter index sets and idempotents ``P``.  Element
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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, product
from operator import add, itemgetter, sub

import numpy as np

from .defects import (
    AlgebraMap,
    _check_norm,
    _element_ratios,
    _float,
    _resolve,
    _root,
    defect,
    m2_map,
    t2_map,
    weighted_sup_distance_report,
)
from .errors import ClassificationFailure, ParseError
from .filters import Filter, characters, enumerate_filters, zero_map
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


def _mult_scalar_maps(S) -> list[AlgebraMap]:
    """The zero map and one indicator per filter, without the defect check."""
    return [zero_map(S), *characters(S)]


def _diagonal_t2(maps) -> list[AlgebraMap]:
    # the values are the ints 0 and 1; each gets one shared T2 element
    embed = {v: T2Element(v, v * 0) for m in maps for v in set(m.values)}
    return [AlgebraMap("t2", tuple(map(embed.__getitem__, m.values))) for m in maps]


def _checked(S, maps: list[AlgebraMap], what: str) -> list[AlgebraMap]:
    for m in maps:
        if defect(S, m).defect_float != 0.0:
            raise ClassificationFailure(f"enumerated {what} map is not multiplicative")
    return maps


def enumerate_mult_scalar(S) -> list[AlgebraMap]:
    """All multiplicative scalar maps: the zero map and one per filter."""
    return _checked(S, _mult_scalar_maps(S), "scalar")


def enumerate_mult_t2(S) -> list[AlgebraMap]:
    """All multiplicative upper-triangular maps.

    The off-diagonal part of a multiplicative map vanishes (evaluate at an
    idempotent argument: b = 2ab forces b = 0 for a in {0,1}), so the list
    is exactly the scalar one embedded on the diagonal.  A diagonal map is
    multiplicative iff its scalar map is, so only the T2 maps are checked.
    """
    return _checked(S, _diagonal_t2(_mult_scalar_maps(S)), "T2")


def _exhaustive_nearest(WS, theta, maps, norm=None) -> NearestReport:
    """The map of ``maps`` nearest ``theta``; the first one on ties.

    Every distinct candidate value is costed against every element in one
    call of :func:`defects._element_ratios`, on one stack of ``theta`` and
    the constant maps: exact squared costs from ``theta``'s integer stack and
    the weight's integers, made once per map and weight, when both are exact
    (the candidates are 0/1 maps), float costs otherwise.  The maps are then
    compared by the integer ranks of the sorted costs, on both paths.
    """
    if theta.n != WS.n:
        raise ParseError("map length does not match the semilattice")
    norm = _check_norm(theta.codomain, norm)
    index = defaultdict()
    index.default_factory = index.__len__  # a new value gets the next id
    values = chain.from_iterable(m.values for m in maps)
    ids = np.fromiter(map(index.__getitem__, values), np.intp).reshape(len(maps), WS.n)
    constant = [AlgebraMap(theta.codomain, (c,) * WS.n) for c in index]
    costs = _element_ratios(WS, theta, constant, norm)  # costs[v][e]: value v at element e
    exact_costs = isinstance(costs, list)  # exact squared costs, not floats
    flat = list(chain.from_iterable(costs)) if exact_costs else costs.ravel().tolist()
    # an exact cost is keyed by its (numerator, denominator): a Fraction's own
    # hash takes a modular inverse
    keys = [(q.numerator, q.denominator) for q in flat] if exact_costs else flat
    first = dict(zip(reversed(keys), reversed(flat)))  # each distinct cost, first seen
    levels = sorted(first, key=first.__getitem__)
    rank = {k: i for i, k in enumerate(levels)}
    # scan[k, e] is the rank of map k's cost at element e
    ranks = np.array(list(map(rank.__getitem__, keys))).reshape(len(costs), WS.n)
    scan = ranks[ids, np.arange(WS.n)]
    best = int(np.argmin(scan.max(axis=1)))
    top = int(scan[best].max())
    value, exact = _root(first[levels[top]]) if exact_costs else (first[levels[top]], False)
    return NearestReport(
        codomain=theta.codomain,
        value=_float(value),
        value_exact=value if exact else None,
        best_map=maps[best],
        witness=int(np.argmax(scan[best] == top)),
        norm=norm,
        method="exhaustive",
        details={"maps_scanned": len(maps)},
    )


def nearest_mult_scalar(ws_or_s, theta: AlgebraMap) -> NearestReport:
    """Exact nearest multiplicative scalar map, by exhaustive scan."""
    WS = _resolve(ws_or_s)
    if theta.codomain != "scalar":
        raise ValueError("nearest_mult_scalar expects a scalar map")
    return _exhaustive_nearest(WS, theta, enumerate_mult_scalar(WS.S))


def nearest_mult_t2(ws_or_s, theta: AlgebraMap) -> NearestReport:
    """Exact nearest multiplicative upper-triangular map, by exhaustive scan."""
    WS = _resolve(ws_or_s)
    if theta.codomain != "t2":
        raise ValueError("nearest_mult_t2 expects an upper-triangular map")
    return _exhaustive_nearest(WS, theta, enumerate_mult_t2(WS.S))


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
    options: list[Filter | None] = [None, *enumerate_filters(S)]
    maps: dict = {}
    for F1, F2 in product(options, repeat=2):
        m = m2_family_map(S, F1, F2, P)
        maps.setdefault(m.values, m)
    return list(maps.values())


def _params_from_idempotent(P: Mat2):
    """Back-solve (alpha, phi1, beta, phi2) with P = v u* / (u* v).

    Returns None for matrices that are not cleanly rank one (trace far from
    1 or negligible entries), which the caller treats as unseedable.
    """
    entries = [complex(x) for x in P]
    a, b, c, d = entries
    if abs(a + d - 1.0) > 1e-6:
        return None
    col = (a, c) if abs(a) ** 2 + abs(c) ** 2 >= abs(b) ** 2 + abs(d) ** 2 else (b, d)
    row = (a, b) if abs(a) ** 2 + abs(b) ** 2 >= abs(c) ** 2 + abs(d) ** 2 else (c, d)
    v = col
    u = (row[0].conjugate(), row[1].conjugate())

    def angles(w):
        nw = math.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2)
        if nw < 1e-12:
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
    ``ValueError`` when every family map is at infinite distance.
    """
    WS = _resolve(ws_or_s)
    S = WS.S
    if theta.codomain != "m2":
        raise ValueError("nearest_mult_m2 expects a 2x2-matrix-valued map")
    if norm not in ("hs", "op"):
        raise ValueError(f"norm must be 'hs' or 'op', got {norm!r}")
    op = norm == "op"
    theta_c = [Mat2(*(complex(x) for x in v)) for v in theta.values]
    for e, v in enumerate(theta_c):
        if not all(map(cmath.isfinite, v)):
            raise ValueError(f"theta({e}) has a non-finite entry: {theta.values[e]!r}")
    big = max(max(abs(x.real), abs(x.imag)) for v in theta_c for x in v)  # |x| <= 2 big
    slack = 1e-12 * (1001.0 + 2.0 * big) if big < 2.0**250 else math.inf  # see _deflate
    om = [float(x) for x in WS.omega_float]
    rng = np.random.default_rng(seed)
    options: list[Filter | None] = [None, *enumerate_filters(S)]
    rows = np.vstack([np.zeros(S.n, dtype=bool), S.leq])  # row i: option i's members

    norm_to_id = [_complex_norm(a - 1, b, c, d - 1, op) / w for (a, b, c, d), w in zip(theta_c, om)]
    norm_to_zero = [_complex_norm(*t, op) / w for t, w in zip(theta_c, om)]
    # const[i1][i2]: the P-independent part of cell (i1, i2)'s cost, the largest
    # norm over its elements labelled 3 (to I) and 0 (to 0)
    both = rows[:, None, :] & rows[None, :, :]
    neither = ~(rows[:, None, :] | rows[None, :, :])
    terms = np.where(both, norm_to_id, np.where(neither, norm_to_zero, 0.0))
    const = terms.max(axis=2, initial=0.0).tolist()

    # the P-independent maps chi_F * I (including the zero map) first: the diagonal
    evaluations = len(options)
    best_val = math.inf
    best_cell = None  # (F1, F2, P or None)
    for i, opt in enumerate(options):
        if const[i][i] < best_val:
            best_val, best_cell = const[i][i], (opt, opt, None)
    lower = min(const[i][i] for i in range(len(options)))

    seed_of = cache(lambda e: nearest_binary_idempotent(theta_c[e])[0])
    bound = _bound(theta_c, om, op)
    pruned = 0
    survivors = []  # (cell_val, F1, F2, P, cost, const, bound term)
    for i1, F1 in enumerate(options):
        for i2, F2 in enumerate(options):
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
            survivors.append((val, F1, F2, P, cost, const[i1][i2], term))
            if val < best_val:
                best_val, best_cell = val, (F1, F2, P)

    polish_improved = False
    skipped = 0
    if polish:
        survivors.sort(key=itemgetter(0))  # stable: the first of equal cells first
        for val, F1, F2, P, cost, c, term in survivors[:_POLISH_TOP]:
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
                best_val, best_cell = val, (F1, F2, cand)
                polish_improved = True

    if best_cell is None:
        raise ValueError("every multiplicative map is at infinite distance: the norms overflow")
    F1, F2, P = best_cell
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
            "cells": len(options) ** 2,
            "pruned": pruned,
            "evaluations": evaluations,
            "polish_skipped": skipped,
            "polish_improved": polish_improved,
            "internal_value": best_val,
            "lower": _deflate(lower, slack),
        },
    )
