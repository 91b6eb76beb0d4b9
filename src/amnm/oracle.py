"""Independent nearest-multiplicative-map search.

For scalar and upper-triangular codomains the multiplicative maps form a
finite, explicitly enumerable set (the zero map plus one map per filter),
so the nearest one is found exhaustively — exactly, when the inputs are
rational.  For the 2x2-matrix codomain the multiplicative maps form the
finite-dimensional family

    phi = chi_F1 * P + chi_F2 * (I - P)

over pairs of empty-or-filter index sets and idempotents ``P``; the search
scans every (F1, F2) cell, prunes by the P-independent part of the cost,
seeds each surviving cell with idempotents read off from the map's own
values, and polishes the leaders with a derivative-free simplex descent
over a rank-one parametrization.  The result is an upper bound on the true
distance that is certified to be attained by an exactly multiplicative map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from .defects import (
    AlgebraMap,
    _can_run_exact,
    _check_norm,
    _exact_sqrt,
    _norm_sq_exact,
    _resolve,
    defect,
    m2_map,
    t2_map,
    weighted_sup_distance_report,
)
from .errors import ClassificationFailure, ParseError
from .filters import Filter, enumerate_filters, filter_indicator
from .mat2 import (
    M2_ID,
    Mat2,
    T2Element,
    _rank_one,
    hs_norm,
    is_idempotent_within,
    nearest_binary_idempotent,
    op_norm,
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
    is recomputed independently) for ``method == "cell-scan"``.
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
    return [filter_indicator(S, f) for f in (None, *enumerate_filters(S))]


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
    """The map of ``maps`` nearest ``theta``; the first one on ties.  The exact
    path costs each distinct (element, value) once in ``Fraction`` and then
    compares the maps by the integer ranks of the sorted costs."""
    if not _can_run_exact(WS, theta, *maps):
        reports = [weighted_sup_distance_report(WS, theta, m, norm) for m in maps]
        dr, m = min(zip(reports, maps), key=lambda rec: rec[0].value_float)
        value, witness, norm = dr.value_float, dr.witness, dr.norm
        exact = dr.value if dr.exact_value else None
    else:
        if theta.n != WS.n:
            raise ParseError("map length does not match the semilattice")
        norm = _check_norm(theta.codomain, norm)
        costs = [  # per element: candidate value -> exact squared weighted cost
            {c: _norm_sq_exact(v - c, theta.codomain, norm) / Fraction(w) ** 2 for c in set(cs)}
            for v, w, cs in zip(theta.values, WS.omega, zip(*(m.values for m in maps)))
        ]
        levels = sorted({Fraction(0)}.union(*(per.values() for per in costs)))
        rank = {q: i for i, q in enumerate(levels)}
        ranks = [{c: rank[q] for c, q in per.items()} for per in costs]
        scans = ([per[c] for per, c in zip(ranks, m.values)] for m in maps)
        top, r, m = min(((max(r), r, m) for r, m in zip(scans, maps)), key=lambda rec: rec[0])
        witness, exact = r.index(top), _exact_sqrt(levels[top])
        value = float(exact) if exact is not None else math.sqrt(float(levels[top]))
    return NearestReport(
        codomain=theta.codomain,
        value=value,
        value_exact=exact,
        best_map=m,
        witness=witness,
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

    ``P`` must be idempotent; elements in both filters get the identity,
    elements in neither get zero.
    """
    if not is_idempotent_within(P, 1e-9):
        raise ValueError("P must be idempotent")
    zero_el = P.a * 0
    one_el = zero_el + 1
    Z = Mat2(zero_el, zero_el, zero_el, zero_el)
    ident = Mat2(one_el, zero_el, zero_el, one_el)
    comp = ident - P
    m1 = F1.members if F1 is not None else frozenset()
    m2 = F2.members if F2 is not None else frozenset()
    vals = []
    for e in range(S.n):
        if e in m1 and e in m2:
            vals.append(ident)
        elif e in m1:
            vals.append(P)
        elif e in m2:
            vals.append(comp)
        else:
            vals.append(Z)
    return m2_map(vals)


def enumerate_mult_m2_with(S, P: Mat2) -> list[AlgebraMap]:
    """All family maps over (F1, F2) cells for a fixed idempotent ``P``.

    Deduplicated by value; for ``P`` not in {0, I} and ``P != I - P`` this
    is the complete list of multiplicative maps taking values in
    ``{0, P, I - P, I}``.
    """
    options: list[Filter | None] = [None] + list(enumerate_filters(S))
    seen = set()
    out = []
    for F1 in options:
        for F2 in options:
            m = m2_family_map(S, F1, F2, P)
            if m.values not in seen:
                seen.add(m.values)
                out.append(m)
    return out


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
    return np.array([au[0], au[1], av[0], av[1]])


def _idempotent_from_params(x) -> Mat2 | None:
    alpha, phi1, beta, phi2 = (float(t) for t in x)
    u = (math.cos(alpha), math.sin(alpha) * complex(math.cos(phi1), math.sin(phi1)))
    v = (math.cos(beta), math.sin(beta) * complex(math.cos(phi2), math.sin(phi2)))
    pairing = u[0] * v[0] + u[1].conjugate() * v[1]
    if abs(pairing) < 1e-3:
        return None
    return _rank_one(v, (u[0], u[1].conjugate()), pairing)


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
    cells get a simplex descent over the rank-one parametrization.
    """
    WS = _resolve(ws_or_s)
    S = WS.S
    if theta.codomain != "m2":
        raise ValueError("nearest_mult_m2 expects a 2x2-matrix-valued map")
    if norm not in ("hs", "op"):
        raise ValueError(f"norm must be 'hs' or 'op', got {norm!r}")
    normf = hs_norm if norm == "hs" else op_norm
    theta_c = [Mat2(*(complex(x) for x in v)) for v in theta.values]
    om = [float(x) for x in WS.omega_float]
    n = S.n
    rng = np.random.default_rng(seed)
    options: list[Filter | None] = [None] + list(enumerate_filters(S))

    norm_to_id = [normf(theta_c[e] - M2_ID) / om[e] for e in range(n)]
    norm_to_zero = [normf(theta_c[e]) / om[e] for e in range(n)]

    evaluations = 0
    best_val = math.inf
    best_cell = None  # (F1, F2, P or None)

    # P-independent cells first: phi = chi_F * I (including the zero map).
    for opt in options:
        members = opt.members if opt is not None else frozenset()
        cost = 0.0
        for e in range(n):
            cost = max(cost, norm_to_id[e] if e in members else norm_to_zero[e])
        evaluations += 1
        if cost < best_val:
            best_val, best_cell = cost, (opt, opt, None)

    def cell_objective(p_only, q_only, const, P):
        val = const
        comp = M2_ID - P
        for e in p_only:
            val = max(val, normf(theta_c[e] - P) / om[e])
        for e in q_only:
            val = max(val, normf(theta_c[e] - comp) / om[e])
        return val

    pruned = 0
    survivors = []  # (cell_val, counter, F1, F2, P, p_only, q_only, const)
    counter = 0
    for i1, F1 in enumerate(options):
        m1 = F1.members if F1 is not None else frozenset()
        for i2, F2 in enumerate(options):
            if i1 == i2:
                continue
            m2 = F2.members if F2 is not None else frozenset()
            const = 0.0
            for e in range(n):
                if e in m1 and e in m2:
                    const = max(const, norm_to_id[e])
                elif e not in m1 and e not in m2:
                    const = max(const, norm_to_zero[e])
            if const >= best_val:
                pruned += 1
                continue
            p_only = sorted(m1 - m2)
            q_only = sorted(m2 - m1)
            candidates = []
            for e in p_only:
                candidates.append(nearest_binary_idempotent(theta_c[e])[0])
            for e in q_only:
                candidates.append(M2_ID - nearest_binary_idempotent(theta_c[e])[0])
            for _ in range(starts):
                P = _idempotent_from_params(rng.uniform(0.0, 2.0 * math.pi, size=4))
                if P is not None:
                    candidates.append(P)
            cell_best = None
            for P in candidates:
                val = cell_objective(p_only, q_only, const, P)
                evaluations += 1
                if cell_best is None or val < cell_best[0]:
                    cell_best = (val, P)
            if cell_best is None:
                continue
            counter += 1
            survivors.append(
                (cell_best[0], counter, F1, F2, cell_best[1], p_only, q_only, const)
            )
            if cell_best[0] < best_val:
                best_val = cell_best[0]
                best_cell = (F1, F2, cell_best[1])

    polish_improved = False
    if polish and survivors:
        survivors.sort(key=lambda rec: (rec[0], rec[1]))
        for val, _, F1, F2, P, p_only, q_only, const in survivors[:_POLISH_TOP]:
            x0 = _params_from_idempotent(P)
            if x0 is None:
                continue

            def objective(x):
                nonlocal evaluations
                evaluations += 1
                cand = _idempotent_from_params(x)
                if cand is None:
                    return 1e6
                return cell_objective(p_only, q_only, const, cand)

            res = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": 400, "xatol": 1e-9, "fatol": 1e-12},
            )
            cand = _idempotent_from_params(res.x)
            if cand is None:
                continue
            val = cell_objective(p_only, q_only, const, cand)
            if val < best_val:
                best_val, best_cell = val, (F1, F2, cand)
                polish_improved = True

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
            "polish_improved": polish_improved,
            "internal_value": best_val,
        },
    )
