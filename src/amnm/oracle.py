"""Independent nearest-multiplicative-map search.

For scalar and upper-triangular codomains the multiplicative maps are the
0/1 maps that the rows of one boolean table name (``S._mult_rows``, proved
once per semilattice: row 0 the zero map, row ``m + 1`` the up-set of ``m``),
so the nearest one is found exhaustively — exactly, when the inputs are rational.
The scan costs the codomain's 0 and 1 at every element in one call of the
defects module's per-element kernel, which decides between exact and float
costs and keys them (integers on the exact path), and reads each row's largest
key off those two.  For the 2x2-matrix codomain
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
The descent is this module's own Nelder-Mead (:func:`minimize`, over the four
real parameters of an affine chart of the rank-one idempotents, with no
trigonometry, returning the best point and its count of calls), run on one
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

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import inf, sqrt
from operator import itemgetter, le, sub

import numpy as np

from .defects import (
    _UNITS,
    _UNSCALED_RANGE,
    _ZERO_ID,
    AlgebraMap,
    _carrier,
    _check_norm,
    _element_ratios,
    _largest_part,
    _norms,
    _refuse_non_finite,
    _root,
    default_norm,
    m2_map,
    weighted_sup_distance_report,
)
from .filters import Filter, _row_filter
from .mat2 import (
    M2_ID,
    Mat2,
    _DIRECT_MIN,
    _SQRT2,
    _as_complex,
    _complex_norm,
    _op_from_gram,
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


def _row_map(codomain: str, row) -> AlgebraMap:
    """The 0/1 map in ``codomain`` that a row of ``S._mult_rows`` names."""
    return AlgebraMap(codomain, tuple(map(_UNITS[codomain].__getitem__, row)))


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
    :func:`defects._element_ratios`, from ``theta``'s own values: integer keys
    that order the exact squared costs, from ``theta``'s integer stack and the
    weight's integers, when both are exact, else the float costs themselves.
    Row ``k`` reads, at element ``e``, the key of the value it takes there; the
    row whose largest key is least wins, and only its map and its cost, one
    ``Fraction`` on the exact path, are built.
    """
    norm = default_norm(theta.codomain)
    rows = WS.S._mult_rows
    keys, cost = _element_ratios(WS, theta, None, norm)  # keys[v, e]: value v at element e
    scan = np.where(rows, keys[1], keys[0])  # scan[k, e]: row k's key at e
    best = int(np.argmin(scan.max(axis=1)))
    witness = int(np.argmax(scan[best]))  # the first at the row's largest key
    v = int(rows[best, witness])
    value, exact = _root(cost(v, witness)) if cost else (float(keys[v, witness]), False)
    return NearestReport(
        codomain=theta.codomain,
        value=_as_complex(value).real,
        value_exact=value if exact else None,
        best_map=_row_map(theta.codomain, rows[best].tolist()),
        witness=witness,
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
    """``(x, chart)`` with ``P = v u* / (u* v)`` in :func:`_idempotent_from_params`' chart.

    ``v`` is ``P``'s larger column and ``conj(u)`` its larger row, each over its larger
    entry, so ``|z|, |w| <= 1``.  Returns None for matrices whose trace is not near 1
    (no rank-one idempotent) or whose squares overflow, which the caller treats as
    unseedable.
    """
    a, b, c, d = map(complex, P)
    if not abs(a + d - 1.0) <= 1e-6:
        return None
    try:
        col = (a, c) if abs(a) ** 2 + abs(c) ** 2 >= abs(b) ** 2 + abs(d) ** 2 else (b, d)
        row = (a, b) if abs(a) ** 2 + abs(b) ** 2 >= abs(c) ** 2 + abs(d) ** 2 else (c, d)
    except OverflowError:
        return None
    ju, jv = abs(row[1]) > abs(row[0]), abs(col[1]) > abs(col[0])  # the coordinates set to 1
    z, w = (row[1 - ju] / row[ju]).conjugate(), col[1 - jv] / col[jv]
    return [z.real, z.imag, w.real, w.imag], ju + 2 * jv


def _idempotent_from_params(x, chart: int) -> tuple | None:
    """The affine chart's idempotent ``v u* / (u* v)`` at ``x = (Re z, Im z, Re w, Im w)``, as
    entries: ``u = (1, z)``, or ``(z, 1)`` where bit 0 of ``chart`` is set, and ``v = (1, w)``,
    or ``(w, 1)`` where bit 1 is.  None unless ``|u* v|**2 >= 1e-6 |u|**2 |v|**2``, finite."""
    zr, zi, wr, wi = x
    cz, w = complex(zr, -zi), complex(wr, wi)  # conj(z) and w
    cu0, cu1 = (cz, 1.0) if chart & 1 else (1.0, cz)
    v0, v1 = (w, 1.0) if chart & 2 else (1.0, w)
    pairing = cu0 * v0 + cu1 * v1
    cut = 1e-6 * (1.0 + (zr * zr + zi * zi)) * (1.0 + (wr * wr + wi * wi))  # 1e-6 |u|^2 |v|^2
    if not cut <= pairing.real * pairing.real + pairing.imag * pairing.imag < inf:
        return None
    return _rank_one(v0, v1, cu0, cu1, pairing)


# The simplex polish: the non-adaptive Nelder-Mead method (Nelder and Mead,
# Comput. J. 7, 1965; Lagarias et al., SIAM J. Optim. 9, 1998), with at most
# 400 iterations and the stopping tolerances below.
_MAXITER = 400
_XATOL = 1e-9
_FATOL = 1e-12


def _ordered(sim, fsim):
    """``sim`` and ``fsim`` in the stable order of ``fsim`` (ties keep their order, NaN last);
    ``sim`` may be reordered in place."""
    k = bisect_right(fsim, fsim[-1], 0, len(fsim) - 1)  # its place in the rest, after equals
    f = [*fsim[:k], fsim[-1], *fsim[k:-1]]
    if all(map(le, f, f[1:])):  # increasing, with no NaN: the stable order
        sim.insert(k, sim.pop())
        return sim, f
    ind = np.array(fsim).argsort(kind="stable").tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def minimize(fun, x0) -> tuple[list[float], int]:
    """Nelder-Mead descent of ``fun`` over four parameters from ``x0``; returns the best vertex
    and the number of calls of ``fun`` (the reference result's ``nfev``).

    A port of the widely used reference implementation with the options above: the same
    initial simplex (each coordinate times 1.05, or 0.00025 where it is zero), the same float
    expressions in the same order (rho = 1, chi = 2, psi = sigma = 1/2; the centroid's sums run
    left to right), so the same calls of ``fun`` and the same bits in the result wherever vertex
    values do not tie.  Tied vertices keep their order (:func:`_ordered`), where the reference
    takes argsort's default tie order, which moves with numpy's SIMD dispatch.  Tests compare it
    with the reference on tie-free objectives where that is installed, and with a generic port
    everywhere.
    """
    sim = [list(x0)]
    for k in range(4):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]
    nfev = 5
    sim, fsim = _ordered(*_ordered(sim, fsim))  # the reference sorts twice here
    for _ in range(_MAXITER - 1):  # the initial simplex counts as iteration 1
        best = sim[0]
        if fsim[-1] - fsim[0] <= _FATOL and all(  # sorted, a NaN last: the largest |f - f0|
            abs(x - b) <= _XATOL for v in sim[1:] for x, b in zip(v, best)
        ):
            break
        # (a, b, c, d): the centroid of the best four p, q, r, s; (e, f, g, h): the last vertex
        p, q, r, s, (e, f, g, h) = sim
        a, b = (((p[0] + q[0]) + r[0]) + s[0]) / 4, (((p[1] + q[1]) + r[1]) + s[1]) / 4
        c, d = (((p[2] + q[2]) + r[2]) + s[2]) / 4, (((p[3] + q[3]) + r[3]) + s[3]) / 4
        xr = [2 * a - e, 2 * b - f, 2 * c - g, 2 * d - h]
        fxr = fun(xr)
        nfev += 2  # the reflection and one more point, less one where it stops there
        if fxr < fsim[0]:
            xe = [3 * a - 2 * e, 3 * b - 2 * f, 3 * c - 2 * g, 3 * d - 2 * h]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
            nfev -= 1
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * a - 0.5 * e, 1.5 * b - 0.5 * f, 1.5 * c - 0.5 * g, 1.5 * d - 0.5 * h]
                fxc = fun(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * a + 0.5 * e, 0.5 * b + 0.5 * f, 0.5 * c + 0.5 * g, 0.5 * d + 0.5 * h]
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, 5):
                    sim[j] = [b + 0.5 * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
                nfev += 4
        sim, fsim = _ordered(sim, fsim)
    return sim[0], nfev


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
    the entries of ``theta`` and those of a chart idempotent, at most
    ``|u| |v| / |u* v| <= 1e3`` by the chart's cut.  A difference and its norm err by
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
    """The cost of ``P`` in one (F1, F2) cell: the largest of ``const`` and ``||theta(e) - P||
    / omega(e)`` over ``p_only``, ``||theta(e) - (I - P)|| / omega(e)`` over ``q_only``, for
    ``theta_c`` the values with ``complex`` entries and ``P`` a ``Mat2`` or its four entries.
    It is ``Mat2`` arithmetic with :func:`hs_norm` or :func:`op_norm`, bit for bit: one loop runs
    :func:`_complex_norm`'s formula on the parts, and its rule only off ``[_DIRECT_MIN, inf)``."""
    parts = {  # each element's eight real and imaginary parts, then its weight
        e: (*(y for x in theta_c[e] for y in (x.real, x.imag)), om[e]) for e in p_only + q_only
    }
    groups = [([parts[e] for e in es], q) for es, q in ((p_only, False), (q_only, True)) if es]

    def cost(P) -> float:
        val = const
        for terms, q in groups:
            e, f, g, h = (1 - P[0], 0 - P[1], 0 - P[2], 1 - P[3]) if q else P  # I - P on label 2
            er, ei, fr, fi = e.real, e.imag, f.real, f.imag
            gr, gi, hr, hi = g.real, g.imag, h.real, h.imag
            for ar, ai, br, bi, cr, ci, dr, di, w in terms:
                ar, ai = ar - er, ai - ei
                br, bi = br - fr, bi - fi
                cr, ci = cr - gr, ci - gi
                dr, di = dr - hr, di - hi
                t = (ar * ar + ai * ai) + (br * br + bi * bi)
                t = t + (cr * cr + ci * ci) + (dr * dr + di * di)  # _complex_hs_sq's order
                if op:  # det = a * d - b * c, as the complex product forms it
                    xr = (ar * dr - ai * di) - (br * cr - bi * ci)
                    xi = (ar * di + ai * dr) - (br * ci + bi * cr)
                r = _op_from_gram(t, xr * xr + xi * xi) if op else sqrt(t)
                if not _DIRECT_MIN <= r < inf:
                    r = _complex_norm(*map(complex, (ar, br, cr, dr), (ai, bi, ci, di)), op)
                r /= w
                if r > val:  # max(val, r)
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
    V = theta._float_stack
    _refuse_non_finite(V, theta)
    theta_c = [Mat2(*v) for v in V.reshape(-1, 4).tolist()]
    big = _largest_part(V)  # |x| <= 2 big
    slack = 1e-12 * (1001.0 + 2.0 * big) if big < _UNSCALED_RANGE else math.inf  # see _deflate
    om = WS.omega_float.tolist()
    rng = np.random.default_rng(seed)
    rows = S._mult_rows  # cell (i1, i2): F1 and F2 are rows i1 and i2
    k = len(rows)

    with np.errstate(invalid="ignore"):  # omega >= 1; an inf norm over an inf weight is NaN
        norm_to_zero, norm_to_id = _norms(V - _ZERO_ID, norm) / WS.omega_float
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
        for *x, t in rng.uniform(-1.0, 1.0, size=(starts, 5)).tolist():
            P = _idempotent_from_params(x, int(2.0 * t + 2.0))  # the entries, not a Mat2
            if P is not None:
                candidates.append(P)
        vals = [cost(P) for P in candidates]  # never NaN: each starts at const
        evaluations += len(vals)
        val = min(vals)
        P = Mat2(*candidates[vals.index(val)])  # the first of the least
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
            seeded = _params_from_idempotent(P)
            if seeded is None:
                continue
            x0, chart = seeded

            def objective(x):
                P = _idempotent_from_params(x, chart)
                return 1e6 if P is None else cost(P)

            x, nfev = minimize(objective, x0)
            evaluations += nfev
            cand = _idempotent_from_params(x, chart)
            if cand is None:
                continue
            val = cost(cand)
            if val < best_val:
                best_val, best_cell = val, (i1, i2, Mat2(*cand))
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
