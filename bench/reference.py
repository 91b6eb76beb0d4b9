"""Independent values that the benchmark checks the program's outputs against.

Nothing here calls ``amnm``: norms, defects, distances, filters and the key
closed forms are recomputed from raw numbers with numpy or ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def rho(t: float) -> float:
    """f(t)/t with f(t) = (1 - sqrt(1 - 4t))/2, and rho(0) = 1."""
    if t == 0.0:
        return 1.0
    return (1.0 - math.sqrt(1.0 - 4.0 * t)) / (2.0 * t)


def kappa(t: float) -> float:
    return 1.0 / (1.0 - math.sqrt(2.0) * rho(t) * t)


def hs(M: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norms of a stack of 2x2 matrices (last two axes)."""
    return np.sqrt(np.sum(np.abs(M) ** 2, axis=(-2, -1)))


def m2_stack(values) -> np.ndarray:
    """(n, 2, 2) complex array from 2x2 entries given as ``(a, b, c, d)``."""
    return np.array([[[complex(v[0]), complex(v[1])], [complex(v[2]), complex(v[3])]] for v in values])


def m2_traces(values) -> np.ndarray:
    """Traces a + d of 2x2 values given as ``(a, b, c, d)``."""
    return np.array([complex(v[0]) + complex(v[3]) for v in values])


def m2_from_json(values) -> np.ndarray:
    """(n, 2, 2) complex array from the CLI's ``[[a, b], [c, d]]`` of ``[re, im]``."""
    return np.array([[[number(x) for x in row] for row in v] for v in values])


def number(x) -> complex:
    """A CLI JSON number: ``[re, im]``, ``"p/q"`` or a plain number."""
    if isinstance(x, list):
        return complex(float(x[0]), float(x[1]))
    if isinstance(x, str):
        return complex(float(Fraction(x)))
    return complex(x)


def m2_defect_hs(table: np.ndarray, V: np.ndarray) -> float:
    """max over ordered pairs of ||V_i V_j - V_(ij)||_HS (unit weight)."""
    prod = np.einsum("iab,jbc->ijac", V, V)
    return float(np.max(hs(prod - V[table])))


def m2_distance_hs(V: np.ndarray, W: np.ndarray) -> float:
    return float(np.max(hs(V - W)))


def scalar_defect(table: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """Weighted scalar defect: max |v_i v_j - v_(ij)| / (w_i w_j)."""
    return float(np.max(np.abs(np.outer(v, v) - v[table]) / np.outer(w, w)))


def t2_defect(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Unweighted T2 defect in the norm |a| + |b|, with (a, b)(c, d) = (ac, ad + bc)."""
    pa = np.outer(a, a) - a[table]
    pb = np.outer(a, b) + np.outer(b, a) - b[table]
    return float(np.max(np.abs(pa) + np.abs(pb)))


def scalar_defect_exact(table, v: list[Fraction], w: list[Fraction]) -> Fraction:
    """The same weighted scalar defect in exact arithmetic (real rational values)."""
    n = len(v)
    return max(
        abs(v[i] * v[j] - v[int(table[i][j])]) / (w[i] * w[j])
        for i in range(n)
        for j in range(n)
    )


def filters(table: np.ndarray) -> set[frozenset[int]]:
    """All filters by brute force: non-empty, up-closed, closed under products."""
    n = table.shape[0]
    leq = table == np.arange(n)[:, None]  # i <= j iff i*j == i
    found = set()
    for mask in range(1, 1 << n):
        F = [i for i in range(n) if mask >> i & 1]
        up = all(leq[i, j] <= bool(mask >> j & 1) for i in F for j in range(n))
        closed = all(mask >> int(table[i, j]) & 1 for i in F for j in F)
        if up and closed:
            found.add(frozenset(F))
    return found


def chain_t2_nearest_exact(omega: list[Fraction], theta) -> Fraction:
    """Least weighted sup-distance from a T2 map on a min-chain to the chain's
    multiplicative T2 maps: zero and the indicators of the up-sets {k >= j}."""
    M = len(omega)
    best = None
    for j in range(M + 1):  # j = M is the zero map
        d = max(
            (abs(Fraction(theta[k][0]) - (1 if k >= j else 0)) + abs(Fraction(theta[k][1])))
            / omega[k]
            for k in range(M)
        )
        best = d if best is None else min(best, d)
    return best
