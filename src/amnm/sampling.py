"""Random instance generators for exercising the correction procedures.

Each generator guarantees its stated precondition (retrying with shrunken
noise when a draw lands outside), so downstream correction calls are
entitled to succeed.  All draws go through a caller-supplied
``numpy.random.Generator`` — fixed seed, fixed instances.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .defects import AlgebraMap, defect, m2_map, scalar_map, t2_map
from .filters import enumerate_filters, filter_indicator, zero_map
from .mat2 import M2_ID, M2_ZERO, Mat2, _idempotent_defect, _rank_one, _tuple_new
from .oracle import m2_family_map
from .semilattice import Semilattice
from .weights import WeightedSemilattice, flighty_report

__all__ = [
    "random_multiplicative_scalar",
    "random_scalar_instance",
    "random_t2_instance",
    "random_m2_instance",
    "random_binary_weighted_instance",
    "random_bounded_idempotent",
    "random_near_idempotent",
    "sample_commuting_idempotents",
]

_MAX_SHRINKS = 60
_MIN_PAIRING = 0.35  # |u* v| of a sampled rank-one idempotent, so its HS norm is <= 1/0.35
# random_near_idempotent's chances 0.2, 0.6, 0.2 of a base at 0, a rank-one P
# and I, as the normalised cumulative sum that Generator.choice inverts
_RANK_CDF = (0.2, 0.8, 1.0)


def random_multiplicative_scalar(rng: np.random.Generator, S: Semilattice) -> AlgebraMap:
    """A uniformly chosen multiplicative scalar map (zero or a filter indicator)."""
    filters = enumerate_filters(S)
    k = int(rng.integers(0, len(filters) + 1))
    if k == len(filters):
        return zero_map(S)
    return filter_indicator(S, filters[k])


def _complex_noise(rng: np.random.Generator, amp: float) -> complex:
    r = amp * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def random_scalar_instance(
    rng: np.random.Generator, S: Semilattice, *, threshold: float = 0.2, amp: float = 0.06
) -> AlgebraMap:
    """A perturbed multiplicative scalar map with defect strictly below ``threshold``."""
    base = random_multiplicative_scalar(rng, S)
    noise = [_complex_noise(rng, amp) for _ in range(S.n)]
    scale = 1.0
    for _ in range(_MAX_SHRINKS):
        psi = scalar_map([complex(v) + scale * z for v, z in zip(base.values, noise)])
        if defect(S, psi).defect_float < 0.95 * threshold:
            return psi
        scale *= 0.5
    raise RuntimeError("could not shrink scalar noise below the defect threshold")


def random_t2_instance(
    rng: np.random.Generator, S: Semilattice, *, threshold: float = 0.2, amp: float = 0.03
) -> AlgebraMap:
    """A perturbed multiplicative upper-triangular map with defect below ``threshold``."""
    base = random_multiplicative_scalar(rng, S)
    noise = [(_complex_noise(rng, amp), _complex_noise(rng, amp)) for _ in range(S.n)]
    scale = 1.0
    for _ in range(_MAX_SHRINKS):
        theta = t2_map(
            [
                (complex(v) + scale * za, scale * zb)
                for v, (za, zb) in zip(base.values, noise)
            ]
        )
        if defect(S, theta).defect_float < 0.95 * threshold:
            return theta
        scale *= 0.5
    raise RuntimeError("could not shrink T2 noise below the defect threshold")


def random_bounded_idempotent(rng: np.random.Generator) -> Mat2:
    """A rank-one idempotent ``v u* / (u* v)`` with HS norm at most ``1/_MIN_PAIRING``.

    Entries are Python ``complex``: numpy scalars would slow every later
    ``Mat2`` operation on the result.
    """
    while True:
        x0, x1, x2, x3, x4, x5, x6, x7 = rng.normal(size=8).tolist()  # four normal(size=2) draws
        u = np.array((complex(x0, x2), complex(x1, x3)))  # x[0:2] + 1j * x[2:4], bit for bit
        v = np.array((complex(x4, x6), complex(x5, x7)))
        nu = math.sqrt(float(np.vdot(u, u).real))
        nv = math.sqrt(float(np.vdot(v, v).real))
        if nu < 1e-6 or nv < 1e-6:
            continue
        u, v = u / nu, v / nv
        pairing = complex(np.vdot(u, v))
        if abs(pairing) < _MIN_PAIRING:
            continue
        return _tuple_new(Mat2, map(complex, _rank_one(v, u.conj(), pairing)))


def _random_mat2_ball(rng: np.random.Generator, radius: float) -> Mat2:
    x0, x1, x2, x3, x4, x5, x6, x7 = rng.normal(size=8).tolist()  # two normal(size=4) draws
    z0, z1, z2, z3 = complex(x0, x4), complex(x1, x5), complex(x2, x6), complex(x3, x7)
    raw = np.array((z0, z1, z2, z3))  # x[0:4] + 1j * x[4:8], bit for bit
    nrm = math.sqrt(float(np.vdot(raw, raw).real))
    if nrm == 0.0:
        return Mat2(0.0j, 0.0j, 0.0j, 0.0j)
    # rng.random() is the same draw as rng.uniform(), at a third of the cost; z * f has
    # the bits of numpy's raw * f, as each part adds a product with zero, fused or not
    f = radius * rng.random() / nrm
    return _tuple_new(Mat2, (z0 * f, z1 * f, z2 * f, z3 * f))


def random_m2_instance(
    rng: np.random.Generator,
    S: Semilattice,
    *,
    threshold: float = 0.03,
    amp: float = 0.002,
) -> AlgebraMap:
    """A perturbed multiplicative 2x2 map with HS defect strictly below ``threshold``.

    The base map is ``chi_F1 P + chi_F2 (I - P)`` for random empty-or-filter
    sets and a norm-bounded random rank-one ``P``; each value then receives
    an independent perturbation of HS norm at most ``amp``.
    """
    options = [None, *enumerate_filters(S)]
    F1 = options[int(rng.integers(0, len(options)))]
    F2 = options[int(rng.integers(0, len(options)))]
    base = m2_family_map(S, F1, F2, random_bounded_idempotent(rng)).values
    noise = [_random_mat2_ball(rng, amp) for _ in range(S.n)]
    scale = 1.0
    for _ in range(_MAX_SHRINKS):
        theta = m2_map([b + scale * z for b, z in zip(base, noise)])
        if defect(S, theta, "hs").defect_float < 0.95 * threshold:
            return theta
        scale *= 0.5
    raise RuntimeError("could not shrink matrix noise below the defect threshold")


def random_binary_weighted_instance(
    rng: np.random.Generator, WS: WeightedSemilattice, epsilon: float
) -> AlgebraMap:
    """A {0,1}-valued map whose weighted defect keeps the correction margin
    ``2 * delta * C(2/epsilon) / epsilon`` strictly below 1.

    Starts from a multiplicative map and keeps only those random flips that
    preserve the margin, so the precondition holds by construction.
    """
    S = WS.S
    c_val = float(flighty_report(WS, 2.0 / epsilon).value)
    values = [int(complex(v).real) for v in random_multiplicative_scalar(rng, S).values]
    order = list(rng.permutation(S.n))
    flips = int(rng.integers(0, S.n + 1))
    for e in order[:flips]:
        values[e] = 1 - values[e]
        delta = defect(WS, scalar_map(values)).defect_float
        if not 2.0 * delta * c_val / epsilon < 0.95:
            values[e] = 1 - values[e]
    psi = scalar_map(values)
    delta = defect(WS, psi).defect_float
    if not 2.0 * delta * c_val / epsilon < 1.0:
        raise RuntimeError("flip filter failed to preserve the margin")
    return psi


def random_near_idempotent(rng: np.random.Generator, eps: float) -> Mat2:
    """A matrix with ``||A - A^2||_HS <= eps``, near a random 0/rank-one/identity."""
    # int(rng.choice(3, p=(0.2, 0.6, 0.2))), draw for draw, without choice's
    # validation of p, which costs several microseconds
    kind = bisect.bisect_right(_RANK_CDF, rng.random())
    if kind == 0:
        base = Mat2(0.0j, 0.0j, 0.0j, 0.0j)
    elif kind == 2:
        base = Mat2(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    else:
        base = random_bounded_idempotent(rng)
    b0, b1, b2, b3 = base
    n0, n1, n2, n3 = _random_mat2_ball(rng, 1.0)
    scale = 0.45 * eps  # first guess: the defect map is roughly 2-Lipschitz here
    for _ in range(_MAX_SHRINKS):
        a, b, c, d = b0 + n0 * scale, b1 + n1 * scale, b2 + n2 * scale, b3 + n3 * scale
        if _idempotent_defect(a, b, c, d) <= eps:
            return _tuple_new(Mat2, (a, b, c, d))
        scale *= 0.5
    return base


def sample_commuting_idempotents(rng: np.random.Generator, count: int) -> list[tuple[Mat2, Mat2]]:
    """Random commuting idempotent pairs covering all structural cases:
    both scalar; equal rank-1; complementary (Q = I - P); one scalar."""
    scalars = [M2_ZERO, M2_ID]
    pairs = []
    for _ in range(count):
        case = int(rng.integers(0, 4))
        if case == 0:
            P = scalars[int(rng.integers(0, 2))]
            Q = scalars[int(rng.integers(0, 2))]
        elif case == 1:
            P = Q = random_bounded_idempotent(rng)
        elif case == 2:
            P = random_bounded_idempotent(rng)
            Q = M2_ID - P
        else:
            P = scalars[int(rng.integers(0, 2))]
            Q = random_bounded_idempotent(rng)
            if rng.integers(0, 2):
                P, Q = Q, P
        pairs.append((P, Q))
    return pairs
