"""Random instance generators for exercising the correction procedures.

Each generator guarantees its stated precondition (retrying with shrunken
noise when a draw lands outside, raising when no shrink meets it), so downstream
correction calls are entitled to succeed.  All draws go through a caller-supplied
``numpy.random.Generator`` — fixed seed, fixed instances; ``random_near_idempotent``
then computes on plain ``complex`` entries and builds a ``Mat2`` only to return one.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .defects import AlgebraMap, defect, m2_map, scalar_map, t2_map
from .filters import _row_filter
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
_ZERO = Mat2(0.0j, 0.0j, 0.0j, 0.0j)  # 0 and I with complex entries
_IDENTITY = Mat2(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def random_multiplicative_scalar(rng: np.random.Generator, S: Semilattice) -> AlgebraMap:
    """A uniform draw of ``[*characters(S), zero_map(S)]``, building only the map drawn."""
    k = int(rng.integers(0, S.n + 1))
    return scalar_map(S._mult_rows[(k + 1) % (S.n + 1)].astype(int).tolist())


def _complex_noise(rng: np.random.Generator, amp: float) -> complex:
    # rng.random() is rng.uniform()'s draw, and 2 pi times it is uniform(0, 2 pi)'s
    r = amp * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(phi), r * math.sin(phi))


def _shrunk(S: Semilattice, perturbed, threshold: float, what: str) -> AlgebraMap:
    """The first of ``perturbed(1)``, ``perturbed(1/2)``, ... whose defect, in
    the default norm, is below ``0.95 * threshold``."""
    scale = 1.0
    for _ in range(_MAX_SHRINKS):
        theta = perturbed(scale)
        if defect(S, theta).defect_float < 0.95 * threshold:
            return theta
        scale *= 0.5
    raise RuntimeError(f"could not shrink {what} noise below the defect threshold")


def random_scalar_instance(
    rng: np.random.Generator, S: Semilattice, *, threshold: float = 0.2, amp: float = 0.06
) -> AlgebraMap:
    """A perturbed multiplicative scalar map with defect strictly below ``threshold``."""
    base = random_multiplicative_scalar(rng, S)
    noise = [_complex_noise(rng, amp) for _ in range(S.n)]

    def perturbed(scale):
        return scalar_map([complex(v) + scale * z for v, z in zip(base.values, noise)])

    return _shrunk(S, perturbed, threshold, "scalar")


def random_t2_instance(
    rng: np.random.Generator, S: Semilattice, *, threshold: float = 0.2, amp: float = 0.03
) -> AlgebraMap:
    """A perturbed multiplicative upper-triangular map with defect below ``threshold``."""
    base = random_multiplicative_scalar(rng, S)
    noise = [(_complex_noise(rng, amp), _complex_noise(rng, amp)) for _ in range(S.n)]

    def perturbed(scale):
        pairs = zip(base.values, noise)
        return t2_map([(complex(v) + scale * za, scale * zb) for v, (za, zb) in pairs])

    return _shrunk(S, perturbed, threshold, "T2")


def random_bounded_idempotent(rng: np.random.Generator) -> Mat2:
    """A rank-one idempotent ``v u* / (u* v)`` with HS norm at most ``1/_MIN_PAIRING``.

    The arithmetic after the draw is on Python floats and ``complex``, one
    IEEE operation at a time, so the result has the same bits under every BLAS
    and SIMD dispatch; its entries are Python ``complex``, as every later
    ``Mat2`` operation on it is fastest on those.
    """
    return _tuple_new(Mat2, _bounded_idempotent(rng))


def _bounded_idempotent(rng: np.random.Generator) -> tuple:
    """The four entries of :func:`random_bounded_idempotent`."""
    while True:
        x0, x1, x2, x3, x4, x5, x6, x7 = rng.normal(size=8).tolist()  # four normal(size=2) draws
        # u = (x0 + i x2, x1 + i x3) and v = (x4 + i x6, x5 + i x7); each norm is
        # the fixed sum (re0**2 + im0**2) + (re1**2 + im1**2), with no fused step
        nu = math.sqrt((x0 * x0 + x2 * x2) + (x1 * x1 + x3 * x3))
        nv = math.sqrt((x4 * x4 + x6 * x6) + (x5 * x5 + x7 * x7))
        if nu < 1e-6 or nv < 1e-6:
            continue
        cu0, cu1 = complex(x0 / nu, -x2 / nu), complex(x1 / nu, -x3 / nu)  # conj(u) / nu
        v0, v1 = complex(x4 / nv, x6 / nv), complex(x5 / nv, x7 / nv)
        pairing = cu0 * v0 + cu1 * v1  # u* v
        if abs(pairing) < _MIN_PAIRING:
            continue
        return _rank_one(v0, v1, cu0, cu1, pairing)


def _random_mat2_ball(rng: np.random.Generator, radius: float) -> Mat2:
    return _tuple_new(Mat2, _ball(rng, radius))


def _ball(rng: np.random.Generator, radius: float) -> tuple:
    x0, x1, x2, x3, x4, x5, x6, x7 = rng.normal(size=8).tolist()  # two normal(size=4) draws
    # the entries are x0 + i x4, ..., x3 + i x7; the squares are summed in
    # hs_norm's order, (re0**2 + im0**2) + ... + (re3**2 + im3**2)
    nrm = math.sqrt(
        (x0 * x0 + x4 * x4) + (x1 * x1 + x5 * x5) + (x2 * x2 + x6 * x6) + (x3 * x3 + x7 * x7)
    )
    if nrm == 0.0:
        return _ZERO
    # z * f rounds each part once: f's zero imaginary part adds only signed zeros
    f = radius * rng.random() / nrm
    return complex(x0, x4) * f, complex(x1, x5) * f, complex(x2, x6) * f, complex(x3, x7) * f


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
    F1, F2 = (_row_filter(S, int(rng.integers(0, S.n + 1))) for _ in range(2))
    base = m2_family_map(S, F1, F2, random_bounded_idempotent(rng)).values
    noise = [_random_mat2_ball(rng, amp) for _ in range(S.n)]

    def perturbed(scale):
        return m2_map([b + scale * z for b, z in zip(base, noise)])

    return _shrunk(S, perturbed, threshold, "matrix")


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
    """A matrix with ``||A - A^2||_HS <= eps``, near a random 0/rank-one/identity.

    An ``eps`` that is not finite and ``>= 0`` raises ``ValueError`` before any draw.
    ``RuntimeError`` means that no halving of the noise met ``eps``, as happens below
    the rank-one base's own rounding defect (about 1e-16)."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"near-idempotent sampling requires 0 <= eps < inf, got {eps!r}")
    # int(rng.choice(3, p=(0.2, 0.6, 0.2))), draw for draw, without choice's
    # validation of p, which costs several microseconds
    kind = bisect.bisect_right(_RANK_CDF, rng.random())
    b0, b1, b2, b3 = _ZERO if kind == 0 else _IDENTITY if kind == 2 else _bounded_idempotent(rng)
    n0, n1, n2, n3 = _ball(rng, 1.0)
    scale = 0.45 * eps  # first guess: the defect map is roughly 2-Lipschitz here
    for _ in range(_MAX_SHRINKS):
        a, b, c, d = b0 + n0 * scale, b1 + n1 * scale, b2 + n2 * scale, b3 + n3 * scale
        if _idempotent_defect(a, b, c, d) <= eps:
            return _tuple_new(Mat2, (a, b, c, d))
        scale *= 0.5
    raise RuntimeError(f"could not shrink near-idempotent noise below eps = {eps!r}")


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
