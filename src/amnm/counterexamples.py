"""Certified families of approximately-but-not-nearly multiplicative maps.

Each family constructor builds a map with a small, exactly computed
multiplicativity defect that nevertheless stays far from every exactly
multiplicative map.  The defect claims are certified by exact rational
arithmetic whenever the weights permit; the distance claims are certified
either by exhaustive enumeration of the (finitely many) multiplicative maps
or by the two-element obstruction inequalities of
:func:`amnm.mat2.obstruction_check`.  Every family, ``psi_n_family``
included, also takes float weights: its closed forms are then checked to
1e-12 relative (:func:`_check_closed_form`).

Families
========

``psi_n_family``
    Scalar maps on an orthogonal sum of free blocks with geometric weights:
    defect exactly ``base**(-size)`` per block, distance exactly ``1/base``.

``theta_m_t2``
    Upper-triangular maps on a weighted min-chain: defect exactly
    ``1/omega(m)``, distance exactly 1 from every multiplicative map —
    yet each admits an exactly multiplicative 2x2-matrix companion at
    distance ``1/omega(m)``, so the obstruction is specific to the
    upper-triangular codomain.

``theta_m2_chain``
    2x2-matrix maps on a weighted min-chain: defect exactly
    ``1/omega(n) + 1/omega(n+1) <= delta``, distance at least 1/2.

``theta_m2_chain_nonuniform``
    A variant whose sup norm grows as ``delta`` shrinks, with defect at most
    ``(2/3) delta`` and distance at least 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .defects import (
    AlgebraMap,
    DefectReport,
    _positive_finite,
    defect,
    m2_map,
    scalar_map,
    t2_map,
    weighted_sup_distance_report,
)
from .errors import ClassificationFailure, NoEligibleIndex, StructureMismatch
from .filters import _is_nmin_table
from .mat2 import Mat2
from .oracle import _exhaustive_nearest
from .semilattice import (
    OrthogonalSum,
    free_semilattice,
    nmin,
    orthogonal_direct_sum,
)
from .weights import WeightedSemilattice, counterexample_weight, weighted

__all__ = [
    "CounterexampleReport",
    "geometric_weight",
    "spiked_weight",
    "orthogonal_free_sum",
    "psi_n_family",
    "theta_m_t2",
    "theta_m2_chain",
    "theta_m2_chain_nonuniform",
]


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """A constructed map together with its certified defect and distance.

    ``defect`` is the full report (exact value when available);
    ``distance_lower_bound`` is certified by ``method`` — ``"exhaustive"``
    means every multiplicative map was enumerated and beaten,
    ``"analytic-lemma"`` means the two-element obstruction inequalities
    apply to the recorded elements.  ``distance_exact`` is the exact value
    when the certifying scan produced one.
    """

    family: str
    params: dict
    theta: AlgebraMap
    defect: DefectReport
    distance_lower_bound: float
    distance_exact: Fraction | None
    method: str
    details: dict


def geometric_weight(M: int, base=2) -> WeightedSemilattice:
    """The min-chain of length ``M`` with weight ``base**k`` at the number ``k``.

    Any weight ``>= 1`` on a min-chain is submultiplicative, since
    ``omega(min(j,k)) <= omega(min(j,k)) * omega(other)``.
    """
    if isinstance(base, int):
        base = Fraction(base)
    if base < 1:
        raise ValueError(f"base must be at least 1, got {base!r}")
    return weighted(nmin(M), [base ** (i + 1) for i in range(M)])


def spiked_weight(M: int, position: int, spike) -> WeightedSemilattice:
    """A min-chain weight that is 1 everywhere except one ``spike``.

    This is the natural carrier for the non-uniform matrix family: the
    largest adjacent minimum stays at 1 while the spike towers over
    it, so the index right after the spike is eligible.
    """
    if not 0 <= position < M:
        raise ValueError(f"spike position {position} outside 0..{M - 1}")
    if not spike >= 1:
        raise ValueError("need spike >= 1")
    values = [1] * M
    values[position] = spike
    return weighted(nmin(M), values)


def orthogonal_free_sum(sizes) -> OrthogonalSum:
    """Orthogonal direct sum of free semilattices on ``sizes`` generators."""
    return orthogonal_direct_sum([free_semilattice(k) for k in sizes])


_CLOSED_FORM_BAND = ((1 - Fraction(1, 10**12)) ** 2, (1 + Fraction(1, 10**12)) ** 2)


def _check_closed_form(value: float, value_sq, expected_sq, what: str) -> None:
    """Raise unless a reported value is ``sqrt(expected_sq)``: exactly when the
    report carries its exact square ``value_sq``, to 1e-12 relative otherwise.
    The float value is squared in ``Fraction``, so no scale underflows the check."""
    if value_sq is not None:
        holds = value_sq == expected_sq
    else:
        low, high = (band * expected_sq for band in _CLOSED_FORM_BAND)
        holds = 0 <= value < math.inf and low <= Fraction(value) ** 2 <= high
    if not holds:
        raise ClassificationFailure(f"{what} is {value!r}, expected sqrt({expected_sq!r})")


# ---------------------------------------------------------------------------
# Scalar family on orthogonal sums of free blocks.
# ---------------------------------------------------------------------------


def _psi_carrier(base, sizes) -> WeightedSemilattice:
    """The weighted orthogonal sum that every block of :func:`psi_n_family` shares:
    free blocks on ``sizes`` generators with :func:`counterexample_weight` at ``base``."""
    if not base > 1:
        raise ValueError(f"base must exceed 1, got {base!r}")
    if any(k < 2 for k in sizes):
        raise ValueError("blocks need at least 2 generators to break multiplicativity")
    T = orthogonal_free_sum(sizes)
    return weighted(T, counterexample_weight(T, base))


def psi_n_family(base=2, sizes=(2, 3, 4, 5)) -> list[CounterexampleReport]:
    """One scalar counterexample per free block of an orthogonal sum.

    Block ``n`` (on ``k`` generators) carries the indicator of its non-zero
    part.  Only products that collapse onto the block zero break
    multiplicativity, and the cheapest such pair costs weight ``base**k``,
    so the defect is exactly ``base**(-k)``.  Yet every multiplicative map
    must disagree with the indicator somewhere on the block at weight at
    most ``base``, which the exhaustive scan confirms: the distance is
    exactly ``1/base``, uniformly over blocks.
    """
    return _psi_reports(_psi_carrier(base, sizes), base, sizes)


def _psi_reports(WS: WeightedSemilattice, base, sizes) -> list[CounterexampleReport]:
    """:func:`psi_n_family`'s reports on its carrier ``WS = _psi_carrier(base, sizes)``."""
    if isinstance(base, int):
        base = Fraction(base)
    inv_sq = 1 / Fraction(base) ** 2
    reports = []
    for n, (start, stop) in enumerate(WS.S.blocks):
        k = sizes[n]
        block_zero = stop - 1  # the full-support element of the free block
        psi = scalar_map(
            [1 if start <= e < stop and e != block_zero else 0 for e in range(WS.n)]
        )
        rep = defect(WS, psi)
        _check_closed_form(rep.defect_float, rep.defect_sq, inv_sq**k, f"block {n}: defect")
        near, row = _exhaustive_nearest(WS, psi)
        exact = near.value_exact
        _check_closed_form(
            near.value, None if exact is None else exact**2, inv_sq, f"block {n}: distance"
        )
        reports.append(
            CounterexampleReport(
                family="psi-blocks",
                params={"base": base, "sizes": tuple(sizes), "block": n},
                theta=psi,
                defect=rep,
                distance_lower_bound=float(1 / base),
                distance_exact=exact,
                method="exhaustive",
                details={
                    "block_range": (start, stop),
                    "block_zero": block_zero,
                    "maps_scanned": near.details["maps_scanned"],
                    "nearest_map_index": row,
                },
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Chain families.  All three live on a weighted min-chain.
# ---------------------------------------------------------------------------


def _chain_weights(WS: WeightedSemilattice):
    """A min-chain's weights, one and zero, in the weight's number type (exact
    weights as given); :class:`StructureMismatch` off a min-chain."""
    if not _is_nmin_table(WS.S):
        raise StructureMismatch("this family needs a min-chain semilattice")
    if WS.is_exact:
        return list(WS.omega), 1, 0
    return [float(x) for x in WS.omega_float], 1.0, 0.0


def _chain(n: int, i: int, below, at_i: list, above) -> list:
    """A chain map's values: ``below`` under ``i``, ``at_i`` from ``i`` on, ``above`` past them."""
    return [below] * i + at_i + [above] * (n - i - len(at_i))


def _m2_chain(n: int, i: int, at_i: list, one, zero) -> AlgebraMap:
    """The 2x2-matrix chain map: zero under ``i``, ``at_i`` from ``i`` on, identity above."""
    return m2_map(_chain(n, i, Mat2(zero, zero, zero, zero), at_i, Mat2(one, zero, zero, one)))


def theta_m_t2(WS: WeightedSemilattice, m: int) -> CounterexampleReport:
    """The upper-triangular chain map pinned at element index ``m``.

    ``theta(k) = (chi(k), omega(m) * [k == m])`` with ``chi`` the indicator
    of ``{k >= m}``.  Its defect is exactly ``1/omega(m)``, attained only at
    the pair ``(m, m)``; exhaustive enumeration shows every multiplicative
    upper-triangular map sits at distance exactly 1.  The report's details
    carry a 2x2-matrix companion map that is *exactly* multiplicative and
    only ``1/omega(m)`` away, so enlarging the codomain dissolves the
    obstruction.
    """
    om, one, zero = _chain_weights(WS)
    n = len(om)
    if not 0 <= m < n:
        raise NoEligibleIndex(f"index {m} outside 0..{n - 1}")
    theta = t2_map(_chain(n, m, (zero, zero), [(one, om[m])], (one, zero)))
    rep = defect(WS, theta)
    if not (rep.witness == (m, m)):
        raise ClassificationFailure(f"defect witness {rep.witness!r} is not ({m},{m})")
    inv_sq = (1 / Fraction(om[m])) ** 2
    _check_closed_form(rep.defect_float, rep.defect_sq, inv_sq, "defect 1/omega(m)")

    near = _exhaustive_nearest(WS, theta)[0]
    exact = near.value_exact
    _check_closed_form(
        near.value, None if exact is None else exact**2, 1, "nearest upper-triangular distance"
    )

    companion = _m2_chain(n, m, [Mat2(one, om[m], zero, zero)], one, zero)
    companion_defect = defect(WS, companion, "op")
    if companion_defect.defect_float != 0.0:
        raise ClassificationFailure("companion map is not exactly multiplicative")
    companion_distance = weighted_sup_distance_report(WS, theta.as_m2(), companion, "op")
    _check_closed_form(
        companion_distance.value_float, companion_distance.value_sq, inv_sq, "companion distance"
    )

    return CounterexampleReport(
        family="t2-chain",
        params={"m": m, "omega_m": om[m]},
        theta=theta,
        defect=rep,
        distance_lower_bound=1.0,
        distance_exact=exact,
        method="exhaustive",
        details={
            "maps_scanned": near.details["maps_scanned"],
            "companion": companion,
            "companion_defect": companion_defect,
            "companion_distance": companion_distance,
        },
    )


def _eligible_index(pred, om: list, what: str) -> int:
    """The least ``i`` whose adjacent weights ``om[i], om[i + 1]`` satisfy ``pred``."""
    for i in range(len(om) - 1):
        if pred(om[i], om[i + 1]):
            return i
    raise NoEligibleIndex(
        f"no adjacent pair of this chain satisfies the {what} weight conditions"
    )


def _m2_chain_report(WS, family, params, theta, witness, expected_sq, what, cap, details):
    """The ``"analytic-lemma"`` report of an M2 chain map, distance floor 1/2, once its
    op-norm defect is attained at ``witness``, is ``sqrt(expected_sq)`` (as
    :func:`_check_closed_form` reads it) and is at most ``cap``."""
    rep = defect(WS, theta, "op")
    if rep.witness != witness:
        raise ClassificationFailure(f"defect witness {rep.witness!r} is not {witness!r}")
    _check_closed_form(rep.defect_float, rep.defect_sq, expected_sq, what)
    if rep.defect_float > cap:
        raise ClassificationFailure(f"defect {rep.defect_float!r} exceeds its cap {cap!r}")
    return CounterexampleReport(family, params, theta, rep, 0.5, None, "analytic-lemma", details)


def theta_m2_chain(WS: WeightedSemilattice, delta: float) -> CounterexampleReport:
    """The 2x2-matrix chain map with defect at most ``delta``, distance >= 1/2.

    At the least index ``i`` with ``min(omega(i), omega(i+1)) >= 2/delta``:
    zero below ``i``, ``[[1, -omega(i)], [0, 0]]`` at ``i``,
    ``[[1, omega(i+1)], [0, 0]]`` at ``i+1``, identity above.  The only
    defective pair is the ordered ``(i, i+1)``, costing exactly
    ``1/omega(i) + 1/omega(i+1) <= delta``.  Any multiplicative map sends
    ``i`` and ``i+1`` to commuting idempotents, and the two-element
    obstruction (pair scenario, ``a = omega(i)``, ``b = omega(i+1)``)
    forces one of them at least ``a/2`` resp. ``b/2`` away — i.e. weighted
    distance at least 1/2 — in operator norm, hence also in the larger
    Hilbert-Schmidt norm.
    """
    om, one, zero = _chain_weights(WS)
    delta = _positive_finite("delta", delta)
    level = 2.0 / delta
    i = _eligible_index(lambda a, b: a >= level and b >= level, om, "m2-chain")
    at_i = [Mat2(one, -om[i], zero, zero), Mat2(one, om[i + 1], zero, zero)]
    return _m2_chain_report(
        WS,
        family="m2-chain",
        params={"delta": delta, "index": i, "omega_i": om[i], "omega_i1": om[i + 1]},
        theta=_m2_chain(len(om), i, at_i, one, zero),
        witness=(i, i + 1),
        expected_sq=(1 / Fraction(om[i]) + 1 / Fraction(om[i + 1])) ** 2,
        what="defect 1/omega(i) + 1/omega(i+1)",
        cap=delta,
        details={
            "lemma_scenario": "pair",
            "lemma_a": om[i],
            "lemma_b": om[i + 1],
            "lemma_elements": (i, i + 1),
        },
    )


def theta_m2_chain_nonuniform(WS: WeightedSemilattice, delta: float) -> CounterexampleReport:
    """The 2x2-matrix chain map witnessing that the distance bound cannot be
    made uniform over maps of growing sup norm.

    With ``c = max_k min(omega(k), omega(k+1))``, pick the least index ``i``
    with ``omega(i) >= max(6/delta, 2c)`` and ``omega(i+1) <= c``; set
    ``theta(i+1) = [[1, omega(i)], [0, 0]]`` and ``theta(i) = 2 theta(i+1)``
    (zero below, identity above).  The only defective pair is ``(i, i)``,
    costing ``2 sqrt(1 + omega(i)^2) / omega(i)^2 <= (2/3) delta``, while
    the sup norm of the map is of order ``omega(i)/omega(i+1)``.  The
    two-element obstruction (double scenario, ``d = omega(i)``) keeps every
    multiplicative map at weighted distance at least 1/2, using
    ``omega(i) >= 2 omega(i+1)``.
    """
    om, one, zero = _chain_weights(WS)
    delta = _positive_finite("delta", delta)
    c = max(map(min, om, om[1:]), default=0)  # no index is eligible on a shorter chain
    heavy = max(6.0 / delta, 2 * c)
    i = _eligible_index(lambda a, b: a >= heavy and b <= c, om, "non-uniform m2-chain")
    if not om[i] >= 2 * om[i + 1]:
        raise ClassificationFailure("omega(i) >= 2 omega(i+1) failed after selection")
    base = Mat2(one, om[i], zero, zero)
    inv = 1 / Fraction(om[i])
    return _m2_chain_report(
        WS,
        family="m2-chain-nonuniform",
        params={"delta": delta, "index": i, "omega_i": om[i], "omega_i1": om[i + 1]},
        theta=_m2_chain(len(om), i, [2 * base, base], one, zero),
        witness=(i, i),
        expected_sq=4 * (inv**2 + inv**4),
        what="defect 2 sqrt(1 + omega(i)^2) / omega(i)^2",
        cap=(2.0 / 3.0) * delta + 1e-15,
        details={
            "lemma_scenario": "double",
            "lemma_d": om[i],
            "lemma_elements": (i, i + 1),
            "weight_cap": c,
            "sup_norm_bound": 2.0 * float(om[i]) / float(om[i + 1]),
        },
    )
