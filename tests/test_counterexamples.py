"""Counterexample families: exact defect formulas and certified distance floors."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnm import (
    NoEligibleIndex,
    StructureMismatch,
    defect,
    enumerate_mult_scalar,
    enumerate_mult_t2,
    free_semilattice,
    geometric_weight,
    nearest_mult_scalar,
    nearest_mult_t2,
    nmin,
    orthogonal_free_sum,
    psi_n_family,
    random_semilattice,
    scalar_map,
    spiked_weight,
    t2_map,
    theta_m2_chain,
    theta_m2_chain_nonuniform,
    theta_m_t2,
    unit_weight,
    weighted,
    weighted_sup_distance,
    weighted_sup_distance_report,
)


# ---------------------------------------------------------------------------
# Weight builders.
# ---------------------------------------------------------------------------


def test_geometric_weight_doubles_along_the_chain():
    WS = geometric_weight(5)
    assert WS.omega == (2, 4, 8, 16, 32)
    assert WS.is_exact


def test_geometric_weight_other_base():
    WS = geometric_weight(3, base=3)
    assert WS.omega == (3, 9, 27)


def test_spiked_weight_places_one_heavy_element():
    WS = spiked_weight(6, 2, 100)
    assert WS.omega == (1, 1, 100, 1, 1, 1)


def test_orthogonal_free_sum_shape():
    T = orthogonal_free_sum((2, 3))
    assert T.n == 1 + 3 + 7
    assert [b1 - b0 for b0, b1 in T.blocks] == [3, 7]


# ---------------------------------------------------------------------------
# Vanishing-defect family on block sums: defect halves per generator while
# every multiplicative scalar map stays at least 1/2 away.
# ---------------------------------------------------------------------------


def test_block_family_defects_vanish_geometrically():
    reports = psi_n_family(base=2, sizes=(2, 3, 4, 5))
    assert [r.defect.defect for r in reports] == [
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
        Fraction(1, 32),
    ]
    for r in reports:
        assert r.defect.exact_value
        assert r.method == "exhaustive"
        assert r.distance_exact == Fraction(1, 2)
        assert r.distance_lower_bound == 0.5


def test_block_family_with_base_three():
    reports = psi_n_family(base=3, sizes=(2, 3))
    assert [r.defect.defect for r in reports] == [Fraction(1, 9), Fraction(1, 27)]
    for r in reports:
        assert r.distance_exact == Fraction(1, 3)


def test_block_family_defect_recomputes_independently():
    report = psi_n_family(base=2, sizes=(3,))[0]
    T = orthogonal_free_sum((3,))
    from amnm import counterexample_weight

    WS = weighted(T, counterexample_weight(T, 2))
    again = defect(WS, report.theta)
    assert again.defect == report.defect.defect


# ---------------------------------------------------------------------------
# Chain family with an upper-triangular target: defect 1/omega(m) but every
# multiplicative map of the same shape sits at distance 1; widening the
# target to full 2x2 matrices pulls the distance down to 1/omega(m).
# ---------------------------------------------------------------------------


def test_t2_chain_defect_and_unit_distance():
    WS = geometric_weight(12)
    for m in (0, 3, 9):
        r = theta_m_t2(WS, m)
        assert r.defect.defect == Fraction(1, 2 ** (m + 1))
        assert r.defect.witness == (m, m)
        assert r.distance_exact == Fraction(1)
        assert r.method == "exhaustive"


def test_t2_chain_companion_restores_the_distance():
    WS = geometric_weight(12)
    r = theta_m_t2(WS, 4)
    companion = r.details["companion"]
    assert r.details["companion_defect"].defect == 0
    assert r.details["companion_distance"].value == Fraction(1, 32)
    # the companion really is that close in the wider algebra
    again = weighted_sup_distance(WS, r.theta.as_m2(), companion, "op")
    assert again == Fraction(1, 32)


def test_t2_chain_survives_weights_past_the_float_range():
    # omega(k) = 2**(30 (k + 1)) reaches 2**1200, beyond any float
    WS = geometric_weight(40, base=2**30)
    for m in (3, 20, 39):
        r = theta_m_t2(WS, m)
        assert r.defect.witness == (m, m)
        assert r.defect.defect_sq == 1 / Fraction(WS.omega[m]) ** 2
        assert r.distance_exact == 1


def test_t2_chain_rejects_indices_off_the_chain():
    WS = geometric_weight(4)
    with pytest.raises(NoEligibleIndex):
        theta_m_t2(WS, 4)  # chain indices run 0..3
    with pytest.raises(StructureMismatch):
        theta_m_t2(unit_weight(free_semilattice(2)), 0)


# ---------------------------------------------------------------------------
# Chain families with full 2x2 targets.
# ---------------------------------------------------------------------------


def test_m2_chain_defect_formula_and_half_distance():
    WS = geometric_weight(12)
    r = theta_m2_chain(WS, 0.05)
    i = r.params["index"]
    assert i == 5  # least index with min(omega(i), omega(i+1)) >= 40
    assert r.defect.defect == Fraction(1, 64) + Fraction(1, 128)
    assert r.defect.witness == (i, i + 1)
    # only the lower bound 1/2 is proved; a search finds about 1
    assert r.distance_exact is None and r.distance_lower_bound == 0.5
    assert r.method == "analytic-lemma"
    assert r.details["lemma_scenario"] == "pair"
    assert float(r.defect.defect) <= 0.05


def test_m2_chain_defect_shrinks_with_delta():
    WS = geometric_weight(20)
    small = theta_m2_chain(WS, 0.001)
    large = theta_m2_chain(WS, 0.1)
    assert float(small.defect.defect) < float(large.defect.defect)
    assert small.distance_lower_bound == large.distance_lower_bound == 0.5


def test_m2_chain_needs_heavy_enough_weights():
    with pytest.raises(NoEligibleIndex):
        theta_m2_chain(geometric_weight(3), 0.001)


def test_m2_chain_nonuniform_defect_formula():
    WS = spiked_weight(9, 4, 400)
    r = theta_m2_chain_nonuniform(WS, 0.02)
    i = r.params["index"]
    assert i == 4
    w = 400
    assert r.defect.defect_sq == Fraction(4 * (1 + w * w), w**4)
    assert r.defect.witness == (i, i)
    assert r.details["lemma_scenario"] == "double"
    # only the lower bound 1/2 is proved; a search finds about 1
    assert r.distance_exact is None and r.distance_lower_bound == 0.5
    assert float(r.defect.defect) <= (2.0 / 3.0) * 0.02 + 1e-15


def test_m2_chain_nonuniform_requires_a_spike():
    # monotone weights never admit a heavy element followed by a light one
    with pytest.raises(NoEligibleIndex):
        theta_m2_chain_nonuniform(geometric_weight(12), 0.05)


def test_m2_families_require_chains():
    WS = unit_weight(free_semilattice(2))
    with pytest.raises(StructureMismatch):
        theta_m2_chain(WS, 0.05)
    with pytest.raises(StructureMismatch):
        theta_m2_chain_nonuniform(WS, 0.05)


# ---------------------------------------------------------------------------
# The one-pass exhaustive scan against a scan of every candidate map.
# ---------------------------------------------------------------------------

_CARRIERS = [nmin(5), free_semilattice(3), orthogonal_free_sum((2, 2))]
_CARRIERS += [random_semilattice(np.random.default_rng(seed)) for seed in range(4)]
_VALUES = st.one_of(st.sampled_from([0, 1]), st.fractions(min_value=-2, max_value=3, max_denominator=6))


def _per_map_nearest(WS, theta, maps):
    """The first map at the least exact distance, one distance report per map."""
    best = None
    for m in maps:
        dr = weighted_sup_distance_report(WS, theta, m)
        if best is None or dr.value_sq < best[0].value_sq:
            best = (dr, m)
    return best


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nearest_scan_matches_a_scan_of_every_map(data):
    S = data.draw(st.sampled_from(_CARRIERS))
    if data.draw(st.booleans()):
        WS = unit_weight(S)
    else:
        # monotone weights >= 1 are submultiplicative
        c = data.draw(st.lists(st.fractions(0, 5, max_denominator=4), min_size=S.n, max_size=S.n))
        WS = weighted(S, [1 + sum(c[y] for y in range(S.n) if S.table[x, y] == y) for x in range(S.n)])
    values = data.draw(st.lists(_VALUES, min_size=S.n, max_size=S.n))
    if data.draw(st.booleans()):
        theta, maps = scalar_map(values), enumerate_mult_scalar(S)
        near = nearest_mult_scalar(WS, theta)
    else:
        nil = data.draw(st.lists(_VALUES, min_size=S.n, max_size=S.n))
        theta, maps = t2_map(zip(values, nil)), enumerate_mult_t2(S)
        near = nearest_mult_t2(WS, theta)
    dr, m = _per_map_nearest(WS, theta, maps)
    assert near.best_map.values == m.values
    assert near.witness == dr.witness
    assert near.value == dr.value_float
    assert near.value_exact == (dr.value if dr.exact_value else None)
    assert near.details["maps_scanned"] == len(maps)
