"""Independent search for nearest multiplicative maps: enumeration and descent."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from amnm import (
    M2_ID,
    M2_ZERO,
    Mat2,
    canonical_json,
    defect,
    enumerate_filters,
    enumerate_mult_m2_with,
    enumerate_mult_scalar,
    enumerate_mult_t2,
    free_semilattice,
    m2_family_map,
    m2_map,
    nearest_mult_m2,
    nearest_mult_scalar,
    nearest_mult_t2,
    nmin,
    random_m2_instance,
    random_semilattice,
    scalar_map,
    t2_map,
    to_jsonable,
    weighted,
    weighted_sup_distance,
)


# ---------------------------------------------------------------------------
# Enumeration of multiplicative maps.
# ---------------------------------------------------------------------------


def test_scalar_enumeration_counts_zero_plus_filters(semilattice_pool):
    for S in semilattice_pool[:10]:
        maps = enumerate_mult_scalar(S)
        assert len(maps) == S.n + 1
        for phi in maps:
            assert defect(S, phi).defect == 0


def test_t2_enumeration_is_diagonal(semilattice_pool):
    for S in semilattice_pool[:10]:
        maps = enumerate_mult_t2(S)
        assert len(maps) == S.n + 1
        for phi in maps:
            assert all(v.b == 0 for v in phi.values)
            assert defect(S, phi).defect == 0


def test_t2_maps_with_nilpotent_part_are_not_multiplicative():
    # adding any nonzero nilpotent coordinate to a character breaks
    # multiplicativity at an idempotent, so the enumeration is complete.
    S = nmin(3)
    for phi in enumerate_mult_t2(S):
        for e in range(S.n):
            bumped = t2_map(
                [
                    (v.a, v.b + (1 if k == e else 0))
                    for k, v in enumerate(phi.values)
                ]
            )
            assert defect(S, bumped).defect != 0


def test_family_map_is_multiplicative_for_any_filter_pair():
    S = free_semilattice(2)
    P = Mat2(Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    options = [None] + enumerate_filters(S)
    for F1 in options:
        for F2 in options:
            theta = m2_family_map(S, F1, F2, P)
            assert defect(S, theta, "hs").defect == 0


def test_family_map_rejects_non_idempotent_projection():
    S = nmin(2)
    with pytest.raises(ValueError):
        m2_family_map(S, None, None, Mat2(0.5, 0.0, 0.0, 0.5))


def test_m2_enumeration_is_complete_for_exact_assignments():
    # brute force: every {0, P, I-P, I}-assignment that is multiplicative
    # must appear in the enumeration, and vice versa.
    P = Mat2(Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    targets = [M2_ZERO, P, M2_ID - P, M2_ID]
    rng = np.random.default_rng(99)
    for _ in range(6):
        S = random_semilattice(rng, max_n=4)
        enumerated = {
            tuple(theta.values) for theta in enumerate_mult_m2_with(S, P)
        }
        brute = set()
        for combo in itertools.product(targets, repeat=S.n):
            theta = m2_map(list(combo))
            if defect(S, theta, "hs").defect == 0:
                brute.add(tuple(theta.values))
        assert brute == enumerated


# ---------------------------------------------------------------------------
# Nearest-map searches.
# ---------------------------------------------------------------------------


def test_nearest_scalar_is_the_exhaustive_minimum(rng):
    for _ in range(20):
        S = random_semilattice(rng)
        psi = scalar_map([complex(*rng.normal(scale=0.6, size=2)) for _ in range(S.n)])
        rep = nearest_mult_scalar(S, psi)
        manual = min(
            float(weighted_sup_distance(S, psi, phi)) for phi in enumerate_mult_scalar(S)
        )
        assert rep.value == pytest.approx(manual, abs=1e-12)
        assert rep.method == "exhaustive"


def test_nearest_scalar_exact_on_rational_input():
    S = nmin(2)
    psi = scalar_map([Fraction(3, 4), Fraction(1, 4)])
    rep = nearest_mult_scalar(S, psi)
    # candidates: 0 -> 3/4, [1,1] -> 3/4, [0,1] -> 3/4 ... indicator {1}: max(3/4, 3/4)
    assert rep.value_exact == Fraction(3, 4)


def test_nearest_rejects_a_non_semilattice_carrier():
    # the same TypeError that defect raises
    psi = scalar_map([0, 1])
    for fn in (defect, nearest_mult_scalar):
        with pytest.raises(TypeError):
            fn(object(), psi)


def test_nearest_t2_matches_manual_minimum(rng):
    S = free_semilattice(2)
    theta = t2_map([(0.96, 0.02), (0.05, -0.01), (1.02, 0.0)])
    rep = nearest_mult_t2(S, theta)
    manual = min(
        float(weighted_sup_distance(S, theta, phi)) for phi in enumerate_mult_t2(S)
    )
    assert rep.value == pytest.approx(manual, abs=1e-12)


def test_nearest_m2_finds_exact_family_members(rng):
    for _ in range(10):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S, amp=0.0)
        rep = nearest_mult_m2(S, theta, starts=4, seed=1)
        assert rep.value <= 1e-7
        assert defect(S, rep.best_map, "hs").defect_float <= 1e-9


def test_nearest_m2_distance_is_recomputed_independently(rng):
    S = random_semilattice(rng)
    theta = random_m2_instance(rng, S)
    rep = nearest_mult_m2(S, theta, starts=6, seed=3)
    again = weighted_sup_distance(S, theta, rep.best_map, "hs")
    assert float(again) == pytest.approx(rep.value, abs=1e-12)
    assert defect(S, rep.best_map, "hs").defect_float <= 1e-9


def test_nearest_m2_is_deterministic_for_a_seed(rng):
    S = random_semilattice(rng)
    theta = random_m2_instance(rng, S)
    one = nearest_mult_m2(S, theta, starts=5, seed=7)
    two = nearest_mult_m2(S, theta, starts=5, seed=7)
    assert canonical_json(to_jsonable(one)) == canonical_json(to_jsonable(two))


def test_nearest_m2_beats_or_matches_the_diagonal_cells(rng):
    # the search may only improve on its own seed candidates
    S = nmin(4)
    theta = random_m2_instance(rng, S)
    rep = nearest_mult_m2(S, theta, starts=8, seed=0)
    filters = [None] + enumerate_filters(S)
    for F in filters:
        phi = m2_family_map(S, F, F, Mat2(1.0, 0.0, 0.0, 0.0))
        assert rep.value <= float(weighted_sup_distance(S, theta, phi, "hs")) + 1e-12
