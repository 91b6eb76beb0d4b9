"""Defect and distance reports: exact arithmetic, witnesses, scan order, rounding."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amnm import (
    AlgebraMap,
    Mat2,
    characters,
    defect,
    default_norm,
    free_semilattice,
    hs_norm,
    m2_map,
    map_from_json,
    map_to_json,
    nmin,
    round_to_binary,
    scalar_map,
    t2_map,
    weighted,
    weighted_sup_distance,
    weighted_sup_distance_report,
)


def test_default_norm_per_codomain():
    assert default_norm("scalar") == "abs"
    assert default_norm("t2") == "t2"
    assert default_norm("m2") == "hs"


def test_characters_have_zero_defect_exactly():
    S = free_semilattice(3)
    for chi in characters(S):
        rep = defect(S, chi)
        assert rep.defect == 0
        assert rep.exact_value


def test_exact_rational_defect_with_weights():
    S = free_semilattice(2)
    WS = weighted(S, (2, 2, 4))
    psi = scalar_map([1, 0, Fraction(1, 3)])
    rep = defect(WS, psi)
    # worst pair is the two singletons: |1*0 - 1/3| / (2*2) = 1/12
    assert rep.defect == Fraction(1, 12)
    assert rep.defect_sq == Fraction(1, 144)
    assert rep.exact_value
    assert rep.witness == (0, 1)


def test_float_defect_matches_direct_computation(rng):
    S = free_semilattice(2)
    values = [complex(*rng.normal(size=2)) for _ in range(3)]
    psi = scalar_map(values)
    rep = defect(S, psi)
    best = 0.0
    for x in range(3):
        for y in range(x, 3):
            z = values[x] * values[y] - values[S.table[x, y]]
            best = max(best, abs(z))
    assert math.isclose(rep.defect_float, best, rel_tol=1e-12)
    x, y = rep.witness
    at_witness = abs(values[x] * values[y] - values[S.table[x, y]])
    assert math.isclose(at_witness, rep.defect_float, rel_tol=1e-12)


def test_t2_defect_uses_the_dual_number_norm():
    S = nmin(2)
    theta = t2_map([(1, Fraction(1, 2)), (1, 0)])
    rep = defect(S, theta)
    # at (0,1): (1, 1/2)(1, 0) - (1, 1/2) = (0, 0); at (0,0): (1,1)-(1,1/2)=(0,1/2)
    assert rep.defect == Fraction(1, 2)
    assert rep.witness == (0, 0)


def test_m2_defect_scans_ordered_pairs():
    # values that do not commute: the defect must see both (x,y) and (y,x).
    S = nmin(2)
    P = Mat2(1.0, 2.0, 0.0, 0.0)
    Q = Mat2(0.5, 0.5, 0.5, 0.5)
    theta = m2_map([P, Q])
    rep = defect(S, theta, "hs")
    direct = max(
        hs_norm(P @ P - P),
        hs_norm(Q @ Q - Q),
        hs_norm(P @ Q - P),
        hs_norm(Q @ P - P),
    )
    assert math.isclose(rep.defect_float, direct, rel_tol=1e-12)
    # the two orders genuinely differ here, so a triangular scan would miss one
    assert not math.isclose(hs_norm(P @ Q - P), hs_norm(Q @ P - P), rel_tol=1e-6)


def test_weighted_defect_divides_by_both_weights():
    WS = weighted(nmin(2), (2, 3))
    psi = scalar_map([0, 1])
    # only nontrivial pair: (0,1) -> |0*1 - 0| = 0; (1,1) -> |1-1| = 0; (0,0) -> 0
    assert defect(WS, psi).defect == 0
    psi2 = scalar_map([1, 0])  # not a filter indicator: (1,1) ok, (0,1): |1*0-1|/6
    rep = defect(WS, psi2)
    assert rep.defect == Fraction(1, 6)


def test_distance_report_exact_and_witness():
    WS = weighted(nmin(3), (1, 2, 4))
    psi = scalar_map([1, Fraction(1, 2), 0])
    chi = scalar_map([1, 1, 1])
    rep = weighted_sup_distance_report(WS, psi, chi)
    # per element: |1-1|/1, |1/2-1|/2 = 1/4, |0-1|/4 = 1/4 -- first wins the tie
    assert rep.value == Fraction(1, 4)
    assert rep.witness in (1, 2)
    assert rep.exact_value
    assert weighted_sup_distance(WS, psi, chi) == Fraction(1, 4)


def test_distance_rejects_mismatched_codomains():
    S = nmin(2)
    with pytest.raises(Exception):
        weighted_sup_distance(S, scalar_map([1, 0]), t2_map([(1, 0), (0, 0)]))


# ---------------------------------------------------------------------------
# Binary rounding.
# ---------------------------------------------------------------------------


def test_round_to_binary_fixes_near_binary_values():
    S = free_semilattice(2)
    psi = scalar_map([0.99, 0.02, 0.98 + 0.01j])
    rounded = round_to_binary(S, psi)
    assert rounded.values == (1, 0, 1)


def test_round_to_binary_controls_the_new_defect(rng):
    from amnm import random_scalar_instance

    S = free_semilattice(3)
    for _ in range(50):
        psi = random_scalar_instance(rng, S, threshold=0.04)
        d = defect(S, psi).defect_float
        rounded = round_to_binary(S, psi)
        assert set(rounded.values) <= {0, 1}
        d2 = defect(S, rounded).defect_float
        assert d2 <= 3.0 * math.sqrt(d) + 2.0 * d + 1e-9


# ---------------------------------------------------------------------------
# Wire format.
# ---------------------------------------------------------------------------


def test_map_json_round_trip_all_codomains():
    maps = [
        scalar_map([1.5, complex(0.5, -2.0), 0.0]),
        t2_map([(1.0, 0.5), (0.0, 0.0), (1.0, complex(0, 1))]),
        m2_map([Mat2(1.0, 2.0, 0.0, 0.5j), Mat2(0.0, 0.0, 0.0, 0.0), Mat2(1, 0, 0, 1)]),
    ]
    for theta in maps:
        doc = map_to_json(theta)
        back = map_from_json(doc)
        assert back.codomain == theta.codomain
        assert back.n == theta.n
        for u, v in zip(back.values, theta.values):
            if theta.codomain == "scalar":
                assert u == complex(v)
            elif theta.codomain == "t2":
                assert (u.a, u.b) == (complex(v[0]), complex(v[1]))
            else:
                assert all(
                    complex(x) == complex(y) for x, y in zip(u, v)
                )


_RATIONALS = st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**6))


@st.composite
def rational_maps(draw):
    codomain = draw(st.sampled_from(["scalar", "t2", "m2"]))
    width = {"scalar": 1, "t2": 2, "m2": 4}[codomain]
    rows = draw(st.lists(st.tuples(*[_RATIONALS] * width), min_size=1, max_size=6))
    if codomain == "scalar":
        return scalar_map([r[0] for r in rows])
    if codomain == "t2":
        return t2_map(rows)
    return m2_map([Mat2(*r) for r in rows])


@given(rational_maps())
def test_exact_maps_survive_the_json_wire(theta):
    back = map_from_json(json.loads(json.dumps(map_to_json(theta))))
    assert back.codomain == theta.codomain
    assert back.values == theta.values
    assert theta.is_exact and back.is_exact


def test_algebra_map_rejects_unknown_codomain_and_bad_rows():
    with pytest.raises(ValueError):
        AlgebraMap("quaternion", (1, 2))
    with pytest.raises((TypeError, IndexError)):
        m2_map([[1, 2, 3]])
    with pytest.raises((TypeError, IndexError)):
        m2_map([[[1, 2], [3]]])
