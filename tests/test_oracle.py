"""Independent search for nearest multiplicative maps: enumeration and descent."""

import ast
import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amnm
from amnm import (
    M2_ID,
    AlgebraMap,
    M2_ZERO,
    Mat2,
    canonical_json,
    default_norm,
    defect,
    enumerate_filters,
    enumerate_mult_m2_with,
    enumerate_mult_scalar,
    enumerate_mult_t2,
    free_semilattice,
    geometric_weight,
    hs_norm,
    m2_family_map,
    m2_map,
    nearest_mult_m2,
    nearest_mult_scalar,
    nearest_mult_t2,
    nmin,
    op_norm,
    random_bounded_idempotent,
    random_m2_instance,
    random_semilattice,
    random_submultiplicative_weight,
    unit_weight,
    scalar_map,
    spiked_weight,
    T2Element,
    t2_map,
    theta_m2_chain,
    theta_m2_chain_nonuniform,
    to_jsonable,
    weighted,
    weighted_sup_distance,
)
from amnm.filters import filter_indicator
from amnm.defects import _element_ratios
from test_oracle_reference import ref_minimize
from test_sampling import _baseline_dispatch


# ---------------------------------------------------------------------------
# Enumeration of multiplicative maps.
# ---------------------------------------------------------------------------


def test_scalar_enumeration_counts_zero_plus_filters(semilattice_pool):
    for S in semilattice_pool[:10]:
        maps = enumerate_mult_scalar(S)
        assert len(maps) == S.n + 1
        for phi in maps:
            assert defect(S, phi).defect == 0


def test_scalar_maps_from_the_order_match_the_filter_indicators(semilattice_pool):
    for S in semilattice_pool:
        rows = S._mult_rows
        assert rows is S._mult_rows  # proved once, then cached
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = True
        want = [filter_indicator(S, f) for f in (None, *enumerate_filters(S))]
        assert rows.dtype == bool and rows.astype(int).tolist() == [list(m.values) for m in want]
        scalar, t2 = enumerate_mult_scalar(S), enumerate_mult_t2(S)
        assert [m.values for m in scalar] == [m.values for m in want]
        assert all(m.codomain == "scalar" and {type(v) for v in m.values} == {int} for m in scalar)
        assert [m.values for m in t2] == [tuple((v, 0) for v in m.values) for m in want]
        assert all(m.codomain == "t2" and {type(v.a) for v in m.values} == {int} for m in t2)


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


def _first_seen_family_maps(S, P):
    """The reference listing: every (F1, F2) cell in order, a map kept the
    first time its values are seen."""
    options = [None] + list(enumerate_filters(S))
    seen = set()
    out = []
    for F1 in options:
        for F2 in options:
            m = m2_family_map(S, F1, F2, P)
            if m.values not in seen:
                seen.add(m.values)
                out.append(m)
    return out


def test_m2_enumeration_lists_maps_in_first_seen_order(semilattice_pool):
    rng = np.random.default_rng(15)
    for S in semilattice_pool:
        t = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        for P in (
            Mat2(Fraction(1), t, Fraction(0), Fraction(0)),
            Mat2(Fraction(0), Fraction(0), t, Fraction(1)),
            M2_ZERO,
            M2_ID,
        ):
            got = enumerate_mult_m2_with(S, P)
            assert repr([m.values for m in got]) == repr(
                [m.values for m in _first_seen_family_maps(S, P)]
            )


# ---------------------------------------------------------------------------
# Nearest-map searches.
# ---------------------------------------------------------------------------


def test_nearest_m2_refuses_a_norm_outside_its_codomain():
    with pytest.raises(ValueError, match="norm 'abs' is not valid for codomain 'm2'"):
        nearest_mult_m2(nmin(2), m2_map([M2_ID, M2_ZERO]), norm="abs")


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


def test_nearest_scalar_past_the_float_range_has_an_infinite_float_view():
    rep = nearest_mult_scalar(nmin(1), scalar_map([2**1100]))
    assert rep.value_exact == 2**1100 - 1 and rep.value == math.inf
    assert rep.best_map.values == (1,) and rep.witness == 0


@pytest.mark.filterwarnings("error")
def test_a_t2_scan_past_the_float_range_is_inf_without_a_warning():
    # |a| + |b| of theta(0) minus either candidate value is past the float range
    rep = nearest_mult_t2(nmin(2), t2_map([(1.5e308, -1.5e308), (0.0, 1.0)]))
    assert rep.value == math.inf and rep.value_exact is None
    assert rep.best_map.values == ((0, 0), (0, 0)) and rep.witness == 0


_DRAWS = {
    "rational": lambda g: Fraction(int(g.integers(-9, 10)), int(g.integers(1, 7))),
    "float": lambda g: float(g.normal()),
    "complex": lambda g: complex(*g.normal(size=2)),
}


def _test_weight(S, kind: str, gen):
    if kind == "unit":
        return unit_weight(S)
    # monotone weights >= 1 are submultiplicative, in floats too
    c = [Fraction(int(k), 4) for k in gen.integers(0, 9, S.n)]
    omega = [1 + sum(c[y] for y in range(S.n) if S.table[x, y] == y) for x in range(S.n)]
    return weighted(S, omega if kind == "rational" else [float(w) for w in omega])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", ["unit", "rational", "float"])
@pytest.mark.parametrize("kind", ["rational", "float", "complex"])
@pytest.mark.parametrize("codomain", ["scalar", "t2"])
def test_the_one_pass_cost_table_is_the_per_value_costs(codomain, kind, weight):
    gen = np.random.default_rng(1919)
    draw, norm = _DRAWS[kind], default_norm(codomain)

    def value():
        return draw(gen) if codomain == "scalar" else T2Element(draw(gen), draw(gen))

    zero, one = (0, 1) if codomain == "scalar" else (T2Element(0, 0), T2Element(1, 0))
    for _ in range(10):
        S = random_semilattice(gen)
        WS = _test_weight(S, weight, gen)
        theta = AlgebraMap(codomain, tuple(value() for _ in range(S.n)))
        # the scan's two values, and two more of theta's kind
        phis = [AlgebraMap(codomain, (c,) * S.n) for c in (zero, one, value(), value())]
        keys, cost = _element_ratios(WS, theta, phis, norm)
        exact = weight != "float" and kind == "rational"
        assert (cost is not None) == exact and len(keys) == len(phis)
        # phis=None costs the scan's 0 and 1 from theta's own values
        tables = [(keys, cost), _element_ratios(WS, theta, None, norm)]
        for v, phi in enumerate(phis):
            alone, alone_cost = _element_ratios(WS, theta, [phi], norm)
            for k, c in tables[: 1 + (v < 2)]:
                if exact:
                    row = [c(v, e) for e in range(S.n)]
                    assert all(isinstance(q, Fraction) for q in row)
                    assert row == [alone_cost(0, e) for e in range(S.n)]
                    # the keys order the costs as the costs order themselves
                    assert np.array_equal(np.argsort(k[v], kind="stable"), np.argsort(row, kind="stable"))
                else:
                    assert [x.hex() for x in k[v]] == [x.hex() for x in alone[0]]


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


def test_nearest_m2_forms_each_seed_idempotent_at_most_once(rng, monkeypatch):
    calls = []
    seed = amnm.oracle.nearest_binary_idempotent

    def counted(A):
        calls.append(A)
        return seed(A)

    monkeypatch.setattr(amnm.oracle, "nearest_binary_idempotent", counted)
    for _ in range(20):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        calls.clear()
        nearest_mult_m2(S, theta, starts=2, seed=0, polish=False)
        assert 0 < len(calls) <= S.n
        assert len({id(A) for A in calls}) == len(calls)


def test_nearest_m2_raises_when_every_map_is_at_infinite_distance():
    # a diagonal entry's modulus is past the float range
    theta = m2_map([Mat2(complex(1.5e308, 1.5e308), 0, 0, 0), M2_ID])
    with pytest.raises(ValueError, match="infinite distance"):
        nearest_mult_m2(nmin(2), theta, starts=2)
    with pytest.raises(ValueError, match="infinite distance"):
        nearest_mult_m2(nmin(2), theta, norm="op", starts=2)


@pytest.mark.parametrize("norm", ["hs", "op"])
def test_nearest_m2_finds_the_idempotent_seed_of_entries_near_the_float_range(norm):
    # theta(0) = [[x, x], [0, 0]] is x times the idempotent [[1, 1], [0, 0]]; its
    # eigenvalue x is nearer 1, so its seed is the idempotent P = [[1, x], [0, 0]]
    # and the map [I - P, I] has defect 0 and distance |theta(0) - (I - P)| = x
    x = 1.5e308
    rep = nearest_mult_m2(nmin(2), m2_map([Mat2(x, x, 0.0, 0.0), M2_ID]), norm=norm, starts=2)
    assert rep.value == x
    assert defect(nmin(2), rep.best_map, norm).defect == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", ["hs", "op"])
def test_nearest_m2_past_the_square_range_agrees_with_its_distance(norm):
    # the squares of 1e200 overflow: the search's own costs rescale as the
    # distance does, so both read 1e200, the distance to [I - P, I] above
    theta = m2_map([Mat2(1e200, 1e200, 0.0, 0.0), M2_ID])
    rep = nearest_mult_m2(nmin(2), theta, norm=norm, starts=2)
    assert rep.value == rep.details["internal_value"] == 1e200


@pytest.mark.parametrize(
    "x", [math.inf, math.nan, 10**400, Fraction(10**400, 3)], ids=["inf", "nan", "int", "fraction"]
)
def test_nearest_m2_refuses_a_non_finite_entry(x):
    # an exact entry past the float range is not finite as a float either
    theta = m2_map([M2_ID, Mat2(0.5, x, 0.0, 0.5)])
    with pytest.raises(ValueError, match=r"theta\(1\) has a non-finite entry"):
        nearest_mult_m2(nmin(2), theta, starts=2)


def test_nearest_m2_refuses_a_negative_starts():
    theta = m2_map([M2_ID, Mat2(0.5, 0.0, 0.0, 0.5)])
    with pytest.raises(ValueError, match="starts must be non-negative, got -3"):
        nearest_mult_m2(nmin(2), theta, starts=-3)
    assert nearest_mult_m2(nmin(2), theta, starts=0).value == 0.5 * math.sqrt(2.0)


def _random_cell(rng, S):
    """Two distinct options' member rows and the cell's elements labelled 1 and 2."""
    rows = np.vstack([np.zeros(S.n, dtype=bool), S.leq])
    i1, i2 = rng.choice(len(rows), size=2, replace=False)
    return rows[i1], rows[i2]


@pytest.mark.parametrize("norm", ["hs", "op"])
def test_cell_cost_is_at_least_its_lower_bound(rng, norm):
    """For random cells and random rank-one idempotents, the cost of ``P``
    (without the P-independent part) is at least the largest bound term over
    the cell's elements: the trace and triangle-inequality terms."""
    op = norm == "op"
    positive = 0
    for _ in range(150):
        S = random_semilattice(rng)
        if S.n < 2:
            continue
        ws = random_submultiplicative_weight(rng, S) if rng.random() < 0.5 else unit_weight(S)
        theta = random_m2_instance(rng, S, amp=float(rng.choice([0.0, 0.05, 1.0])))
        theta_c = [Mat2(*map(complex, v)) for v in theta.values]
        om = [float(w) for w in ws.omega_float]
        bound = amnm.oracle._bound(theta_c, om, op)
        in1, in2 = _random_cell(rng, S)
        p_only, q_only = np.flatnonzero(in1 > in2).tolist(), np.flatnonzero(in2 > in1).tolist()
        idx = p_only + [S.n + e for e in q_only]
        term = max(bound(a, b) for a in idx for b in idx)
        positive += term > 0.0
        cost = amnm.oracle._cell_objective(theta_c, om, p_only, q_only, 0.0, op)
        for _ in range(20):
            x, chart = rng.uniform(-3.0, 3.0, size=4).tolist(), int(rng.integers(4))
            P = amnm.oracle._idempotent_from_params(x, chart)
            if P is not None:
                assert cost(P) >= term * (1.0 - 1e-9)
    assert positive > 50


@pytest.mark.parametrize("norm", ["hs", "op"])
@pytest.mark.parametrize("labels", [(1, 1, 1), (2, 2, 2), (2, 1, 2)])
def test_cell_bound_terms_are_attained(norm, labels):
    """Both terms are tight: ``c = P0 + s I`` costs exactly the trace term at
    ``P0``, and ``c_e = P0 + X``, ``c_f = P0 - (omega_f / omega_e) X`` cost
    exactly the pair term there, whichever labels carry them."""
    op = norm == "op"
    P0 = Mat2(1.0, 2.0, 0.0, 0.0)
    X = Mat2(0.1, -0.2j, 0.3, 0.05)
    om = [1.5, 2.0, 3.0]
    c = [P0 + M2_ID * 0.25, P0 + X, P0 - X * (om[2] / om[1])]
    theta_c = [Mat2(*map(complex, ce if k == 1 else M2_ID - ce)) for ce, k in zip(c, labels)]
    bound = amnm.oracle._bound(theta_c, om, op)
    point = [e if k == 1 else 3 + e for e, k in enumerate(labels)]

    def cost(cell):
        p_only = [e for e in cell if labels[e] == 1]
        q_only = [e for e in cell if labels[e] == 2]
        return amnm.oracle._cell_objective(theta_c, om, p_only, q_only, 0.0, op)(P0)

    assert bound(point[0], point[0]) == pytest.approx(cost([0]), rel=1e-12)
    assert bound(point[1], point[2]) == pytest.approx(cost([1, 2]), rel=1e-12)


# parts of moderate size, and from 0 and the subnormals up to 2**1000: a cell's norms
# run the direct formula and, below _DIRECT_MIN or past the squares' range, the rule
_part = st.one_of(
    st.floats(-4.0, 4.0),
    st.just(0.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000)),
)
_entry = st.builds(complex, _part, _part)
_matrix = st.builds(Mat2, _entry, _entry, _entry, _entry)


@settings(max_examples=400, deadline=None)
@given(
    theta_c=st.lists(_matrix, min_size=1, max_size=4),
    labels=st.lists(st.sampled_from([0, 1, 2]), min_size=4, max_size=4),
    om=st.lists(st.floats(1.0, 8.0), min_size=4, max_size=4),
    P=st.one_of(
        _matrix,
        st.tuples(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4), st.integers(0, 3))
        .map(lambda t: amnm.oracle._idempotent_from_params(*t))
        .filter(lambda P: P is not None),
    ),
    const=st.sampled_from([0.0, 2.0**-600, 0.75, math.inf]),
    op=st.booleans(),
)
@example(  # every difference below _DIRECT_MIN, one exactly zero
    theta_c=[Mat2(2.0**-600, 0j, 0j, 0j), Mat2(0j, 0j, 0j, 0j)], labels=[1, 1, 0, 0],
    om=[1.0] * 4, P=Mat2(0j, 0j, 0j, 0j), const=0.0, op=True,
)
@example(  # squares past the float range, on both labels
    theta_c=[Mat2(2.0**1000, 2.0**1000, 0j, 1j), Mat2(1j, 0j, -(2.0**1000), 0j)],
    labels=[1, 2, 0, 0], om=[1.0] * 4, P=Mat2(0.5, 0.5, 0.5, 0.5), const=0.0, op=False,
)
def test_cell_cost_is_mat2_arithmetic_bit_for_bit(theta_c, labels, om, P, const, op):
    """The parts-based cell cost is ``max(const, ||theta(e) - P|| / omega(e)`` on label 1,
    ``||theta(e) - (I - P)|| / omega(e)`` on label 2``), on ``Mat2`` arithmetic and
    :func:`hs_norm` or :func:`op_norm`: empty, p-only, q-only and mixed cells, both norms."""
    labels = labels[: len(theta_c)]
    p_only = [e for e, k in enumerate(labels) if k == 1]
    q_only = [e for e, k in enumerate(labels) if k == 2]
    norm = op_norm if op else hs_norm
    terms = [norm(theta_c[e] - P) / om[e] for e in p_only]
    terms += [norm(theta_c[e] - (M2_ID - P)) / om[e] for e in q_only]
    cost = amnm.oracle._cell_objective(theta_c, om, p_only, q_only, const, op)
    assert cost(P).hex() == max([const, *terms]).hex()


def test_chart_round_trips_each_rank_one_idempotent(rng):
    """``(x, chart)`` read off an idempotent gives it back through the chart, to
    ``1e-12 (1 + ||P||)``: random bounded draws and the unit cases whose ratios are 0 or 1."""
    cases = [random_bounded_idempotent(rng) for _ in range(2000)]
    cases += [Mat2(1.0, 0.0, 0.0, 0.0), Mat2(0.0, 0.0, 0.0, 1.0), Mat2(0.0, 1.0, 0.0, 1.0)]
    for P in cases:
        entries = amnm.oracle._idempotent_from_params(*amnm.oracle._params_from_idempotent(P))
        tol = 1e-12 * (1.0 + hs_norm(P))
        assert all(abs(got - complex(want)) <= tol for got, want in zip(entries, P))


@pytest.mark.parametrize("chart", range(4))
def test_chart_cuts_at_its_pairing_bound(chart):
    """With ``z = 1`` every chart has ``u* v = 1 + w``, ``|u|**2 = 2`` and ``|v|**2 =
    1 + w**2``: a real ``w`` just inside ``|u* v|**2 >= 1e-6 |u|**2 |v|**2`` (decided in
    exact arithmetic) gives an idempotent, one just outside gives None."""
    delta = 0.0
    for _ in range(50):  # the root near 2e-3 of delta**2 = 2e-6 (1 + (1 - delta)**2)
        delta = math.sqrt(2e-6 * (1.0 + (1.0 - delta) ** 2))
    for w, inside in ((-1.0 + delta * (1.0 + 1e-6), True), (-1.0 + delta * (1.0 - 1e-6), False)):
        q = Fraction(w)
        assert ((1 + q) ** 2 >= Fraction(1, 10**6) * 2 * (1 + q * q)) is inside
        P = amnm.oracle._idempotent_from_params([1.0, 0.0, w, 0.0], chart)
        assert (P is not None) is inside


def test_oracle_calls_no_trigonometry():
    """No ``cos``, ``sin`` or ``atan2`` anywhere in the oracle's source, so its bits do not
    rest on the platform's libm for those."""
    tree = ast.parse(Path(amnm.oracle.__file__).read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"cos", "sin", "atan2"}


_values = st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.5, math.inf, -math.inf, math.nan])
_distinct = st.lists(st.floats(allow_nan=False), min_size=1, max_size=5, unique=True)


@settings(max_examples=300, deadline=None)
@given(
    fsim=st.one_of(
        st.lists(_values, min_size=1, max_size=6),  # ties, NaN and signed zeros
        _distinct,
        # a sorted simplex whose last vertex was replaced, as after each step
        st.tuples(_distinct.map(sorted), st.one_of(_values, st.floats())).map(
            lambda t: [*t[0], t[1]]
        ),
    )
)
@example(fsim=[0.5, 1.0, 2.0, 3.0, 1.5])
@example(fsim=[0.5, 1.0, 2.0, 3.0, 1.0])
@example(fsim=[0.5, 1.0, 2.0, 3.0, math.nan])
@example(fsim=[-0.0, 1.0, 2.0, 0.0])
@example(fsim=[3.0, 1.0, 2.0, 0.5, 4.0])
@example(fsim=[1.0, 1.0, 0.5, 1.0, 2.0])
@example(fsim=[math.nan, 1.0, 0.0, math.nan, -1.0])
@example(fsim=[1.0, 1.0, 1.0, 1.0, 1.0])
@example(fsim=[0.5, 1.0, 1.0, 3.0, 1.0])
def test_simplex_order_is_argsorts(fsim):
    """``_ordered`` puts the vertices in ``np.argsort``'s stable order of their values (ties,
    ±0 included, keep their order; NaN last), whether it moves the last one into place or
    leaves an unsorted simplex or a NaN to argsort."""
    sim = [[float(i)] for i in range(len(fsim))]
    ind = np.array(fsim).argsort(kind="stable").tolist()
    expected = [sim[i] for i in ind]
    got_sim, got_f = amnm.oracle._ordered(sim, fsim)
    assert got_sim == expected
    assert [f.hex() for f in got_f] == [fsim[i].hex() for i in ind]


def _complex_bits(x) -> tuple:
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def _report_record(rep, evaluations: bool = True) -> bytes:
    d = rep.details
    P = d["P"]
    return repr((
        rep.value.hex(),
        rep.witness,
        None if P is None else [_complex_bits(x) for row in P for x in row],
        d["evaluations"] if evaluations else None,
        d["pruned"],
        d["polish_improved"],
        d["internal_value"].hex(),
    )).encode()


def _map_record(rep) -> bytes:
    return repr([_complex_bits(x) for v in rep.best_map.values for x in v]).encode()


def _pinned_oracle_stream():
    """The oracle's reports on the first 150 criterion-7 instances (HS, 8
    starts), the next 50 in the operator norm with 2 starts, and criterion 8's
    two 64-start chain searches."""
    rng = np.random.default_rng(707)
    for k in range(200):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        if k < 150:
            yield nearest_mult_m2(S, theta, starts=8, seed=11)
        else:
            yield nearest_mult_m2(S, theta, norm="op", starts=2, seed=11)
    for ws, chain in (
        (geometric_weight(12), lambda ws: theta_m2_chain(ws, 0.05)),
        (spiked_weight(9, 4, 400), lambda ws: theta_m2_chain_nonuniform(ws, 0.02)),
    ):
        yield nearest_mult_m2(ws, chain(ws).theta, norm="op", starts=64, seed=8)


def test_m2_oracle_results_are_pinned_apart_from_the_evaluation_count():
    """SHA-256 over the pinned stream's results: value, witness, ``P``, the
    pruning count, whether the polish helped, the internal value and every
    entry of the best map keep their bits.  The evaluation count is left out,
    so work the search skips without changing its result does not move it."""
    h = hashlib.sha256()
    for rep in _pinned_oracle_stream():
        h.update(_report_record(rep, evaluations=False))
        h.update(_map_record(rep))
    assert h.hexdigest() == "88cf0bfc1b290ed435296e412de0fccf28bccfd987368f50d0e690648c34ed2d"


def test_skipping_a_polish_that_cannot_win_keeps_every_result_bit(monkeypatch):
    """The skipping search against one that polishes every leader (the skip
    test forced to False): the same bits apart from the evaluation count and
    the skip count, on criterion-7 instances in both norms."""
    rng = np.random.default_rng(707)
    cases = []
    for _ in range(40):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        cases += [(S, theta, {"starts": 8}), (S, theta, {"norm": "op", "starts": 2})]
    skipping = [nearest_mult_m2(S, theta, seed=11, **kw) for S, theta, kw in cases]
    monkeypatch.setattr(amnm.oracle, "_cannot_win", lambda *args: False)
    forced = [nearest_mult_m2(S, theta, seed=11, **kw) for S, theta, kw in cases]
    for one, two in zip(skipping, forced):
        assert _report_record(one, evaluations=False) == _report_record(two, evaluations=False)
        assert _map_record(one) == _map_record(two)
        assert one.details["lower"] == two.details["lower"]
        assert two.details["polish_skipped"] == 0
        assert one.details["evaluations"] <= two.details["evaluations"]
    assert sum(r.details["polish_skipped"] for r in skipping) > 0


def test_m2_oracle_lower_bound_is_below_its_value_in_both_norms():
    """``lower <= value`` on the 500 criterion-7 instances in the operator norm
    (criterion 7 itself checks the HS norm)."""
    rng = np.random.default_rng(707)
    gaps = []
    for _ in range(500):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        rep = nearest_mult_m2(S, theta, norm="op", starts=2, seed=11)
        assert 0.0 <= rep.details["lower"] <= rep.value
        gaps.append(rep.value - rep.details["lower"])
    assert min(gaps) < 1e-5  # the bracket closes on some instances


def test_m2_oracle_internal_value_is_its_recomputed_value():
    """The search's cost of the map it returns and the distance that
    ``weighted_sup_distance_report`` recomputes from that map come from one
    float 2x2 norm: equal bit for bit on the first 100 criterion-7 instances,
    in the HS norm with 8 starts and in the operator norm with 2."""
    rng = np.random.default_rng(707)
    for _ in range(100):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        for kw in ({"starts": 8}, {"norm": "op", "starts": 2}):
            rep = nearest_mult_m2(S, theta, seed=11, **kw)
            assert rep.details["internal_value"].hex() == rep.value.hex()


ORACLE_STREAM_SHA256 = "dbc058085b261ac038058ae40b652bc96b9c124dc917949b167ea68d2e0c5cde"


def oracle_stream_digest() -> str:
    """SHA-256 over the pinned stream's reports, the evaluation count included."""
    h = hashlib.sha256()
    for rep in _pinned_oracle_stream():
        h.update(_report_record(rep))
    return h.hexdigest()


def test_m2_oracle_output_stream_is_pinned():
    assert oracle_stream_digest() == ORACLE_STREAM_SHA256


def test_m2_oracle_output_stream_holds_under_the_baseline_simd_dispatch():
    """The pinned stream's digest, computed in a fresh process under numpy's baseline
    SIMD dispatch, is the pinned one: the polish's vertex order is stable, so no tie
    among simplex values is ordered by the host's sort kernels."""
    here = Path(__file__).parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _baseline_dispatch()}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    code = "from test_oracle import oracle_stream_digest\nprint(oracle_stream_digest())\n"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [ORACLE_STREAM_SHA256]


# ---------------------------------------------------------------------------
# The simplex polish against scipy's Nelder-Mead.
# ---------------------------------------------------------------------------


def _rosenbrock(x):
    return float(sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(3)))


def _plateau(x):
    # flat at 1 near the origin: tied vertex values, contractions and shrinks
    return float(max(1.0, max(abs(t) for t in x)))


def _walled(x):
    # the oracle's wall for a singular pairing, here past x[0] = 1.2
    if x[0] > 1.2:
        return 1e6
    return float(sum((t - 2.0) ** 2 for t in x))


def _nan_region(x):
    if x[1] < -0.5:
        return math.nan
    return float(abs(x[0] - 0.3) + abs(x[1] + 0.4) + abs(x[2]) + abs(x[3]))


# the starts whose simplex meets tied vertex values
_TIED = {(_walled, (1.0, 0.5, 0.0, 1.5)), (_plateau, (2.0, 0.0, -1.0, 0.0))}


@pytest.mark.parametrize(
    "fun, x0, status",
    [
        (_rosenbrock, (-2.0, 2.0, -2.0, 2.0), 2),  # stops at maxiter
        (_plateau, (0.1, -0.2, 0.3, 0.05), 0),
        (_walled, (1.0, 0.5, 0.0, 1.5), 0),
        (_nan_region, (0.0, 0.0, 0.0, 0.0), 2),  # every coordinate takes the zero step
        (_plateau, (2.0, 0.0, -1.0, 0.0), 0),
    ],
)
def test_simplex_polish_matches_scipy_nelder_mead(fun, x0, status):
    """Same result bits and the same number of calls as scipy, on objectives
    that take every step: expansion, reflection, both contractions, shrinks
    (on the plateau), ties, the wall, NaN values and zero start entries; the
    count ``minimize`` returns is scipy's ``nfev``.  Where vertex values tie
    (the wall and the second plateau start), scipy orders them by argsort's
    default, which moves with numpy's SIMD dispatch, and ``minimize`` keeps
    their order: there the reference is the generic port, which orders them as
    ``minimize`` does."""
    calls = {"ours": 0, "ref": 0}

    def counted(key):
        def f(x):
            calls[key] += 1
            return fun(x)

        return f

    ours, nfev = amnm.oracle.minimize(counted("ours"), x0)
    if (fun, x0) in _TIED:
        ref_x = ref_minimize(counted("ref"), x0)
    else:
        scipy_optimize = pytest.importorskip("scipy.optimize")
        ref = scipy_optimize.minimize(
            counted("ref"),
            np.array(x0),
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-9, "fatol": 1e-12},
        )
        assert ref.status == status
        assert ref.nfev == calls["ref"]
        ref_x = ref.x
    assert [float(v).hex() for v in ours] == [float(v).hex() for v in ref_x]
    assert nfev == calls["ours"] == calls["ref"]


def test_importing_amnm_loads_no_scipy():
    """The polish is the oracle's own, so the library and the CLI run without scipy."""
    code = (
        "import sys, amnm, amnm.cli; "
        "sys.exit(' '.join(m for m in sys.modules if m.partition('.')[0] == 'scipy') or None)"
    )
    package_root = str(Path(amnm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert proc.returncode == 0, f"import amnm loaded {proc.stderr.strip()}"
