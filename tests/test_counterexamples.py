"""Counterexample families: exact defect formulas and certified distance floors."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnm import (
    ClassificationFailure,
    Mat2,
    NoEligibleIndex,
    StructureMismatch,
    defect,
    enumerate_mult_scalar,
    enumerate_mult_t2,
    free_semilattice,
    geometric_weight,
    m2_map,
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
from amnm import counterexamples
from amnm.counterexamples import _check_closed_form
from amnm.defects import _candidate_pairs, _integers
from amnm.oracle import _exhaustive_nearest


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


@pytest.mark.parametrize("base, sizes", [(2.0, (2, 3, 4)), (2.5, (2, 3))])
def test_block_family_with_a_float_base(base, sizes):
    # the float scans give no exact squares; the closed forms hold to 1e-12 relative
    reports = psi_n_family(base, sizes)
    assert len(reports) == len(sizes)
    for r, k in zip(reports, sizes):
        assert r.defect.defect_sq is None and r.distance_exact is None
        assert r.defect.defect_float == pytest.approx(base**-k, rel=1e-12)
        assert r.distance_lower_bound == pytest.approx(1 / base, rel=1e-12)
        assert r.method == "exhaustive"


def test_block_family_defect_recomputes_independently():
    report = psi_n_family(base=2, sizes=(3,))[0]
    T = orthogonal_free_sum((3,))
    from amnm import counterexample_weight

    WS = weighted(T, counterexample_weight(T, 2))
    again = defect(WS, report.theta)
    assert again.defect == report.defect.defect


def test_block_family_takes_its_sizes_once():
    # an iterator is read once: the size check no longer drains it before the build
    reports = psi_n_family(2, iter([2, 3]))
    assert [r.defect.defect for r in reports] == [Fraction(1, 4), Fraction(1, 8)]
    assert all(r.params["sizes"] == (2, 3) for r in reports)


def test_block_family_refuses_a_float_size_after_an_int_one():
    # 2.0 == 2, but a float size is keyed apart from an int one and fails to build
    psi_n_family(2, (2, 3))
    with pytest.raises(TypeError):
        psi_n_family(2, (2.0, 3))


@pytest.fixture
def fresh_carriers():
    # a carrier cached under a patch must not serve a later test
    counterexamples._psi_carrier.cache_clear()
    yield
    counterexamples._psi_carrier.cache_clear()


def test_repeated_block_family_calls_build_one_carrier(monkeypatch, fresh_carriers):
    built = []
    real = counterexamples.counterexample_weight
    monkeypatch.setattr(
        counterexamples, "counterexample_weight", lambda *args: built.append(args) or real(*args)
    )
    first, second = psi_n_family(2, (2, 3)), psi_n_family(2, (2, 3))
    assert len(built) == 1
    assert [r.defect.defect for r in second] == [r.defect.defect for r in first]
    assert all(a.theta is not b.theta for a, b in zip(first, second))  # fresh maps, fresh scans


def test_exact_and_float_bases_of_equal_value_build_their_own_carriers(fresh_carriers):
    # 2, Fraction(2) and 2.0 hash alike; in either order each base keeps its own carrier
    for order in ((2, 2.0), (2.0, 2)):
        counterexamples._psi_carrier.cache_clear()
        reports = {type(base): psi_n_family(base, (2, 3)) for base in order}
        assert [r.defect.defect_sq for r in reports[int]] == [Fraction(1, 16), Fraction(1, 64)]
        assert all(r.distance_exact == Fraction(1, 2) for r in reports[int])
        assert all(r.defect.defect_sq is None and r.distance_exact is None for r in reports[float])


def _moved_defect(real):
    return lambda *args: dataclasses.replace(real(*args), defect_sq=Fraction(1, 9))


def _moved_distance(real):
    def moved(*args):
        near, row = real(*args)
        return dataclasses.replace(near, value=1 / 3, value_exact=Fraction(1, 3)), row

    return moved


@pytest.mark.parametrize(
    "name, patch, message",
    [
        ("defect", _moved_defect, "block 0: defect"),
        ("_exhaustive_nearest", _moved_distance, "block 0: distance"),
    ],
)
def test_a_cached_carrier_still_checks_each_block(
    monkeypatch, fresh_carriers, name, patch, message
):
    psi_n_family(2, (2, 3))  # fills the cache
    monkeypatch.setattr(counterexamples, name, patch(getattr(counterexamples, name)))
    with pytest.raises(ClassificationFailure, match=message):
        psi_n_family(2, (2, 3))
    assert counterexamples._psi_carrier.cache_info().hits == 1


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


def test_the_companion_leaves_the_exact_defect_scan_no_pair():
    # the companion is exactly multiplicative: the integer zero test drops
    # every one of its pairs before any norm is formed
    WS = geometric_weight(64)
    for m in range(64):
        N, L = _integers(theta_m_t2(WS, m).details["companion"])
        assert list(_candidate_pairs(WS, N, L, "op")) == []


def test_t2_chain_survives_weights_past_the_float_range():
    # omega(k) = 2**(30 (k + 1)) reaches 2**1200, beyond any float
    WS = geometric_weight(40, base=2**30)
    for m in (3, 20, 39):
        r = theta_m_t2(WS, m)
        assert r.defect.witness == (m, m)
        assert r.defect.defect_sq == 1 / Fraction(WS.omega[m]) ** 2
        assert r.distance_exact == 1


def test_t2_chain_refuses_a_defect_off_its_witness(monkeypatch):
    real = counterexamples.defect
    monkeypatch.setattr(
        counterexamples,
        "defect",
        lambda *args: dataclasses.replace(real(*args), witness=(0, 0)),
    )
    with pytest.raises(ClassificationFailure, match=r"defect witness \(0, 0\) is not \(3,3\)"):
        theta_m_t2(geometric_weight(12), 3)


def test_t2_chain_refuses_a_companion_with_a_defect(monkeypatch):
    # only the companion's defect is read in the operator norm
    real = counterexamples.defect

    def moved(WS, theta, *norm):
        rep = real(WS, theta, *norm)
        return dataclasses.replace(rep, defect=Fraction(1, 2)) if norm else rep

    monkeypatch.setattr(counterexamples, "defect", moved)
    with pytest.raises(ClassificationFailure, match="companion map is not exactly multiplicative"):
        theta_m_t2(geometric_weight(12), 3)


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


@pytest.mark.parametrize("spike", [1e80, 1e160, 1e200, 1e300])
def test_m2_chain_nonuniform_with_float_weights_past_the_square_range(spike):
    # omega(i)^2 and the squares of theta(i)'s entries overflow a float, so the
    # float kernels rescale; the defect is 2 sqrt(1 + omega(i)^2) / omega(i)^2
    WS = spiked_weight(9, 4, spike)
    r = theta_m2_chain_nonuniform(WS, 0.05)
    expected = 2 / spike * math.sqrt(1 + 1 / spike / spike)
    assert r.defect.witness == (4, 4)
    for norm in ("hs", "op"):
        rep = defect(WS, r.theta, norm)
        assert rep.witness == (4, 4)
        assert rep.defect_float == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("spike", [1e80, 1e160, 1e200, 1e300])
def test_the_closed_form_check_separates_a_relative_error_at_every_scale(spike):
    # the defect is below any absolute tolerance here, and from w = 1.3e154 on
    # its square 4 (1/w^2 + 1/w^4) leaves the normal float range; the check
    # squares the reported value in Fraction and compares relatively
    r = theta_m2_chain_nonuniform(spiked_weight(9, 4, spike), 0.05)
    inv = 1 / Fraction(spike)
    expected_sq = 4 * (inv**2 + inv**4)
    value = r.defect.defect_float
    _check_closed_form(value, None, expected_sq, "defect")
    with pytest.raises(ClassificationFailure):
        _check_closed_form(value * (1 + 1e-9), None, expected_sq, "defect")


_M2_CHAINS = [
    (theta_m2_chain, lambda: geometric_weight(12), 0.05),
    (theta_m2_chain_nonuniform, lambda: spiked_weight(9, 4, 400), 0.02),
]


@pytest.mark.parametrize("family, carrier, delta", _M2_CHAINS)
def test_an_m2_chain_refuses_a_defect_off_its_witness(monkeypatch, family, carrier, delta):
    real = counterexamples.defect
    monkeypatch.setattr(
        counterexamples,
        "defect",
        lambda *args: dataclasses.replace(real(*args), witness=(0, 0)),
    )
    with pytest.raises(ClassificationFailure, match=r"defect witness \(0, 0\) is not"):
        family(carrier(), delta)


@pytest.mark.parametrize("family, carrier, delta", _M2_CHAINS)
def test_an_m2_chain_refuses_a_defect_past_its_cap(monkeypatch, family, carrier, delta):
    # the exact square still matches the closed form, but the value read as
    # the defect is 1, far past delta
    real = counterexamples.defect
    monkeypatch.setattr(
        counterexamples,
        "defect",
        lambda *args: dataclasses.replace(real(*args), defect=Fraction(1)),
    )
    with pytest.raises(ClassificationFailure, match="exceeds its cap"):
        family(carrier(), delta)


def test_m2_chain_nonuniform_refuses_a_selected_index_without_a_spike(monkeypatch):
    # index 0 of the spiked chain has omega(0) = omega(1) = 1, so the lemma's
    # omega(i) >= 2 omega(i+1) fails there
    monkeypatch.setattr(counterexamples, "_eligible_index", lambda *args: 0)
    with pytest.raises(ClassificationFailure, match=r"omega\(i\) >= 2 omega\(i\+1\) failed"):
        theta_m2_chain_nonuniform(spiked_weight(9, 4, 400), 0.02)


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
# ties in floats come from the repeated simple values
_FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.5j, 1 + 0.5j]),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)


def _per_map_nearest(WS, theta, maps):
    """The first map at the least distance, one distance report per map: by
    the exact square when the report has one, else by the float value."""
    best = None
    for m in maps:
        dr = weighted_sup_distance_report(WS, theta, m)
        key = dr.value_float if dr.value_sq is None else dr.value_sq
        if best is None or key < best[0]:
            best = (key, dr, m)
    return best[1:]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nearest_scan_matches_a_scan_of_every_map(data):
    S = data.draw(st.sampled_from(_CARRIERS))
    weight = data.draw(st.sampled_from(["unit", "rational", "float"]))
    if weight == "unit":
        WS = unit_weight(S)
    else:
        # monotone weights >= 1 are submultiplicative, in floats too
        c = data.draw(st.lists(st.fractions(0, 5, max_denominator=4), min_size=S.n, max_size=S.n))
        omega = [1 + sum(c[y] for y in range(S.n) if S.table[x, y] == y) for x in range(S.n)]
        WS = weighted(S, omega if weight == "rational" else [float(w) for w in omega])
    entries = data.draw(st.sampled_from([_VALUES, _FLOAT_VALUES]))
    values = data.draw(st.lists(entries, min_size=S.n, max_size=S.n))
    if data.draw(st.booleans()):
        theta, maps = scalar_map(values), enumerate_mult_scalar(S)
        near = nearest_mult_scalar(WS, theta)
    else:
        nil = data.draw(st.lists(entries, min_size=S.n, max_size=S.n))
        theta, maps = t2_map(zip(values, nil)), enumerate_mult_t2(S)
        near = nearest_mult_t2(WS, theta)
    dr, m = _per_map_nearest(WS, theta, maps)
    assert near.best_map.values == m.values
    assert near.witness == dr.witness
    assert near.value.hex() == dr.value_float.hex()
    assert near.value_exact == (dr.value if dr.exact_value else None)
    if dr.value_sq is None:  # the float path
        assert near.value_exact is None
    assert near.details["maps_scanned"] == len(maps)
    assert maps[_exhaustive_nearest(WS, theta)[1]].values == near.best_map.values


# ---------------------------------------------------------------------------
# The exact per-element scans against a plain Fraction reference.
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17)
# zeros and repeats make zero differences and ties; past 2**63 and below 1/2**64
_EXACT_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(1, 3), Fraction(-2, 7), 2**64 + 3, Fraction(1, 2**64 + 1), 10**30]),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


def _ref_sq(d, norm):
    """The squared norm of a difference: a number, a T2 pair or four matrix
    entries; None for an irrational operator norm."""
    if norm == "abs":
        return d * d
    if norm == "t2":
        return (abs(d[0]) + abs(d[1])) ** 2
    a, b, c, e = d
    t, det = a * a + b * b + c * c + e * e, a * e - b * c
    if norm == "hs" or det == 0:
        return t
    disc = t * t - 4 * det * det  # op**2 = (t + sqrt(disc)) / 2
    root = _ref_root(disc)
    return None if root is None else (t + root) / 2


def _ref_root(q):
    q = Fraction(q)
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def _ref_distance(omega, theta, phi, norm):
    """``(value_sq, witness)``: the first maximum of ``||theta(e) - phi(e)||**2 / omega(e)**2``
    over the elements, each a Fraction; ValueError where an irrational operator norm's HS
    square tops every rational one."""
    best_sq, witness, irrational = Fraction(-1), None, Fraction(-1)
    for e, (t, p, w) in enumerate(zip(theta, phi, omega)):
        d = t - p if norm == "abs" else [x - y for x, y in zip(t, p)]
        sq = _ref_sq(d, norm)
        if sq is None:
            irrational = max(irrational, Fraction(_ref_sq(d, "hs")) / Fraction(w) ** 2)
        elif Fraction(sq) / Fraction(w) ** 2 > best_sq:
            best_sq, witness = Fraction(sq) / Fraction(w) ** 2, e
    if irrational > best_sq:
        raise ValueError("an irrational operator norm at the maximum")
    return best_sq, witness


@st.composite
def _exact_weights(draw, S):
    """Monotone weights >= 1 over coprime denominators, times a scale up to past the float range."""
    c = [Fraction(draw(st.integers(0, 4)), p) for p in _PRIMES[: S.n]]
    scale = draw(st.sampled_from([1, 2**64 + 1, 10**400, Fraction(10**400, 3)]))
    return weighted(S, [scale * (1 + sum(c[y] for y in range(S.n) if S.table[x, y] == y)) for x in range(S.n)])


def _check_value(rep_value, exact_value, value_sq):
    root = _ref_root(value_sq)
    if root is not None:
        assert exact_value == root and rep_value == float(root)
    else:  # the float view of an irrational root: below the float range it is 0.0
        root = math.sqrt(value_sq.numerator / value_sq.denominator) if value_sq > Fraction(1, 10**300) else 0.0
        assert exact_value is None and math.isclose(rep_value, root, rel_tol=1e-14, abs_tol=1e-150)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_scans_match_a_plain_fraction_reference(data):
    # the distance report and the exhaustive scan on exact input against a
    # per-element Fraction maximum that shares no code with the defects module
    S = data.draw(st.sampled_from(_CARRIERS[:3] + [nmin(1)]))
    WS = data.draw(_exact_weights(S))
    codomain = data.draw(st.sampled_from(["scalar", "t2", "m2-hs", "m2-op"]))
    width = {"scalar": 1, "t2": 2}.get(codomain, 4)
    # diagonal matrices have rational operator norms, which may top irrational ones
    diagonal = st.tuples(_EXACT_VALUES, st.just(0), st.just(0), _EXACT_VALUES)
    value = st.one_of(st.tuples(*[_EXACT_VALUES] * width), *[diagonal] * (width == 4))
    rows = [data.draw(value) for _ in range(S.n)]
    # phi shares theta's value at some elements: zero differences
    other = [r if data.draw(st.booleans()) else data.draw(value) for r in rows]
    if codomain == "scalar":
        ref_theta, ref_phi = [r[0] for r in rows], [r[0] for r in other]
        theta, phi, norm = scalar_map(ref_theta), scalar_map(ref_phi), "abs"
    elif codomain == "t2":
        theta, phi, norm, ref_theta, ref_phi = t2_map(rows), t2_map(other), "t2", rows, other
    else:
        theta, phi = m2_map([Mat2(*r) for r in rows]), m2_map([Mat2(*r) for r in other])
        norm, ref_theta, ref_phi = codomain[3:], rows, other
    try:
        value_sq, witness = _ref_distance(WS.omega, ref_theta, ref_phi, norm)
    except ValueError:
        with pytest.raises(ValueError, match="perfect-square discriminant"):
            weighted_sup_distance_report(WS, theta, phi, norm)
        return
    dr = weighted_sup_distance_report(WS, theta, phi, norm)
    assert (dr.value_sq, dr.witness, dr.exact_value) == (value_sq, witness, _ref_root(value_sq) is not None)
    _check_value(dr.value_float, dr.value if dr.exact_value else None, value_sq)
    if codomain not in ("scalar", "t2"):
        return
    # the nearest 0/1 map: the first map of least distance, and its first witness
    maps = enumerate_mult_scalar(S) if codomain == "scalar" else enumerate_mult_t2(S)
    nearest = nearest_mult_scalar if codomain == "scalar" else nearest_mult_t2
    one_zero = {1: (1, 0), 0: (0, 0)}
    per_map = []
    for m in maps:
        values = [v if codomain == "scalar" else one_zero[v.a] for v in m.values]
        per_map.append(_ref_distance(WS.omega, ref_theta, values, norm))
    best = min(range(len(maps)), key=lambda k: per_map[k][0])
    near = nearest(WS, theta)
    assert near.best_map.values == maps[best].values
    assert near.witness == per_map[best][1]
    assert near.value_exact is None or near.value_exact**2 == per_map[best][0]
    _check_value(near.value, near.value_exact, per_map[best][0])


def test_exact_scans_build_a_fixed_number_of_fractions(monkeypatch):
    # every Fraction the defects and oracle modules construct is counted: an
    # exact scan builds one per report, however long the chain
    from amnm import defects, oracle

    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls, *args, **kwargs)

    def counts(n):
        WS = geometric_weight(n)
        m = n // 2
        theta = t2_map([(0, 0)] * m + [(1, WS.omega[m])] + [(1, 0)] * (n - m - 1))
        near = nearest_mult_t2(WS, theta)
        with monkeypatch.context() as patch:
            patch.setattr(defects, "Fraction", Counted)
            patch.setattr(oracle, "Fraction", Counted)
            built.clear()
            _exhaustive_nearest(WS, theta)
            scan = len(built)
            report = weighted_sup_distance_report(WS, theta, near.best_map)
        assert report.value == 1 and report.exact_value
        return scan, len(built) - scan

    assert counts(16) == counts(64)
    assert 0 < counts(64)[0]
