"""Weights: positivity, submultiplicativity, sublevel closures, flighty constants."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amnm.weights
from amnm import (
    Mat2,
    NonPositiveWeight,
    NotSubmultiplicative,
    building_block_weight,
    check_submultiplicative,
    counterexample_weight,
    defect,
    flighty_constant,
    flighty_report,
    free_semilattice,
    geometric_weight,
    m2_map,
    nearest_mult_m2,
    nearest_mult_scalar,
    nmin,
    orthogonal_free_sum,
    random_semilattice,
    random_submultiplicative_weight,
    scalar_map,
    spiked_weight,
    sublevel_set,
    unit_weight,
    weighted,
    weighted_sup_distance_report,
)


def test_unit_weight_is_all_ones():
    WS = unit_weight(nmin(4))
    assert WS.omega == (1, 1, 1, 1)
    assert WS.is_exact


def test_weighted_rejects_nonpositive_values():
    with pytest.raises(NonPositiveWeight) as exc:
        weighted(nmin(2), (1, 0))
    assert exc.value.witness == 1


def test_weighted_rejects_infinite_values():
    # inf <= inf * omega(y) holds, so no pair of the weight check objects
    for omega, index in [([1.0, float("inf")], 1), ([float("inf"), float("inf")], 0)]:
        with pytest.raises(NonPositiveWeight, match="not finite") as exc:
            weighted(nmin(2), omega)
        assert exc.value.witness == index
    with pytest.raises(NonPositiveWeight):
        geometric_weight(3, float("inf"))
    with pytest.raises(NonPositiveWeight):
        spiked_weight(4, 1, float("inf"))


def test_weighted_rejects_supermultiplicative_values():
    S = free_semilattice(2)
    # omega(xy) = 4 > omega(x) * omega(y) = 1 at the two singletons
    with pytest.raises(NotSubmultiplicative) as exc:
        weighted(S, (1, 1, 4))
    assert exc.value.witness == (0, 1)


@pytest.mark.parametrize("low", [0.5, 1 - 2**-53, 1e-300, Fraction(1, 2), Fraction(2**64 - 1, 2**64)])
@pytest.mark.parametrize("S", [nmin(4), free_semilattice(3), orthogonal_free_sum((2, 3))])
def test_a_weight_below_one_fails_submultiplicativity_at_its_first_pair(S, low):
    # omega(e) < 1 fails at the diagonal pair (e, e), as omega(e) > omega(e)**2, so
    # the refusal is NotSubmultiplicative at the first failing pair, never NonPositiveWeight
    two = Fraction(2) if isinstance(low, Fraction) else 2.0
    for e in range(S.n):
        omega = [two] * S.n
        omega[e] = low
        first = _all_pairs_check(S, omega)
        assert first is not None and first <= (e, e)
        with pytest.raises(NotSubmultiplicative) as exc:
            weighted(S, omega)
        assert exc.value.witness == first


@pytest.mark.parametrize("rest", [1.0, 2.0])
@pytest.mark.parametrize("low", [Fraction(2**64 - 1, 2**64), Fraction(1, 10**400)])
@pytest.mark.parametrize("S", [nmin(4), free_semilattice(3), orthogonal_free_sum((2, 3))])
def test_a_fraction_below_one_among_float_weights_still_fails_submultiplicativity(S, low, rest):
    # a mixed list is compared exactly, each float as its dyadic value, though these
    # Fractions read as 1.0 and 0.0 in float64; the weight is refused at a pair that
    # fails exactly, never built
    for e in range(S.n):
        omega = [rest] * S.n
        omega[e] = low
        i, j = check_submultiplicative(S, omega)
        exact = [Fraction(w) for w in omega]
        assert exact[int(S.table[i, j])] > exact[i] * exact[j]
        with pytest.raises(NotSubmultiplicative) as exc:
            weighted(S, omega)
        assert exc.value.witness == (i, j)


def test_mixed_fraction_and_float_weights_are_compared_exactly():
    # 1 + 2**-53 reads as 1.0 in float64, where 1.0 * 1.0 would pass; exactly,
    # omega(0 * 1) = 1 + 2**-53 > omega(0) omega(1) = 1
    S = free_semilattice(2)
    omega = [1.0, 1.0, Fraction(2**53 + 1, 2**53)]
    assert check_submultiplicative(S, omega) == _all_pairs_check(S, list(map(Fraction, omega))) == (0, 1)
    with pytest.raises(NotSubmultiplicative) as exc:
        weighted(S, omega)
    assert exc.value.witness == (0, 1)


def test_a_submultiplicative_mixed_list_still_builds():
    # omega(0) omega(1) = (4/3)(3/2) = 2 = omega(2), exactly; each weight keeps its type
    omega = [Fraction(4, 3), 1.5, 2.0]
    WS = weighted(free_semilattice(2), omega)
    assert list(WS.omega) == omega and [type(w) for w in WS.omega] == [Fraction, float, float]
    assert not WS.is_exact


@pytest.mark.parametrize(
    "build",
    [lambda: geometric_weight(64), lambda: weighted(free_semilattice(2), [Fraction(4, 3), Fraction(3, 2), 2])],
    ids=["geometric-64", "free-2"],
)
def test_an_exact_weight_keeps_the_integers_its_check_built(build, monkeypatch):
    # the exact scans read the integers that validated the weight: one common denominator
    real, calls = amnm.weights._over_common_denominator, []

    def counted(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(amnm.weights, "_over_common_denominator", counted)
    WS = build()
    W, K = WS._omega_integers
    assert WS._omega_scale == [(math.lcm(*W) // w) ** 2 for w in W]
    assert len(calls) == 1 and [Fraction(w, K) for w in W] == list(WS.omega)


@pytest.mark.parametrize(
    "omega, index, message",
    [
        ([Fraction(1, 2), 0, -1], 1, "0 is not strictly positive"),
        ([Fraction(-1, 2), 1j], 0, r"Fraction\(-1, 2\) is not strictly positive"),
        ([2, 1j, -1], 1, "1j is not a real number"),
        ([2, -1.0, 1j], 1, "-1.0 is not strictly positive"),
    ],
)
def test_the_first_weight_that_is_not_positive_is_refused(omega, index, message):
    # an all-exact list reads its signs off its integers, another weight by weight,
    # and each refuses its first bad weight
    with pytest.raises(NonPositiveWeight, match=rf"omega\[{index}\] = {message}") as exc:
        check_submultiplicative(nmin(len(omega)), omega)
    assert exc.value.witness == index


def test_check_submultiplicative_returns_first_violation():
    S = free_semilattice(2)
    assert check_submultiplicative(S, (1, 1, 1)) is None
    assert check_submultiplicative(S, (1, 1, 4)) == (0, 1)


def test_check_submultiplicative_refuses_a_weight_of_the_wrong_length_or_type():
    with pytest.raises(ValueError, match="weight has 2 entries for a 3-element semilattice"):
        check_submultiplicative(free_semilattice(2), (1, 1))
    with pytest.raises(NonPositiveWeight, match=r"omega\[1\] = 1j is not a real number"):
        check_submultiplicative(nmin(2), (1, 1j))


@pytest.mark.filterwarnings("error")
def test_numpy_float_weights_past_the_square_range_pass_without_a_warning():
    # min**2 overflows to inf, as with Python floats, and so bounds every product
    big = list(np.array([1e200, 1e200]))
    assert not weighted(nmin(2), big).is_exact
    assert check_submultiplicative(nmin(2), [1e200, 1e200]) is None
    assert check_submultiplicative(nmin(2), big) is None
    assert check_submultiplicative(free_semilattice(2), list(np.array([2.0, 2.0, 5.0]))) == (0, 1)
    # exact weights keep the exact comparison
    assert check_submultiplicative(nmin(2), [10**200, 10**200]) is None
    assert check_submultiplicative(free_semilattice(2), [10**200, 10**200, 10**400 + 1]) == (0, 1)


def test_exact_weights_stay_exact_and_floats_do_not():
    S = nmin(3)
    assert weighted(S, (1, 2, Fraction(5, 2))).is_exact
    assert not weighted(S, (1.0, 2.0, 2.5)).is_exact


def test_building_block_weight_is_geometric_with_demoted_zero():
    F = free_semilattice(3)
    values = building_block_weight(F, 2)
    for e in range(F.n):
        if e == F.zero:
            assert values[e] == 2
        else:
            assert values[e] == 2 ** int(F.gamma[e])
    weighted(F, values)  # validates submultiplicativity


def test_counterexample_weight_demotes_block_zeros_to_base():
    T = orthogonal_free_sum((2, 3))
    values = counterexample_weight(T, 2)
    WS = weighted(T, values)
    assert WS.omega[T.zero] == 1
    for (b0, b1), k in zip(T.blocks, (2, 3)):
        block = list(range(b0, b1))
        zero_of_block = block[-1]  # full support comes last within a block
        assert WS.omega[zero_of_block] == 2
        # every other element keeps 2**generator_count, peaking at 2**(k-1)
        assert max(WS.omega[e] for e in block) == 2 ** max(k - 1, 1)


def test_counterexample_weight_rejects_non_block_shapes():
    from amnm import StructureMismatch

    # a chain of three is one non-free block after removing its zero
    with pytest.raises(StructureMismatch):
        counterexample_weight(nmin(3), 2)


def test_counterexample_weight_sees_free2_as_two_singleton_blocks():
    # removing the zero of the two-generator table leaves two disjoint
    # one-element blocks, a legitimate orthogonal sum
    values = counterexample_weight(free_semilattice(2), 2)
    assert values == (2, 2, 1)


def test_sublevel_set_collects_small_weights():
    WS = geometric_weight(5)  # weights 2, 4, 8, 16, 32
    assert sublevel_set(WS, 4) == frozenset({0, 1})
    assert sublevel_set(WS, 1) == frozenset()


def test_flighty_report_on_chain_closure_is_downward():
    WS = geometric_weight(5)
    rep = flighty_report(WS, 8)
    assert rep.sublevel == frozenset({0, 1, 2})
    assert rep.closure == rep.sublevel  # down-sets of a chain are closed
    assert rep.value == 8
    assert not rep.sublevel_empty


def test_flighty_report_empty_sublevel():
    rep = flighty_report(geometric_weight(3), 1)
    assert rep.sublevel_empty
    assert rep.value == 1


def test_flighty_constant_on_block_sums():
    # Two generators of weight <= 2 in one block multiply up to weight 4;
    # with blocks of 2..4 generators the closure of the K=2 sublevel peaks at 8.
    T = orthogonal_free_sum((2, 3, 4))
    WS = weighted(T, counterexample_weight(T, 2))
    assert flighty_constant(WS, 2) == 8
    # adding a 5-generator block doubles the peak
    T5 = orthogonal_free_sum((2, 3, 4, 5))
    WS5 = weighted(T5, counterexample_weight(T5, 2))
    assert flighty_constant(WS5, 2) == 16


def test_spiked_weight_is_submultiplicative_and_non_monotone():
    WS = spiked_weight(7, 3, 50)
    assert WS.omega[3] == 50
    assert WS.omega[4] == 1
    assert check_submultiplicative(WS.S, WS.omega) is None


_HALF_QUARTER, _ZERO_MAP = scalar_map([0.5, 0.25]), scalar_map([0.0, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda WS: defect(WS, _HALF_QUARTER).defect_float,
        lambda WS: weighted_sup_distance_report(WS, _HALF_QUARTER, _ZERO_MAP).value_float,
        lambda WS: nearest_mult_scalar(WS, _HALF_QUARTER).value,
        lambda WS: nearest_mult_m2(WS, m2_map([Mat2(0.5, 0, 0, 0), Mat2(0.25, 0, 0, 0)])).value,
    ],
    ids=["defect", "distance", "nearest-scalar", "nearest-m2"],
)
def test_an_exact_weight_past_the_float_range_is_inf_beside_a_float_map(call):
    """The float view of a weight past the float range is inf, as ``mat2._as_complex``
    reads it: no ``OverflowError``, no warning.  These ratios are below the least
    subnormal, so each reads 0.0; the M2 oracle reads its weights as that inf."""
    WS = weighted(nmin(2), [10**400, 10**400])
    assert WS.omega_float.tolist() == [math.inf, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(WS) == 0.0


@pytest.mark.parametrize("w", [10**400, Fraction(10**401, 3)], ids=["int", "fraction"])
def test_a_ratio_under_a_weight_past_the_float_range_is_the_exact_paths(w):
    """A float ratio under a weight past the float range divides by the weight's
    mantissa and scales by its power of two, both read off the exact weight: each
    call is within a few ulps of the exact path on the same values (dividing by
    the weight's float view, inf, would read 0.0)."""
    WS = weighted(nmin(2), [w, w])
    theta, zero = scalar_map([1e300, 0.0]), scalar_map([0.0, 0.0])
    exact, exact_zero = scalar_map([Fraction(1e300), 0]), scalar_map([0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = defect(WS, theta), defect(WS, exact)
        pairs = [
            (got.defect, want.defect),
            (
                weighted_sup_distance_report(WS, theta, zero).value,
                weighted_sup_distance_report(WS, exact, exact_zero).value,
            ),
            (nearest_mult_scalar(WS, theta).value, nearest_mult_scalar(WS, exact).value),
        ]
    assert got.witness == want.witness == (0, 0)
    for value, reference in pairs:
        assert value > 0.0
        assert abs(value - float(reference)) <= 4 * math.ulp(float(reference))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_weight_is_always_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    S = random_semilattice(rng)
    WS = random_submultiplicative_weight(rng, S)
    assert check_submultiplicative(S, WS.omega) is None
    assert all(w >= 1 for w in WS.omega_float)


# ---------------------------------------------------------------------------
# The vectorised weight check against the all-pairs loop it replaced.
# ---------------------------------------------------------------------------


def _all_pairs_check(S, omega):
    """The former all-pairs loop of check_submultiplicative, as the reference."""
    table = S.table
    for i in range(S.n):
        for j in range(S.n):
            if omega[int(table[i, j])] > omega[i] * omega[j]:
                return (i, j)
    return None


_WEIGHT_POOL = [nmin(4), free_semilattice(3), orthogonal_free_sum((2, 3))]
_WEIGHT_POOL += [random_semilattice(np.random.default_rng(seed)) for seed in range(4)]
# exact weights with integers and common denominators past 2**63, and float
# weights whose products overflow to inf
_EXACT_WEIGHT = st.one_of(
    st.integers(1, 4),
    st.integers(2**62, 2**80),
    st.fractions(min_value=1, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(2**64, 2**66), st.integers(2**63, 2**64)),
)
_FLOAT_WEIGHT = st.one_of(st.floats(1.0, 4.0), st.floats(1e150, 1e300))


_SEMILATTICES = st.one_of(
    st.sampled_from(_WEIGHT_POOL),
    st.builds(random_semilattice, st.builds(np.random.default_rng, st.integers(0, 2**32 - 1))),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_submultiplicative_matches_the_all_pairs_loop(data):
    # with every weight >= 1 the check compares incomparable pairs only; one
    # weight below 1 sends it back to all pairs
    S = data.draw(_SEMILATTICES)
    exact = data.draw(st.booleans())
    draw_weight = _EXACT_WEIGHT if exact else _FLOAT_WEIGHT
    if data.draw(st.booleans()):  # a float among exact weights, or the other way round
        draw_weight = st.one_of(_EXACT_WEIGHT, _FLOAT_WEIGHT)
    omega = [data.draw(draw_weight) for _ in range(S.n)]
    if data.draw(st.booleans()):
        # monotone weights >= 1 are submultiplicative: omega(xy) <= omega(x)
        below = [[y for y in range(S.n) if int(S.table[x, y]) == y] for x in range(S.n)]
        omega = [max(omega[y] for y in below[x]) for x in range(S.n)]
        if data.draw(st.booleans()):  # plant a violation at a drawn pair
            i, j = data.draw(st.integers(0, S.n - 1)), data.draw(st.integers(0, S.n - 1))
            omega[int(S.table[i, j])] = 2 * omega[i] * omega[j]
    if data.draw(st.booleans()):
        omega[data.draw(st.integers(0, S.n - 1))] = Fraction(1, 2) if exact else 0.5
    # one exact weight makes every comparison exact, unless a planted product overflowed to inf
    mixed = any(isinstance(w, (int, Fraction)) for w in omega) and math.inf not in omega
    reference = [Fraction(w) for w in omega] if mixed else omega
    assert check_submultiplicative(S, omega) == _all_pairs_check(S, reference)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("late", [100, 200])
def test_the_first_violation_can_sit_in_a_later_row_block(exact, late):
    # 255 elements make four row blocks of 64 rows.  Rows below ``late`` weigh
    # 4, which no product outweighs; the others weigh 1, but the zero weighs 2,
    # so the first violation is a pair in row ``late`` whose product is the zero
    S = free_semilattice(8)
    omega = [4 if e < late else 1 for e in range(S.n)]
    omega[S.zero] = 2
    omega = omega if exact else [float(w) for w in omega]
    witness = check_submultiplicative(S, omega)
    assert witness == _all_pairs_check(S, omega)
    assert witness[0] == late and int(S.table[witness]) == S.zero
