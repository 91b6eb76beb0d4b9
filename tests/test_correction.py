"""Correction procedures: certified bounds, classification data, failure modes."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnm import (
    M2_ID,
    M2_ZERO,
    ClassificationFailure,
    DefectTooLarge,
    Mat2,
    PreconditionGap,
    characters,
    correct_m2,
    correct_scalar,
    correct_t2,
    correct_weighted,
    defect,
    enumerate_filters,
    filter_indicator,
    free_semilattice,
    geometric_weight,
    is_filter,
    generated,
    m2_map,
    nearest_binary_idempotent,
    nmin,
    random_binary_weighted_instance,
    random_m2_instance,
    random_scalar_instance,
    random_semilattice,
    random_submultiplicative_weight,
    random_t2_instance,
    scalar_map,
    sublevel_set,
    t2_map,
    weighted,
    weighted_sup_distance,
)
from amnm import correction
from amnm.correction import _m2_battery


# ---------------------------------------------------------------------------
# Scalar.
# ---------------------------------------------------------------------------


def test_scalar_correction_bound_on_random_instances(rng):
    for _ in range(100):
        S = random_semilattice(rng)
        psi = random_scalar_instance(rng, S)
        cert = correct_scalar(S, psi)
        assert cert.target == "scalar"
        assert cert.corrected_defect <= 1e-9
        assert cert.achieved_distance <= 1.4 * cert.input_defect + 1e-9
        members = cert.details["S1"]
        assert not members or is_filter(S, members)


def test_scalar_correction_is_identity_on_characters():
    S = free_semilattice(2)
    for chi in characters(S):
        cert = correct_scalar(S, chi)
        assert cert.achieved_distance == 0
        assert tuple(cert.corrected.values) == tuple(chi.values)


def test_scalar_correction_of_the_zero_map():
    S = nmin(3)
    cert = correct_scalar(S, scalar_map([0.0, 0.0, 0.0]))
    assert cert.achieved_distance == 0
    assert set(cert.corrected.values) == {0}


def test_scalar_correction_rejects_large_defect():
    S = free_semilattice(2)
    # indicator of the two singletons: psi(x)psi(y) = 1 but psi(xy) = 0
    with pytest.raises(DefectTooLarge) as exc:
        correct_scalar(S, scalar_map([1.0, 1.0, 0.0]))
    assert exc.value.threshold == pytest.approx(0.2)


def test_scalar_correction_rejects_weighted_input():
    WS = geometric_weight(3)
    with pytest.raises(TypeError):
        correct_scalar(WS, scalar_map([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# Weighted scalar.
# ---------------------------------------------------------------------------


def test_weighted_correction_bound_and_classification(rng):
    done = 0
    while done < 60:
        S = random_semilattice(rng)
        WS = random_submultiplicative_weight(rng, S)
        epsilon = float(rng.uniform(0.1, 0.6))
        psi = random_binary_weighted_instance(rng, WS, epsilon)
        cert = correct_weighted(WS, psi, epsilon)
        assert cert.achieved_distance <= epsilon + 1e-12
        # the sublevel set fixed by the construction is exactly recovered
        E = set(cert.details["E"])
        fixed = {e for e in sublevel_set(WS, 2.0 / epsilon) if psi.values[e] == 1}
        assert E == fixed
        F = cert.details["filter"]
        if E:
            assert set(F) & set(cert.details["sublevel"]) == E
            # psi is identically 1 on the subsemilattice generated by E
            for e in generated(S, E):
                assert psi.values[e] == 1
        else:
            assert F is None
            assert set(cert.corrected.values) == {0}
        done += 1


def test_weighted_correction_requires_margin_below_one():
    WS = geometric_weight(4)  # weights 2, 4, 8, 16
    # defect 1/4 at the pair (0,1): psi flips at 1
    psi = scalar_map([1, 0, 1, 1])
    eps = 0.05
    with pytest.raises(PreconditionGap) as exc:
        correct_weighted(WS, psi, eps)
    assert exc.value.margin >= 1.0


def test_weighted_correction_rejects_non_binary_values():
    WS = geometric_weight(3)
    with pytest.raises(ValueError, match="round"):
        correct_weighted(WS, scalar_map([0.9, 1.0, 1.0]), 0.5)


def test_m2_correction_refuses_an_exact_entry_past_the_float_range():
    # theta is exactly multiplicative (theta(0) is idempotent), so its exact defect
    # is 0, but no float holds theta(0)'s corner for the construction
    theta = m2_map([Mat2(1, 10**400, 0, 0), M2_ID])
    assert defect(nmin(2), theta, "hs").defect == 0
    with pytest.raises(ValueError, match=r"theta\(0\) has a non-finite entry"):
        correct_m2(nmin(2), theta)


def test_weighted_correction_refuses_an_exact_value_past_the_float_range():
    # no float holds 10**400: the value is compared with 0 and 1 as it is
    with pytest.raises(ValueError, match="value at 0 is 1000"):
        correct_weighted(weighted(nmin(1), [1]), scalar_map([10**400]), 1.0)


@pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), 0.0, -1.0])
def test_weighted_correction_refuses_an_epsilon_that_is_not_positive_and_finite(epsilon):
    # an infinite epsilon makes the level 2/epsilon zero and the claimed bound
    # inf, which no document can carry
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        correct_weighted(geometric_weight(3), scalar_map([1, 1, 1]), epsilon)


# ---------------------------------------------------------------------------
# Upper-triangular (dual-number) target.
# ---------------------------------------------------------------------------


def test_t2_correction_bound_on_random_instances(rng):
    for _ in range(100):
        S = random_semilattice(rng)
        theta = random_t2_instance(rng, S)
        cert = correct_t2(S, theta)
        assert cert.corrected_defect <= 1e-9
        assert cert.achieved_distance <= (25.0 / 11.0) * cert.input_defect + 1e-9
        # corrected map is a scalar character embedded on the diagonal
        assert all(v.b == 0 for v in cert.corrected.values)
        assert set(v.a for v in cert.corrected.values) <= {0, 1}


def test_t2_correction_kills_the_nilpotent_part():
    S = nmin(2)
    theta = t2_map([(0.01, 0.02), (0.99, -0.015)])
    cert = correct_t2(S, theta)
    assert [v.a for v in cert.corrected.values] == [0, 1]


def test_t2_correction_rejects_large_defect():
    S = free_semilattice(2)
    with pytest.raises(DefectTooLarge):
        correct_t2(S, t2_map([(1, 0), (1, 0), (0, 0)]))


# ---------------------------------------------------------------------------
# Full 2x2 target.
# ---------------------------------------------------------------------------


def test_m2_correction_bound_and_idempotent_choice(rng):
    for _ in range(40):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        delta = defect(S, theta, "hs").defect_float
        cert = correct_m2(S, theta)
        assert cert.norm == "hs"
        assert cert.claimed_bound == pytest.approx(12.0 * cert.input_defect)
        assert cert.achieved_distance <= 12.0 * delta + 1e-9
        assert cert.corrected_defect <= 1e-9
        if cert.details["S1"]:
            p0 = cert.details["p0"]
            P, _ = nearest_binary_idempotent(theta.values[p0])
            assert cert.details["P"] == [[P.a, P.b], [P.c, P.d]]


def test_m2_correction_rejects_stated_delta_above_threshold(rng):
    S = nmin(3)
    theta = random_m2_instance(rng, S)
    with pytest.raises(DefectTooLarge):
        correct_m2(S, theta, delta=0.03)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1.0])
def test_m2_correction_refuses_a_delta_that_is_not_finite_and_non_negative(delta):
    # a bad parameter, not an unmet precondition (DefectTooLarge)
    with pytest.raises(ValueError, match="delta must be non-negative and finite"):
        correct_m2(nmin(2), m2_map([M2_ID, M2_ID]), delta=delta)


def test_m2_correction_takes_a_zero_delta_for_a_multiplicative_map():
    cert = correct_m2(nmin(2), m2_map([M2_ID, M2_ID]), delta=0)
    assert cert.corrected_defect == 0.0 and cert.achieved_distance == 0.0


def test_m2_correction_rejects_understated_delta(rng):
    S = nmin(3)
    theta = random_m2_instance(rng, S, threshold=0.02)
    measured = defect(S, theta, "hs").defect_float
    if measured > 0.0:
        with pytest.raises(DefectTooLarge):
            correct_m2(S, theta, delta=measured / 2.0)


def test_m2_correction_distance_verified_independently(rng):
    for _ in range(20):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        cert = correct_m2(S, theta)
        again = weighted_sup_distance(S, theta, cert.corrected, "hs")
        assert float(again) == pytest.approx(cert.achieved_distance, abs=1e-12)


# A map on the 3-chain near (0, P, I), P = [[1, 0.002], [0, 0]], with defect about
# 0.0011: one element in each trace class, so correct_m2 certifies it through
# key_estimates at the base point 1.  Each test below patches one step.
_CHAIN = nmin(3)
_NEAR_0_P_I = m2_map(
    [
        Mat2(0.001 + 0j, 0j, 0.0005 + 0j, 0j),
        Mat2(1.001 + 0j, 0.002 + 0j, 0j, 0.0005 + 0j),
        Mat2(1 + 0j, 0j, 0j, 0.999 + 0j),
    ]
)


def _patched_key_estimates(monkeypatch, **fields):
    real = correction.key_estimates
    monkeypatch.setattr(
        correction,
        "key_estimates",
        lambda *args: dataclasses.replace(real(*args), **fields),
    )


def test_m2_correction_refuses_a_base_point_outside_the_middle_class(monkeypatch):
    _patched_key_estimates(monkeypatch, trace_class=0)
    with pytest.raises(ClassificationFailure, match="^base point's trace class is not 1$"):
        correct_m2(_CHAIN, _NEAR_0_P_I)


def test_m2_correction_refuses_a_projection_that_is_not_rank_one(monkeypatch):
    _patched_key_estimates(monkeypatch, nearby_idempotent=M2_ID)
    with pytest.raises(
        ClassificationFailure, match="^projection near the base point is not rank one$"
    ):
        correct_m2(_CHAIN, _NEAR_0_P_I)


def test_m2_correction_refuses_a_projection_far_from_the_base_point(monkeypatch):
    # rank one and idempotent, but the other diagonal projection: HS distance about sqrt(2)
    _patched_key_estimates(monkeypatch, nearby_idempotent=Mat2(0j, 0j, 0j, 1 + 0j))
    with pytest.raises(
        ClassificationFailure,
        match=r"^projection strayed beyond rho\(delta\)\*delta of the base point$",
    ):
        correct_m2(_CHAIN, _NEAR_0_P_I)


def test_the_certificate_refuses_a_corrected_map_with_a_defect(monkeypatch):
    # the second defect call is _certify's, on the corrected map
    real, calls = correction.defect, []

    def moved(*args):
        calls.append(args)
        rep = real(*args)
        return dataclasses.replace(rep, defect=1e-6) if len(calls) == 2 else rep

    monkeypatch.setattr(correction, "defect", moved)
    with pytest.raises(ClassificationFailure, match=r"^corrected map has defect 1e-06 > 1e-9$"):
        correct_m2(_CHAIN, _NEAR_0_P_I)
    assert len(calls) == 2 and calls[1][1] is not _NEAR_0_P_I


@pytest.mark.parametrize("moved_element", [0, 1, 2])
def test_the_certificate_alone_refuses_a_value_outside_its_12_delta_ball(
    monkeypatch, moved_element
):
    # the distance is measured to the corrected map with one value moved by 25 delta,
    # so that value lies more than 12 delta from theta's: the certificate's distance
    # check is the only check of the 12 delta bound
    delta = defect(_CHAIN, _NEAR_0_P_I, "hs").defect_float
    real = correction.weighted_sup_distance_report

    def moved(ws, theta, phi, norm):
        values = list(phi.values)
        values[moved_element] = values[moved_element] + Mat2(25 * delta + 0j, 0j, 0j, 0j)
        return real(ws, theta, m2_map(values), norm)

    monkeypatch.setattr(correction, "weighted_sup_distance_report", moved)
    with pytest.raises(ClassificationFailure) as info:
        correct_m2(_CHAIN, _NEAR_0_P_I)
    bound = 12.0 * delta
    assert str(info.value).startswith("achieved distance ")
    assert str(info.value).endswith(f" exceeds the claimed bound {bound!r}")
    achieved = float(str(info.value).split()[2])
    assert achieved > bound + 1e-12


def test_m2_assertion_count_over_the_criterion_7_stream_is_pinned():
    # one check per pair whatever form the product rules take: this total was
    # computed with eight product rules and an upward-closure rule per pair
    rng = np.random.default_rng(707)
    total = 0
    for _ in range(500):
        S = random_semilattice(rng)
        total += correct_m2(S, random_m2_instance(rng, S)).details["assertions_checked"]
    assert total == 17_500


def _rules_violated(S, label):
    """The battery's product rules and upward-closure rule as separate checks,
    the form that checking the labels as a homomorphism must agree with."""
    table = S.table
    leq = S.leq
    for e in range(S.n):
        for f in range(S.n):
            p = int(table[e, f])
            le, lf, lp = label[e], label[f], label[p]
            if le == "2" and lf == "2" and lp != "2":
                return True
            if lf == "0" and lp != "0":
                return True
            if le == "2" and lf == "p" and lp != "p":
                return True
            if le == "2" and lf == "q" and lp != "q":
                return True
            if le == "p" and lf == "p" and lp != "p":
                return True
            if le == "q" and lf == "q" and lp != "q":
                return True
            if {le, lf} == {"p", "q"} and lp != "0":
                return True
            if le in ("p", "q") and lf in ("p", "q") and lp == "2":
                return True
            # upward closure of the near-identity class
            if leq[f, e] and lf == "2" and le != "2":
                return True
    return False


_P = Mat2(1, 0, 0, 0)
_VALUES = {"0": M2_ZERO, "p": _P, "q": M2_ID - _P, "2": M2_ID}


@st.composite
def labelled_semilattices(draw):
    S = random_semilattice(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        return S, draw(st.lists(st.sampled_from("0pq2"), min_size=S.n, max_size=S.n))
    # two filters label a homomorphism (bit 1: in F1, bit 2: in F2); one
    # relabelled element may break it
    F1, F2 = (draw(st.sampled_from([None, *enumerate_filters(S)])) for _ in range(2))
    bits = [(F1 is not None and e in F1.members) + 2 * (F2 is not None and e in F2.members)
            for e in range(S.n)]
    labels = ["0pq2"[b] for b in bits]
    if draw(st.booleans()):
        labels[draw(st.integers(0, S.n - 1))] = draw(st.sampled_from("0pq2"))
    return S, labels


@settings(max_examples=300, deadline=None)
@given(labelled_semilattices())
def test_m2_battery_fails_exactly_when_a_product_or_closure_rule_does(case):
    S, labels = case
    vals = [_VALUES[x] for x in labels]
    violated = _rules_violated(S, labels)
    try:
        _m2_battery(S, vals, ["0pq2".index(x) for x in labels], 0.01)
    except ClassificationFailure:
        assert violated
    else:
        assert not violated


def test_corrections_compose_with_exact_family_maps():
    # an exactly multiplicative input comes back unchanged at distance zero
    S = free_semilattice(2)
    chi = filter_indicator(S, None)
    cert = correct_scalar(S, scalar_map([complex(v) for v in chi.values]))
    assert cert.achieved_distance == 0
