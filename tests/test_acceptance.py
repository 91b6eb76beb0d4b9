"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every criterion re-verifies the library's certified claims independently:
distances and defects are recomputed from raw values here rather than read
off the certificates, exact formulas are compared as rationals, and the
randomized batteries use fixed seeds with the stated tolerances and time
budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np

from amnm import (
    brute_force_filters,
    breadth,
    correct_m2,
    correct_scalar,
    correct_t2,
    correct_weighted,
    defect,
    enumerate_filters,
    enumerate_mult_t2,
    free_semilattice,
    generated,
    geometric_weight,
    hs_norm,
    kappa,
    key_estimates,
    max_antichain,
    min_chain_cover,
    nearest_mult_m2,
    nearest_mult_scalar,
    nmin,
    orthogonal_direct_sum,
    poset_height,
    poset_width,
    psi_n_family,
    random_binary_weighted_instance,
    random_m2_instance,
    random_near_idempotent,
    random_poset,
    random_scalar_instance,
    random_semilattice,
    random_submultiplicative_weight,
    random_t2_instance,
    rho,
    spiked_weight,
    sublevel_set,
    t2_norm,
    theta_m2_chain,
    theta_m2_chain_nonuniform,
    theta_m_t2,
    weighted_sup_distance,
)
from amnm.mat2 import M2_ID


def test_criterion_1_scalar_correction_batch():
    """1000 random scalar maps with defect < 1/5 correct within (7/5)*defect."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        S = random_semilattice(rng)
        psi = random_scalar_instance(rng, S)
        measured = defect(S, psi).defect_float
        assert measured < 0.2
        cert = correct_scalar(S, psi)
        chi = cert.corrected
        assert defect(S, chi).defect_float <= 1e-9
        distance = max(
            abs(complex(a) - complex(b)) for a, b in zip(psi.values, chi.values)
        )
        assert distance <= 1.4 * measured + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"scalar batch took {elapsed:.2f}s (budget 5s)"


def test_criterion_2_block_family_vanishing_defect_bounded_distance():
    """Exact defects 2^-2..2^-5 on the block family; every multiplicative
    scalar map stays at least 1/2 away (exhaustively, in exact arithmetic)."""
    start = time.monotonic()
    reports = psi_n_family(base=2, sizes=(2, 3, 4, 5))
    expected = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
    assert [r.defect.defect for r in reports] == expected
    for r in reports:
        assert r.defect.exact_value
        assert r.method == "exhaustive"
        assert r.distance_exact is not None and r.distance_exact >= Fraction(1, 2)
    # defects vanish while the distance floor does not move
    values = [r.defect.defect for r in reports]
    assert all(b < a for a, b in zip(values, values[1:]))
    # independent route: the exhaustive search over multiplicative scalar
    # maps on the same weighted sum reproduces the exact minimum distance
    from amnm import counterexample_weight, orthogonal_free_sum, weighted

    T = orthogonal_free_sum((2, 3, 4, 5))
    WS = weighted(T, counterexample_weight(T, 2))
    for r in reports:
        near = nearest_mult_scalar(WS, r.theta)
        assert near.value_exact == r.distance_exact
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"block family took {elapsed:.2f}s (budget 10s)"


def test_criterion_3_weighted_correction_batch():
    """200 binary maps under the margin condition correct to filter
    indicators within epsilon, with the classification identities holding."""
    rng = np.random.default_rng(303)
    start = time.monotonic()
    for _ in range(200):
        S = random_semilattice(rng)
        WS = random_submultiplicative_weight(rng, S)
        epsilon = float(rng.uniform(0.1, 0.6))
        psi = random_binary_weighted_instance(rng, WS, epsilon)
        cert = correct_weighted(WS, psi, epsilon)
        chi = cert.corrected
        assert defect(WS, chi).defect_float <= 1e-9
        assert float(weighted_sup_distance(WS, psi, chi)) <= epsilon + 1e-12
        E = set(cert.details["E"])
        s_fix = sublevel_set(WS, 2.0 / epsilon)
        assert E == {e for e in s_fix if psi.values[e] == 1}
        F = cert.details["filter"]
        if E:
            assert set(F) & s_fix == E
            assert all(psi.values[e] == 1 for e in generated(S, E))
        else:
            assert F is None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"weighted batch took {elapsed:.2f}s (budget 5s)"


def test_criterion_4_t2_correction_batch():
    """1000 random upper-triangular maps with defect < 1/5 correct to a
    diagonal character within (25/11)*defect."""
    rng = np.random.default_rng(404)
    for _ in range(1000):
        S = random_semilattice(rng)
        theta = random_t2_instance(rng, S)
        measured = defect(S, theta).defect_float
        assert measured < 0.2
        cert = correct_t2(S, theta)
        phi = cert.corrected
        assert defect(S, phi).defect_float <= 1e-9
        assert all(v.b == 0 and v.a in (0, 1) for v in phi.values)
        distance = max(t2_norm(a - b) for a, b in zip(theta.values, phi.values))
        assert distance <= (25.0 / 11.0) * measured + 1e-9


def test_criterion_5_t2_chain_counterexample_exact():
    """Doubling weights on a 12-chain: defect exactly 2^-m for m = 1..10,
    distance exactly 1 to all 13 multiplicative maps, and an exactly
    multiplicative wide companion at distance exactly 2^-m."""
    ws = geometric_weight(12)  # omega at chain position k (1-based) is 2^k
    assert len(enumerate_mult_t2(ws.S)) == ws.n + 1
    for m in range(1, 11):
        r = theta_m_t2(ws, m - 1)
        assert r.defect.defect == Fraction(1, 2**m)
        assert r.defect.exact_value
        assert r.distance_exact == Fraction(1)
        assert r.method == "exhaustive"
        assert r.details["maps_scanned"] == ws.n + 1
        companion = r.details["companion"]
        comp_defect = defect(ws, companion, "op")
        assert comp_defect.defect == 0 and comp_defect.exact_value
        again = weighted_sup_distance(ws, r.theta.as_m2(), companion, "op")
        assert again == Fraction(1, 2**m)


def test_criterion_6_key_estimate_batteries():
    """3 x 10^5 near-idempotent matrices: norm floor, trace confinement and
    idempotent-distance bounds within 1e-9; closed-form identities to 1e-12."""
    for n in range(1, 101):
        t = n / (n + 1) ** 2
        assert abs(rho(t) - (n + 1) / n) <= 1e-12 * (1 + rho(t))
        assert abs(kappa(t) - 1.0 / (1.0 - math.sqrt(2.0) / (n + 1))) <= 1e-12 * (
            1 + kappa(t)
        )
    start = time.monotonic()
    rng = np.random.default_rng(606)
    for eps in (0.01, 0.1, 2.0 / 9.0 - 1e-6):
        confine = math.sqrt(2.0) * rho(eps) * eps
        bound_mixed = rho(eps) * eps
        bound_binary = kappa(eps) * eps
        for _ in range(100_000):
            A = random_near_idempotent(rng, eps)
            rep = key_estimates(A, eps)
            assert hs_norm(2.0 * A - M2_ID) >= math.sqrt(max(2.0 - 6.0 * rep.measured, 0.0)) - 1e-9
            assert rep.trace_distance <= confine + 1e-9
            limit = bound_mixed if rep.trace_class == 1 else bound_binary
            assert rep.achieved_distance <= limit + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"key-estimate battery took {elapsed:.2f}s (budget 30s)"


def test_criterion_7_m2_correction_batch_with_oracle():
    """500 perturbed family maps with defect < 0.03: corrected within
    12*delta with every internal assertion passing, and an independent
    search never finds a meaningfully closer multiplicative map."""
    rng = np.random.default_rng(707)
    start = time.monotonic()
    for _ in range(500):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        delta = defect(S, theta, "hs").defect_float
        assert delta < 0.03
        cert = correct_m2(S, theta)
        phi = cert.corrected
        assert defect(S, phi, "hs").defect_float <= 1e-9
        distance = float(weighted_sup_distance(S, theta, phi, "hs"))
        assert distance <= 12.0 * delta + 1e-9
        assert cert.details["assertions_checked"] > 0
        near = nearest_mult_m2(S, theta, starts=8, seed=11)
        assert near.value <= distance + 1e-6
        assert 0.0 <= near.details["lower"] <= near.value
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"matrix batch took {elapsed:.2f}s (budget 60s)"


def test_criterion_8_m2_chain_counterexamples():
    """Chain families meet their closed-form defects exactly, carry a
    lemma-certified distance floor of 1/2, and a 64-start search cannot do
    better than 0.49."""
    ws = geometric_weight(12)
    r = theta_m2_chain(ws, 0.05)
    i = r.params["index"]
    om = [Fraction(x) for x in ws.omega]
    assert r.defect.defect == 1 / om[i] + 1 / om[i + 1]
    assert r.defect.exact_value
    assert float(r.defect.defect) <= 0.05
    assert r.method == "analytic-lemma"
    assert r.distance_lower_bound >= 0.5
    search = nearest_mult_m2(ws, r.theta, norm="op", starts=64, seed=8)
    assert search.value >= 0.49

    wsn = spiked_weight(9, 4, 400)
    rn = theta_m2_chain_nonuniform(wsn, 0.02)
    w = Fraction(400)
    assert rn.defect.defect_sq == 4 * (1 + w * w) / w**4
    assert float(rn.defect.defect) <= 0.02
    assert rn.method == "analytic-lemma"
    assert rn.distance_lower_bound >= 0.5
    searchn = nearest_mult_m2(wsn, rn.theta, norm="op", starts=64, seed=8)
    assert searchn.value >= 0.49


def test_criterion_9_structure_invariants():
    """Breadth counts generators, filter enumeration matches brute force up
    to n = 12, and both Dilworth quantities agree on 100 random posets."""
    for n in (2, 3, 4):
        assert breadth(free_semilattice(n)) == n

    rng = np.random.default_rng(909)
    specimens = [
        nmin(12),
        free_semilattice(3),
        orthogonal_direct_sum([free_semilattice(2), nmin(4), free_semilattice(2)]),
        orthogonal_direct_sum([nmin(5), nmin(6)]),
    ]
    specimens += [random_semilattice(rng) for _ in range(20)]
    assert max(S.n for S in specimens) == 12
    for S in specimens:
        assert {f.members for f in enumerate_filters(S)} == set(brute_force_filters(S))

    for _ in range(100):
        n = int(rng.integers(1, 11))
        leq = random_poset(rng, n)
        cover = min_chain_cover(leq)
        anti = max_antichain(leq)
        assert poset_width(leq) == len(cover) == len(anti)
        assert sorted(x for c in cover for x in c) == list(range(n))
        for a_i, a in enumerate(anti):
            for b in anti[a_i + 1 :]:
                assert not leq[a, b] and not leq[b, a]
        assert poset_height(leq) >= max(len(c) for c in cover)
