"""2x2 matrix kernel: norms, triangularization, key functions, localization."""

import hashlib
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amnm import (
    ClassificationFailure,
    DefectTooLarge,
    M2_ID,
    M2_ZERO,
    Mat2,
    T2Element,
    f_key,
    hs_norm,
    kappa,
    key_estimates,
    nearest_binary_idempotent,
    obstruction_check,
    op_norm,
    random_near_idempotent,
    rho,
    sample_commuting_idempotents,
    scalar_project,
    t2_norm,
    unitary_triangularize,
)
from amnm.mat2 import (
    _SQRT2,
    _complex_norm,
    _hs_from_gram,
    _op_from_gram,
    _rescaled,
    _rounded,
    abs2,
    commute_within,
    inv2,
    is_idempotent_within,
)

finite_complex = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)
small_mat = st.builds(Mat2, finite_complex, finite_complex, finite_complex, finite_complex)


# ---------------------------------------------------------------------------
# Arithmetic and norms.
# ---------------------------------------------------------------------------


def test_matrix_arithmetic_matches_numpy(rng):
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = Mat2(*a.flatten())
        B = Mat2(*b.flatten())
        assert np.allclose(np.array([[(A @ B).a, (A @ B).b], [(A @ B).c, (A @ B).d]]), a @ b)
        assert math.isclose(hs_norm(A), np.linalg.norm(a), rel_tol=1e-12)
        assert math.isclose(op_norm(A), np.linalg.norm(a, 2), rel_tol=1e-9, abs_tol=1e-12)


def test_identity_has_hs_norm_sqrt_two():
    assert math.isclose(hs_norm(M2_ID), math.sqrt(2.0), rel_tol=1e-15)
    assert op_norm(M2_ID) == pytest.approx(1.0)
    assert hs_norm(M2_ZERO) == 0.0


def test_inverse_multiplies_to_identity():
    A = Mat2(2.0, 1.0 + 1j, 0.5j, -1.0)
    assert hs_norm(A @ inv2(A) - M2_ID) < 1e-12
    with pytest.raises(ZeroDivisionError):
        inv2(Mat2(1.0, 1.0, 1.0, 1.0))


def test_inverse_decides_singularity_exactly():
    # det is compared with 0 as it is: no float view of it underflows or overflows
    x = Fraction(1, 10**400)
    A = Mat2(x, 0, 0, 1)
    assert A @ inv2(A) == M2_ID
    assert inv2(Mat2(10**400, 0, 0, 1)) == Mat2(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        inv2(Mat2(10**400, 10**400, 1, 1))
    with pytest.raises(ZeroDivisionError):
        inv2(Mat2(0j, 1.0, 0.0, 1.0))


def test_dual_number_norm_and_product():
    x = T2Element(2.0, -1.0)
    y = T2Element(0.5, 3.0)
    assert x @ y == T2Element(1.0, 5.5)  # (a1 a2, a1 b2 + a2 b1)
    assert t2_norm(x) == 3.0  # |a| + |b|
    assert (x @ y).as_mat2() == Mat2(1.0, 5.5, 0.0, 1.0)


def test_abs2_squares_entrywise():
    assert abs2(3 + 4j) == 25.0


# ---------------------------------------------------------------------------
# Key functions.
# ---------------------------------------------------------------------------


def test_f_key_solves_the_idempotent_equation():
    for t in (0.0, 0.1, 0.2, 0.25):
        x = f_key(t)
        assert math.isclose(x - x * x, t, abs_tol=1e-14)
        assert x <= 0.5


def test_rho_and_kappa_rational_identities():
    for n in range(1, 101):
        t = n / (n + 1) ** 2
        assert math.isclose(rho(t), (n + 1) / n, rel_tol=1e-12)
        assert math.isclose(kappa(t), 1.0 / (1.0 - math.sqrt(2.0) / (n + 1)), rel_tol=1e-12)


def test_rho_and_kappa_are_increasing_with_rho_below_kappa():
    ts = np.linspace(0.0, 0.25, 200)
    rs = [rho(t) for t in ts]
    ks = [kappa(t) for t in ts]
    assert all(x <= y + 1e-15 for x, y in zip(rs, rs[1:]))
    assert all(x <= y + 1e-15 for x, y in zip(ks, ks[1:]))
    assert all(r <= k + 1e-15 for r, k in zip(rs, ks))


def test_the_trace_windows_stay_inside_their_thresholds():
    # correct_m2 refuses delta >= 0.03, which keeps _trace_classify's radius below
    # 0.05; key_estimates refuses eps >= 2/9, which keeps its trace cap below 1/2
    for top, bound, slack, end in ((0.03, 0.05, 0.0, 0.043782), (2 / 9, 0.5, 1e-12, 0.471405)):
        grid = np.linspace(0.0, math.nextafter(top, 0.0), 1001).tolist()
        radii = [_SQRT2 * rho(t) * t + slack for t in grid]
        assert all(r < bound for r in radii)
        assert radii == sorted(radii) and radii[-1] == pytest.approx(end, abs=1e-6)


def test_rho_at_zero_and_quarter():
    assert rho(0.0) == 1.0
    assert math.isclose(rho(0.25), 2.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Triangularization.
# ---------------------------------------------------------------------------


def test_triangularize_lower_shift():
    U, T = unitary_triangularize(Mat2(0.0, 0.0, 1.0, 0.0))
    assert T.c == 0
    assert abs(abs(T.b) - 1.0) < 1e-12
    assert abs(T.a) < 1e-12 and abs(T.d) < 1e-12


@settings(max_examples=60, deadline=None)
@given(A=small_mat)
@example(A=Mat2(0j, 0j, 0j, 1.7404779806271032e-158j))  # eigenvector norm underflows
def test_triangularize_round_trip(A):
    U, T = unitary_triangularize(A)
    # U is unitary, T upper triangular, and U T U* reconstructs A
    assert hs_norm(U @ U.adjoint() - M2_ID) < 1e-9
    assert abs(T.c) < 1e-9 * (1.0 + hs_norm(A))
    assert hs_norm(U @ T @ U.adjoint() - A) < 1e-9 * (1.0 + hs_norm(A))


@pytest.mark.parametrize(
    "A, hs, op",
    [
        (Mat2(10**200, 0, 0, 0), 1e200, 1e200),
        (Mat2(Fraction(10**400, 3), 0, 0, 10**400), math.inf, math.inf),
        (Mat2(3 * 10**160, 0, 0, -4 * 10**160), 5e160, 4e160),
        (Mat2(1.0, 10**200, 0, 0), 1e200, 1e200),  # beside a float entry
    ],
)
def test_norms_of_exact_entries_past_the_float_range(A, hs, op):
    # float() of the exact square would overflow: the norms scale it first, or,
    # beside a float entry, run the float kernel on the entries
    assert hs_norm(A) == pytest.approx(hs, rel=1e-15)
    assert op_norm(A) == pytest.approx(op, rel=1e-15)


def test_exact_norms_keep_their_bits_below_the_float_range():
    for k in range(1, 640, 3):
        for x in (3**k, Fraction(5**k, 7)):
            A = Mat2(x, 2 * x, x, 1)
            t = abs2(A.a) + abs2(A.b) + abs2(A.c) + abs2(A.d)
            if t < 2**1000:
                assert hs_norm(A) == math.sqrt(float(t))
            if t < 2**510:  # the direct t * t is finite
                assert op_norm(A) == _op_from_gram(float(t), float(abs2(A.det)))


@pytest.mark.parametrize(
    "A, hs, op",
    [
        (Mat2(1e160, 0.0, 0.0, 0.0), 1e160, 1e160),
        (Mat2(1e200, 0.0, 0.0, 1e200), math.sqrt(2.0) * 1e200, 1e200),
        (Mat2(1e100, 0.0, 0.0, 1e100), math.sqrt(2.0) * 1e100, 1e100),  # only t * t overflows
        (Mat2(3e200, 4e200, 0.0, 0.0), 5e200, 5e200),
        (Mat2(complex(1.5e308, 1.5e308), 0j, 0j, 0j), math.inf, math.inf),  # the norm overflows
    ],
)
def test_norms_of_float_entries_whose_squares_overflow(A, hs, op):
    assert hs_norm(A) == pytest.approx(hs, rel=1e-15)
    assert op_norm(A) == pytest.approx(op, rel=1e-15)


def _within_one_ulp_of_the_root(r, q):
    """Whether a float ``r`` is within ``ulp(r)`` of ``sqrt(q)``, decided on squares."""
    if r == math.inf:
        return q >= Fraction(sys.float_info.max) ** 2
    u = Fraction(math.ulp(r))
    return max(Fraction(r) - u, 0) ** 2 <= q <= (Fraction(r) + u) ** 2


def test_exact_norms_below_the_square_range_keep_their_float_view():
    # float(x) is normal, but float(x * x) is 0.0
    x = Fraction(1, 3 * 10**200)
    assert hs_norm(Mat2(x, 0, 0, 0)) == float(x)
    r = op_norm(Mat2(x, x, 0, 0))
    assert r > 0.0 and _within_one_ulp_of_the_root(r, 2 * x * x)


@pytest.mark.parametrize(
    "big", [math.inf, -math.inf, 10**400, complex(0, math.inf)], ids=["inf", "-inf", "10**400", "infj"]
)
def test_an_infinite_entry_has_an_infinite_norm_in_both_norms(big):
    # the op norm's det reads inf * 0 = nan; the norm of an infinite matrix is inf
    A = Mat2(1.0, big, 0, 0)
    assert hs_norm(A) == op_norm(A) == math.inf


@pytest.mark.parametrize("A", [Mat2(1.0, math.nan, 0, 0), Mat2(math.inf, math.nan, 0, 0)])
def test_a_nan_entry_has_a_nan_norm_in_both_norms(A):
    assert math.isnan(hs_norm(A)) and math.isnan(op_norm(A))


@settings(max_examples=500, deadline=None)
@given(num=st.integers(1, 2**64), den=st.integers(1, 2**64), e=st.integers(-2136, 2136))
@example(num=1, den=9, e=0)
@example(num=1, den=9 * 10**400, e=0)  # float(q) is 0.0; the root is normal
@example(num=2**64, den=1, e=2136)  # past the float range
@example(num=1, den=2**64, e=-2136)  # the root is below the subnormals
def test_the_float_view_of_an_exact_square(num, den, e):
    q = Fraction(num, den) * Fraction(2) ** e
    r = _rescaled(_hs_from_gram, q)
    try:
        direct = float(q)
    except OverflowError:
        direct = math.inf
    if sys.float_info.min <= direct < math.inf:
        assert r == math.sqrt(direct)
    else:
        assert _within_one_ulp_of_the_root(r, q)


def test_float_norms_keep_their_bits_where_the_squares_are_finite():
    for k in range(0, 646, 3):
        for x in (3.0**k, complex(3.0**k, -(2.0 ** (k / 2)))):
            A = Mat2(x, 2 * x, x, 1.0)
            t = abs2(A.a) + abs2(A.b) + abs2(A.c) + abs2(A.d)
            if t < math.inf:
                assert hs_norm(A) == math.sqrt(t)
            direct = _op_from_gram(t, abs2(A.det))
            if direct < math.inf:
                assert op_norm(A) == direct


any_part = st.floats(allow_nan=False, allow_infinity=False)
any_complex = st.builds(complex, any_part, any_part)


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(A=st.builds(Mat2, any_complex, any_complex, any_complex, any_complex))
@example(A=Mat2(1e200 + 0j, 1e200 + 0j, 0j, 0j))  # the oracle's norm read inf here
@example(A=Mat2(1e100 + 0j, 0j, 0j, 1e100 + 0j))  # only t * t overflows
@example(A=Mat2(complex(1.5e308, 1.5e308), 0j, 0j, 0j))  # past the float range
def test_the_scalar_kernel_is_the_norms_bit_for_bit(A):
    # the oracle's costs and hs_norm / op_norm share one float kernel
    for op, norm in ((False, hs_norm), (True, op_norm)):
        assert struct.pack("<d", _complex_norm(*A, op)) == struct.pack("<d", norm(A))


def test_obstruction_check_on_entries_whose_squares_overflow():
    # the op norms of P - A and P - 2C square entries near 1e200: unscaled,
    # both read NaN and the dichotomy was reported not to hold
    P = Mat2(0.5, 0.5, 0.5, 0.5)
    rep = obstruction_check(P, P, "pair", a=1e200, b=1e200)
    assert rep.holds
    assert rep.lhs_first == pytest.approx(1e200, rel=1e-15)
    rep = obstruction_check(P, P, "double", d=1e200)
    assert rep.holds
    assert rep.lhs_first == pytest.approx(2e200, rel=1e-15)
    assert rep.lhs_second == pytest.approx(1e200, rel=1e-15)


def test_triangularize_huge_exact_entries():
    U, T = unitary_triangularize(Mat2(10**200, 0, 0, 0))
    assert U == M2_ID and T == Mat2(1e200, 0, 0, 0)


@pytest.mark.parametrize("A", [Mat2(math.inf, 1e200, 0, 0), Mat2(math.nan, 0, 0, 0)])
def test_triangularize_refuses_a_non_finite_entry(A):
    with pytest.raises(ValueError, match="non-finite entry"):
        unitary_triangularize(A)


@pytest.mark.parametrize("kernel", [unitary_triangularize, nearest_binary_idempotent])
@pytest.mark.parametrize(
    "A",
    [
        Mat2(10**400, 0, 0, 0),
        Mat2(-(10**400), 0, 0, 0),
        Mat2(Fraction(10**400, 3), 0, 0, 0),
        Mat2(1.0, 10**400, 0, 0),
    ],
    ids=["int", "negative", "fraction", "beside-a-float"],
)
def test_the_kernels_refuse_an_exact_entry_past_the_float_range(kernel, A):
    with pytest.raises(ValueError, match="non-finite entry"):
        kernel(A)


# ---------------------------------------------------------------------------
# Scalar projection onto {0, 1}.
# ---------------------------------------------------------------------------


def test_scalar_project_picks_the_closer_binary_value():
    assert scalar_project(0.9 + 0.05j, 0.2).value == 1
    assert scalar_project(0.1, 0.2).value == 0
    assert not scalar_project(0.1, 0.2).tie


def _exact_nearer_of_0_and_1(z):
    # |z| <= |z - 1|, decided on the exact squared moduli, ties to 0
    x, y = Fraction(z.real), Fraction(z.imag)
    return 0 if x * x + y * y <= (x - 1) ** 2 + y * y else 1


wide_part = st.one_of(
    st.floats(-(2.0**1023), 2.0**1023, allow_nan=False),
    st.sampled_from([0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324, 2.0**60]),
)
near_half = st.builds(
    lambda k, s: Fraction(1, 2) + Fraction(s, 2**k), st.integers(0, 1100), st.sampled_from([-1, 0, 1])
)


@settings(max_examples=500, deadline=None)
@given(
    z=st.one_of(
        st.integers(-(2**1023), 2**1023),
        st.fractions(-(2**1023), 2**1023),
        near_half,
        wide_part,
        st.builds(complex, wide_part, wide_part),
    )
)
@example(z=1e300)  # |z| and |z - 1| are one float
@example(z=2**60)
@example(z=0.6 + 1e8j)
@example(z=0.5 + 1e300j)  # a tie, to 0
def test_the_nearer_of_0_and_1_is_decided_exactly(z):
    assert _rounded(z) == _exact_nearer_of_0_and_1(z)


def test_nearest_binary_idempotent_sees_no_false_tie_at_a_large_eigenvalue():
    # the eigenvalues are 1e200 and 0: the first is nearer 1, though |1e200| and
    # |1e200 - 1| are one float
    P, j = nearest_binary_idempotent(Mat2(1e200, 1e200, 0, 0))
    assert j == 1
    assert P @ P == P and P.trace == 1


def test_scalar_project_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scalar_project(0.5, 0.5)  # tolerance must stay below 1/4
    with pytest.raises(DefectTooLarge):
        scalar_project(0.5, 0.24)  # |z^2 - z| = 1/4 exceeds the tolerance


# ---------------------------------------------------------------------------
# Localization of near-idempotents.
# ---------------------------------------------------------------------------


def test_key_estimates_is_exact_on_idempotents():
    for P in (M2_ZERO, M2_ID, Mat2(1.0, 5.0, 0.0, 0.0)):
        rep = key_estimates(P, 0.1)
        assert rep.achieved_distance < 1e-12
        assert rep.measured < 1e-12


def test_key_estimates_mixed_trace_keeps_the_coupling():
    rep = key_estimates(Mat2(1.0, 5.0, 0.0, 0.01), 0.06)
    assert rep.trace_class == 1
    assert rep.nearby_idempotent == Mat2(1.0, 5.0, 0.0, 0.0)
    assert rep.achieved_distance <= rep.idempotent_distance_bound


def test_key_estimates_rejects_bad_epsilon_and_large_defect():
    with pytest.raises(ValueError):
        key_estimates(M2_ID, 0.5)  # eps >= 2/9
    with pytest.raises(DefectTooLarge):
        key_estimates(Mat2(0.5, 0.0, 0.0, 0.5), 0.1)  # ||A - A^2|| = 0.25 sqrt(2)


@pytest.mark.parametrize(
    "A",
    [Mat2(math.nan, 0.0, 0.0, 0.0), Mat2(math.inf, 0.0, 0.0, 0.0), Mat2(1.0, 10**400, 0, 0)],
    ids=["nan", "inf", "exact-past-the-float-range"],
)
def test_key_estimates_refuses_a_nan_defect(A):
    # inf gives inf - inf = nan in A^2 - A, and an exact entry past the float
    # range reads as inf; a nan defect meets no threshold
    with pytest.raises(DefectTooLarge, match="nan"):
        key_estimates(A, 0.1)


def test_key_estimates_on_exact_idempotents_past_the_float_range_ends_in_a_typed_error():
    # the exact defect reads 0; the ||2A - I|| check keeps the entries exact, and
    # the Schur step then refuses the entry it cannot hold as a float
    with pytest.raises(ValueError, match="non-finite entry"):
        key_estimates(Mat2(1, 10**400, 0, 0), 0.1)
    rep = key_estimates(Mat2(1, 10**200, 0, 0), 0.1)
    assert rep.trace_class == 1 and rep.measured == 0.0
    assert rep.nearby_idempotent == Mat2(1, 10.0**200, 0, 0)
    with pytest.raises(DefectTooLarge, match="nan"):
        key_estimates(Mat2(1.0, 10**400, 0, 0), 0.1)


def test_nearest_binary_idempotent_agrees_with_key_estimates(rng):
    for _ in range(200):
        A = random_near_idempotent(rng, 0.1)
        P, j = nearest_binary_idempotent(A)
        rep = key_estimates(A, 0.1)
        assert P == rep.nearby_idempotent
        assert j == rep.trace_class
        assert hs_norm(P @ P - P) < 1e-10


def test_confinement_radius_shrinks_with_epsilon(rng):
    for eps in (0.01, 0.1):
        cap = math.sqrt(2.0) * rho(eps) * eps
        for _ in range(100):
            A = random_near_idempotent(rng, eps)
            rep = key_estimates(A, eps)
            assert rep.trace_distance <= cap + 1e-9


# Recorded from the real-arithmetic sampler; faster code must keep it.
CRITERION_6_STREAM_SHA256 = "ab9ae00e03953640836808ee30b35492cdd5f206e694059bf26b0724ab1bb3dd"


def criterion_6_digest() -> str:
    """SHA-256 over the first 2,000 draws at each eps of acceptance criterion 6
    (seed 606) and what key_estimates reports on them."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(606)
    for eps in (0.01, 0.1, 2.0 / 9.0 - 1e-6):
        for _ in range(2_000):
            A = random_near_idempotent(rng, eps)
            rep = key_estimates(A, eps)
            for z in A:
                digest.update(struct.pack("<2d", complex(z).real, complex(z).imag))
            digest.update(
                struct.pack(
                    "<3dq",
                    rep.measured,
                    rep.trace_distance,
                    rep.achieved_distance,
                    rep.trace_class,
                )
            )
    return digest.hexdigest()


def test_criterion_6_sample_stream_is_pinned():
    """The first 2,000 draws at each eps of acceptance criterion 6 (seed 606),
    and what key_estimates reports on them, hash to the recorded digest.

    Every matrix entry and every checked field is hashed bit for bit, so a
    speed-up in the sampler or the kernel cannot change what the criterion
    checks.  After numpy's draws, the sampler and the kernel compute on Python
    floats and ``complex`` alone, so the digest does not depend on the BLAS
    kernel or numpy's SIMD dispatch (see
    ``test_sample_streams_hold_under_other_blas_kernels_and_dispatch``).
    """
    assert criterion_6_digest() == CRITERION_6_STREAM_SHA256


# ---------------------------------------------------------------------------
# Two-target obstruction dichotomy.
# ---------------------------------------------------------------------------


def test_obstruction_holds_on_sampled_commuting_idempotents(rng):
    for P, Q in sample_commuting_idempotents(rng, 100):
        assert is_idempotent_within(P, 1e-9) and is_idempotent_within(Q, 1e-9)
        assert commute_within(P, Q, 1e-9)
        rep = obstruction_check(P, Q, "pair", a=2.0, b=3.0)
        assert rep.holds
        assert rep.lhs_first >= rep.bound_first or rep.lhs_second >= rep.bound_second
        rep2 = obstruction_check(P, Q, "double", d=2.5)
        assert rep2.holds


def test_obstruction_exact_mode_on_rational_idempotents():
    P = Mat2(Fraction(1), Fraction(3), Fraction(0), Fraction(0))
    for Q in (M2_ZERO, M2_ID, P, M2_ID - P):
        rep = obstruction_check(P, Q, "pair", a=4, b=6)
        assert rep.holds


def test_obstruction_rejects_non_commuting_inputs():
    P = Mat2(1.0, 0.0, 0.0, 0.0)
    Q = Mat2(0.5, 0.5, 0.5, 0.5)  # idempotent, does not commute with P
    with pytest.raises(ValueError):
        obstruction_check(P, Q, "pair", a=2.0, b=3.0)
