"""The fused 2x2 kernel and its sampler against their ``Mat2``-generic references.

``key_estimates``, ``nearest_binary_idempotent`` and ``unitary_triangularize``
run on unpacked entries.  The reference bodies below build a ``Mat2`` for every
intermediate matrix, with the same IEEE operations in the same order, so the
two must agree bit for bit: every report field and every matrix entry by
``float.hex`` and by type, and every exception by type and message.  So must
``random_near_idempotent``, which carries plain entries from draw to draw, and
the reference sampler below, which draws ``Mat2`` values and norms them through
``Mat2`` arithmetic.
"""

import bisect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amnm import (
    M2_ID,
    M2_ZERO,
    ClassificationFailure,
    DefectTooLarge,
    KeyEstimateReport,
    Mat2,
    kappa,
    key_estimates,
    nearest_binary_idempotent,
    random_near_idempotent,
    rho,
    unitary_triangularize,
)
import amnm.mat2
from amnm.mat2 import abs2, is_idempotent_within

# ---------------------------------------------------------------------------
# The reference: the Mat2-generic bodies.
# ---------------------------------------------------------------------------


def ref_hs_norm_sq(A):
    a, b, c, d = A
    if type(a) is type(b) is type(c) is type(d) is complex:
        return (
            (a.real * a.real + a.imag * a.imag)
            + (b.real * b.real + b.imag * b.imag)
            + (c.real * c.real + c.imag * c.imag)
            + (d.real * d.real + d.imag * d.imag)
        )
    return abs2(a) + abs2(b) + abs2(c) + abs2(d)


def ref_hs_norm(A):
    s = ref_hs_norm_sq(A)
    r = math.sqrt(float(s))
    parts = [p for x in A for p in (complex(x).real, complex(x).imag)]
    if not isinstance(s, float) or 2.0**-250 <= r < math.inf:
        return r
    if not any(parts) or not all(map(math.isfinite, parts)):
        return r
    # float entries whose squares overflow or underflow: the norm of A over the
    # power of two at its largest part, scaled back
    k = math.frexp(max(map(abs, parts)))[1]
    scaled = [math.ldexp(p, -k) for p in parts]
    try:
        return math.ldexp(ref_hs_norm(Mat2(*map(complex, scaled[0::2], scaled[1::2]))), k)
    except OverflowError:
        return math.inf


def ref_unitary_triangularize(A):
    a, b, c, d = map(complex, A)
    tr = a + d
    disc = (a - d) * (a - d) + 4.0 * b * c
    root = complex(disc) ** 0.5
    lams = (0.5 * (tr + root), 0.5 * (tr - root))
    lam = max(lams, key=lambda z: (abs(z - 0.5 * tr), z.real, z.imag))
    cand1 = (b, lam - a)
    cand2 = (lam - d, c)
    n1 = abs(cand1[0]) ** 2 + abs(cand1[1]) ** 2
    n2 = abs(cand2[0]) ** 2 + abs(cand2[1]) ** 2
    v = cand1 if n1 >= n2 else cand2
    vn = math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    if vn < 1e-150:
        m = max(abs(v[0]), abs(v[1]))
        if m == 0.0:
            v, m = (1.0 + 0.0j, 0.0j), 1.0
        v = (v[0] / m, v[1] / m)
        vn = math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    v1, v2 = v[0] / vn, v[1] / vn
    U = Mat2(v1, -v2.conjugate(), v2, v1.conjugate())
    T = U.adjoint() @ Mat2(a, b, c, d) @ U
    scale = 1.0 + ref_hs_norm(A)
    if abs(T.c) > 1e-10 * scale:
        raise ClassificationFailure(
            f"triangularization left subdiagonal {abs(T.c)!r} (scale {scale!r})"
        )
    return U, Mat2(T.a, T.b, 0.0j, T.d)


def _nearest01(z):
    # |z| <= |z - 1|, decided exactly: |z|^2 and |z - 1|^2 compared in Fraction
    x, y = Fraction(z.real), Fraction(z.imag)
    return 0 if x * x + y * y <= (x - 1) ** 2 + y * y else 1


def ref_nearest_binary_idempotent(A):
    U, T = ref_unitary_triangularize(A)
    na, nd = _nearest01(T.a), _nearest01(T.d)
    if na != nd:
        P_T = Mat2(complex(na), T.b, 0.0j, complex(nd))
    else:
        P_T = M2_ZERO if na == 0 else M2_ID
    return U @ P_T @ U.adjoint(), na + nd


def ref_key_estimates(A, eps):
    eps = float(eps)
    if not 0.0 <= eps < 2.0 / 9.0:
        raise ValueError(f"key estimates require 0 <= eps < 2/9, got {eps!r}")
    measured = ref_hs_norm(A @ A - A)
    if not measured <= eps:
        raise DefectTooLarge(measured, eps, what="||A - A^2||_HS")
    lower = math.sqrt(max(2.0 - 6.0 * measured, 0.0))
    if ref_hs_norm(2.0 * A - M2_ID) < lower - 1e-12:
        raise ClassificationFailure("||2A - I|| fell below the certified lower bound")
    P, j = ref_nearest_binary_idempotent(A)
    trace_distance = abs(complex(A.trace) - j)
    rho_eps = rho(eps)
    cap = math.sqrt(2.0) * rho_eps * eps + 1e-12
    if trace_distance > cap or trace_distance >= 0.5:
        raise ClassificationFailure(
            f"trace {complex(A.trace)!r} is not within {cap!r} of class {j}"
        )
    bound = rho_eps * eps if j == 1 else kappa(eps) * eps
    if ref_hs_norm(P @ P - P) > 1e-12 * (1.0 + ref_hs_norm_sq(P)):
        raise ClassificationFailure("constructed projection failed idempotency check")
    achieved = ref_hs_norm(A - P)
    if achieved > bound + 1e-12 * (1.0 + ref_hs_norm(A)):
        raise ClassificationFailure(
            f"achieved distance {achieved!r} exceeds certified bound {bound!r}"
        )
    return KeyEstimateReport(j, trace_distance, P, bound, achieved, measured)


def ref_random_bounded_idempotent(rng):
    while True:
        x0, x1, x2, x3, x4, x5, x6, x7 = rng.normal(size=8).tolist()
        nu = math.sqrt((x0 * x0 + x2 * x2) + (x1 * x1 + x3 * x3))
        nv = math.sqrt((x4 * x4 + x6 * x6) + (x5 * x5 + x7 * x7))
        if nu < 1e-6 or nv < 1e-6:
            continue
        cu0, cu1 = complex(x0 / nu, -x2 / nu), complex(x1 / nu, -x3 / nu)
        v0, v1 = complex(x4 / nv, x6 / nv), complex(x5 / nv, x7 / nv)
        pairing = cu0 * v0 + cu1 * v1
        if abs(pairing) < 0.35:
            continue
        return Mat2(v0 * cu0 / pairing, v0 * cu1 / pairing, v1 * cu0 / pairing, v1 * cu1 / pairing)


def ref_random_mat2_ball(rng, radius):
    x0, x1, x2, x3, x4, x5, x6, x7 = rng.normal(size=8).tolist()
    nrm = math.sqrt(
        (x0 * x0 + x4 * x4) + (x1 * x1 + x5 * x5) + (x2 * x2 + x6 * x6) + (x3 * x3 + x7 * x7)
    )
    if nrm == 0.0:
        return Mat2(0j, 0j, 0j, 0j)
    f = radius * rng.random() / nrm
    return Mat2(complex(x0, x4) * f, complex(x1, x5) * f, complex(x2, x6) * f, complex(x3, x7) * f)


def ref_random_near_idempotent(rng, eps):
    """The sampler as a ``Mat2`` body: ``base + noise * scale`` adds each scaled
    entry of the noise to the base's, as the sampler does on plain entries."""
    kind = bisect.bisect_right((0.2, 0.8, 1.0), rng.random())  # rng.choice(3, p=(0.2, 0.6, 0.2))
    zero, ones = Mat2(0j, 0j, 0j, 0j), Mat2(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    base = zero if kind == 0 else ones if kind == 2 else ref_random_bounded_idempotent(rng)
    noise = ref_random_mat2_ball(rng, 1.0)
    scale = 0.45 * eps
    for _ in range(60):
        A = base + noise * scale
        if ref_hs_norm(A @ A - A) <= eps:
            return A
        scale *= 0.5
    return base


# ---------------------------------------------------------------------------
# Bit-for-bit comparison.
# ---------------------------------------------------------------------------


def bits(x):
    """A value as its type and exact bits: ``float.hex`` keeps the sign of zero."""
    if isinstance(x, complex):
        return type(x).__name__, x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return type(x).__name__, x.hex()
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(bits(y) for y in x)
    if isinstance(x, KeyEstimateReport):
        return tuple(bits(getattr(x, f)) for f in x.__dataclass_fields__)
    return type(x).__name__, repr(x)


def outcome(fn, *args):
    try:
        return "returned", bits(fn(*args))
    except Exception as exc:  # the exception itself is the outcome compared
        return "raised", type(exc).__name__, str(exc)


def assert_same(A, eps, schur=True):
    assert outcome(key_estimates, A, eps) == outcome(ref_key_estimates, A, eps)
    if schur:
        assert outcome(nearest_binary_idempotent, A) == outcome(ref_nearest_binary_idempotent, A)
        assert outcome(unitary_triangularize, A) == outcome(ref_unitary_triangularize, A)
    assert outcome(is_idempotent_within, A, eps) == outcome(
        lambda M, tol: ref_hs_norm(M @ M - M) <= tol, A, eps
    )


# ---------------------------------------------------------------------------
# Inputs: every entry type, near and far from idempotent, tiny and huge.
# ---------------------------------------------------------------------------

EPS = st.sampled_from([0.01, 0.1, 2.0 / 9.0 - 1e-6, 0.0, 0.3, -0.1, Fraction(1, 20)])
unit = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
ENTRY = {
    "complex": st.builds(complex, unit, unit),
    "float": unit,
    "int": st.integers(-3, 3),
    "fraction": st.fractions(-2, 2, max_denominator=50),
}
IDEMPOTENTS = [
    lambda t: (0, 0, 0, 0),
    lambda t: (1, 0, 0, 1),
    lambda t: (1, t, 0, 0),
    lambda t: (0, 0, t, 1),
    lambda t: (1, 0, t, 0),
]


@st.composite
def near_idempotents(draw):
    """An exact idempotent plus entrywise noise, all entries of one type."""
    kind = draw(st.sampled_from(sorted(ENTRY)))
    base = draw(st.sampled_from(IDEMPOTENTS))(draw(ENTRY[kind]))
    shrink = draw(st.sampled_from([0, 1, 10, 100, 1000, 10**6]))
    div = Fraction(shrink) if kind in ("int", "fraction") else float(shrink)
    noise = [z / div if shrink else z * 0 for z in (draw(ENTRY[kind]) for _ in range(4))]
    return Mat2(*(x + z for x, z in zip(base, noise)))


scaled_complex = st.builds(
    lambda x, y, k: complex(x, y) * 10.0**k,
    unit,
    unit,
    st.sampled_from([-170, -160, -152, -150, -148, 150, 160, 200, 300]),
)
extremes = st.builds(
    Mat2,
    *[st.one_of(scaled_complex, st.sampled_from([0j, 1 + 0j, complex(math.inf, 0)]))] * 4,
)


@settings(max_examples=400, deadline=None)
@given(A=near_idempotents(), eps=EPS)
@example(A=Mat2(1.0, 5.0, 0.0, 0.01), eps=0.06)  # float entries, mixed trace
@example(A=Mat2(Fraction(1, 2), 0, 0, Fraction(1, 2)), eps=0.1)  # DefectTooLarge
@example(A=Mat2(1, 0, 0, 0), eps=0.25)  # ValueError
@example(A=Mat2(1, 1, 1, 1), eps=0.1)  # int entries, DefectTooLarge
def test_fused_kernel_matches_the_generic_reference(A, eps):
    assert_same(A, eps)


@settings(max_examples=300, deadline=None)
@given(A=extremes, eps=EPS)
@example(A=Mat2(0j, 0j, 0j, 1.7404779806271032e-158j), eps=0.1)  # the rescale branch
@example(A=Mat2(complex(math.inf, 0), 0j, 0j, 0j), eps=0.1)  # NaN defect: DefectTooLarge
@example(A=Mat2(math.nan, 0, 0, 0), eps=0.1)  # DefectTooLarge
@example(A=Mat2(1e150j, 0j, 0j, 0j), eps=0.01)  # the squares of A @ A - A overflow
def test_fused_kernel_matches_the_reference_at_the_extremes(A, eps):
    # past a part of 2**500 the fused kernel scales the Schur form (tested below),
    # where the reference's squares overflow to inf or NaN; the Schur form
    # refuses an inf or NaN entry, where the reference returns NaN or overflows
    parts = [p for x in A for p in (complex(x).real, complex(x).imag)]
    if not all(map(math.isfinite, parts)):
        assert_same(A, eps, schur=False)
        for fn in (nearest_binary_idempotent, unitary_triangularize):
            with pytest.raises(ValueError, match="non-finite entry"):
                fn(A)
    elif not 2.0**500 < max(map(abs, parts)):
        assert_same(A, eps)


finite_extremes = st.builds(Mat2, *[st.one_of(scaled_complex, st.sampled_from([0j, 1 + 0j]))] * 4)


@settings(max_examples=300, deadline=None)
@given(A=finite_extremes)
@example(A=Mat2(1.0, 1e300, 0.0, 0.0))  # was OverflowError from abs(x) ** 2
@example(A=Mat2(1e200, 1e200, 1e200, 1e200))  # was OverflowError from complex exponentiation
def test_schur_form_of_finite_entries_past_the_square_range(A):
    U, T = unitary_triangularize(A)
    u, t, a = (np.array([[M.a, M.b], [M.c, M.d]], dtype=complex) for M in (U, T, A))
    assert T.c == 0
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-15
    # the kernel's own tolerance is relative to 1 + ||A||: compare at that scale
    s = 2.0 ** -max(math.frexp(np.abs(a).max())[1], 1)
    assert np.abs(u @ (t * s) @ u.conj().T - a * s).max() <= 1e-14


def test_key_estimates_of_an_idempotent_past_the_square_range():
    A = Mat2(1.0, 1e300, 0.0, 0.0)
    report = key_estimates(A, 0.1)
    assert report.nearby_idempotent == A
    assert report.achieved_distance == 0.0
    assert report.trace_class == 1


_HINT_EDGE = 2.0**497  # ||2A - I|| of (1, b / 0, 0) is sqrt(2 + 4 b^2): 2**498 at b = 2**497
_EDGE_B = [
    (math.nextafter(_HINT_EDGE, 0.0), True),
    (_HINT_EDGE, True),
    (math.nextafter(_HINT_EDGE, math.inf), False),
]


@pytest.mark.parametrize(
    "A, inside",
    [
        *((Mat2(*map(kind, (1, b, 0, 0))), inside) for b, inside in _EDGE_B for kind in (float, complex)),
        (Mat2(1, 2**497, 0, 0), True),  # exact: the float norm of the exact 2A - I
        (Mat2(1, 2**497 + 2**445, 0, 0), False),
    ],
)
def test_fused_kernel_matches_the_reference_at_the_hints_edge(A, inside):
    """Idempotents whose ``||2A - I||`` lies just inside and just past ``2**498``, where
    ``key_estimates`` stops telling ``_schur`` that its rescale test cannot pass."""
    assert (ref_hs_norm(A * 2 - M2_ID) <= 2.0**498) is inside
    assert_same(A, 0.1)


@pytest.mark.parametrize(
    "A",
    [
        Mat2(1.0, 2.0**501, 0.0, 0.0),
        Mat2(0j, 0j, complex(2.0**501, -(2.0**502)), 1 + 0j),
        Mat2(1, 2**505, 0, 0),
    ],
)
def test_fused_kernel_matches_the_reference_on_the_rescale_branch(A):
    """Idempotents with a part past ``2**500``: ``_schur`` scales the entries down by a
    power of two, where the reference's squares stay finite."""
    assert 1.0 + ref_hs_norm(Mat2(*map(complex, A))) > 2.0**500
    assert_same(A, 0.1)


def _subdiagonal(A):
    """``|t_c|`` of ``U* A U`` for the Schur form's U: the entry ``_schur`` checks."""
    U, _ = unitary_triangularize(A)
    return abs((U.adjoint() @ A @ U).c)


@pytest.mark.parametrize(
    "A, past",
    [
        (  # |t_c| just below 1e-10
            Mat2(
                1082800.4677594218 + 316933.29422296456j,
                54818.692809037806 + 2479943.6153834113j,
                -286176.0655723426 + 425945.6758662285j,
                -1082799.4677594218 - 316933.29422296456j,
            ),
            False,
        ),
        (  # |t_c| just past 1e-10, far inside 1e-10 * (1 + ||A||)
            Mat2(
                -5003511.830375061 - 4144604.2714928533j,
                -30848714.2838524 + 30593641.925817914j,
                -543800.6078488444 + 805165.3579387942j,
                5003512.830375061 + 4144604.2714928533j,
            ),
            True,
        ),
    ],
)
def test_fused_kernel_matches_the_reference_at_a_subdiagonal_of_1e_10(A, past):
    """Rotated rank-one idempotents of norm about 1e7, whose Schur step leaves a
    subdiagonal at ``1e-10``: the hinted kernel forms the scale only past it."""
    t = _subdiagonal(A)
    assert (t > 1e-10) is past and 0.99e-10 < t < 1.01e-10
    assert_same(A, 0.1)


def test_fused_kernel_matches_the_reference_on_the_sampler_stream():
    rng = np.random.default_rng(606)
    for k in range(3000):
        eps = (0.01, 0.1, 2.0 / 9.0 - 1e-6)[k % 3]
        assert_same(random_near_idempotent(rng, eps), eps)


@pytest.mark.parametrize("eps", [0.01, 0.1, 2.0 / 9.0 - 1e-6, 1e-14, 3e-16])
def test_sampler_on_plain_entries_matches_the_mat2_reference(eps):
    """20,000 draws at each of criterion 6's eps, at 1e-14 and at 3e-16 equal the
    reference's entry for entry, by ``float.hex`` and by type, and leave the
    generator in the same state.  At 3e-16, near a rank-one base's own rounding
    defect, the shrink loop halves the noise up to five times, and about one draw
    in ten meets no halving: the sampler raises there, where the reference
    returned its base unchecked."""
    rng, ref_rng = np.random.default_rng(6060), np.random.default_rng(6060)
    for _ in range(20_000):
        try:
            got = bits(random_near_idempotent(rng, eps))
        except RuntimeError:
            base = ref_random_near_idempotent(ref_rng, eps)
            assert eps == 3e-16 and not ref_hs_norm(base @ base - base) <= eps
        else:
            assert got == bits(ref_random_near_idempotent(ref_rng, eps))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "A, j",
    [
        (Mat2(0.01 + 0.0j, 0.002j, 0.0j, -0.01 + 0.0j), 0),
        (Mat2(1.0 + 0.0j, 0.5 + 0.0j, 0.0j, 0.01 + 0.0j), 1),
        (Mat2(1.0 + 0.01j, 0.0j, 0.003 + 0.0j, 0.99 + 0.0j), 2),
    ],
)
def test_key_estimates_converts_no_complex_entry_and_forms_rho_once(A, j, monkeypatch):
    """On ``complex`` entries ``key_estimates`` hands them on as they are, and takes
    kappa(eps) from the rho(eps) it has formed: no ``_as_complex`` call, one ``rho``."""
    calls = {"_as_complex": 0, "rho": 0}

    def counted(name):
        original = getattr(amnm.mat2, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(amnm.mat2, name, counted(name))
    report = key_estimates(A, 0.1)
    assert report.trace_class == j
    assert calls == {"_as_complex": 0, "rho": 1}


@pytest.mark.parametrize(
    "A, norms",
    [
        (Mat2(0.01 + 0.0j, 0.002j, 0.0j, -0.01 + 0.0j), 4),
        (Mat2(1.0 + 0.0j, 0.5 + 0.0j, 0.0j, 0.01 + 0.0j), 4),
        (Mat2(1.0 + 0.01j, 0.0j, 0.003 + 0.0j, 0.99 + 0.0j), 4),
        (Mat2(1.0 + 0.0j, 2.0**498 + 0.0j, 0.0j, 0.0j), 5),  # ||2A - I|| about 2**499
    ],
)
def test_key_estimates_forms_the_schur_scale_only_past_the_hint(A, norms):
    """``_complex_norm`` runs for the defect, ``||2A - I||``, the projection's
    idempotency and the achieved distance; ``_schur``'s ``1 + ||A||`` only where
    ``||2A - I||`` passes ``2**498`` (or the subdiagonal passes ``1e-10``)."""
    code, calls = amnm.mat2._complex_norm.__code__, []

    def hook(frame, event, arg):  # every call, the default argument's and recursion too
        if event == "call" and frame.f_code is code:
            calls.append(None)

    sys.setprofile(hook)
    try:
        key_estimates(A, 0.1)
    finally:
        sys.setprofile(None)
    assert len(calls) == norms
