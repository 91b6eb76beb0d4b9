"""Closed-form 2x2 matrix analysis: norms, Schur form, idempotent projection.

Everything here is exact-formula work on 2x2 complex matrices — no iterative
linear algebra.  :class:`Mat2` is a lightweight tuple type whose entries may
be Python complex/floats or exact ``Fraction`` values (for the certified
counterexample computations); all arithmetic is entrywise and generic.  The
per-matrix kernels share one core on unpacked entries (``_schur``, ``_binary_idempotent``,
``_idempotent_defect``, ``_mul``), norm ``complex`` ones with ``_complex_norm`` directly
and build a ``Mat2`` only to return one.

The analytical core:

* ``f_key(t) = (1 - sqrt(1 - 4t))/2`` — the distance-to-{0,1} control
  function for approximately idempotent scalars, with the derived factors
  ``rho(t) = f_key(t)/t`` and ``kappa(t) = 1/(1 - sqrt(2) rho(t) t)``;
* :func:`scalar_project` — nearest of {0, 1} with the certified bound;
* :func:`unitary_triangularize` — deterministic closed-form Schur form;
* :func:`key_estimates` — for ``||A - A^2|| <= eps < 2/9``, locates the trace
  near an integer class j in {0, 1, 2} and produces a genuinely idempotent
  matrix nearby with the certified distance bound;
* :func:`obstruction_check` — the lower-bound lemma used to certify that
  certain maps stay far from every pair of commuting idempotents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt  # read as module names by _complex_norm, which every check calls
from typing import NamedTuple

from .errors import ClassificationFailure, DefectTooLarge

__all__ = [
    "Mat2",
    "T2Element",
    "M2_ZERO",
    "M2_ID",
    "abs2",
    "hs_norm_sq",
    "hs_norm",
    "op_norm",
    "t2_norm",
    "inv2",
    "f_key",
    "rho",
    "kappa",
    "ScalarProjection",
    "scalar_project",
    "unitary_triangularize",
    "KeyEstimateReport",
    "nearest_binary_idempotent",
    "key_estimates",
    "ObstructionReport",
    "obstruction_check",
    "is_idempotent_within",
    "commute_within",
]


_tuple_new = tuple.__new__
_object_new = object.__new__
_DIRECT_MIN = 2.0**-250  # _complex_norm's least direct norm


class Mat2(NamedTuple):
    """A 2x2 matrix (a b / c d) with generic numeric entries."""

    a: complex
    b: complex
    c: complex
    d: complex

    # NamedTuple inherits tuple's concatenation/repetition operators, which
    # would silently corrupt arithmetic; all four are overridden.  They unpack
    # their operands and build results with ``tuple.__new__``, skipping the
    # Python-level ``Mat2.__new__``: the float kernels create many matrices.
    def __add__(self, o: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = o
        return _tuple_new(Mat2, (a + e, b + f, c + g, d + h))

    def __sub__(self, o: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = o
        return _tuple_new(Mat2, (a - e, b - f, c - g, d - h))

    def __neg__(self) -> "Mat2":
        a, b, c, d = self
        return _tuple_new(Mat2, (-a, -b, -c, -d))

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return _tuple_new(Mat2, _mul(*self, *o))

    def __mul__(self, s) -> "Mat2":
        a, b, c, d = self
        return _tuple_new(Mat2, (a * s, b * s, c * s, d * s))

    __rmul__ = __mul__

    def adjoint(self) -> "Mat2":
        a, b, c, d = self
        return _tuple_new(Mat2, (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()))

    @property
    def trace(self):
        return self.a + self.d

    @property
    def det(self):
        return self.a * self.d - self.b * self.c


class T2Element(NamedTuple):
    """Element (a, b) of the two-dimensional algebra with product
    (a, b)(c, d) = (ac, ad + bc) and norm |a| + |b|."""

    a: complex
    b: complex

    def __add__(self, o: "T2Element") -> "T2Element":
        return T2Element(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "T2Element") -> "T2Element":
        return T2Element(self.a - o.a, self.b - o.b)

    def __matmul__(self, o: "T2Element") -> "T2Element":
        return T2Element(self.a * o.a, self.a * o.b + self.b * o.a)

    def as_mat2(self) -> Mat2:
        return Mat2(self.a, self.b, self.a * 0, self.a)


M2_ZERO = Mat2(0, 0, 0, 0)
M2_ID = Mat2(1, 0, 0, 1)


def abs2(x):
    """|x|^2, exact for real/rational/complex-rational inputs."""
    v = x * x.conjugate()
    return v.real if isinstance(v, complex) else v


def _complex_hs_sq(a: complex, b: complex, c: complex, d: complex) -> float:
    # re^2 + im^2 has the same bits as abs2's (z * z.conjugate()).real,
    # without the product or four calls.
    return (
        (a.real * a.real + a.imag * a.imag)
        + (b.real * b.real + b.imag * b.imag)
        + (c.real * c.real + c.imag * c.imag)
        + (d.real * d.real + d.imag * d.imag)
    )


def _op_from_gram(t, det_sq, sqrt=math.sqrt, maximum=max):
    """Largest singular value from ``t = tr(A* A)`` and ``|det A|^2``; given
    ``np.sqrt`` and ``np.maximum``, the same formula on arrays."""
    return sqrt((t + sqrt(maximum(t * t - 4.0 * det_sq, 0.0))) / 2.0)


def _hs_from_gram(t, det_sq):
    """The HS norm ``sqrt(t)``, in :func:`_op_from_gram`'s signature."""
    return math.sqrt(t)


def _complex_norm(a: complex, b: complex, c: complex, d: complex, op: bool = False) -> float:
    """HS norm (the default), or operator norm when ``op``, of the matrix with the four
    ``complex`` entries: the one float 2x2 norm, of :func:`hs_norm`, :func:`op_norm`, the
    kernels on entries, the oracle's costs and, on arrays, ``defects._norms``.  Out of
    ``[_DIRECT_MIN, inf)`` a square may have underflowed or overflowed (the op norm squares
    twice): the norm is then that of the entries over the power of two at their largest
    part, scaled back, inf only past the float range; an exact zero or NaN part keeps it,
    an inf part gives inf."""
    t = _complex_hs_sq(a, b, c, d)
    if op:
        det = a * d - b * c
        r = _op_from_gram(t, det.real * det.real + det.imag * det.imag)
    else:
        r = sqrt(t)
    if _DIRECT_MIN <= r < inf or not any((a, b, c, d)):
        return r
    entries = (a, b, c, d)
    k = math.frexp(max(max(abs(x.real), abs(x.imag)) for x in entries))[1]
    if not k:  # the largest part is inf or NaN: a finite one in [1/2, 1) is direct
        return math.inf if t == math.inf else r
    ks = [-k] * 4  # zipped in, not closed over: a cell variable would slow every call
    scaled = [complex(math.ldexp(x.real, j), math.ldexp(x.imag, j)) for x, j in zip(entries, ks)]
    try:
        return math.ldexp(_complex_norm(*scaled, op), k)
    except OverflowError:
        return math.inf


def _as_complex(x) -> complex:
    """``complex(x)``, or inf (not finite) for an exact ``x`` past the float range."""
    try:
        return complex(x)
    except OverflowError:
        return complex(math.inf)


def _idempotent_defect(a, b, c, d, norm=_complex_norm) -> float:
    """``hs_norm(A @ A - A)`` on A's four entries, operation for operation, by ``norm``."""
    return norm(a * a + b * c - a, a * b + b * d - b, c * a + d * c - c, c * b + d * d - d)


def _mul(a, b, c, d, e, f, g, h) -> tuple:
    """The entries of the product ``(a b / c d)(e f / g h)``: ``Mat2``'s ``@``."""
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def hs_norm_sq(A: Mat2):
    """Squared Hilbert-Schmidt norm tr(A* A); exact for exact entries."""
    a, b, c, d = A
    return abs2(a) + abs2(b) + abs2(c) + abs2(d)


def _rescaled(f, t, det_sq=0) -> float:
    """The one float view of a root of exact squares: ``f(t, det_sq)`` for an exact
    ``t >= 0``, run on ``t / 4**k`` and ``det_sq / 16**k`` (exact) and scaled back
    by ``2**k`` past ``4**±250``, where ``float(t)`` or ``t * t`` could underflow or
    overflow: the same bits wherever ``float(t)`` is normal, and 0.0 or inf only
    where the root itself is out of the float range."""
    k = (t.numerator.bit_length() - t.denominator.bit_length()) // 2
    if -250 <= k <= 250:
        return f(float(t), float(det_sq))
    q = Fraction(1, 4) ** k
    try:
        return math.ldexp(f(float(t * q), float(det_sq * q * q)), k)
    except OverflowError:
        return math.inf


def hs_norm(A: Mat2) -> float:
    a, b, c, d = A
    if type(a) is type(b) is type(c) is type(d) is complex:
        return _complex_norm(a, b, c, d)
    return _norm(A, False)


def op_norm(A: Mat2) -> float:
    """Largest singular value, from the closed form on the 2x2 Gram trace."""
    return _norm(A, True)


def _norm(A: Mat2, op: bool) -> float:
    """:func:`op_norm` if ``op``, else :func:`hs_norm`: the float kernel on a float
    entry, else the closed form on the exact ``tr(A* A)`` and ``|det A|^2``."""
    if any(isinstance(x, (float, complex)) for x in A):  # first: hs_norm_sq could overflow
        return _complex_norm(*map(_as_complex, A), op)
    t = hs_norm_sq(A)
    return _rescaled(_op_from_gram, t, abs2(A.det)) if op else _rescaled(_hs_from_gram, t)


def t2_norm(x: T2Element):
    """|a| + |b| (exact when the parts are rational reals)."""
    return abs(x.a) + abs(x.b)


def inv2(A: Mat2) -> Mat2:
    det = A.det
    if det == 0:  # exact on exact entries; on float ones the same as abs(det) == 0.0
        raise ZeroDivisionError("matrix is singular")
    return Mat2(A.d / det, -A.b / det, -A.c / det, A.a / det)


def is_idempotent_within(A: Mat2, tol: float = 1e-9) -> bool:
    return hs_norm(A @ A - A) <= tol


def commute_within(A: Mat2, B: Mat2, tol: float = 1e-9) -> bool:
    return hs_norm(A @ B - B @ A) <= tol


# ---------------------------------------------------------------------------
# The control functions.
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def f_key(t: float) -> float:
    """(1 - sqrt(1 - 4t))/2 on [0, 1/4]: the certified distance from an
    approximately idempotent scalar to the nearer of {0, 1}."""
    t = float(t)
    if not 0.0 <= t <= 0.25:
        raise ValueError(f"f_key requires 0 <= t <= 1/4, got {t!r}")
    return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * t))


def rho(t: float) -> float:
    """f_key(t)/t, continuously extended by rho(0) = 1; increasing, range [1, 2]."""
    t = float(t)
    if not 0.0 <= t <= 0.25:
        raise ValueError(f"rho requires 0 <= t <= 1/4, got {t!r}")
    if t == 0.0:
        return 1.0
    return f_key(t) / t


def kappa(t: float) -> float:
    """1/(1 - sqrt(2) rho(t) t) on [0, 1/4]; increasing, kappa(0) = 1."""
    return 1.0 / (1.0 - rho(t) * t * _SQRT2)


# ---------------------------------------------------------------------------
# Scalar projection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarProjection:
    """Nearest point of {0, 1} to an approximately idempotent scalar."""

    value: int
    distance: float
    tie: bool


def scalar_project(z: complex, eps: float) -> ScalarProjection:
    """Project z onto {0, 1} given ``|z^2 - z| <= eps < 1/4``.

    The value is :func:`_rounded`'s: ties (``Re z = 1/2``, equidistant z) resolve
    to 0, and ``distance`` is ``|z - value|``.  The certified bound
    ``distance <= f_key(|z^2 - z|) <= rho(eps) * eps`` is asserted.
    """
    eps = float(eps)
    if not 0.0 <= eps < 0.25:
        raise ValueError(f"scalar projection requires 0 <= eps < 1/4, got {eps!r}")
    z = complex(z)
    measured = abs(z * z - z)
    if measured > eps:
        raise DefectTooLarge(measured, eps, what="|z^2 - z|")
    value = _rounded(z)
    distance = abs(z - value)
    bound = f_key(measured)
    if distance > bound + 1e-12:
        raise ClassificationFailure(
            f"projection distance {distance!r} exceeds certified bound {bound!r}"
        )
    return ScalarProjection(value, distance, tie=(z.real == 0.5))


# ---------------------------------------------------------------------------
# Closed-form Schur triangularization.
# ---------------------------------------------------------------------------


def _schur(a: complex, b: complex, c: complex, d: complex, bounded: bool = False) -> tuple:
    """:func:`unitary_triangularize` on a matrix's entries as ``complex``, without
    a ``Mat2``: returns U's first column ``v1, v2`` and T's entries ``ta, tb, td``.

    Where ``scale = 1 + ||A||_HS`` passes ``2**500`` the squares below could overflow,
    so the body runs on the entries scaled by the power of two that brings the largest
    part to at most ``2**500``: U is the same, and T is scaled back.  An entry that is
    not finite as a float (inf, NaN, or an exact one past the float range) raises
    ``ValueError``.  ``bounded`` is the caller's proof that ``||2A - I||_HS <= 2**498``,
    which skips that test: ``||A|| <= (||2A - I|| + ||I||) / 2 <= 2**497 + 1``.  The
    subdiagonal check forms ``scale`` only past ``1e-10``, which ``scale >= 1`` allows."""
    if not bounded and not 1.0 + _complex_norm(a, b, c, d) <= 2.0**500:  # past, inf or NaN
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError(f"cannot triangularize a matrix with a non-finite entry: {a, b, c, d}")
        k = math.frexp(max(max(abs(x.real), abs(x.imag)) for x in (a, b, c, d)))[1] - 500
        if k > 0:  # not when the largest part is within 2**500
            down, up = 2.0**-k, 2.0**k
            B = tuple(complex(x.real * down, x.imag * down) for x in (a, b, c, d))
            v1, v2, *T = _schur(*B)
            return v1, v2, *(complex(t.real * up, t.imag * up) for t in T)
    tr = a + d
    root = ((a - d) * (a - d) + 4.0 * b * c) ** 0.5
    l1, l2 = 0.5 * (tr + root), 0.5 * (tr - root)
    half = 0.5 * tr  # lam: the larger by (|l - tr/2|, re, im), l1 on ties, as max() picks
    r1, r2 = abs(l1 - half), abs(l2 - half)  # a NaN distance is no tie, as in a tuple
    lam = l2 if r2 > r1 or r2 == r1 and (l2.real, l2.imag) > (l1.real, l1.imag) else l1
    n1 = abs(b) ** 2 + abs(lam - a) ** 2  # the two eigenvector candidates' squared norms
    n2 = abs(lam - d) ** 2 + abs(c) ** 2
    x, y, vn = (b, lam - a, math.sqrt(n1)) if n1 >= n2 else (lam - d, c, math.sqrt(n2))
    if vn < 1e-150:  # the squares lose bits to underflow: rescale v first
        m = max(abs(x), abs(y))
        if m == 0.0:
            x, y, m = 1.0 + 0.0j, 0.0j, 1.0
        x, y = x / m, y / m
        vn = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    v1, v2 = x / vn, y / vn
    p, q = v1.conjugate(), v2.conjugate()  # U* = (p, q / -v2, v1)
    ma, mb, mc, md = _mul(p, q, -v2, v1, a, b, c, d)
    ta, tb, tc, td = _mul(ma, mb, mc, md, v1, -q, v2, p)
    if abs(tc) > 1e-10 and abs(tc) > 1e-10 * (scale := 1.0 + _complex_norm(a, b, c, d)):
        raise ClassificationFailure(
            f"triangularization left subdiagonal {abs(tc)!r} (scale {scale!r})"
        )
    return v1, v2, ta, tb, td


def unitary_triangularize(A: Mat2) -> tuple[Mat2, Mat2]:
    """Deterministic unitary U and upper-triangular T with A = U T U*.

    The first diagonal entry of T is the eigenvalue farther from tr(A)/2
    (the two are always equidistant, so effectively the lexicographically
    larger one by (re, im)); the eigenvector is taken from the closed-form
    candidate of larger norm, and the second column is the canonical
    orthogonal completion.  The subdiagonal entry is asserted tiny and then
    set to exactly zero.
    """
    v1, v2, ta, tb, td = _schur(*map(_as_complex, A))
    return Mat2(v1, -v2.conjugate(), v2, v1.conjugate()), Mat2(ta, tb, 0.0j, td)


# ---------------------------------------------------------------------------
# Key estimates for approximately idempotent 2x2 matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyEstimateReport:
    """Certified localization of an approximately idempotent 2x2 matrix.

    ``trace_class`` is the unique j in {0, 1, 2} with |tr A - j| < 1/2;
    ``nearby_idempotent`` is exactly idempotent (to machine precision) with
    ``||A - P||_HS <= idempotent_distance_bound``, which is ``rho(eps)*eps``
    when the trace class is 1 (P is then rank one) and ``kappa(eps)*eps``
    when it is 0 or 2 (P is then exactly 0, or ``U U*`` for the Schur form's
    unitary U: the identity up to rounding).
    """

    trace_class: int
    trace_distance: float
    nearby_idempotent: Mat2
    idempotent_distance_bound: float
    achieved_distance: float
    measured: float


def _rounded(z) -> int:
    """The nearer of 0 and 1 to ``z``, ties to 0: ``|z| <= |z - 1|`` exactly when
    ``Re z <= 1/2``, and reading a real part rounds nothing, so the answer is exact
    at any magnitude, where rounded moduli would see a false tie."""
    return 0 if z.real <= 0.5 else 1


def nearest_binary_idempotent(A: Mat2) -> tuple[Mat2, int]:
    """Idempotent from rounding the triangularized diagonal of ``A`` to {0, 1}.

    Each diagonal entry is rounded by :func:`_rounded`.  Returns ``(P, j)`` where
    ``j`` in {0, 1, 2} is the rounded trace.  When the rounded diagonal is mixed,
    ``P`` keeps the triangular super-diagonal entry (making it exactly idempotent
    in that basis); otherwise ``P`` is exactly 0, or ``U U*``, which is the identity
    up to rounding (``P = U P_T U*`` with ``P_T = I``).  No smallness of
    ``||A - A^2||`` is assumed — :func:`key_estimates` adds the certified bounds.
    """
    return _binary_idempotent(*_schur(*map(_as_complex, A)))


def _binary_idempotent(v1, v2, ta, tb, td) -> tuple[Mat2, int]:
    """:func:`nearest_binary_idempotent` from the :func:`_schur` form ``v1, v2, ta, tb, td``."""
    na, nd = _rounded(ta), _rounded(td)  # T's diagonal, rounded to {0, 1}
    e, f, g, h = (complex(na), tb, 0.0j, complex(nd)) if na != nd else (M2_ID if na else M2_ZERO)
    p, q = v1.conjugate(), v2.conjugate()  # P = U P_T U*, with U = (v1, -q / v2, p)
    return _tuple_new(Mat2, _mul(*_mul(v1, -q, v2, p, e, f, g, h), p, q, -v2, v1)), na + nd


def key_estimates(A: Mat2, eps: float) -> KeyEstimateReport:
    """Trace localization and idempotent approximation for ``||A - A^2|| <= eps < 2/9``.

    Also certifies the companion lower bound ``||2A - I||_HS >= sqrt(2 - 6 eps)``.
    """
    eps = float(eps)
    if not 0.0 <= eps < 2.0 / 9.0:
        raise ValueError(f"key estimates require 0 <= eps < 2/9, got {eps!r}")
    a, b, c, d = z = A  # as _norm reads them: all complex beside a float (float * int overflows)
    if not type(a) is type(b) is type(c) is type(d) is complex:
        z = tuple(map(_as_complex, A))  # _schur's entries
        a, b, c, d = z if any(isinstance(x, (float, complex)) for x in A) else A
    hs = _complex_norm if type(a) is complex else lambda *x: hs_norm(x)  # every check's HS norm
    measured = _idempotent_defect(a, b, c, d, hs)
    if not measured <= eps:
        raise DefectTooLarge(measured, eps, what="||A - A^2||_HS")

    lower = math.sqrt(max(2.0 - 6.0 * measured, 0.0))
    reflection = hs(a * 2 - 1, b * 2, c * 2, d * 2 - 1)  # ||2A - I||; exact entries stay exact
    if reflection < lower - 1e-12:
        raise ClassificationFailure("||2A - I|| fell below the certified lower bound")

    P, j = _binary_idempotent(*_schur(*z, reflection <= 2.0**498))  # False on NaN or inf
    e, f, g, h = P
    trace_distance = abs(complex(a + d) - j)
    rho_eps = rho(eps)
    cap = _SQRT2 * rho_eps * eps + 1e-12  # below 0.4715 as eps < 2/9: j is the nearest class
    if trace_distance > cap:
        raise ClassificationFailure(
            f"trace {complex(a + d)!r} is not within {cap!r} of class {j}"
        )
    bound = rho_eps * eps if j == 1 else 1.0 / (1.0 - rho_eps * eps * _SQRT2) * eps  # kappa(eps)
    if _idempotent_defect(e, f, g, h) > 1e-12 * (1.0 + _complex_hs_sq(e, f, g, h)):
        raise ClassificationFailure("constructed projection failed idempotency check")
    achieved = hs(a - e, b - f, c - g, d - h)
    if achieved > bound and achieved > bound + 1e-12 * (1.0 + hs_norm(A)):  # norm only if needed
        raise ClassificationFailure(
            f"achieved distance {achieved!r} exceeds certified bound {bound!r}"
        )
    # six stores in field order, in place of the frozen __init__'s six object.__setattr__
    # calls; one dict update would give each report its own key table (200 bytes on 3.11)
    report = _object_new(KeyEstimateReport)
    fields = report.__dict__
    fields["trace_class"] = j
    fields["trace_distance"] = trace_distance
    fields["nearby_idempotent"] = P
    fields["idempotent_distance_bound"] = bound
    fields["achieved_distance"] = achieved
    fields["measured"] = measured
    return report


# ---------------------------------------------------------------------------
# Obstruction lower bounds (operator norm; they transfer to HS since HS >= op).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    """Evaluation of the two-target lower-bound dichotomy."""

    scenario: str
    holds: bool
    lhs_first: float
    bound_first: float
    lhs_second: float
    bound_second: float


def obstruction_check(
    P: Mat2,
    Q: Mat2,
    scenario: str,
    *,
    a: float | None = None,
    b: float | None = None,
    d: float | None = None,
) -> ObstructionReport:
    """Check the certified dichotomy against a pair of commuting idempotents.

    Scenario ``"pair"`` (requires a, b >= 1): with A = (1 -a / 0 0) and
    B = (1 b / 0 0), at least one of ``||P - A||_op >= a/2`` and
    ``||Q - B||_op >= b/2`` holds.  Scenario ``"double"`` (requires d >= 1):
    with C = (1 d / 0 0), at least one of ``||P - 2C||_op >= d/2`` and
    ``||Q - C||_op >= d/4`` holds.  Inputs are validated to be commuting
    idempotents to within 1e-9.
    """
    slack = 1e-9  # also the inputs' tolerance
    for name, M in (("P", P), ("Q", Q)):
        if not is_idempotent_within(M, slack):
            raise ValueError(f"{name} is not idempotent to within {slack}")
    if not commute_within(P, Q, slack):
        raise ValueError(f"P and Q do not commute to within {slack}")
    if scenario == "pair":
        if a is None or b is None or not (a >= 1 and b >= 1):
            raise ValueError("scenario 'pair' requires parameters a >= 1 and b >= 1")
        A = Mat2(1.0, -float(a), 0.0, 0.0)
        B = Mat2(1.0, float(b), 0.0, 0.0)
        lhs1, bd1 = op_norm(P - A), float(a) / 2.0
        lhs2, bd2 = op_norm(Q - B), float(b) / 2.0
    elif scenario == "double":
        if d is None or not d >= 1:
            raise ValueError("scenario 'double' requires parameter d >= 1")
        C = Mat2(1.0, float(d), 0.0, 0.0)
        lhs1, bd1 = op_norm(P - 2.0 * C), float(d) / 2.0
        lhs2, bd2 = op_norm(Q - C), float(d) / 4.0
    else:
        raise ValueError(f"unknown obstruction scenario {scenario!r}")
    holds = (lhs1 >= bd1 - slack) or (lhs2 >= bd2 - slack)
    return ObstructionReport(scenario, holds, lhs1, bd1, lhs2, bd2)


# ---------------------------------------------------------------------------
# Rank-one idempotents.
# ---------------------------------------------------------------------------


def _rank_one(v0, v1, cu0, cu1, pairing) -> tuple:
    """The entries ``(a, b, c, d)`` of the rank-one idempotent ``v u* / (u* v)``, given
    ``v = (v0, v1)``, ``conj(u) = (cu0, cu1)`` and the pairing ``u* v``: ``v[i] cu[j] / (u* v)``."""
    return (v0 * cu0 / pairing, v0 * cu1 / pairing, v1 * cu0 / pairing, v1 * cu1 / pairing)
