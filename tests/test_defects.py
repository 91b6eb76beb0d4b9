"""Defect and distance reports: exact arithmetic, witnesses, scan order, rounding."""

import cmath
import decimal
import gc
import json
import math
import warnings
import weakref
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amnm.defects
from amnm import (
    M2_ID,
    M2_ZERO,
    AlgebraMap,
    Mat2,
    ParseError,
    correct_m2,
    correct_scalar,
    correct_t2,
    correct_weighted,
    defect,
    default_norm,
    enumerate_filters,
    filter_indicator,
    free_semilattice,
    hs_norm,
    m2_family_map,
    m2_map,
    map_from_json,
    map_to_json,
    nearest_mult_m2,
    nearest_mult_scalar,
    nearest_mult_t2,
    nmin,
    orthogonal_free_sum,
    random_scalar_instance,
    random_semilattice,
    random_submultiplicative_weight,
    random_t2_instance,
    round_to_binary,
    scalar_map,
    t2_map,
    unit_weight,
    weighted,
    weighted_sup_distance,
    weighted_sup_distance_report,
)
from amnm.defects import (
    _candidate_pairs,
    _defect_exact,
    _defect_float,
    _element_ratios,
    _integers,
    _is_character,
    _norms,
    _refuse_non_finite,
    _stack,
)
from amnm.mat2 import _complex_norm, _idempotent_defect
from amnm.weights import _over_common_denominator


def test_default_norm_per_codomain():
    assert default_norm("scalar") == "abs"
    assert default_norm("t2") == "t2"
    assert default_norm("m2") == "hs"


def test_a_norm_outside_the_codomain_is_refused():
    S = nmin(2)
    with pytest.raises(ValueError, match="norm 'op' is not valid for codomain 'scalar'"):
        defect(S, scalar_map([1, 0]), "op")
    theta, phi = m2_map([M2_ID, M2_ID]), m2_map([M2_ID, Mat2(0, 0, 0, 0)])
    with pytest.raises(ValueError, match="norm 'abs' is not valid for codomain 'm2'"):
        weighted_sup_distance_report(unit_weight(S), theta, phi, "abs")


def _binary_maps(row, one):
    """The 0/1 map a boolean row names, with ``one`` and ``one * 0`` as its values,
    in every codomain and norm: ``(map, norm)`` pairs."""
    zero = one * 0
    vals = [one if bit else zero for bit in row]
    yield scalar_map(vals), "abs"
    yield t2_map([(v, zero) for v in vals]), "t2"
    m2 = m2_map([Mat2(v, zero, zero, v) for v in vals])
    yield m2, "hs"
    yield m2, "op"


def _scanned(WS, theta, norm):
    """The report of the scan ``defect`` dispatches to, called directly."""
    scan = _defect_exact if WS.is_exact and theta.is_exact else _defect_float
    return scan(WS, theta, norm)


def _weights(S):
    """A unit, an exact and a float weight on ``S``: ``(3/2)**|down(x)|`` is
    submultiplicative, as ``down(xy)`` is ``down(x) & down(y)``."""
    down = S.leq.sum(axis=0).tolist()
    return (
        unit_weight(S),
        weighted(S, [Fraction(3, 2) ** k for k in down]),
        weighted(S, [1.5**k for k in down]),
    )


_CHARACTER_POOL = [
    nmin(5),
    free_semilattice(3),
    orthogonal_free_sum((2, 3)),
    *(random_semilattice(np.random.default_rng(seed)) for seed in range(3)),
]


def test_characters_have_zero_defect_exactly(monkeypatch):
    # every row of the proved table is read off as 0 at (0, 0), the scan's
    # report, and no scan runs for it
    for name in ("_defect_exact", "_defect_float"):
        monkeypatch.setattr(f"amnm.defects.{name}", lambda *args: pytest.fail("scanned"))
    for S in _CHARACTER_POOL:
        for WS in _weights(S):
            for row in S._mult_rows:
                for one in (1, 1.0, 1 + 0j, Fraction(1)):
                    for chi, norm in _binary_maps(row, one):
                        rep, scan = defect(WS, chi, norm), _scanned(WS, chi, norm)
                        assert rep == scan
                        assert type(rep.defect) is type(scan.defect)
                        assert rep.defect == 0
                        assert rep.exact_value == (WS.is_exact and chi.is_exact)


def test_a_binary_map_off_the_character_table_is_scanned():
    # {0} is no filter of the chain 0 < 1 < 2: theta(0) theta(1) - theta(0) = -1
    rep = defect(nmin(3), scalar_map([1, 0, 0]))
    assert (rep.defect, rep.witness) == (1, (0, 1))
    for S in _CHARACTER_POOL[:2]:
        rows = {tuple(row) for row in S._mult_rows.tolist()}
        for WS in _weights(S):
            for bits in range(2**S.n):
                row = [bool(bits >> e & 1) for e in range(S.n)]
                for theta, norm in _binary_maps(row, 1):
                    rep = defect(WS, theta, norm)
                    assert rep == _scanned(WS, theta, norm)
                    assert (rep.defect > 0) == (tuple(row) not in rows)


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


def _modulus(z) -> float:
    """``sqrt(re*re + im*im)`` under the float kernel's rescaling rule: the HS
    norm of the matrix with ``z`` and three zeros."""
    return _complex_norm(complex(z), 0j, 0j, 0j, False)


def _python_product_defect(WS, theta):
    """The float defect from Python products, one :func:`_modulus` per complex
    part, and the first pair ``(i <= j)`` at it."""
    w, table, vals = WS.omega_float, WS.S.table, theta.values
    best, witness = 0.0, (0, 0)
    for i in range(WS.n):
        for j in range(i, WS.n):
            if theta.codomain == "scalar":
                norm = _modulus(vals[i] * vals[j] - vals[table[i, j]])
            else:
                d = vals[i] @ vals[j] - vals[table[i, j]]
                norm = _modulus(d.a) + _modulus(d.b)
            ratio = norm / (w[i] * w[j])
            if ratio > best:
                best, witness = ratio, (i, j)
    return best, witness


@pytest.mark.parametrize("draw", [random_scalar_instance, random_t2_instance])
def test_float_defect_rounds_like_python_products(draw):
    # pins the rounding of the embedded float kernel: numpy's elementwise complex
    # multiply may fuse multiply-adds, and then differs in the last bits
    gen = np.random.default_rng(1010)
    for _ in range(300):
        S = random_semilattice(gen)
        theta = draw(gen, S)
        for WS in (unit_weight(S), random_submultiplicative_weight(gen, S)):
            rep = defect(WS, theta)
            assert (rep.defect_float, rep.witness) == _python_product_defect(WS, theta)


@st.composite
def _spread_entries(draw):
    """Four complex entries whose nonzero parts run from the smallest subnormal
    to ``2**1023``: around one exponent, within a spread of 0, 4, 60 or 2100
    binades; about a quarter of the parts are exact zeros."""
    top, spread = draw(st.integers(-1074, 1023)), draw(st.sampled_from([0, 4, 60, 2100]))

    def part():
        if draw(st.integers(0, 3)) == 0:
            return 0.0
        e = min(max(top - draw(st.integers(0, spread)), -1074), 1023)
        mantissa = draw(st.floats(0.5, 1.0, exclude_max=True))
        return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(mantissa, e)

    return [complex(part(), part()) for _ in range(4)]


def _exact_sqrt(q: Fraction) -> Fraction:
    with decimal.localcontext(decimal.Context(prec=80, Emin=-10**6, Emax=10**6)) as ctx:
        return Fraction(ctx.sqrt(ctx.divide(q.numerator, q.denominator)))


def _assert_near_exact(x: float, entries, op: bool):
    """``x`` within the float formula's error of the exact norm of ``entries``:
    ``8u`` relative for a modulus or the HS norm; the operator norm adds
    the cancellation in ``t**2 - 4 |det|**2`` (absolute error at most
    ``64 u t**2``) at its square root."""
    if not all(map(cmath.isfinite, entries)):  # an inf part gives inf, a NaN part NaN
        assert math.isnan(x) if any(map(cmath.isnan, entries)) else x == math.inf
        return
    u = Fraction(2) ** -53
    a, b, c, d = ((Fraction(z.real), Fraction(z.imag)) for z in entries)
    t = sum(re * re + im * im for re, im in (a, b, c, d))
    if not op:
        ref, tol = _exact_sqrt(t), 8 * u * _exact_sqrt(t)
    else:
        det_re = a[0] * d[0] - a[1] * d[1] - b[0] * c[0] + b[1] * c[1]
        det_im = a[0] * d[1] + a[1] * d[0] - b[0] * c[1] - b[1] * c[0]
        disc = t * t - 4 * (det_re**2 + det_im**2)
        ref = _exact_sqrt((t + _exact_sqrt(disc)) / 2)
        slack = 64 * u * t * t
        root_err = _exact_sqrt(slack)
        if disc:
            root_err = min(root_err, slack / _exact_sqrt(disc))
        tol = 8 * u * ref + ((8 * u * t + root_err) / (2 * ref) if ref else 0)
    tol += Fraction(2) ** -1074  # a subnormal norm rounds once more
    if ref >= Fraction(_MAX) * (1 - 4 * u):  # at or near the float range's end
        assert x == math.inf or abs(Fraction(x) - ref) <= tol
    else:
        assert x < math.inf and abs(Fraction(x) - ref) <= tol


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_spread_entries(), min_size=1, max_size=6))
@example(rows=[[5e-324j, 0j, 0j, 0j], [0j] * 4, [complex(2.0**-600, 0), 0j, 0j, 2.0**-600 + 0j]])
@example(rows=[[complex(1.7e308, 1.7e308), 0j, 0j, complex(1.7e308, -1.7e308)], [1e200 + 0j] * 4])
@example(rows=[[1 + 0j, complex(0, math.inf), 0j, 0j], [complex(math.inf, 1), 0j, 0j, 1e-300j]])
@example(rows=[[complex(math.inf, math.nan), 1 + 0j, 0j, 0j], [0j, 0j, math.nan + 0j, 2 + 0j]])
def test_the_stack_kernel_is_the_scalar_kernel_bit_for_bit(rows):
    """``defects._norms`` and ``mat2._complex_norm`` round every norm alike,
    from subnormal parts to ``2**1023``, and both are within the formula's
    error of the exact norm; the moduli of ``abs`` and ``t2`` are one-entry HS
    norms.  A real stack reads as complex."""
    D = np.array([[[a, b], [c, d]] for a, b, c, d in rows])
    for norm, op in (("hs", False), ("op", True)):
        for x, entries in zip(_norms(D, norm).tolist(), rows):
            assert x.hex() == _complex_norm(*entries, op).hex()
            _assert_near_exact(x, entries, op)
        real = [[complex(z.real) for z in entries] for entries in rows]
        got = _norms(D.real.copy(), norm).tolist()
        assert [x.hex() for x in got] == [_complex_norm(*e, op).hex() for e in real]
    for (a, b, _, _), x, y in zip(rows, _norms(D, "abs").tolist(), _norms(D, "t2").tolist()):
        assert x.hex() == _modulus(a).hex() and y.hex() == (_modulus(a) + _modulus(b)).hex()
        _assert_near_exact(x, [a, 0j, 0j, 0j], False)


# parts whose products stay in the float range, down to where they underflow
_MODERATE = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-600, 240))


@settings(max_examples=200, deadline=None)
@given(A=st.builds(Mat2, *[st.builds(complex, _MODERATE, _MODERATE)] * 4))
@example(A=Mat2(1e-160j, 0j, 0j, 0j))  # A @ A - A squares to a subnormal
def test_the_defect_scan_diagonal_is_the_idempotent_defect(A):
    """On one element the scan's only pair is ``(0, 0)``: its float defect is
    ``mat2._idempotent_defect`` bit for bit."""
    assert defect(nmin(1), m2_map([A]), "hs").defect_float.hex() == _idempotent_defect(*A).hex()


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


@pytest.mark.parametrize("v", [1e300, 2.0**60, 0.6 + 1e8j])
def test_round_to_binary_sends_a_large_value_nearer_1_to_1(v):
    # |v| and |v - 1| round to one float: the real part decides
    assert round_to_binary(nmin(1), scalar_map([v])).values == (1,)


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
    return _exact_map(codomain, rows)


def _exact_map(codomain: str, rows) -> AlgebraMap:
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


# ---------------------------------------------------------------------------
# The integer-ranked exact defect against a plain all-pairs Fraction scan.
# ---------------------------------------------------------------------------

_POOL = [nmin(1), nmin(4), free_semilattice(2), free_semilattice(3), orthogonal_free_sum((2, 2))]
_POOL += [random_semilattice(np.random.default_rng(seed)) for seed in range(4)]
_SMALL = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)
# below the float range, and (for codomains whose exact norm is a rational
# root) past it
_TINY = st.one_of(_SMALL, st.just(Fraction(1, 2**1100)))
_VALUES = st.one_of(_TINY, st.just(2**300))
# entries over denominators past 2**40: their common denominator L passes the
# int64 bound 2 max|N|**2 + L max|N| < 2**63, so the exact scans run on Python ints
_WIDE = st.builds(Fraction, st.integers(-(2**42), 2**42), st.integers(2**40, 2**41))


def _reference_brackets(WS, theta, norm):
    """Every scanned pair with its exact squared ratio as a bracket [lo, hi]
    (lo == hi unless the operator norm is irrational), in scan order."""
    n, table = WS.n, WS.S.table
    omega = [Fraction(w) for w in WS.omega]
    out = []
    for i in range(n):
        for j in range(0 if theta.codomain == "m2" else i, n):
            x, y, z = theta.values[i], theta.values[j], theta.values[int(table[i, j])]
            if theta.codomain == "scalar":
                lo = hi = Fraction(x * y - z) ** 2
            elif theta.codomain == "t2":
                da, db = Fraction(x[0] * y[0] - z[0]), Fraction(x[0] * y[1] + x[1] * y[0] - z[1])
                lo = hi = (abs(da) + abs(db)) ** 2
            else:
                a, b, c, d = (
                    Fraction(x[0] * y[0] + x[1] * y[2] - z[0]),
                    Fraction(x[0] * y[1] + x[1] * y[3] - z[1]),
                    Fraction(x[2] * y[0] + x[3] * y[2] - z[2]),
                    Fraction(x[2] * y[1] + x[3] * y[3] - z[3]),
                )
                t = a * a + b * b + c * c + d * d
                lo = hi = t
                if norm == "op" and a * d != b * c:
                    disc = t * t - 4 * (a * d - b * c) ** 2  # op^2 = (t + sqrt(disc)) / 2
                    k = 2**64 * disc.denominator
                    root = math.isqrt(disc.numerator * disc.denominator * 2**128)
                    lo, hi = (t + Fraction(root, k)) / 2, (t + Fraction(root + 1, k)) / 2
                    if root * root == disc.numerator * disc.denominator * 2**128:
                        hi = lo
            scale = (omega[i] * omega[j]) ** 2
            out.append(((i, j), lo / scale, hi / scale))
    return out


def _one_off_map(draw, S, codomain, entries):
    """A multiplicative map with the value at one element replaced."""
    options = [None, *enumerate_filters(S)]
    F1, F2 = draw(st.sampled_from(options)), draw(st.sampled_from(options))
    if codomain == "m2":
        b = draw(_SMALL)
        P = draw(st.sampled_from([Mat2(1, b, 0, 0), Mat2(0, 0, b, 1), Mat2(1, 0, 0, 0)]))
        values = list(m2_family_map(S, F1, F2, P).values)
        values[draw(st.integers(0, S.n - 1))] = _m2_value(draw, draw(st.booleans()), entries)
        return m2_map(values)
    values = list(filter_indicator(S, F1).values)
    k = draw(st.integers(0, S.n - 1))
    values[k] = draw(entries)
    if codomain == "scalar":
        return scalar_map(values)
    return t2_map([(v, draw(entries) if e == k else 0) for e, v in enumerate(values)])


def _m2_value(draw, diagonal, entries):
    # diagonal differences have rational operator norms, max(|a|, |d|)
    a, b, c, d = (draw(entries) for _ in range(4))
    return Mat2(a, 0, 0, d) if diagonal else Mat2(a, b, c, d)


@st.composite
def defect_cases(draw):
    S = draw(st.sampled_from(_POOL))
    kind = draw(st.sampled_from(["unit", "rational", "huge", "wide"]))
    below = [[y for y in range(S.n) if int(S.table[x, y]) == y] for x in range(S.n)]
    if kind == "unit":
        omega = [1] * S.n
    elif kind == "rational":
        # monotone weights >= 1 are submultiplicative: omega(xy) <= omega(x)
        c = [draw(st.fractions(min_value=0, max_value=9, max_denominator=7)) for _ in range(S.n)]
        omega = [1 + sum(c[y] for y in below[x]) for x in range(S.n)]
    elif kind == "huge":
        omega = [Fraction(2**30) ** len(below[x]) for x in range(S.n)]
    else:
        c = [abs(draw(_WIDE)) for _ in range(S.n)]
        omega = [1 + sum(c[y] for y in below[x]) for x in range(S.n)]
    values, entries = (_WIDE, _WIDE) if kind == "wide" else (_VALUES, _TINY)
    codomain = draw(st.sampled_from(["scalar", "t2", "m2"]))
    if draw(st.booleans()):
        theta = _one_off_map(draw, S, codomain, entries if codomain == "m2" else values)
    elif codomain == "scalar":
        theta = scalar_map(draw(values) for _ in range(S.n))
    elif codomain == "t2":
        theta = t2_map((draw(values), draw(values)) for _ in range(S.n))
    else:
        diagonal = draw(st.booleans())
        theta = m2_map(_m2_value(draw, diagonal, entries) for _ in range(S.n))
    return weighted(S, omega), theta


@settings(max_examples=300, deadline=None)
@given(defect_cases(), st.sampled_from(["hs", "op"]))
def test_exact_defect_matches_the_all_pairs_fraction_scan(case, m2_norm):
    WS, theta = case
    norm = m2_norm if theta.codomain == "m2" else None
    brackets = _reference_brackets(WS, theta, norm or default_norm(theta.codomain))
    try:
        rep = defect(WS, theta, norm)
    except ValueError:
        # Only an irrational operator norm may stop the scan, and only when its HS
        # norm, which bounds it, beats every rational pair's ratio; hs/sqrt(2) <= op
        # then puts it within half the maximum.
        top = max(lo for _, lo, _ in brackets)
        assert any(lo != hi and 4 * hi >= top * (1 - Fraction(1, 10**9)) for _, lo, hi in brackets)
        return
    _assert_full_scan(rep, brackets)


def _assert_full_scan(rep, brackets):
    """The report gives the all-pairs scan's maximum and its first witness."""
    best = rep.defect_sq
    if rep.exact_value:
        assert rep.defect**2 == best
    else:
        assert rep.defect == math.sqrt(float(best))
    if best == 0:
        assert rep.witness == (0, 0) and all(hi == 0 for _, _, hi in brackets)
        return
    for pair, lo, hi in brackets:
        if pair == rep.witness:
            assert lo == hi == best
        elif pair < rep.witness:
            assert hi < best  # the witness is the first pair at the maximum
        else:
            assert hi <= best if lo == hi else hi < best


def test_the_exact_defect_keeps_the_first_of_tied_pairs():
    # (0,0), (0,1) and (1,1) all cost exactly 4/25: the strict > keeps (0,0)
    S = free_semilattice(2)
    rep = defect(S, scalar_map([Fraction(4, 5), Fraction(1, 5), 0]))
    assert rep.defect == Fraction(4, 25)
    assert rep.witness == (0, 0)


def test_the_exact_op_defect_keeps_a_rank_one_maximum():
    # (0,0) costs diag(2, 0): op = hs = 2, the maximum; (1,1) costs
    # diag(36/25, 36/25): op 36/25 but hs 36/25 sqrt(2) > 2, so ranking by
    # the HS norm would lose (0,0)
    S = free_semilattice(2)
    theta = m2_map([Mat2(2, 0, 0, 0), Mat2(Fraction(-4, 5), 0, 0, Fraction(-4, 5)), Mat2(0, 0, 0, 0)])
    rep = defect(S, theta, "op")
    assert rep.defect == 2 and rep.witness == (0, 0)


def _irrational_op_pair_map():
    # on the chain 0 < 1 < 2: theta(1)^2 - theta(1) = diag(2, 0) has op norm 2,
    # theta(2)^2 - theta(2) = [[2, 1], [0, 2]] has op^2 = (9 + sqrt(17))/2
    return m2_map([Mat2(0, 0, 0, 0), Mat2(2, 0, 0, 0), Mat2(2, Fraction(1, 3), 0, 2)])


def test_an_irrational_op_norm_pair_under_a_heavier_weight_does_not_raise():
    WS = weighted(nmin(3), (1, 1, 10))
    rep = defect(WS, _irrational_op_pair_map(), "op")
    assert rep.defect == 2 and rep.exact_value
    assert rep.witness == (1, 1)


def test_an_irrational_op_norm_pair_at_the_maximum_still_raises():
    with pytest.raises(ValueError, match="perfect-square discriminant"):
        defect(nmin(3), _irrational_op_pair_map(), "op")


def _irrational_op_element_map(top):
    # theta(0) = [[2, 1], [0, 3]] / 100 has op^2 = (14 + sqrt(52)) / 20000, irrational, and
    # HS^2 = 14 / 10000; theta(1) = diag(top, 0) has op = HS = top
    return m2_map([Mat2(Fraction(2, 100), Fraction(1, 100), 0, Fraction(3, 100)), Mat2(top, 0, 0, 0)])


def test_an_irrational_op_norm_element_below_the_maximum_does_not_raise():
    theta, zero = _irrational_op_element_map(5), m2_map([M2_ZERO] * 2)
    for norm in ("op", "hs"):
        rep = weighted_sup_distance_report(nmin(2), theta, zero, norm)
        assert (rep.value, rep.witness, rep.value_sq, rep.exact_value) == (5, 1, 25, True)


# 1/100: the irrational element is the maximum; 36/1000: it is not (op^2 is about
# 0.00106 against 0.001296), but its HS bound, 0.0014, is above, as in the defect
@pytest.mark.parametrize("top", [Fraction(1, 100), Fraction(36, 1000)], ids=["op-above", "hs-above"])
def test_an_irrational_op_norm_element_whose_hs_bound_wins_still_raises(top):
    with pytest.raises(ValueError, match="perfect-square discriminant"):
        weighted_sup_distance_report(nmin(2), _irrational_op_element_map(top), m2_map([M2_ZERO] * 2), "op")


def test_an_irrational_op_norm_pair_below_the_maximum_does_not_raise():
    # over L = 2**1100 the integer differences pass the float range; (1,1)
    # costs [[t^2, t^2 - t], [t^2 - t, 2t^2 - t]], with an irrational operator
    # norm but HS^2 about 3t^2, below the 20t^2 of the rank-one (0,1)
    t = Fraction(1, 2**1100)
    theta = m2_map([Mat2(0, -3, 0, 1), Mat2(0, t, t, t), Mat2(0, 0, 0, 0)])
    rep = defect(unit_weight(free_semilattice(2)), theta, "op")
    assert rep.witness == (0, 1)
    assert rep.defect_sq == 20 * t**2


@pytest.mark.parametrize(
    "weight", [lambda k: 1 + Fraction(k, 7), lambda k: 4**k], ids=["rational", "powers-of-4"]
)
def test_the_exact_defect_keeps_the_full_scans_maximum_on_a_dense_map(weight):
    # a random rational map on a 256-chain: tens of thousands of pairs differ
    # from zero, and the integer ranking keeps the full scan's maximum among
    # them, also under weights up to 2**510
    rng = np.random.default_rng(14)
    n = 256
    WS = weighted(nmin(n), [weight(k) for k in range(n)])
    num, den = rng.integers(-999, 1000, n).tolist(), rng.integers(1, 9, n).tolist()
    theta = scalar_map(map(Fraction, num, den))
    brackets = _reference_brackets(WS, theta, "abs")
    assert sum(hi > 0 for _, _, hi in brackets) > 30_000
    rep = defect(WS, theta)
    assert rep.witness in [(i, j) for i, j, _ in _candidate_pairs(WS, theta, "abs")]
    _assert_full_scan(rep, brackets)


@pytest.mark.parametrize(
    "theta, norm, fractions",
    [
        (scalar_map([Fraction(1, 2)] * 4), "abs", 2),  # 1/16, and _root's 1/4
        (m2_map([Mat2(Fraction(1, 2), 0, 0, Fraction(1, 2))] * 4), "hs", 1),  # 1/8: a float root
    ],
    ids=["rational-root", "float-root"],
)
def test_the_exact_defect_builds_one_fraction_per_report(monkeypatch, theta, norm, fractions):
    # every pair of a constant 1/2 map differs from zero and ties at the maximum:
    # the scan ranks them on integers, keeps the first, and builds one Fraction
    WS = unit_weight(nmin(4))
    assert len(list(_candidate_pairs(WS, theta, norm))) >= 10
    made = []
    monkeypatch.setattr(amnm.defects, "Fraction", lambda *args: made.append(args) or Fraction(*args))
    rep = _defect_exact(WS, theta, norm)
    assert len(made) == fractions
    assert rep.witness == (0, 0)


@pytest.mark.parametrize("norm", ["hs", "op"])
def test_a_norm_past_the_float_range_does_not_prune_the_maximum(norm):
    # theta(2)^2 - theta(2) has four entries 2**1023 - 2**511: each fits a float
    # but the norm overflows, while the weight 2**499 makes its ratio about
    # 2**26; the maximum, about 2**28, is at (1,1) under the weight 1, where
    # the exact scan ranks integers, past any float
    x = 2**511
    WS = weighted(nmin(3), (1, 1, 2**499))
    theta = m2_map([Mat2(0, 0, 0, 0), Mat2(2**14, 0, 0, 0), Mat2(x, x, x, x)])
    rep = defect(WS, theta, norm)
    assert rep.witness == (1, 1)
    _assert_full_scan(rep, _reference_brackets(WS, theta, norm))


@pytest.mark.parametrize("codomain", ["scalar", "m2"])
@pytest.mark.parametrize("scaled", [False, True])
def test_weights_wider_than_the_float_range_keep_the_full_scans_maximum(codomain, scaled):
    # the weights span 3**1000, about 2**1585: over their common power of two
    # one is subnormal and some products fall below the normal range; values
    # scaled by their weights make every pair compete, and differences past
    # the float range
    WS = weighted(nmin(6), [1, 3**114, 3**300, 3**500, 3**700, 3**1000])
    rng = np.random.default_rng(7)
    for _ in range(10):
        num, den = rng.integers(-2, 3, 24).tolist(), rng.integers(1, 3, 24).tolist()
        scale = [WS.omega[k // 4] if scaled else 1 for k in range(24)]
        r = [Fraction(p, q) * c for p, q, c in zip(num, den, scale)]
        values = [Mat2(*r[k : k + 4]) for k in range(0, 24, 4)]
        theta = scalar_map(r[::4]) if codomain == "scalar" else m2_map(values)
        _assert_full_scan(defect(WS, theta), _reference_brackets(WS, theta, default_norm(codomain)))


# ---------------------------------------------------------------------------
# Exact squares past the float range.
# ---------------------------------------------------------------------------


def test_an_exact_defect_past_the_float_range_has_a_float_root():
    # theta^2 - theta = [[0, 0], [x - 1, x^2 - x]]: defect^2 = (x - 1)^2 (1 + x^2)
    # has no rational root, and float(defect^2) overflows
    x = 2**300
    rep = defect(nmin(1), m2_map([Mat2(0, 0, 1, x)]))
    assert rep.defect_sq == (x - 1) ** 2 * (1 + x**2)
    assert not rep.exact_value and rep.witness == (0, 0)
    assert rep.defect == 2.0**600  # (x - 1) sqrt(1 + x^2), correctly rounded


def test_an_exact_distance_past_the_float_range_has_a_float_root():
    zero = m2_map([Mat2(0, 0, 0, 0)])
    rep = weighted_sup_distance_report(nmin(1), m2_map([Mat2(2**600, 1, 0, 0)]), zero)
    assert rep.value_sq == 2**1200 + 1
    assert not rep.exact_value and rep.witness == 0
    assert rep.value == 2.0**600


def test_an_exact_distance_below_the_square_range_has_a_float_root():
    # float(value_sq) is 0.0, but the root, sqrt(2) x, is a normal float
    x = Fraction(1, 3 * 10**200)
    rep = weighted_sup_distance_report(nmin(1), m2_map([Mat2(x, x, 0, 0)]), m2_map([Mat2(0, 0, 0, 0)]), "hs")
    assert rep.value_sq == 2 * x * x and not rep.exact_value
    u = Fraction(math.ulp(rep.value))
    assert (Fraction(rep.value) - u) ** 2 <= rep.value_sq <= (Fraction(rep.value) + u) ** 2


def test_an_exact_value_past_the_float_range_has_an_infinite_float_view():
    x = 2**1100
    rep = defect(nmin(1), scalar_map([x]))
    assert rep.exact_value and rep.defect == x * x - x
    assert rep.defect_float == math.inf
    dist = weighted_sup_distance_report(nmin(1), scalar_map([x]), scalar_map([0]))
    assert dist.value == x and dist.value_float == math.inf


_HUGE_M2 = m2_map([Mat2(1e308 + 0j, 0j, 0j, 0j), Mat2(1.0, 0.0, 0.0, 1.0)])
# finite parts whose modulus, about 2.1e308, is past the float range
_HUGE_PARTS = m2_map([Mat2(complex(1.5e308, 1.5e308), 0j, 0j, 0j), Mat2(1.0, 0.0, 0.0, 1.0)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta, norm",
    [
        (scalar_map([1e308 + 0j, 1.0]), "abs"),
        (t2_map([(1e308 + 0j, 0j), (1.0, 0.0)]), "t2"),
        (_HUGE_M2, "hs"),
        (_HUGE_M2, "op"),
        (_HUGE_PARTS, "hs"),
        (_HUGE_PARTS, "op"),
    ],
    ids=["scalar", "t2", "m2-hs", "m2-op", "m2-parts-hs", "m2-parts-op"],
)
def test_a_float_defect_past_the_float_range_is_inf_without_a_warning(theta, norm):
    rep = defect(nmin(2), theta, norm)
    assert rep.defect == math.inf and rep.witness == (0, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", ["hs", "op"])
@pytest.mark.parametrize(
    "theta",
    [_HUGE_PARTS, m2_map([Mat2(1.5e308, 1.5e308, 0.0, 0.0), Mat2(1.0, 0.0, 0.0, 1.0)])],
    ids=["parts", "real"],
)
def test_a_float_distance_past_the_float_range_is_inf_without_a_warning(theta, norm):
    ident = Mat2(1.0, 0.0, 0.0, 1.0)
    for phi in (m2_map([ident, ident]), m2_map([Mat2(0, 0, 0, 0), ident])):
        assert weighted_sup_distance(nmin(2), theta, phi, norm) == math.inf


_X = 1.5e308  # its double, and the modulus of complex(x, x), are past the float range
# theta, phi and the norm: every difference theta(0) - phi(0) has a part or a
# modulus past the float range, and so has its norm
_OPPOSITES = [
    (m2_map([Mat2(_X, 0.0, 0.0, 0.0)]), m2_map([Mat2(-_X, 0.0, 0.0, 0.0)]), "hs"),
    (m2_map([Mat2(_X, 0.0, 0.0, 0.0)]), m2_map([Mat2(-_X, 0.0, 0.0, 0.0)]), "op"),
    (m2_map([Mat2(_X, _X, -_X, _X)]), m2_map([Mat2(-_X, -_X, _X, -_X)]), "hs"),
    (m2_map([Mat2(_X, _X, -_X, _X)]), m2_map([Mat2(-_X, -_X, _X, -_X)]), "op"),
    (scalar_map([_X]), scalar_map([-_X]), "abs"),
    (scalar_map([complex(_X, -_X)]), scalar_map([complex(-_X, _X)]), "abs"),
    (t2_map([(_X, 0.0)]), t2_map([(-_X, 0.0)]), "t2"),
    (t2_map([(_X, -_X)]), t2_map([(0.0, 0.0)]), "t2"),
]
_OPPOSITE_IDS = ["m2-hs", "m2-op", "m2-rank2-hs", "m2-rank2-op", "scalar", "scalar-parts", "t2", "t2-sum"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta, phi, norm", _OPPOSITES, ids=_OPPOSITE_IDS)
def test_a_float_difference_past_the_float_range_is_inf_without_a_warning(theta, phi, norm):
    rep = weighted_sup_distance_report(nmin(1), theta, phi, norm)
    assert rep.value == math.inf and rep.witness == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta, phi, norm",
    _OPPOSITES[:2] + _OPPOSITES[4:5] + _OPPOSITES[6:7],
    ids=["m2-hs", "m2-op", "scalar", "t2"],
)
def test_a_float_difference_past_the_float_range_over_a_weight_is_scaled_back(theta, phi, norm):
    # ||2x|| / 4 = x / 2: the scaled difference, its norm and both scalings are exact
    assert weighted_sup_distance(weighted(nmin(1), [4.0]), theta, phi, norm) == _X / 2


@pytest.mark.filterwarnings("error")
def test_float_distances_below_the_difference_range_keep_the_direct_bits():
    # differences below 2**1021 take no scaling: the ratios are the direct
    # formula's, also where both maps share a part up to the float max
    gen = np.random.default_rng(1921)
    for _ in range(40):
        S = random_semilattice(gen)
        WS = random_submultiplicative_weight(gen, S)
        scale = 2.0 ** gen.uniform(-1000, 1020, (2, S.n, 1))
        parts = gen.uniform(-1.0, 1.0, (2, S.n, 4)) * scale
        shared = gen.uniform(-1.0, 1.0, (S.n, 4)) * 2.0 ** gen.uniform(1000, 1024, (S.n, 4))
        parts = np.where(gen.random((S.n, 4)) < 0.25, shared, parts)
        for maps, norm in (
            ([scalar_map(p[:, 0]) for p in parts], "abs"),
            ([t2_map(p[:, :2]) for p in parts], "t2"),
            ([m2_map(Mat2(*row) for row in p) for p in parts], "hs"),
            ([m2_map(Mat2(*map(complex, row[:2], row[2:]), 0.0, 1.0) for row in p) for p in parts], "op"),
        ):
            V = _stack(*maps)
            direct = _norms(V[: S.n] - V[S.n :], norm) / WS.omega_float
            got, cost = _element_ratios(WS, *maps[:1], maps[1:], norm)
            assert cost is None and [x.hex() for x in got[0]] == [x.hex() for x in direct]


_MAX = 1.7976931348623157e308
# theta, phi, the norm and the distance over nmin(1) (the direct formula's,
# as bits): parts past 2**1021 that cancel leave a small difference, which
# takes no scaling, down to a subnormal part
_CANCELLING = [
    (m2_map([Mat2(2.0**1022, 1.0, 0, 0)]), m2_map([Mat2(2.0**1022, 0, 0, 0)]), "hs", 1.0),
    (m2_map([Mat2(2.0**1022, 1.0, 0, 0)]), m2_map([Mat2(2.0**1022, 0, 0, 0)]), "op", 1.0),
    (m2_map([Mat2(_MAX, complex(-_MAX, 3.0), 1e-300, 0)]), m2_map([Mat2(_MAX, -_MAX, 0, 0)]), "hs", 3.0),
    (
        m2_map([Mat2(_MAX, complex(-_MAX, 3.0), 1e-300, 2.0)]),
        m2_map([Mat2(_MAX, -_MAX, 0, 0)]),
        "op",
        float.fromhex("0x1.cd82b446159f3p+1"),
    ),
    (scalar_map([complex(2.0**1022, 1e-10)]), scalar_map([complex(2.0**1022, 0)]), "abs", 1e-10),
    (scalar_map([complex(-_MAX, 5e-324)]), scalar_map([complex(-_MAX, 0)]), "abs", 5e-324),
    (t2_map([(2.0**1022, 1.0)]), t2_map([(2.0**1022, 0.0)]), "t2", 1.0),
    (t2_map([(_MAX, complex(-_MAX, 0.5))]), t2_map([(_MAX, -_MAX)]), "t2", 0.5),
    (t2_map([(complex(_MAX, 2.0), 5e-324)]), t2_map([(_MAX, 0.0)]), "t2", 2.0),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta, phi, norm, expected",
    _CANCELLING,
    ids=["m2-hs", "m2-op", "m2-max-hs", "m2-max-op", "scalar", "scalar-subnormal", "t2", "t2-max", "t2-subnormal"],
)
def test_a_small_difference_of_parts_past_the_difference_range_keeps_its_bits(theta, phi, norm, expected):
    rep = weighted_sup_distance_report(nmin(1), theta, phi, norm)
    assert rep.value.hex() == expected.hex() and rep.witness == 0
    assert weighted_sup_distance(weighted(nmin(1), [1.5]), theta, phi, norm).hex() == (expected / 1.5).hex()


# ---------------------------------------------------------------------------
# The integer stacks of the exact scans.
# ---------------------------------------------------------------------------


def test_integer_stacks_switch_to_python_ints_past_the_int64_bound():
    small = scalar_map([Fraction(1, 3), 1, 0])
    N, L = _integers(small)
    assert N.dtype == np.int64 and L == 3
    assert N[:, 0, 0].tolist() == [1, 3, 0]
    wide = scalar_map([Fraction(1, 2**40 + 1), 1, 0])
    N, L = _integers(wide)
    assert N.dtype == object and L == 2**40 + 1
    assert N[:, 0, 0].tolist() == [1, L, 0]
    # on both paths the defect is |x * 1 - theta(zero)| = x at (0, 1), above
    # the |x^2 - x| at (0, 0)
    S = free_semilattice(2)
    for theta in (small, wide):
        rep = defect(S, theta)
        assert rep.defect == theta.values[0] and rep.witness == (0, 1)


# numerators up to 2**32 over denominators up to 2**62: a map's own stack can be
# int64 while the stacks of several, over the lcm of their L, need Python ints
_WIDE = st.one_of(
    st.integers(-(2**32), 2**32),
    st.builds(Fraction, st.integers(-(2**32), 2**32), st.integers(1, 2**62)),
    _SMALL,
)


@st.composite
def exact_map_lists(draw):
    codomain = draw(st.sampled_from(["scalar", "t2", "m2"]))
    width = {"scalar": 1, "t2": 2, "m2": 4}[codomain]
    n = draw(st.integers(1, 3))
    rows = st.lists(st.tuples(*[_WIDE] * width), min_size=n, max_size=n)
    return [_exact_map(codomain, draw(rows)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=300, deadline=None)
@given(exact_map_lists())
# each stack is int64 on its own; over the lcm 2**62 - 1, 3 becomes 3 * (2**62 - 1),
# which int64 wraps
@example([scalar_map([Fraction(1, 2**62 - 1)]), scalar_map([3])])
# each stack is int64 on its own; over the lcm the bound fails though nothing wraps
@example([t2_map([(Fraction(1, 2**40 + 1), 0)]), t2_map([(0, 2**20)]), t2_map([(1, 1)])])
def test_combined_integer_stacks_are_the_single_pass_stack(maps):
    entries = [x for m in maps for v in m.as_m2().values for x in v]
    N0, L0 = _over_common_denominator(entries)
    N, L = _integers(*maps)
    assert L == L0 and N.dtype == N0.dtype and N.shape == (len(entries) // 4, 2, 2)
    assert N.ravel().tolist() == N0.tolist()
    assert [Fraction(x, L) for x in N.ravel().tolist()] == entries


def test_a_matrix_map_is_its_own_embedding_and_caches_no_embedding():
    theta = m2_map([Mat2(1, Fraction(1, 2), 0, 1), Mat2(0, 0, 0, 1)])
    assert theta.as_m2() is theta
    defect(nmin(2), theta)
    weighted_sup_distance(nmin(2), theta, theta)
    assert theta.as_m2() is theta and "_embedding" not in vars(theta)
    scalar = scalar_map([1, Fraction(1, 3)])
    assert scalar.as_m2() is scalar.as_m2()  # made once


@pytest.mark.parametrize(
    "make",
    [
        lambda: scalar_map([1, Fraction(1, 3)]),
        lambda: t2_map([(1, 2), (0, Fraction(1, 3))]),
        lambda: m2_map([Mat2(1, Fraction(1, 2), 0, 1), Mat2(0, 0, 0, 1)]),
        lambda: scalar_map([0.5, 1.0]),
        lambda: t2_map([(0.5, 1.0), (1.0, 0.0)]),
        lambda: m2_map([Mat2(0.5, 1.0, 0.0, 1.0), Mat2(1.0, 0.0, 0.0, 1.0)]),
    ],
    ids=["scalar", "t2", "m2", "scalar-float", "t2-float", "m2-float"],
)
def test_maps_and_their_cached_forms_are_freed_without_the_collector(make):
    S = nmin(2)
    gc.disable()
    try:
        theta, phi = make(), make()
        defect(S, theta)
        weighted_sup_distance_report(S, theta, phi)
        refs = [weakref.ref(m) for m in (theta, theta.as_m2(), phi, phi.as_m2())]
        del theta, phi
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_cached_integer_forms_are_read_only_and_made_once():
    theta = t2_map([(1, Fraction(1, 3)), (0, 2)])
    N, L = _integers(theta)
    assert L == 3 and _integers(theta)[0] is N
    with pytest.raises(ValueError):
        N[0, 0, 0] = 5
    for WS in (weighted(nmin(2), [Fraction(3, 2), 2]), unit_weight(free_semilattice(2))):
        W, K = WS._omega_integers
        N0, K0 = _over_common_denominator(WS.omega)
        assert (W, K) == (tuple(N0.tolist()), K0) and WS._omega_integers[0] is W
        with pytest.raises(TypeError):
            W[0] = 1


# ---------------------------------------------------------------------------
# The stacks laid out from the values, against the embedding they replace.
# ---------------------------------------------------------------------------


def _ref_stack(*maps):
    """Every map through :meth:`AlgebraMap.as_m2`, then one complex stack."""
    values = sum((m.as_m2().values for m in maps), ())
    return np.fromiter(chain.from_iterable(values), complex, 4 * len(values)).reshape(-1, 2, 2)


def _ref_integers(theta):
    """One exact map's integers over the embedding's entries."""
    N, L = _over_common_denominator(list(chain.from_iterable(theta.as_m2().values)))
    return N.reshape(-1, 2, 2), L


def _ref_is_character(S, theta):
    """The character test on the embedded values, ``I`` and ``0``."""
    ones, m = bytearray(S.n), None
    for e, v in enumerate(theta.as_m2().values):
        if v == M2_ID:
            ones[e] = 1
            m = e if m is None else S.table.item(m, e)
        elif v != M2_ZERO:
            return False
    return m is None or S._mult_rows[m + 1].tobytes() == ones


_NON_FINITE = [math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 1.0)]


def _random_entry(gen, exact, non_finite):
    if non_finite and gen.random() < 0.1:
        return _NON_FINITE[int(gen.integers(len(_NON_FINITE)))]
    kind = int(gen.integers(4 if exact else 10))
    if kind < 4:  # exact: 0, 1, a Fraction, an int past 2**250
        small = Fraction(int(gen.integers(-9, 10)), int(gen.integers(1, 9)))
        return (0, 1, small, int(gen.integers(-9, 10)) * 2**300)[kind]
    z = complex(*gen.normal(size=2))
    return (-0.0, 1.0, z.real, z, z * 2.0**260, z * 2.0**-300)[kind - 4]


def _random_map(gen, codomain, n, exact=False, non_finite=False):
    def entry():
        return _random_entry(gen, exact, non_finite)

    if codomain == "scalar":
        return scalar_map([entry() for _ in range(n)])
    if codomain == "t2":
        return t2_map([(entry(), entry()) for _ in range(n)])
    return m2_map([Mat2(entry(), entry(), entry(), entry()) for _ in range(n)])


def _entries_equal(A, B):
    # == on every entry: signed zeros count as equal
    return A.shape == B.shape and bool((A == B).all())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("codomain", ["scalar", "t2", "m2"])
def test_stacks_from_the_values_are_the_embedding_stacks(codomain):
    gen = np.random.default_rng(3401)
    for _ in range(150):
        S = random_semilattice(gen)
        theta, phi = (_random_map(gen, codomain, S.n) for _ in range(2))
        assert _entries_equal(_stack(theta), _ref_stack(theta))
        assert _entries_equal(_stack(theta, phi), _ref_stack(theta, phi))
        assert _is_character(S, theta) == _ref_is_character(S, theta)
        exact = _random_map(gen, codomain, S.n, exact=True)
        N, L = _integers(exact)
        N0, L0 = _ref_integers(exact)
        assert L == L0 and N.dtype == N0.dtype and N.tolist() == N0.tolist()
        assert _integers(exact.as_m2())[0] is N or exact.codomain == "m2"  # the embedding shares them
        # non-finite entries are refused with the same text on both stacks
        bad = _random_map(gen, codomain, S.n, non_finite=True)
        messages = []
        for V in (_stack(theta, bad), _ref_stack(theta, bad)):
            with pytest.raises(ValueError) as info:
                if not np.isfinite(V).all():
                    _refuse_non_finite(V, theta, bad)
                raise ValueError("finite")
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        if messages[0] != "finite":
            with pytest.raises(ValueError, match="non-finite entry") as info:
                defect(S, bad)
            assert str(info.value).replace("theta", "phi") == messages[0]


@pytest.mark.parametrize("codomain", ["scalar", "t2", "m2"])
def test_the_character_test_reads_the_codomain_units_off_the_values(codomain):
    def make(values, off=0):
        # ``off`` moves the first value off its unit: its scalar, its T2 part b or its entry c
        if codomain == "scalar":
            return scalar_map([values[0] + off, *values[1:]])
        if codomain == "t2":
            return t2_map([(v, off if e == 0 else v * 0) for e, v in enumerate(values)])
        return m2_map([Mat2(v, v * 0, off if e == 0 else v * 0, v) for e, v in enumerate(values)])

    gen = np.random.default_rng(3402)
    for S in _CHARACTER_POOL:
        for row in S._mult_rows:
            for one, zero in ((1, 0), (1.0, -0.0), (1 + 0j, 0j), (Fraction(1), Fraction(0))):
                values = [one if bit else zero for bit in row]
                assert _is_character(S, make(values)) and _ref_is_character(S, make(values))
                bent = make(values, 0.25)
                assert not _is_character(S, bent) and not _ref_is_character(S, bent)
        theta = _random_map(gen, codomain, S.n)
        assert _is_character(S, theta) == _ref_is_character(S, theta)


# ---------------------------------------------------------------------------
# Reports kept on the map per carrier and norm.
# ---------------------------------------------------------------------------


@pytest.fixture
def scans(monkeypatch):
    """The number of float and exact defect scans since the fixture was made."""
    count = {"float": 0, "exact": 0}
    for path, name in (("float", "_defect_float"), ("exact", "_defect_exact")):
        scan = getattr(amnm.defects, name)

        def counted(*args, scan=scan, path=path):
            count[path] += 1
            return scan(*args)

        monkeypatch.setattr(amnm.defects, name, counted)
    return count


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_second_defect_on_the_same_carrier_and_norm_scans_nothing(scans, exact):
    S = free_semilattice(2)
    one = 1 if exact else 1.0
    omega = [2, 2, 3] if exact else [2.0, 2.0, 3.0]
    theta = m2_map([Mat2(one, Fraction(1, 3) if exact else 0.5, 0, one), M2_ZERO, M2_ID])
    path = "exact" if exact else "float"
    WS = weighted(S, omega)
    first = defect(WS, theta)
    assert scans[path] == 1
    assert defect(WS, theta) is first and defect(WS, theta, "hs") is first  # None is "hs"
    assert scans[path] == 1
    # another carrier, an equal weight on a second object, the other norm: each scans
    for ws, norm in ((S, "hs"), (weighted(S, omega), "hs"), (WS, "op")):
        assert defect(ws, theta, norm) == _scanned(weighted(S, getattr(ws, "omega", [1] * 3)), theta, norm)
    assert scans[path] == 4
    # a bare semilattice resolves to its unit weight, which keeps the same report
    assert defect(S._unit_weight, theta) is defect(S, theta)
    assert scans[path] == 4 and scans["float" if exact else "exact"] == 0


def test_a_scan_that_raises_raises_again_on_every_call(scans):
    theta = _irrational_op_pair_map()
    for k in range(1, 4):
        with pytest.raises(ValueError, match="perfect-square discriminant"):
            defect(nmin(3), theta, "op")
        assert scans["exact"] == k
    assert "op" not in {norm for _, norm in theta._reports}


# ---------------------------------------------------------------------------
# Float m2 defects whose products would overflow.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("norm", ["hs", "op"])
def test_a_float_m2_defect_past_the_square_range_does_not_overflow(norm):
    x, M = 2e200, 2.0**1023
    cases = [
        # theta^2 - theta = [[4e400 - 2e200, 0], [0, 0]] over the weight 1e400
        (
            nmin(1),
            [1e200],
            [Mat2(x, 0.0, 0.0, 0.0)],
            (0, 0),
            (Fraction(x) ** 2 - Fraction(x)) / Fraction(1e200) ** 2,
        ),
        # at (2, 2), theta^2 - theta = (M^2 - M) [[1, 1], [0, 0]]: its norm
        # sqrt(2) (M^2 - M) is past the float range, its ratio over 2**1040 is not
        (
            free_semilattice(2),
            [2**260, 2**260, 2**520],
            [Mat2(0.5, 0, 0, 0), Mat2(0.5, 0, 0, 0), Mat2(M, M, 0, 0)],
            (2, 2),
            math.sqrt(2) * ((Fraction(M) ** 2 - Fraction(M)) / 2**1040),
        ),
    ]
    for S, omega, values, witness, exact in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = defect(weighted(S, omega), m2_map(values), norm)
        assert rep.defect_float == pytest.approx(float(exact), rel=1e-14)
        assert rep.witness == witness


def _weight_product_defect(WS, theta, norm):
    """The float defect as ``_norms(V_e V_f - V_ef) / (w_e * w_f)`` and its first
    argmax (over ``i <= j`` for a symmetric codomain)."""
    V, w = _stack(theta), WS.omega_float
    ratios = _norms(np.einsum("iab,jbc->ijac", V, V) - V[WS.S.table], norm)
    ratios = ratios / (w[:, None] * w[None, :])
    if theta.codomain != "m2":
        ratios[np.tri(WS.n, k=-1, dtype=bool)] = -1.0
    i, j = divmod(int(np.argmax(ratios)), WS.n)
    return ratios[i, j], (i, j)


def test_scaled_float_m2_defects_keep_the_unscaled_bits_where_nothing_overflows():
    # entries between 1e60 and 1e140 take the scaled path; their products stay
    # finite, and scaling by powers of two is exact, so the bits are the same
    gen = np.random.default_rng(1212)
    for _ in range(100):
        S = random_semilattice(gen)
        scale = [10.0 ** gen.uniform(60, 140) for _ in range(S.n)]
        entries = [[complex(*gen.normal(size=2)) * k for _ in range(4)] for k in scale]
        theta = m2_map([Mat2(*e) for e in entries])
        WS = random_submultiplicative_weight(gen, S)
        for norm in ("hs", "op"):
            rep = defect(WS, theta, norm)
            assert (rep.defect_float, rep.witness) == _weight_product_defect(WS, theta, norm)


def test_a_float_defect_divides_by_the_weight_product_past_the_unscaled_range():
    # a constant weight c in (2**250, 2**511] sends every map to the scaled
    # branch, and c * c is finite: its defect is norm / (w_e * w_f), as below it
    gen = np.random.default_rng(2929)
    for codomain, norm in (("m2", "hs"), ("m2", "op"), ("scalar", "abs"), ("t2", "t2")):
        for _ in range(60):
            S = random_semilattice(gen)
            WS = weighted(S, [math.ldexp(gen.uniform(0.5, 1.0), int(gen.integers(251, 512)))] * S.n)
            z = [complex(*gen.normal(size=2)) for _ in range(4 * S.n)]
            if codomain == "m2":
                theta = m2_map([Mat2(*z[k : k + 4]) for k in range(0, 4 * S.n, 4)])
            else:
                pairs = zip(z[: S.n], z[S.n : 2 * S.n])
                theta = scalar_map(z[: S.n]) if codomain == "scalar" else t2_map(pairs)
            value, witness = _weight_product_defect(WS, theta, norm)
            rep = defect(WS, theta, norm)
            assert (rep.defect_float.hex(), rep.witness) == (value.hex(), witness)


# ---------------------------------------------------------------------------
# Non-finite entries.
# ---------------------------------------------------------------------------

_I = Mat2(1.0, 0.0, 0.0, 1.0)
_INF_M2 = m2_map([Mat2(math.inf, 1, 0, 0), _I])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta, norm, bad",
    [
        (_INF_M2, "op", 0),
        (_INF_M2, "hs", 0),
        (m2_map([_I, Mat2(0.0, complex(0.0, math.nan), 0.0, 0.0)]), "op", 1),
        (scalar_map([1.0, -math.inf]), "abs", 1),
        (t2_map([(1.0, 0.0), (0.0, math.nan)]), "t2", 1),
        # a float beside an exact entry that no float holds: the float path reads it as inf
        (scalar_map([1.0, 10**400]), "abs", 1),
        (m2_map([Mat2(Fraction(10**400, 3), 0, 0, 0), _I]), "op", 0),
    ],
    ids=["m2-op", "m2-hs", "m2-nan", "scalar", "t2", "scalar-past-the-range", "m2-past-the-range"],
)
def test_defect_refuses_a_non_finite_entry(theta, norm, bad):
    # the op norm's t * t - 4 |det|**2 on an inf entry used to warn
    with pytest.raises(ValueError, match=rf"theta\({bad}\) has a non-finite entry"):
        defect(nmin(2), theta, norm)
    with pytest.raises(ValueError, match=rf"theta\({bad}\) has a non-finite entry"):
        defect(weighted(nmin(2), [1.0, 2.0]), theta, norm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", ["hs", "op"])
def test_distances_refuse_a_non_finite_entry(norm):
    S, ones = nmin(2), m2_map([_I, _I])
    for theta, phi, name in ((_INF_M2, ones, "theta"), (ones, _INF_M2, "phi"), (_INF_M2, _INF_M2, "theta")):
        with pytest.raises(ValueError, match=rf"{name}\(0\) has a non-finite entry"):
            weighted_sup_distance(S, theta, phi, norm)
        with pytest.raises(ValueError, match=rf"{name}\(0\) has a non-finite entry"):
            weighted_sup_distance_report(S, theta, phi, norm)
    with pytest.raises(ValueError, match=r"phi\(1\) has a non-finite entry"):
        weighted_sup_distance(S, scalar_map([1.0, 0.0]), scalar_map([1.0, complex(0.0, math.inf)]))


# ---------------------------------------------------------------------------
# Every entry point checks a map against its carrier in one place.
# ---------------------------------------------------------------------------

_S3 = nmin(3)


def _maps(codomain: str, n: int) -> AlgebraMap:
    """The identity of ``codomain`` at each of ``n`` elements."""
    return {"scalar": scalar_map, "t2": t2_map, "m2": m2_map}[codomain](
        [{"scalar": 1, "t2": (1, 0), "m2": M2_ID}[codomain]] * n
    )


_SCALAR, _T2 = _maps("scalar", 3), _maps("t2", 3)

# (name, call on the map under test, the codomain it takes, or None for any)
_ENTRY_POINTS = [
    ("defect", lambda m: defect(_S3, m), None),
    ("weighted_sup_distance", lambda m: weighted_sup_distance(_S3, m, _SCALAR), "scalar"),
    ("weighted_sup_distance_report", lambda m: weighted_sup_distance_report(_S3, _T2, m), "t2"),
    ("nearest_mult_scalar", lambda m: nearest_mult_scalar(_S3, m), "scalar"),
    ("nearest_mult_t2", lambda m: nearest_mult_t2(_S3, m), "t2"),
    ("nearest_mult_m2", lambda m: nearest_mult_m2(_S3, m), "m2"),
    ("round_to_binary", lambda m: round_to_binary(_S3, m), "scalar"),
    ("correct_scalar", lambda m: correct_scalar(_S3, m), "scalar"),
    ("correct_weighted", lambda m: correct_weighted(unit_weight(_S3), m, 1.0), "scalar"),
    ("correct_t2", lambda m: correct_t2(_S3, m), "t2"),
    ("correct_m2", lambda m: correct_m2(_S3, m), "m2"),
]


@pytest.mark.parametrize("name, call, codomain", _ENTRY_POINTS, ids=[e[0] for e in _ENTRY_POINTS])
def test_every_entry_point_rejects_a_map_that_does_not_fit_its_carrier(name, call, codomain):
    for target in [codomain] if codomain else ["scalar", "t2", "m2"]:
        call(_maps(target, 3))  # the identity map fits, and every entry point accepts it
        for n in (1, 2, 4):
            with pytest.raises(ParseError, match=f"map has {n} values for a 3-element"):
                call(_maps(target, n))
    for other in {"scalar", "t2", "m2"} - {codomain} if codomain else ():
        for n in (2, 3):  # the codomain is checked before the length
            with pytest.raises(ValueError, match=f"expected a map into .*'{other}'"):
                call(_maps(other, n))


def test_a_short_matrix_map_fails_before_the_search():
    # it used to run the whole search on nmin(2) and fail only in the final distance
    with pytest.raises(ParseError):
        nearest_mult_m2(nmin(2), m2_map([M2_ID]))
    with pytest.raises(ParseError):
        nearest_mult_m2(nmin(3), m2_map([M2_ID, M2_ID]))


def test_a_distance_checks_both_maps():
    with pytest.raises(ParseError):
        weighted_sup_distance(_S3, _maps("m2", 3), _maps("m2", 2))
    with pytest.raises(ValueError, match="got one into 'scalar'"):
        weighted_sup_distance_report(_S3, _maps("m2", 3), _maps("scalar", 3))


@pytest.mark.parametrize(
    "value, read",
    [
        (3, 3),
        (2**1100, 2**1100),  # past the float range, still an exact int
        ("1/3", Fraction(1, 3)),
        (0.25, complex(0.25)),
        ([0.5, -1], complex(0.5, -1)),
        (["1/2", 0], complex(0.5, 0)),  # each part read as a scalar entry
        ([2, 3], complex(2, 3)),
    ],
)
def test_map_entries_read_exact_or_as_complex(value, read):
    (got,) = map_from_json({"codomain": "scalar", "values": [value]}).values
    assert got == read and type(got) is type(read)


@pytest.mark.parametrize(
    "value",
    [True, None, "half", "1/0", float("nan"), [True, False], [0, None], ["x", 0], [0, float("inf")],
     [2**1100, 0], ["1/1", "10**400"], [1, 2, 3], {"re": 1}],
)
def test_map_entries_that_are_not_numbers_are_input_errors(value):
    with pytest.raises(ParseError):
        map_from_json({"codomain": "scalar", "values": [value]})
