"""Constructive corrections: from approximately multiplicative to multiplicative.

Each ``correct_*`` function takes a map whose multiplicativity defect is
below the method's threshold, constructs an exactly multiplicative map
nearby, *verifies every intermediate claim of the construction at runtime*,
and returns a :class:`Certificate` recording the input defect, the claimed
distance bound, the achieved distance, and the classification data.  All four
end in :func:`_certify`, which measures the achieved distance, takes the
corrected map's defect from :func:`amnm.defects.defect` (a character's exact 0
is read off the proved character table, with no scan) and builds the
certificate.

The four procedures and their guarantees (defect delta measured in the
stated norm):

===========================  =============  ==========================  =========
procedure                    threshold      corrected map               bound
===========================  =============  ==========================  =========
:func:`correct_scalar`       delta < 1/5    filter indicator            (7/5) delta
:func:`correct_weighted`     margin < 1     filter indicator            epsilon
:func:`correct_t2`           delta < 1/5    chi . identity              (25/11) delta
:func:`correct_m2`           delta < 0.03   {0, P, I-P, I}-valued       12 delta
===========================  =============  ==========================  =========

``correct_weighted`` works on a weighted semilattice with a binary input
(round first with :func:`amnm.defects.round_to_binary`); its margin is
``2 * delta * C(2/epsilon) / epsilon`` with ``C`` the flighty constant.  The
other three are unweighted statements and take a bare semilattice.

``correct_m2`` labels each element ``[e in F1] + 2 [e in F2]``, the
encoding :func:`amnm.oracle.m2_family_map` uses: the label names the
corrected value in ``(0, P, I - P, I)``.  Its battery (:func:`_m2_battery`)
checks the labels as a homomorphism: every product of elements lies in the
class that the product of their corrected values names.

Internal assertion failures raise :class:`ClassificationFailure`; every such
check is a proved consequence of the stated precondition, so a raise means
the precondition was violated (or a genuine bug was found) — the checks are
never skipped or relaxed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .defects import (
    AlgebraMap,
    _carrier,
    _positive_finite,
    _refuse_non_finite,
    defect,
    m2_map,
    scalar_map,
    t2_map,
    weighted_sup_distance_report,
)
from .errors import ClassificationFailure, DefectTooLarge, PreconditionGap
from .filters import Filter, filter_generated, filter_indicator
from .mat2 import (
    _SQRT2,
    M2_ID,
    M2_ZERO,
    Mat2,
    _rounded,
    hs_norm,
    inv2,
    kappa,
    key_estimates,
    rho,
)
from .semilattice import Semilattice, generated
from .weights import WeightedSemilattice, flighty_report, sublevel_set

__all__ = ["Certificate", "correct_scalar", "correct_weighted", "correct_t2", "correct_m2"]

_TOL = 1e-9  # structural tolerance for certified inequalities


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a correction: the multiplicative map and its guarantees.

    Invariants enforced at construction: the corrected map's own defect is
    at most 1e-9, and the achieved distance does not exceed the claimed
    bound.  ``details`` carries the classification data (index sets, base
    point, projection) that the construction committed to.
    """

    target: str
    corrected: AlgebraMap
    input_defect: float
    claimed_bound: float
    achieved_distance: float
    corrected_defect: float
    norm: str
    details: dict

    def __post_init__(self):
        if self.corrected_defect > 1e-9:
            raise ClassificationFailure(
                f"corrected map has defect {self.corrected_defect!r} > 1e-9"
            )
        if self.achieved_distance > self.claimed_bound + 1e-12:
            raise ClassificationFailure(
                f"achieved distance {self.achieved_distance!r} exceeds the "
                f"claimed bound {self.claimed_bound!r}"
            )


def _require_semilattice(S) -> Semilattice:
    if isinstance(S, WeightedSemilattice):
        raise TypeError(
            "this correction is an unweighted statement: pass the bare semilattice "
            "(weighted maps go through correct_weighted)"
        )
    if not isinstance(S, Semilattice):
        raise TypeError(f"expected a Semilattice, got {type(S)!r}")
    return S


def _certify(target: str, ws_or_s, theta: AlgebraMap, phi: AlgebraMap, input_defect: float,
             claimed_bound: float, norm: str, details: dict) -> Certificate:
    """The ending every correction shares: measure how far the corrected map
    ``phi`` lies from ``theta`` in ``norm``, take ``phi``'s own defect from
    :func:`defect` (exactly 0 off the character table when ``phi`` is a
    character, else a scan), and let :class:`Certificate` check both."""
    dist = weighted_sup_distance_report(ws_or_s, theta, phi, norm)
    details["distance_witness"] = dist.witness
    return Certificate(
        target=target,
        corrected=phi,
        input_defect=input_defect,
        claimed_bound=claimed_bound,
        achieved_distance=dist.value_float,
        corrected_defect=defect(ws_or_s, phi, norm).defect_float,
        norm=norm,
        details=details,
    )


def correct_scalar(S: Semilattice, psi: AlgebraMap) -> Certificate:
    """Correct a scalar map with defect < 1/5 to a filter indicator.

    The set ``S_1 = {e : |psi(e) - 1| < 7/25}`` is certified to be empty or
    a filter; its indicator ``chi`` satisfies the certified pointwise bound
    ``|psi(e) - chi(e)| <= (7/5) |psi(e)^2 - psi(e)|``, hence
    ``sup |psi - chi| <= (7/5) defect(psi)``.
    """
    S = _require_semilattice(S)
    _carrier(S, "scalar", psi)
    delta = defect(S, psi).defect_float
    if not delta < 0.2:
        raise DefectTooLarge(delta, 0.2)
    values = [complex(v) for v in psi.values]
    s1 = frozenset(e for e, v in enumerate(values) if abs(v - 1.0) < 7.0 / 25.0)
    if s1 and filter_generated(S, s1).members != s1:
        raise ClassificationFailure("the near-one level set is neither empty nor a filter")
    chi = scalar_map([1 if e in s1 else 0 for e in range(S.n)])
    for e, v in enumerate(values):
        pointwise = abs(v - (1.0 if e in s1 else 0.0))
        if pointwise > 1.4 * abs(v * v - v) + _TOL:
            raise ClassificationFailure(
                f"pointwise bound |psi - chi| <= (7/5)|psi^2 - psi| failed at {e}"
            )
    return _certify("scalar", S, psi, chi, delta, 1.4 * delta, "abs", {"S1": sorted(s1)})


def _binary_values(psi: AlgebraMap) -> list[int]:
    for e, v in enumerate(psi.values):
        if v != 0 and v != 1:
            raise ValueError(
                f"correct_weighted expects a {{0,1}}-valued map (round first); "
                f"value at {e} is {v!r}"
            )
    return [int(v == 1) for v in psi.values]


def correct_weighted(WS: WeightedSemilattice, psi: AlgebraMap, epsilon: float) -> Certificate:
    """Correct a binary map on a weighted semilattice to a filter indicator.

    Requires the margin ``2 * delta * C / epsilon < 1`` where ``delta`` is
    the weighted defect of ``psi`` and ``C`` the flighty constant at level
    ``2/epsilon`` (otherwise :class:`PreconditionGap` reports the violating
    constants).  The correction keeps ``psi`` on the sublevel set
    ``S_fix = {omega <= 2/epsilon}`` — certified via ``F`` intersecting
    ``S_fix`` exactly in ``E = {y in S_fix : psi(y) = 1}`` — and the
    distance bound ``epsilon`` comes from weights above ``2/epsilon``
    elsewhere.
    """
    if not isinstance(WS, WeightedSemilattice):
        raise TypeError("correct_weighted needs a WeightedSemilattice")
    _carrier(WS, "scalar", psi)
    epsilon = _positive_finite("epsilon", epsilon)
    binary = _binary_values(psi)
    delta = defect(WS, psi).defect_float
    level = 2.0 / epsilon
    flighty = flighty_report(WS, level)
    c_val = float(flighty.value)
    if not 2.0 * delta * c_val / epsilon < 1.0:
        raise PreconditionGap(delta, c_val, epsilon)
    s_fix = sublevel_set(WS, level)
    ones = frozenset(y for y in s_fix if binary[y] == 1)
    S = WS.S
    filt: Filter | None = None
    if ones:
        filt = filter_generated(S, ones)
        for x in generated(S, ones):
            if binary[x] != 1:
                raise ClassificationFailure(
                    f"psi is not identically 1 on the set generated by E (fails at {x})"
                )
        if frozenset(filt.members) & s_fix != ones:
            raise ClassificationFailure(
                "generated filter meets the sublevel set outside E"
            )
    chi = filter_indicator(S, filt)
    details = {
        "delta": delta,
        "flighty_constant": c_val,
        "margin": 2.0 * delta * c_val / epsilon,
        "sublevel": sorted(s_fix),
        "E": sorted(ones),
        "filter": sorted(filt.members) if filt is not None else None,
    }
    return _certify("weighted-scalar", WS, psi, chi, delta, epsilon, "abs", details)


def correct_t2(S: Semilattice, theta: AlgebraMap) -> Certificate:
    """Correct a T2-valued map with defect < 1/5 to ``chi`` times the identity.

    The diagonal part ``a`` is scalar-corrected to a filter indicator
    ``chi``; the certified per-element chain
    ``|a - chi| + |b| <= (7/5)|a^2 - a| + (25/11)|(2a - 1) b|
    <= (25/11) ||theta(e)^2 - theta(e)||`` yields the (25/11) bound, using
    ``|2a(e) - 1| >= 11/25`` which is asserted en route.
    """
    S = _require_semilattice(S)
    _carrier(S, "t2", theta)
    delta = defect(S, theta).defect_float
    if not delta < 0.2:
        raise DefectTooLarge(delta, 0.2)
    a_vals = [complex(v.a) for v in theta.values]
    b_vals = [complex(v.b) for v in theta.values]
    scalar_cert = correct_scalar(S, scalar_map(a_vals))
    if scalar_cert.input_defect > delta + _TOL:
        raise ClassificationFailure("diagonal defect exceeded the full T2 defect")
    chi_vals = [int(complex(v).real) for v in scalar_cert.corrected.values]
    for e in range(S.n):
        if abs(2.0 * a_vals[e] - 1.0) < 11.0 / 25.0 - _TOL:
            raise ClassificationFailure(
                f"|2a - 1| >= 11/25 failed at element {e}"
            )
        lhs = abs(a_vals[e] - chi_vals[e]) + abs(b_vals[e])
        diag = abs(a_vals[e] ** 2 - a_vals[e]) + abs((2.0 * a_vals[e] - 1.0) * b_vals[e])
        if lhs > (25.0 / 11.0) * diag + _TOL:
            raise ClassificationFailure(
                f"per-element (25/11) bound against the diagonal defect failed at {e}"
            )
    phi = t2_map([(chi_vals[e], 0) for e in range(S.n)])
    details = {"S1": scalar_cert.details["S1"], "scalar_bound": scalar_cert.claimed_bound}
    return _certify("t2", S, theta, phi, delta, (25.0 / 11.0) * delta, "t2", details)


# ---------------------------------------------------------------------------
# The 2x2 matrix correction.
# ---------------------------------------------------------------------------


def _trace_classify(vals: list[Mat2], delta: float) -> tuple[list[int], list[float]]:
    """Assign each value its trace class j in {0,1,2}, certifying the windows.

    The nearest class must lie within sqrt(2) * rho(delta) * delta, which is below
    0.05 as correct_m2 refuses delta >= 0.03 (it increases in delta, to 0.04378 at
    0.03): the other classes are then automatically at distance > 0.95.
    """
    radius = _SQRT2 * rho(delta) * delta
    classes: list[int] = []
    distances: list[float] = []
    for e, v in enumerate(vals):
        tr = complex(v.trace)
        j = _rounded(tr) + _rounded(tr - 1)  # the nearest of 0, 1, 2, ties down
        td = abs(tr - j)
        if td > radius + _TOL:
            raise ClassificationFailure(
                f"trace {tr!r} of element {e} is outside every certified window"
            )
        classes.append(j)
        distances.append(td)
    return classes, distances


# Each corrected value 0, P, I - P or I is the sum of the orthogonal idempotents
# P (bit 1) and I - P (bit 2) it contains, so a label's bits name its value and
# the values multiply as the labels' bitwise and: I is the unit, 0 absorbs,
# PP = P, (I - P)(I - P) = I - P and P(I - P) = 0.
_LABEL_VALUES = ("0", "P", "I - P", "I")
_LABEL_PRODUCT = [[a & b for b in range(4)] for a in range(4)]


def _m2_battery(S: Semilattice, vals: list[Mat2], label: list[int], delta: float) -> int:
    """Run every certified closure/metric assertion of the 2x2 correction.

    The labels are checked as a homomorphism onto {0, P, I - P, I}; with
    ``f <= e`` meaning ``fe = f``, this also makes the near-identity class
    upward closed.  The middle trace class is the labels 1 and 2.  Returns
    the number of checks performed; raises :class:`ClassificationFailure` on
    the first violated claim.
    """
    n = S.n
    table = S.table
    leq = S.leq
    kd = kappa(delta) * delta
    checks = 0

    def fail(msg: str):
        raise ClassificationFailure(msg)

    for e in range(n):
        checks += 1
        if hs_norm(2.0 * vals[e] - M2_ID) < math.sqrt(max(2.0 - 6.0 * delta, 0.0)) - _TOL:
            fail(f"||2 theta - I|| lower bound failed at element {e}")
        if label[e] == 3:
            checks += 2
            if hs_norm(vals[e] - M2_ID) > kd + _TOL:
                fail(f"element {e} in the near-identity class is not within kappa*delta of I")
            if hs_norm(inv2(vals[e])) >= 1.5:
                fail(f"inverse norm bound < 1.5 failed on the near-identity class at {e}")
        if label[e] == 0:
            checks += 2
            if hs_norm(vals[e]) > kd + _TOL:
                fail(f"element {e} in the near-zero class is not within kappa*delta of 0")
            if hs_norm(inv2(M2_ID - vals[e])) >= 1.5:
                fail(f"inverse norm bound < 1.5 failed on the near-zero class at {e}")

    for e in range(n):
        for f in range(n):
            checks += 1
            want = _LABEL_PRODUCT[label[e]][label[f]]
            if label[int(table[e, f])] != want:
                fail(
                    f"classes {_LABEL_VALUES[label[e]]} and {_LABEL_VALUES[label[f]]} do not "
                    f"multiply into class {_LABEL_VALUES[want]} at ({e},{f})"
                )

    mid = [e for e in range(n) if label[e] in (1, 2)]
    for e in mid:
        for f in mid:
            p = int(table[e, f])
            if label[p] == 0:
                checks += 2
                if hs_norm(vals[e] + vals[f] - M2_ID) > 10.0 * delta + _TOL:
                    fail(f"separation bound ||e + f - I|| <= 10 delta failed at ({e},{f})")
                if hs_norm(vals[e] - vals[f]) < 4.0 / 3.0 - 10.0 * delta - _TOL:
                    fail(f"separation bound ||e - f|| >= 4/3 - 10 delta failed at ({e},{f})")
            if leq[f, e]:
                checks += 1
                if hs_norm(vals[e] - vals[f]) > 5.0 * delta + _TOL:
                    fail(f"chain bound ||e - f|| <= 5 delta failed at ({e},{f})")
    return checks


def correct_m2(S: Semilattice, theta: AlgebraMap, delta: float | None = None) -> Certificate:
    """Correct a 2x2-matrix map with HS defect < 0.03 to an exactly
    multiplicative one within HS distance 12 * delta.

    The construction: classify elements by trace into near-zero, middle and
    near-identity classes; send the outer classes to 0 and I; split the
    middle class by the product-based equivalence at its lowest-index base
    point ``p0`` into a P-class and a Q-class; take ``P`` as the certified
    idempotent near ``theta(p0)`` and send the two classes to ``P`` and
    ``I - P``.  Every inclusion, closure, separation, chain and inverse-norm
    claim used by the proof of correctness is asserted at runtime.
    """
    S = _require_semilattice(S)
    _carrier(S, "m2", theta)
    measured = defect(S, theta, "hs").defect_float
    delta = measured if delta is None else _positive_finite("delta", delta, or_zero=True)
    if measured > delta:
        raise DefectTooLarge(measured, delta, what="measured defect (vs supplied delta)")
    if not delta < 0.03:
        raise DefectTooLarge(delta, 0.03, what="delta")

    V = theta._float_stack
    _refuse_non_finite(V, theta)  # an exact entry past the float range
    vals = [Mat2(*v) for v in V.reshape(-1, 4).tolist()]
    n = S.n
    classes, trace_distances = _trace_classify(vals, delta)
    in_class = [[e for e in range(n) if classes[e] == j] for j in range(3)]
    s1 = frozenset(in_class[1])

    details: dict = {
        "classes": classes,
        "trace_distances": trace_distances,
        "S0": in_class[0],
        "S1": in_class[1],
        "S2": in_class[2],
    }

    if not s1:
        s_p = s_q = frozenset()
        p_mat = complement = None
        details.update({"p0": None, "P": None, "Sp": [], "Sq": []})
    else:
        p0 = min(s1)
        table = S.table
        s_p = frozenset(e for e in s1 if int(table[e, p0]) in s1)
        s_q = s1 - s_p
        # two-class structure: the product relation must agree with the split
        for e in s1:
            for f in s1:
                same = (e in s_p) == (f in s_p)
                related = int(table[e, f]) in s1
                if related != same:
                    raise ClassificationFailure(
                        f"middle-class relation is not the two-class split at ({e},{f})"
                    )
        # tiny headroom for exact input: the scan's defect is then exact, and
        # the base point's float defect may exceed it by a last-place unit
        ke = key_estimates(vals[p0], delta * (1.0 + 1e-12) + 1e-15)
        if ke.trace_class != 1:
            raise ClassificationFailure("base point's trace class is not 1")
        p_mat = ke.nearby_idempotent
        if abs(complex(p_mat.trace) - 1.0) > 1e-9:
            raise ClassificationFailure("projection near the base point is not rank one")
        if hs_norm(p_mat - vals[p0]) > rho(delta) * delta + _TOL:
            raise ClassificationFailure("projection strayed beyond rho(delta)*delta of the base point")
        complement = M2_ID - p_mat
        details.update(
            {
                "p0": p0,
                "P": [[p_mat.a, p_mat.b], [p_mat.c, p_mat.d]],
                "Sp": sorted(s_p),
                "Sq": sorted(s_q),
            }
        )

    label = [3 if c == 2 else (e in s_p) + 2 * (e in s_q) for e, c in enumerate(classes)]
    details["assertions_checked"] = _m2_battery(S, vals, label, delta)
    details["F1"] = [e for e in range(n) if label[e] & 1]
    details["F2"] = [e for e in range(n) if label[e] & 2]
    values = (M2_ZERO, p_mat, complement, M2_ID)
    phi = m2_map([values[k] for k in label])  # Certificate checks the 12 delta balls
    return _certify("m2", S, theta, phi, measured, 12.0 * delta, "hs", details)
