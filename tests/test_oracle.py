"""Independent search for nearest multiplicative maps: enumeration and descent."""

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

import amnm
from amnm import (
    M2_ID,
    M2_ZERO,
    Mat2,
    canonical_json,
    defect,
    enumerate_filters,
    enumerate_mult_m2_with,
    enumerate_mult_scalar,
    enumerate_mult_t2,
    free_semilattice,
    geometric_weight,
    m2_family_map,
    m2_map,
    nearest_mult_m2,
    nearest_mult_scalar,
    nearest_mult_t2,
    nmin,
    random_m2_instance,
    random_semilattice,
    scalar_map,
    spiked_weight,
    t2_map,
    theta_m2_chain,
    theta_m2_chain_nonuniform,
    to_jsonable,
    weighted,
    weighted_sup_distance,
)
from amnm.filters import filter_indicator
from amnm.oracle import _mult_scalar_maps


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
        got = _mult_scalar_maps(S)
        want = [filter_indicator(S, f) for f in (None, *enumerate_filters(S))]
        assert [m.values for m in got] == [m.values for m in want]
        assert all(m.codomain == "scalar" and {type(v) for v in m.values} == {int} for m in got)


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


# ---------------------------------------------------------------------------
# Nearest-map searches.
# ---------------------------------------------------------------------------


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


def _report_record(rep) -> bytes:
    d = rep.details
    P = d["P"]
    entries = None if P is None else [complex(x) for row in P for x in row]
    return repr((
        rep.value.hex(),
        rep.witness,
        None if P is None else [(z.real.hex(), z.imag.hex()) for z in entries],
        d["evaluations"],
        d["pruned"],
        d["polish_improved"],
        d["internal_value"].hex(),
    )).encode()


def test_m2_oracle_output_stream_is_pinned():
    """SHA-256 over the oracle's reports: the first 150 criterion-7 instances
    (HS, 8 starts), the next 50 in the operator norm with 2 starts, and
    criterion 8's two 64-start chain searches.  Value, witness, ``P``,
    evaluation and pruning counts, whether the polish helped and the internal
    value must all keep their bits."""
    h = hashlib.sha256()
    rng = np.random.default_rng(707)
    for k in range(200):
        S = random_semilattice(rng)
        theta = random_m2_instance(rng, S)
        if k < 150:
            rep = nearest_mult_m2(S, theta, starts=8, seed=11)
        else:
            rep = nearest_mult_m2(S, theta, norm="op", starts=2, seed=11)
        h.update(_report_record(rep))
    for ws, chain in (
        (geometric_weight(12), lambda ws: theta_m2_chain(ws, 0.05)),
        (spiked_weight(9, 4, 400), lambda ws: theta_m2_chain_nonuniform(ws, 0.02)),
    ):
        rep = nearest_mult_m2(ws, chain(ws).theta, norm="op", starts=64, seed=8)
        h.update(_report_record(rep))
    assert h.hexdigest() == "0eaa3279eb1d32ad1807f82f2e7000dbdeead4358240a73dc87ad9cfb164ad13"


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
    (on the plateau), ties, the wall, NaN values and zero start entries."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    calls = {"ours": 0, "scipy": 0}

    def counted(key):
        def f(x):
            calls[key] += 1
            return fun(x)

        return f

    ours = amnm.oracle.minimize(counted("ours"), x0)
    ref = scipy_optimize.minimize(
        counted("scipy"),
        np.array(x0),
        method="Nelder-Mead",
        options={"maxiter": 400, "xatol": 1e-9, "fatol": 1e-12},
    )
    assert ref.status == status
    assert [float(v).hex() for v in ours] == [float(v).hex() for v in ref.x]
    assert calls["ours"] == calls["scipy"] == ref.nfev


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
