"""Pinned instance streams: a refactor of the samplers must draw the same maps.
The commuting-idempotent sampler is checked for coverage instead.

Each digest is a SHA-256 over ``repr(complex(x))`` of every map entry of 500
instances from ``default_rng(707)``, each made by ``random_semilattice`` and
then the sampler.  The samplers compute on Python floats and ``complex`` after
each draw, so the matrix stream, like the criterion-6 pin, holds under every
BLAS kernel and SIMD dispatch; a test below replays both in subprocesses.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amnm.defects
from amnm import (
    M2_ID,
    M2_ZERO,
    Semilattice,
    characters,
    hs_norm,
    key_estimates,
    random_binary_weighted_instance,
    random_m2_instance,
    random_multiplicative_scalar,
    random_near_idempotent,
    random_scalar_instance,
    random_semilattice,
    random_submultiplicative_weight,
    random_t2_instance,
    sample_commuting_idempotents,
    zero_map,
)
from test_mat2 import CRITERION_6_STREAM_SHA256


def _binary_weighted(rng, S):
    return random_binary_weighted_instance(rng, random_submultiplicative_weight(rng, S), 0.5)


STREAMS = {
    "m2": (random_m2_instance, "a400591e5ff49de525ef6878d0dd0224146733ca29eff246b277988696965265"),
    "scalar": (random_scalar_instance, "c2389bf5871f5e9ec404f186e2f09afb0606b2c44f6194cd5cec491c0cb84f1c"),
    "t2": (random_t2_instance, "c98a8a2e47368d496e18fcc709ede00ad6be6afcf1ded04bac8c715e794bde41"),
    "binary-weighted": (_binary_weighted, "1bb5e7f3330b255cb3e68d87075d511436797c16346b768631e002b1be686c4d"),
}


def stream_digest(name: str) -> str:
    draw = STREAMS[name][0]
    rng = np.random.default_rng(707)
    digest = hashlib.sha256()
    for _ in range(500):
        theta = draw(rng, random_semilattice(rng))
        for v in theta.values:
            for x in [v] if theta.codomain == "scalar" else v:
                digest.update(repr(complex(x)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(STREAMS))
def test_instance_stream_is_pinned(name):
    assert stream_digest(name) == STREAMS[name][1]


def _baseline_dispatch() -> str:
    """numpy's baseline SIMD dispatch, as ``NPY_DISABLE_CPU_FEATURES``: the
    features of the X86_V3 and X86_V4 kernels that this machine has (numpy
    refuses to disable one that it lacks)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__

    wanted = ("X86_V4", "X86_V3", "AVX512_ICL", "AVX512_SPR")
    return " ".join(f for f in wanted if __cpu_features__.get(f))


@pytest.mark.parametrize(
    "setting",
    [
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"NPY_DISABLE_CPU_FEATURES": _baseline_dispatch()},
    ],
    ids=["openblas-prescott", "openblas-haswell", "baseline-dispatch"],
)
def test_sample_streams_hold_under_other_blas_kernels_and_dispatch(setting):
    """The criterion-6 digest and the m2 instance-stream digest, computed in a
    fresh process under another OpenBLAS kernel or numpy's baseline dispatch,
    equal the pinned values: no step of the samplers rounds by the host's
    BLAS or SIMD kernels."""
    here = Path(__file__).parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "from test_mat2 import criterion_6_digest\n"
        "from test_sampling import stream_digest\n"
        "print(criterion_6_digest(), stream_digest('m2'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [CRITERION_6_STREAM_SHA256, STREAMS["m2"][1]]


def _structure(P, Q) -> str:
    scalar = [M in (M2_ZERO, M2_ID) for M in (P, Q)]
    if all(scalar):
        return "both scalar"
    if any(scalar):
        return "one scalar"
    if P == Q:
        return "equal rank one"
    assert hs_norm(P + Q - M2_ID) < 1e-12
    return "complementary"


def _ref_random_semilattice(rng, max_n):
    """``random_semilattice``'s draws with every closure run to its end."""
    while True:
        seeds = int(rng.integers(1, max_n + 1))
        family = {int(rng.integers(0, 1 << 6)) for _ in range(seeds)}
        while new := {a & b for a in family for b in family} - family:
            family |= new
        if len(family) <= max_n:
            elems = sorted(family)
            index = {m: i for i, m in enumerate(elems)}
            return Semilattice(np.array([[index[a & b] for b in elems] for a in elems], dtype=np.intp))


def _ref_random_multiplicative_scalar(rng, S):
    """``random_multiplicative_scalar``'s draw out of every multiplicative map built."""
    maps = [*characters(S), zero_map(S)]
    return maps[int(rng.integers(0, len(maps)))]


@pytest.mark.parametrize("max_n", [1, 3, 8])
def test_samplers_draw_what_their_reference_bodies_draw(max_n):
    # the same semilattices, maps and value types, from the same generator states
    rng, ref = np.random.default_rng(3403), np.random.default_rng(3403)
    for _ in range(300):
        S, S0 = random_semilattice(rng, max_n), _ref_random_semilattice(ref, max_n)
        assert S.table.dtype == S0.table.dtype and S.table.tolist() == S0.table.tolist()
        theta, theta0 = random_multiplicative_scalar(rng, S), _ref_random_multiplicative_scalar(ref, S0)
        assert [(type(v), v) for v in theta.values] == [(type(v), v) for v in theta0.values]
    assert rng.bit_generator.state == ref.bit_generator.state


def test_the_binary_weighted_sampler_scans_no_values_twice(monkeypatch):
    # the returned map is the last one the flip loop kept, and keeps its report
    scanned = []
    for name in ("_defect_float", "_defect_exact"):

        def recorded(WS, theta, norm, scan=getattr(amnm.defects, name)):
            scanned.append(theta.values)
            return scan(WS, theta, norm)

        monkeypatch.setattr(amnm.defects, name, recorded)
    rng = np.random.default_rng(5)
    kept = 0
    for _ in range(20):
        WS = random_submultiplicative_weight(rng, random_semilattice(rng))
        scanned.clear()
        psi = random_binary_weighted_instance(rng, WS, 0.5)
        assert len(set(scanned)) == len(scanned)
        kept += psi.values in scanned
    assert kept > 0


def test_commuting_idempotent_pairs_cover_all_four_cases():
    pairs = sample_commuting_idempotents(np.random.default_rng(0), 200)
    assert len(pairs) == 200
    assert {_structure(P, Q) for P, Q in pairs} == {
        "both scalar",
        "one scalar",
        "equal rank one",
        "complementary",
    }


@pytest.mark.parametrize("eps", [0.0, 1e-20])
def test_near_idempotent_draws_below_the_base_rounding_defect_keep_the_contract_or_raise(eps):
    """Below a rank-one base's own rounding defect (about 1e-16) no halving of the
    noise meets ``eps``: such a draw raises ``RuntimeError`` (124 of the 200 here),
    and every draw returned meets the contract, so ``key_estimates`` accepts it at
    the same ``eps``."""
    rng = np.random.default_rng(0)
    raised = 0
    for _ in range(200):
        try:
            A = random_near_idempotent(rng, eps)
        except RuntimeError as exc:
            assert "could not shrink" in str(exc)
            raised += 1
            continue
        assert hs_norm(A @ A - A) <= eps
        assert key_estimates(A, eps).measured <= eps
    assert raised == 124


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_near_idempotent_sampler_refuses_a_bad_eps_before_any_draw(eps):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="0 <= eps < inf"):
        random_near_idempotent(rng, eps)
    assert rng.bit_generator.state == state
