"""Pinned instance streams: a refactor of the samplers must draw the same maps.
The commuting-idempotent sampler is checked for coverage instead.

Each digest is a SHA-256 over ``repr(complex(x))`` of every map entry of 500
instances from ``default_rng(707)``, each made by ``random_semilattice`` and
then the sampler.  The samplers compute on Python floats and ``complex`` after
each draw, so the matrix stream, like the criterion-6 pin, holds under every
BLAS kernel and SIMD dispatch; a test below replays both in subprocesses.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amnm import (
    M2_ID,
    M2_ZERO,
    hs_norm,
    random_binary_weighted_instance,
    random_m2_instance,
    random_scalar_instance,
    random_semilattice,
    random_submultiplicative_weight,
    random_t2_instance,
    sample_commuting_idempotents,
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


def test_commuting_idempotent_pairs_cover_all_four_cases():
    pairs = sample_commuting_idempotents(np.random.default_rng(0), 200)
    assert len(pairs) == 200
    assert {_structure(P, Q) for P, Q in pairs} == {
        "both scalar",
        "one scalar",
        "equal rank one",
        "complementary",
    }
