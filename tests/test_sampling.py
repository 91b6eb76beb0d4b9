"""Pinned instance streams: a refactor of the samplers must draw the same maps.
The commuting-idempotent sampler is checked for coverage instead.

Each digest is a SHA-256 over ``repr(complex(x))`` of every map entry of 500
instances from ``default_rng(707)``, each made by ``random_semilattice`` and
then the sampler.  The matrix stream normalises with ``np.vdot``, so like the
criterion-6 pin it holds where the BLAS ``zdotc`` kernel rounds as on the
machine that recorded it (numpy 2.4, OpenBLAS 0.3, x86-64).
"""

import hashlib

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


def _binary_weighted(rng, S):
    return random_binary_weighted_instance(rng, random_submultiplicative_weight(rng, S), 0.5)


STREAMS = {
    "m2": (random_m2_instance, "1e5e5345f9f4cb8b658251d21feefebef4a17e0f02d3c793d74ac2fd446d7a45"),
    "scalar": (random_scalar_instance, "c2389bf5871f5e9ec404f186e2f09afb0606b2c44f6194cd5cec491c0cb84f1c"),
    "t2": (random_t2_instance, "c98a8a2e47368d496e18fcc709ede00ad6be6afcf1ded04bac8c715e794bde41"),
    "binary-weighted": (_binary_weighted, "1bb5e7f3330b255cb3e68d87075d511436797c16346b768631e002b1be686c4d"),
}


@pytest.mark.parametrize("name", list(STREAMS))
def test_instance_stream_is_pinned(name):
    draw, expected = STREAMS[name]
    rng = np.random.default_rng(707)
    digest = hashlib.sha256()
    for _ in range(500):
        theta = draw(rng, random_semilattice(rng))
        for v in theta.values:
            for x in [v] if theta.codomain == "scalar" else v:
                digest.update(repr(complex(x)).encode())
    assert digest.hexdigest() == expected


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
