"""Filters, characters, and the chain-algebra summing transform."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amnm import (
    M2_ID,
    ClassificationFailure,
    Semilattice,
    StructureMismatch,
    brute_force_filters,
    characters,
    defect,
    enumerate_filters,
    filter_generated,
    filter_indicator,
    free_semilattice,
    gelfand_nmin,
    geometric_weight,
    is_filter,
    m2_map,
    nearest_mult_m2,
    nearest_mult_scalar,
    nearest_mult_t2,
    nmin,
    scalar_map,
    t2_map,
    unit_weight,
    zero_map,
)
from amnm.semilattice import _PROOF_SLAB_BYTES


def test_every_filter_is_a_principal_up_set():
    S = free_semilattice(3)
    filters = enumerate_filters(S)
    assert len(filters) == S.n
    for f in filters:
        p = f.principal
        assert f.members == frozenset(x for x in range(S.n) if S.table[p, x] == p)


def test_enumeration_matches_brute_force(semilattice_pool):
    for S in semilattice_pool[:15]:
        quick = {f.members for f in enumerate_filters(S)}
        assert quick == set(brute_force_filters(S))


def test_is_filter_rejects_each_failure_mode():
    S = nmin(4)  # order 0 < 1 < 2 < 3
    assert is_filter(S, {2, 3})
    assert not is_filter(S, set())  # empty
    assert not is_filter(S, {3, 1})  # not upward closed (2 missing)
    S2 = free_semilattice(2)
    assert not is_filter(S2, {0, 1})  # singletons without their product


def test_filter_generated_adds_products_and_up_sets():
    S = free_semilattice(2)
    f = filter_generated(S, {0, 1})
    assert f.members == frozenset({0, 1, 2})
    assert f.principal == 2


def test_out_of_range_element_indices_are_rejected():
    S = nmin(4)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            S.upset(bad)
        with pytest.raises(ValueError, match="out of range"):
            filter_generated(S, {bad})
        with pytest.raises(ValueError, match="out of range"):
            is_filter(S, {bad, 3})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_filter_generated_agrees_with_the_literal_filter_check(semilattice_pool, data):
    S = data.draw(st.sampled_from(semilattice_pool))
    subsets = st.frozensets(st.integers(0, S.n - 1), max_size=S.n)
    E = data.draw(st.one_of(subsets, st.sampled_from(brute_force_filters(S))))
    assert is_filter(S, E) == (bool(E) and filter_generated(S, E).members == E)


def test_a_table_that_is_not_a_semilattice_fails_the_character_proof():
    # commutative and idempotent, not associative: (0*1)*2 = 2 but 0*(1*2) = 0
    S = Semilattice([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    with pytest.raises(ClassificationFailure):
        nearest_mult_scalar(S, scalar_map([0, 1, 0]))
    with pytest.raises(ClassificationFailure):  # a 0/1 map's defect reads the proved table
        defect(S, scalar_map([0, 1, 0]))
    with pytest.raises(ClassificationFailure):
        nearest_mult_t2(S, t2_map([(0, 0), (1, 0), (0, 0)]))
    with pytest.raises(ClassificationFailure):
        nearest_mult_m2(S, m2_map([M2_ID, M2_ID, M2_ID]))
    with pytest.raises(ClassificationFailure):
        enumerate_filters(S)
    with pytest.raises(ClassificationFailure):
        filter_generated(S, {0})
    # not idempotent at 0: the up-set of 0 is empty, so it names no filter
    with pytest.raises(ClassificationFailure):
        filter_generated(Semilattice([[1, 1], [1, 1]]), {0})


def test_the_character_proof_reaches_a_failure_in_its_last_slab():
    n = 400
    table = np.minimum.outer(np.arange(n), np.arange(n))
    table[n - 1, n - 2] = n - 3  # (n-1)*(n-2) is n-2 in the chain
    # the packed order bits are n * ceil(n / 8) bytes, so the proof runs in
    # slabs of this many rows, and row n - 1 is not in the first
    rows_per_slab = max(1, _PROOF_SLAB_BYTES // (n * ((n + 7) // 8)))
    assert n - 1 >= rows_per_slab
    with pytest.raises(ClassificationFailure, match=f"x{n - 1}\\*x{n - 2}"):
        Semilattice(table)._mult_rows
    assert nmin(n)._mult_rows.shape == (n + 1, n)


def test_characters_are_exactly_multiplicative():
    S = free_semilattice(2)
    chars = characters(S)
    assert len(chars) == S.n
    for chi in chars:
        assert defect(S, chi).defect == 0
        assert set(chi.values) <= {0, 1}


def test_indicator_of_none_is_the_zero_map():
    S = nmin(3)
    assert filter_indicator(S, None).values == zero_map(S).values


def test_summing_transform_preserves_the_weighted_norm():
    WS = geometric_weight(6)
    a = [1, -2, Fraction(1, 2), 0, 3, -1]
    rep = gelfand_nmin(WS, a)
    assert rep.source_norm == rep.target_norm
    # partial sums from the top: transform at k sums a[j] for j >= k
    assert rep.transform[0] == sum(a)
    assert rep.transform[-1] == a[-1]


def test_summing_transform_requires_a_chain():
    WS = unit_weight(free_semilattice(2))
    with pytest.raises(StructureMismatch):
        gelfand_nmin(WS, [1, 1, 1])


def test_summing_transform_of_top_delta_is_constant_one():
    # delta at the top of the chain is a convolution idempotent; every
    # evaluation against a filter indicator returns 1.
    WS = geometric_weight(4)
    a = [0, 0, 0, 1]
    rep = gelfand_nmin(WS, a)
    assert rep.transform == (1, 1, 1, 1)
