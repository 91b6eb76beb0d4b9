"""Cayley-table structures: axioms, constructions, order invariants, breadth."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amnm.semilattice
from amnm import (
    ClassificationFailure,
    FreeSemilattice,
    NotAssociative,
    NotClosed,
    NotCommutative,
    NotIdempotent,
    OrthogonalSum,
    ParseError,
    b_loc,
    breadth,
    free_semilattice,
    generated,
    height,
    max_antichain,
    min_chain_cover,
    nmin,
    orthogonal_direct_sum,
    poset_height,
    poset_width,
    random_poset,
    random_semilattice,
    semilattice_from_json,
    semilattice_to_json,
    validate,
    width,
)

# ---------------------------------------------------------------------------
# validate: each axiom failure is reported with a concrete witness.
# ---------------------------------------------------------------------------


def test_validate_accepts_min_chain():
    S = validate([[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    assert S.n == 3


def test_validate_rejects_out_of_range_entries():
    with pytest.raises(NotClosed):
        validate([[0, 3], [3, 1]])


def test_validate_rejects_non_commutative_table():
    # x*y = x is associative and idempotent but not commutative.
    with pytest.raises(NotCommutative) as exc:
        validate([[0, 0], [1, 1]])
    x, y = exc.value.witness
    assert x != y


def test_validate_rejects_non_idempotent_table():
    with pytest.raises(NotIdempotent) as exc:
        validate([[1, 0], [0, 1]])
    assert exc.value.witness in (0, 1)


def test_validate_rejects_non_associative_table():
    # Commutative and idempotent, but (0*1)*2 = 2*2 = 2 while 0*(1*2) = 0*2 = 1.
    table = [
        [0, 2, 1],
        [2, 1, 0],
        [1, 0, 2],
    ]
    with pytest.raises(NotAssociative) as exc:
        validate(table)
    x, y, z = exc.value.witness
    t = np.asarray(table)
    assert t[t[x, y], z] != t[x, t[y, z]]


def _first_non_associative_triple(table):
    """The lexicographically first (i, j, k) with (ij)k != i(jk), by a plain triple loop."""
    t = [list(map(int, row)) for row in table]
    n = len(t)
    for i in range(n):
        ti = t[i]
        for j in range(n):
            tij = t[ti[j]]
            tj = t[j]
            for k in range(n):
                if tij[k] != ti[tj[k]]:
                    return i, j, k
    return None


def test_validate_finds_a_late_first_witness_on_a_large_table():
    # the chain min(i, j) on 200 elements with x150 * x170 = x120: commutative and
    # idempotent, and (x121 x150) x170 = x121 but x121 (x150 x170) = x120
    table = np.minimum.outer(np.arange(200), np.arange(200))
    table[150, 170] = table[170, 150] = 120
    witness = _first_non_associative_triple(table)
    assert witness[0] >= 100
    with pytest.raises(NotAssociative) as exc:
        validate(table)
    assert exc.value.witness == witness
    i, j, k = witness
    assert str(exc.value) == (
        f"(x{i}*x{j})*x{k} = {table[table[i, j], k]} but x{i}*(x{j}*x{k}) = {table[i, table[j, k]]}"
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    )
)
def test_validate_accepts_a_commutative_idempotent_table_iff_it_is_associative(entries):
    # the character-table proof decides associativity; the witness is the triple loop's
    n = int(len(entries) ** 0.5)
    table = np.array(entries).reshape(n, n)
    table = np.where(np.arange(n)[:, None] <= np.arange(n), table, table.T)  # symmetric
    np.fill_diagonal(table, np.arange(n))
    witness = _first_non_associative_triple(table)
    if witness is None:
        assert validate(table).leq.shape == (n, n)
    else:
        with pytest.raises(NotAssociative) as exc:
            validate(table)
        assert exc.value.witness == witness


def test_validate_keeps_its_proof_and_allocates_no_cube():
    table = nmin(256).table.copy()
    tracemalloc.start()
    try:
        S = validate(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # an (n, n, n) index cube is 128 MiB here
    assert "_mult_rows" in vars(S)  # proved while validating, cached for later readers


@pytest.mark.parametrize(
    "table",
    [
        [[False, False], [False, True]],
        np.array([[True]]),
        [["a"]],
        [[None]],
        [[0.5]],
        [[float("nan")]],
        [[float("inf")]],
        [[0j]],
    ],
)
def test_validate_rejects_entries_that_are_not_integers(table):
    with pytest.raises(ParseError):
        validate(table)


@pytest.mark.parametrize("big, dtype", [(1e30, float), (2**70, object), (2**63 + 5, np.uint64)])
def test_validate_names_an_out_of_range_entry_unwrapped(big, dtype):
    # the range check runs before the cast to intp, which would wrap these
    with pytest.raises(NotClosed, match=f"= {int(big)} is out of range 0..1"):
        validate(np.array([[0, big], [big, 1]], dtype=dtype))


def test_validate_rejects_a_table_that_is_not_square():
    with pytest.raises(ParseError, match=r"nonempty square matrix, got shape \(1, 2\)"):
        validate([[0, 0]])


def test_a_float_table_of_whole_numbers_is_accepted():
    assert validate([[0.0, 0.0], [0.0, 1.0]]).table.dtype == np.intp


@pytest.mark.parametrize("table", [[[True, 0], [0, 1]], [[0, 0], [0, True]], [[None, 0], [0, 1]]])
def test_a_document_table_of_non_integers_is_an_input_error(table):
    with pytest.raises(ParseError):
        semilattice_from_json({"table": table})


def test_a_failed_proof_without_a_witness_is_reraised(monkeypatch):
    # unreachable for a closed, idempotent, commutative table (the proof holds
    # iff it is associative), so fake the proof's failure
    def fail(S):
        raise ClassificationFailure("a row is not multiplicative")

    monkeypatch.setattr(amnm.semilattice.Semilattice, "_mult_rows", property(fail))
    with pytest.raises(ClassificationFailure, match="not multiplicative"):
        validate(nmin(3).table)


# ---------------------------------------------------------------------------
# Constructions.
# ---------------------------------------------------------------------------


def test_free_semilattice_is_union_of_supports():
    S = free_semilattice(3)
    assert isinstance(S, FreeSemilattice)
    assert S.n == 7
    for x in range(7):
        for y in range(7):
            assert S.table[x, y] == ((x + 1) | (y + 1)) - 1


def test_free_semilattice_gamma_counts_generators():
    S = free_semilattice(3)
    assert [int(g) for g in S.gamma] == [bin(m + 1).count("1") for m in range(7)]
    assert S.zero == 6  # the full support absorbs everything
    assert all(S.table[S.zero, x] == S.zero for x in range(S.n))


def test_nmin_is_the_min_chain():
    S = nmin(5)
    assert S.labels == ("1", "2", "3", "4", "5")
    for x in range(5):
        for y in range(5):
            assert S.table[x, y] == min(x, y)


def test_orthogonal_direct_sum_collapses_cross_products():
    T = orthogonal_direct_sum([free_semilattice(2), free_semilattice(2)])
    assert isinstance(T, OrthogonalSum)
    assert T.n == 1 + 3 + 3
    assert T.zero == 0
    validate(T.table)
    (a0, a1), (b0, b1) = T.blocks
    for x in range(a0, a1):
        for y in range(b0, b1):
            assert T.table[x, y] == T.zero
    # within a block the product stays in the block
    for x in range(a0, a1):
        for y in range(a0, a1):
            assert a0 <= T.table[x, y] < a1


# ---------------------------------------------------------------------------
# Order invariants: height, width, Dilworth agreement.
# ---------------------------------------------------------------------------


def test_chain_has_width_one_and_full_height():
    S = nmin(6)
    assert height(S) == 6
    assert width(S) == 1


def test_free_semilattice_width_and_height():
    S = free_semilattice(3)
    assert height(S) == 3  # singleton > pair > triple
    assert width(S) == 3  # the three pairs form a maximal antichain


def test_min_chain_cover_partitions_into_chains(rng):
    leq = random_poset(rng, 8)
    cover = min_chain_cover(leq)
    seen = sorted(x for chain in cover for x in chain)
    assert seen == list(range(8))
    for chain in cover:
        for a, b in zip(chain, chain[1:]):
            assert leq[a, b] or leq[b, a]


def test_max_antichain_is_an_antichain(rng):
    leq = random_poset(rng, 8)
    anti = max_antichain(leq)
    for i, a in enumerate(anti):
        for b in anti[i + 1 :]:
            assert not leq[a, b] and not leq[b, a]


def test_dilworth_numbers_agree_on_random_posets(rng):
    for _ in range(30):
        n = int(rng.integers(1, 11))
        leq = random_poset(rng, n)
        assert poset_width(leq) == len(min_chain_cover(leq)) == len(max_antichain(leq))
        assert poset_height(leq) >= 1


# ---------------------------------------------------------------------------
# Generation and breadth.
# ---------------------------------------------------------------------------


def test_generated_closes_under_products():
    S = free_semilattice(3)
    E = generated(S, [0, 1])  # two singleton generators
    assert E == frozenset({0, 1, S.table[0, 1]})


def test_b_loc_of_generator_set_counts_needed_factors():
    S = free_semilattice(3)
    # producing the zero (full support) needs all three singleton generators
    assert b_loc(S, [0, 1, 3]) == 3


def test_breadth_of_free_semilattice_counts_generators():
    for k in (2, 3):
        assert breadth(free_semilattice(k)) == k


def test_breadth_of_chain_is_one():
    assert breadth(nmin(7)) == 1


def test_breadth_sampling_is_a_lower_bound(rng):
    S = free_semilattice(3)
    est = breadth(S, method="sample", samples=200, rng=rng)
    assert 1 <= est <= 3


def test_breadth_sample_never_exceeds_exhaustive(semilattice_pool):
    rng = np.random.default_rng(5)
    for S in semilattice_pool[:10]:
        exact = breadth(S)
        assert breadth(S, method="sample", samples=300, rng=rng) <= exact


def test_breadth_rejects_unknown_method():
    with pytest.raises(ValueError):
        breadth(nmin(3), method="guess")


@pytest.mark.parametrize("samples", [0, -5])
def test_breadth_sampling_refuses_a_sample_count_below_one(samples):
    with pytest.raises(ValueError, match="at least 1"):
        breadth(nmin(3), method="sample", samples=samples)


def test_exhaustive_breadth_stops_at_sixteen_elements():
    assert breadth(nmin(16)) == 1
    with pytest.raises(ValueError, match='method="sample"'):
        breadth(nmin(17))
    assert breadth(nmin(17), method="sample", samples=20) == 1


# ---------------------------------------------------------------------------
# Serialization round-trip.
# ---------------------------------------------------------------------------


def test_json_round_trip_preserves_table_and_labels():
    S = nmin(4)
    doc = semilattice_to_json(S)
    T = semilattice_from_json(doc)
    assert np.array_equal(S.table, T.table)
    assert T.labels == S.labels


# ---------------------------------------------------------------------------
# Property tests: the random generator only emits valid tables, and the
# induced order makes the product a greatest lower bound.
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_semilattice_always_validates(seed):
    S = random_semilattice(np.random.default_rng(seed))
    validate(S.table)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_product_is_the_meet(seed):
    S = random_semilattice(np.random.default_rng(seed))
    t = S.table

    def leq(a, b):
        return t[a, b] == a

    for x in range(S.n):
        for y in range(S.n):
            m = t[x, y]
            assert leq(m, x) and leq(m, y)
            for z in range(S.n):
                if leq(z, x) and leq(z, y):
                    assert leq(z, m)
