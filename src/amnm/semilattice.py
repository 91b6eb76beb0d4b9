"""Finite semilattices as Cayley tables, with order-theoretic invariants.

A semilattice is a finite commutative idempotent semigroup, given here as an
``n x n`` table over indices ``0..n-1``.  The induced partial order is
``x <= y  iff  x*y == x`` (the product acts as a meet).  This module provides

* validation of the semigroup axioms with explicit witnesses,
* standard constructions (free semilattice, truncated min-semilattice,
  orthogonal direct sums),
* generated subsemilattices and the breadth invariant,
* poset invariants (width via a matching-based Dilworth argument with a
  self-checking antichain/chain-cover witness pair, height via longest chain),
* random instance generators used by the test-bench and the CLI suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ClassificationFailure,
    NotAssociative,
    NotClosed,
    NotCommutative,
    NotIdempotent,
    ParseError,
)

__all__ = [
    "Semilattice",
    "FreeSemilattice",
    "OrthogonalSum",
    "validate",
    "free_semilattice",
    "nmin",
    "orthogonal_direct_sum",
    "generated",
    "b_loc",
    "breadth",
    "width",
    "height",
    "poset_height",
    "poset_width",
    "max_antichain",
    "min_chain_cover",
    "random_poset",
    "random_semilattice",
    "semilattice_to_json",
    "semilattice_from_json",
]

_PROOF_SLAB_BYTES = 1 << 22  # packed order bits compared per step of the table's proof


@dataclass(frozen=True, eq=False)
class Semilattice:
    """A finite semilattice presented by its Cayley table.

    ``table[i, j]`` is the index of the product of elements ``i`` and ``j``.
    Constructing this class directly performs no validation; use
    :func:`validate` for untrusted tables.  ``labels`` are optional display
    names, one per element.
    """

    table: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(self.table, dtype=np.intp, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def n(self) -> int:
        return int(self.table.shape[0])

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    @cached_property
    def leq(self) -> np.ndarray:
        """Boolean matrix of the induced order: ``leq[i, j]`` iff ``i*j == i``."""
        mat = self.table == np.arange(self.n)[:, None]
        mat.setflags(write=False)
        return mat

    @cached_property
    def _unit_weight(self):
        """The constant weight 1 that a bare semilattice stands for, built once."""
        from .weights import unit_weight  # weights imports this module
        return unit_weight(self)

    @cached_property
    def _mult_rows(self) -> np.ndarray:
        """The characters of ``l1(S)`` as one read-only boolean table: row 0 is
        the zero map, row ``m + 1`` the up-set of ``m``.  Proved on first read,
        else :class:`ClassificationFailure`: ``m`` is in its up-set, and
        ``below(x*y) == below(x) & below(y)`` for all x, y, where ``below(x)`` is
        the packed column ``x`` of ``leq``.  So every row is multiplicative."""
        if not self.leq.diagonal().all():
            raise ClassificationFailure("an element is not in its own up-set")
        below = np.packbits(self.leq.T, axis=1)  # below[x]: the bits of {m : m <= x}
        step = max(1, _PROOF_SLAB_BYTES // below.size)
        for lo in range(0, self.n, step):
            bad = below[self.table[lo : lo + step]] != below[lo : lo + step, None] & below
            if bad.any():
                x, y, _ = np.argwhere(bad)[0]
                raise ClassificationFailure(f"a row is not multiplicative at x{lo + x}*x{y}")
        rows = np.vstack([np.zeros(self.n, dtype=bool), self.leq])
        rows.setflags(write=False)
        return rows

    def upset(self, i: int) -> frozenset[int]:
        """All elements above ``i`` (including ``i``): row ``i + 1`` of :attr:`_mult_rows`."""
        (i,) = _elements(self, (i,))
        return frozenset(np.flatnonzero(self._mult_rows[i + 1]).tolist())


@dataclass(frozen=True, eq=False)
class FreeSemilattice(Semilattice):
    """Free semilattice with an explicit length function and zero element.

    ``gamma[i]`` is the number of generators appearing in element ``i``;
    ``zero`` is the index of the product of all generators (the minimum of
    the induced order).
    """

    gamma: np.ndarray = None
    zero: int = 0

    def __post_init__(self):
        super().__post_init__()
        g = np.array(self.gamma, dtype=np.intp, copy=True)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True, eq=False)
class OrthogonalSum(Semilattice):
    """Orthogonal direct sum: blocks glued over a single zero element.

    ``blocks[b] = (start, stop)`` gives the index range of block ``b``;
    ``zero`` is always index 0, and any product of elements from distinct
    blocks equals ``zero``.
    """

    blocks: tuple[tuple[int, int], ...] = ()
    zero: int = 0


def validate(table, labels: Sequence[str] | None = None) -> Semilattice:
    """Check the semilattice axioms and return the validated structure.

    Raises :class:`ParseError` on entries that are not integers (booleans,
    strings, fractional or non-finite floats), else :class:`NotClosed`,
    :class:`NotIdempotent`, :class:`NotCommutative` or :class:`NotAssociative`
    with the lexicographically first witnessing indices attached.  The
    returned structure's character table is already proved.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ParseError(f"Cayley table must be a nonempty square matrix, got shape {arr.shape}")
    # booleans and strings are not indices, a float must be whole, and an object
    # table may hold only ints (those past int64 make one, and are out of range)
    kind = arr.dtype.kind
    integral = (
        kind in "iu"
        or (kind == "f" and (np.isfinite(arr) & (arr == np.floor(arr))).all())
        or (kind == "O" and all(type(x) is int for x in arr.flat))
    )
    if not integral:
        raise ParseError("Cayley table entries must be integers")
    n = arr.shape[0]

    out_of_range = (arr < 0) | (arr >= n)  # before the cast, which would wrap
    if np.any(out_of_range):
        i, j = map(int, np.argwhere(out_of_range)[0])
        raise NotClosed(f"table[{i}][{j}] = {int(arr[i, j])} is out of range 0..{n - 1}", (i, j))
    arr = arr.astype(np.intp)

    diag = np.diagonal(arr)
    bad = np.flatnonzero(diag != np.arange(n))
    if bad.size:
        i = int(bad[0])
        raise NotIdempotent(f"table[{i}][{i}] = {int(arr[i, i])} != {i}", i)

    asym = arr != arr.T
    if np.any(asym):
        i, j = map(int, np.argwhere(asym)[0])
        raise NotCommutative(
            f"table[{i}][{j}] = {int(arr[i, j])} but table[{j}][{i}] = {int(arr[j, i])}", (i, j)
        )

    # closed, idempotent and commutative: associative iff the character table's
    # identity holds (it makes <= a partial order with x*y the meet), which
    # stays proved on S; a failure is located one (n, n) slab of (ij)k vs i(jk) per i
    S = Semilattice(arr, tuple(labels) if labels is not None else None)
    try:
        S._mult_rows
    except ClassificationFailure:
        for i in range(n):
            left, right = arr[arr[i]], arr[i][arr]  # [j, k]: (x_i x_j) x_k and x_i (x_j x_k)
            mismatch = left != right
            if mismatch.any():
                j, k = map(int, np.argwhere(mismatch)[0])
                lhs, rhs = int(left[j, k]), int(right[j, k])
                raise NotAssociative(
                    f"(x{i}*x{j})*x{k} = {lhs} but x{i}*(x{j}*x{k}) = {rhs}", (i, j, k)
                ) from None
        raise
    return S


def free_semilattice(k: int) -> FreeSemilattice:
    """Free semilattice on ``k`` generators (1 <= k <= 16).

    Elements are the nonempty subsets of the generator set, the product is
    union, and element ``i`` corresponds to the subset with bitmask ``i + 1``.
    In the induced order larger subsets are *smaller*; the full set is the
    zero element and the singletons are the maximal elements.
    """
    if not 1 <= k <= 16:
        raise ValueError(f"generator count must be between 1 and 16, got {k}")
    n = (1 << k) - 1
    masks = np.arange(1, n + 1)
    table = (masks[:, None] | masks[None, :]) - 1
    gamma = np.array([int(m).bit_count() for m in masks])
    labels = [
        "{" + ",".join(str(b + 1) for b in range(k) if (m >> b) & 1) + "}" for m in masks
    ]
    return FreeSemilattice(table=table, labels=tuple(labels), gamma=gamma, zero=n - 1)


def nmin(M: int) -> Semilattice:
    """The chain {1, ..., M} with product min; index ``i`` is the number ``i + 1``."""
    if M < 1:
        raise ValueError(f"chain length must be >= 1, got {M}")
    idx = np.arange(M)
    table = np.minimum(idx[:, None], idx[None, :])
    return Semilattice(table, tuple(str(i + 1) for i in range(M)))


def orthogonal_direct_sum(parts: Sequence[Semilattice]) -> OrthogonalSum:
    """Glue semilattices over a fresh zero: cross-block products collapse to it.

    Index 0 is the new zero element; block ``b`` occupies a consecutive index
    range.  Within a block the original products are kept (with the block's
    own internal zero remaining distinct from the global one).
    """
    if not parts:
        raise ValueError("need at least one block")
    offsets = []
    total = 1
    for part in parts:
        offsets.append(total)
        total += part.n
    table = np.zeros((total, total), dtype=np.intp)
    labels = ["0"]
    blocks = []
    for b, (part, off) in enumerate(zip(parts, offsets)):
        blocks.append((off, off + part.n))
        table[off : off + part.n, off : off + part.n] = part.table + off
        for i in range(part.n):
            labels.append(f"b{b}:{part.label(i)}")
    return OrthogonalSum(table=table, labels=tuple(labels), blocks=tuple(blocks), zero=0)


def _elements(S: Semilattice, E: Iterable[int]) -> frozenset[int]:
    """``E`` as a set of element indices; ``ValueError`` on one outside ``0..n-1``."""
    elems = frozenset(int(x) for x in E)
    for x in elems:
        if not 0 <= x < S.n:
            raise ValueError(f"element index {x} out of range 0..{S.n - 1}")
    return elems


def _closure(S: Semilattice, E: Iterable[int], depth: int | None) -> tuple[set[int], int]:
    """Products of at most ``depth`` factors from ``E`` (all if None), and the
    factor count ``level`` at which the scan stopped."""
    elems = _elements(S, E)
    if not elems:
        raise ValueError("element set must be nonempty")
    if depth is not None and depth < 1:
        raise ValueError("depth must be >= 1")
    table = S.table
    current = set(elems)
    level = 1
    while depth is None or level < depth:
        new = {int(table[a, e]) for a in current for e in elems} - current
        if not new:
            break
        current |= new
        level += 1
    return current, level


def generated(S: Semilattice, E: Iterable[int], depth: int | None = None) -> frozenset[int]:
    """Products of at most ``depth`` factors from ``E`` (all products if None).

    By idempotency every product of at most ``d`` factors is also a product
    of exactly ``d`` factors, so this is the usual generated-subsemilattice
    filtration.
    """
    return frozenset(_closure(S, E, depth)[0])


def b_loc(S: Semilattice, E: Iterable[int]) -> int:
    """Least ``d`` such that products of at most ``d`` factors from ``E`` stabilize."""
    return _closure(S, E, None)[1]


def _product_masks(table: np.ndarray, n: int) -> list[list[int]]:
    """pm[i][m] = bitmask of { table[i, j] : bit j set in m }, for all masks."""
    pm = []
    for i in range(n):
        row = [1 << int(p) for p in table[i]]
        col = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = (m & -m).bit_length() - 1
            col[m] = col[m & (m - 1)] | row[low]
        pm.append(col)
    return pm


def _b_loc_mask(pm: list[list[int]], gens: list[int], e_mask: int) -> int:
    current = e_mask
    level = 1
    while True:
        nxt = current
        for i in gens:
            nxt |= pm[i][current]
        if nxt == current:
            return level
        current = nxt
        level += 1


def breadth(
    S: Semilattice,
    *,
    method: str = "exhaustive",
    samples: int = 2000,
    rng: np.random.Generator | None = None,
) -> int:
    """Maximum of :func:`b_loc` over all nonempty subsets.

    ``method="exhaustive"`` scans all ``2^n - 1`` subsets as bitmasks and
    requires ``n <= 16``; past that a ``ValueError`` suggests
    ``method="sample"``, which evaluates ``samples`` random subsets and
    returns a lower-bound estimate.
    """
    n = S.n
    if method == "sample":
        rng = np.random.default_rng(0) if rng is None else rng
        best = 1
        for _ in range(samples):
            subset = [i for i in range(n) if rng.random() < 0.5]
            if not subset:
                subset = [int(rng.integers(n))]
            best = max(best, b_loc(S, subset))
        return best
    if method != "exhaustive":
        raise ValueError(f"unknown breadth method {method!r}")
    if n > 16:
        raise ValueError(
            f"exhaustive breadth scan supports n <= 16 (got n = {n}); "
            'use method="sample" for a lower-bound estimate'
        )
    pm = _product_masks(S.table, n)
    best = 1
    for e_mask in range(1, 1 << n):
        gens = [i for i in range(n) if (e_mask >> i) & 1]
        best = max(best, _b_loc_mask(pm, gens, e_mask))
    return best


# ---------------------------------------------------------------------------
# Poset invariants.  These operate on a reflexive boolean "leq" matrix so the
# same code serves both semilattice orders and standalone random posets.
# ---------------------------------------------------------------------------


def _strict(leq: np.ndarray) -> np.ndarray:
    return leq & ~np.eye(leq.shape[0], dtype=bool)


def poset_height(leq: np.ndarray) -> int:
    """Length (number of elements) of a longest chain."""
    n = leq.shape[0]
    strict = _strict(leq)
    order = sorted(range(n), key=lambda v: int(strict[:, v].sum()))
    dp = [1] * n
    for v in order:
        below = np.flatnonzero(strict[:, v])
        if below.size:
            dp[v] = 1 + max(dp[int(u)] for u in below)
    return max(dp)


def _max_matching(adj: list[list[int]], n_right: int) -> list[int]:
    """Kuhn's augmenting-path matching; returns match_right (right -> left or -1)."""
    match_right = [-1] * n_right

    def try_augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or try_augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    for u in range(len(adj)):
        try_augment(u, [False] * n_right)
    return match_right


def _matching_data(leq: np.ndarray):
    n = leq.shape[0]
    strict = _strict(leq)
    adj = [[int(v) for v in np.flatnonzero(strict[u])] for u in range(n)]
    match_right = _max_matching(adj, n)
    successor = [-1] * n
    for v, u in enumerate(match_right):
        if u != -1:
            successor[u] = v
    return strict, adj, match_right, successor


def min_chain_cover(leq: np.ndarray) -> list[list[int]]:
    """Partition into the minimum number of chains (Dilworth via matching)."""
    n = leq.shape[0]
    strict, _, match_right, successor = _matching_data(leq)
    is_successor = [False] * n
    for v, u in enumerate(match_right):
        if u != -1:
            is_successor[v] = True
    chains = []
    for root in range(n):
        if is_successor[root]:
            continue
        chain = [root]
        while successor[chain[-1]] != -1:
            chain.append(successor[chain[-1]])
        chains.append(chain)
    covered = sorted(x for chain in chains for x in chain)
    if covered != list(range(n)):
        raise AssertionError("chain cover failed to partition the ground set")
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            if not strict[a, b]:
                raise AssertionError("chain cover produced a non-chain")
    return chains


def max_antichain(leq: np.ndarray) -> list[int]:
    """A maximum antichain, extracted from a maximum matching via Konig's theorem."""
    n = leq.shape[0]
    strict, adj, match_right, _ = _matching_data(leq)
    matched_left = {u for u in match_right if u != -1}
    # Alternating BFS from unmatched left vertices.
    reach_left = [u not in matched_left for u in range(n)]
    reach_right = [False] * n
    queue = [u for u in range(n) if reach_left[u]]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if not reach_right[v]:
                reach_right[v] = True
                w = match_right[v]
                if w != -1 and not reach_left[w]:
                    reach_left[w] = True
                    queue.append(w)
    cover_left = {u for u in range(n) if not reach_left[u]}
    cover_right = {v for v in range(n) if reach_right[v]}
    antichain = [x for x in range(n) if x not in cover_left and x not in cover_right]
    matching_size = sum(1 for u in match_right if u != -1)
    if len(antichain) != n - matching_size:
        raise AssertionError("Konig antichain size disagrees with matching size")
    for a in antichain:
        for b in antichain:
            if a != b and strict[a, b]:
                raise AssertionError("extracted set is not an antichain")
    return antichain


def poset_width(leq: np.ndarray) -> int:
    """Maximum antichain size; asserts it equals the minimum chain-cover size."""
    antichain = max_antichain(leq)
    chains = min_chain_cover(leq)
    if len(antichain) != len(chains):
        raise AssertionError(
            f"Dilworth mismatch: antichain {len(antichain)} vs chain cover {len(chains)}"
        )
    return len(antichain)


def width(S: Semilattice) -> int:
    """Maximum antichain size of the induced order (with chain-cover self-check)."""
    return poset_width(S.leq)


def height(S: Semilattice) -> int:
    """Longest chain length of the induced order."""
    return poset_height(S.leq)


# ---------------------------------------------------------------------------
# Random instances (test-bench / CLI suite tooling).
# ---------------------------------------------------------------------------


def random_poset(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random poset as a reflexive leq matrix: a random DAG (each forward edge
    with chance 0.3) and its transitive closure."""
    perm = rng.permutation(n)
    up = np.triu(rng.random((n, n)) < 0.3, 1)
    closure = up.copy()
    while True:
        nxt = closure | (closure @ closure)
        if np.array_equal(nxt, closure):
            break
        closure = nxt
    pos = closure | np.eye(n, dtype=bool)
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            leq[perm[i], perm[j]] = pos[i, j]
    return leq


def random_semilattice(rng: np.random.Generator, max_n: int = 8) -> Semilattice:
    """Random semilattice: an intersection-closed family of bitmask subsets.

    Seeds a few random subsets of a six-element universe, closes under
    pairwise intersection, and retries until the closure has at most
    ``max_n`` elements.  The product is intersection, which is automatically
    commutative, idempotent and associative.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    while True:
        seeds = int(rng.integers(1, max_n + 1))
        family = {int(rng.integers(0, 1 << 6)) for _ in range(seeds)}
        while True:
            new = {a & b for a in family for b in family} - family
            if not new:
                break
            family |= new
        if len(family) <= max_n:
            elems = sorted(family)
            index = {m: i for i, m in enumerate(elems)}
            table = np.array(
                [[index[a & b] for b in elems] for a in elems], dtype=np.intp
            )
            return Semilattice(table)


# ---------------------------------------------------------------------------
# JSON round-trip.
# ---------------------------------------------------------------------------


def semilattice_to_json(S: Semilattice) -> dict:
    doc = {"n": S.n, "table": [[int(x) for x in row] for row in S.table]}
    if S.labels is not None:
        doc["labels"] = list(S.labels)
    return doc


def semilattice_from_json(doc: dict) -> Semilattice:
    if not isinstance(doc, dict) or "table" not in doc:
        raise ParseError('semilattice document must be an object with a "table" field')
    table = doc["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise ParseError('"table" must be a list of rows')
    n = len(table)
    if "n" in doc and doc["n"] != n:
        raise ParseError(f'"n" = {doc["n"]} does not match table size {n}')
    if any(len(r) != n for r in table):
        raise ParseError('"table" must be square')
    if any(isinstance(x, bool) for r in table for x in r):  # numpy would read them as 0 and 1
        raise ParseError("Cayley table entries must be integers, not booleans")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise ParseError('"labels" must be a list with one entry per element')
    return validate(np.array(table), labels)
