import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    closure,
    contains,
    fixed_space,
    gauss_jordan,
    inverse_by_hand,
    kernel_by_hand,
    null_space,
    perm_matrix,
    quotient_action,
    quotient_projection,
    row_reduce,
    subspace_from_rows,
)
from spinrest import gfp
from spinrest.gfp import kernel, matmul_mod, rank
from spinrest.partitions import _is_prime
from spinrest.specht import eta, from_cycles, subset_basis

# primes for the differential tests; the last one is gfp's largest, where a
# full panel's product nearly fills float64's exact range
PRIMES = [2, 3, 7, 65521, 11863279]


def _known_rank(rng, m, n, r, p):
    """An m x n matrix of rank exactly r: [I; X] @ [I | Y] = [I, Y; X, XY]
    with rows and columns shuffled."""
    x = rng.integers(0, p, (m - r, r))
    y = rng.integers(0, p, (r, n - r))
    a = np.block([[np.eye(r, dtype=np.int64), y], [x, matmul_mod(x, y, p)]])
    return a[rng.permutation(m)][:, rng.permutation(n)]


def _random_matrix(rng, m, n, p):
    """Full random, low rank or sparse, so that zero columns, zero rows and
    rank deficits all turn up."""
    kind = int(rng.integers(0, 3))
    if kind == 0 or min(m, n) == 0:
        return rng.integers(0, p, (m, n))
    if kind == 1:
        return _known_rank(rng, m, n, int(rng.integers(0, min(m, n) + 1)), p)
    return rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.15)


def rref(a, p):
    """The reduced echelon rows, int64 in [0, p), and pivot columns of
    kernel's elimination, gfp._echelon(a, p, True)."""
    red, pivots = gfp._echelon(a, p, True)
    return gfp._mod(red.astype(np.int64), p), pivots


def _assert_matches_reference(a, p):
    """rref, rank and kernel against the reference elimination, row_reduce
    (itself checked against gauss_jordan on small inputs)."""
    n = a.shape[1]
    want_red, want_pivots = row_reduce(a, p)
    red, pivots = rref(a, p)
    assert pivots == want_pivots
    assert red.shape == (len(want_pivots), n) and np.array_equal(red, want_red)
    assert rank(a, p) == len(want_pivots)
    ker = kernel(a, p)
    assert ker.basis.shape == (n - len(want_pivots), n)
    assert ker.basis.dtype == np.int64 and np.array_equal(ker.basis, null_space(a, p).basis)
    assert not np.any(matmul_mod(a, ker.basis.T, p))


@pytest.mark.parametrize("p", [2, 3, 7, 65521])
def test_numpy_oracle_matches_gauss_jordan(p):
    """row_reduce and null_space, the numpy reference elimination, against
    gauss_jordan and kernel_by_hand on Python ints, on small random
    matrices: dense, low rank, sparse, empty, and unreduced and negative
    entries."""
    rng = np.random.default_rng(p % 1009)
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(0, 12, 2))
        a = _random_matrix(rng, m, n, p) + p * rng.integers(-3, 4, (m, n))
        red, pivots = row_reduce(a, p)
        want_red, want_pivots = gauss_jordan(a.tolist(), n, p)
        assert pivots == want_pivots and red.dtype == np.int64 and red.tolist() == want_red
        ker = null_space(a, p)
        assert ker.dim == n - len(pivots) and ker.basis.tolist() == kernel_by_hand(a.tolist(), n, p)


def test_rank_basics():
    assert rank(np.eye(7, dtype=np.int64), 5) == 7
    assert rank(np.zeros((4, 9), dtype=np.int64), 3) == 0
    assert kernel(np.zeros((4, 9), dtype=np.int64), 3).dim == 9


def test_subset_incidence_rank_anchor():
    """The 6x4 incidence matrix of 1-subsets against 2-subsets of a 4-set has
    rank 4 over GF(3)."""
    assert rank(eta(1, 2, 4), 3) == 4


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
def test_elimination_refuses_composite_moduli(p):
    """rank over Z/4 is not a field rank: [[3,1],[1,3]] used to get rank 1
    mod 4, and [[2,0],[0,2]] a bare "base is not invertible"."""
    for a in ([[3, 1], [1, 3]], [[2, 0], [0, 2]]):
        for call in (rank, rref, kernel):
            with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
                call(np.array(a, dtype=np.int64), p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rank_nullity(m, n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (m, n))
    assert rank(a, p) + kernel(a, p).dim == n


def test_rank_nullity_large_blocked():
    rng = np.random.default_rng(7)
    for p, r in ((3, 380), (5, 251), (7, 64)):
        a = _known_rank(rng, 400, 380, r, p)
        assert rank(a, p) == r
        assert r + kernel(a, p).dim == 380


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_matches_reference_elimination(m, n, p, seed):
    _assert_matches_reference(_random_matrix(np.random.default_rng(seed), m, n, p), p)


def test_blocked_panels_match_reference():
    """Shapes past one 64-column panel, so the pivot-block inverse and the
    product update run, at a small prime and at the largest one."""
    rng = np.random.default_rng(11)
    for m, n, p in ((100, 90, 3), (100, 90, 11863279), (70, 140, 3), (140, 70, 11863279)):
        _assert_matches_reference(_random_matrix(rng, m, n, p), p)
        _assert_matches_reference(_known_rank(rng, m, n, min(m, n) // 3, p), p)


def _swap_heavy(rng, m, n, p):
    """An m x n matrix whose pivots sit in the bottom rows, so nearly every
    pivot of the elimination is a row swap."""
    a = np.triu(rng.integers(0, p, (m, n)))
    a[np.arange(min(m, n)), np.arange(min(m, n))] = rng.integers(1, p, min(m, n))
    return a[::-1].copy()


# adjacent primes on either side of the range of each storage type of the
# elimination core: p - 1 + 8 _PANEL (p - 1)^2 against 32767 (int16), and
# _PANEL (p - 1)^2 against 2^24 (float32), and the largest prime gfp takes,
# the last below 2^53 (float64); and 3, the prime of the Gram criterion on
# S^(6,4,2)
STORAGE_PRIMES = {
    2: np.int16,
    3: np.int16,
    7: np.int16,
    11: np.float32,
    509: np.float32,
    521: np.float64,
    11863279: np.float64,
}


@pytest.mark.parametrize("p", sorted(STORAGE_PRIMES))
def test_storage_tiers_match_reference(p):
    """Shapes past several panels, with many row swaps and with a known rank,
    at the primes next to each storage limit, in the type that _echelon
    stores.  At 509 and 11863279 one full panel product nearly fills the
    range of the storage type, so the matrix is reduced after every panel;
    unreduced, the 420 x 400 matrix there would leave it after about four
    panels.  That one is too large for the reference elimination and is
    checked by its known rank and exact identities."""
    assert gfp._storage(p)[0] is STORAGE_PRIMES[p]
    rng = np.random.default_rng(p % 1000)
    _assert_matches_reference(_swap_heavy(rng, 150, 140, p), p)
    _assert_matches_reference(_swap_heavy(rng, 90, 200, p), p)
    _assert_matches_reference(_known_rank(rng, 200, 150, 130, p), p)
    if p not in (509, 11863279):
        return
    a = _known_rank(rng, 420, 400, 330, p)
    red, pivots = rref(a, p)
    assert rank(a, p) == len(pivots) == 330 and pivots == sorted(pivots)
    assert np.array_equal(red[:, pivots], np.eye(330, dtype=np.int64))
    assert all(not red[i, : pivots[i]].any() for i in range(330))
    # a = a[:, pivots] red and a ker^T = 0, checked on random vectors
    v, w = rng.integers(0, p, (400, 4)), rng.integers(0, p, (4, 420))
    assert np.array_equal(matmul_mod(a[:, pivots], matmul_mod(red, v, p), p), matmul_mod(a, v, p))
    ker = kernel(a, p)
    assert ker.dim == 70 and not np.any(matmul_mod(matmul_mod(w, a, p), ker.basis.T, p))


def test_int16_storage_is_reduced_in_time():
    """a = [I, Y; C, Z] mod 7, with Y and C all p - 1: each of the first
    r / _PANEL panels takes its pivots from I, without a swap, and moves
    every entry of the rows of C right of I by exactly _PANEL (p - 1)^2 =
    2304.  int16 holds 14 such panels after p - 1, so over r = 1024 rows,
    16 panels, those entries would wrap unless the matrix is reduced in
    time.  The rows of C then hold the Schur complement Z - C Y, which the
    reference eliminates."""
    p, r = 7, 1024
    assert gfp._storage(p)[0] is np.int16 and 14 * 2304 + p - 1 <= 32767 < 15 * 2304
    rng = np.random.default_rng(7)
    z = rng.integers(0, p, (40, 60))
    a = np.block([[np.eye(r, dtype=np.int64), np.full((r, 60), p - 1)], [np.full((40, r), p - 1), z]])
    schur = (z - r * (p - 1) ** 2) % p
    want_red, want_pivots = gauss_jordan(schur.tolist(), 60, p)
    red, pivots = rref(a, p)
    assert pivots == list(range(r)) + [r + c for c in want_pivots]
    assert rank(a, p) == len(pivots)
    assert not red[r:, :r].any() and red[r:, r:].tolist() == want_red
    v = rng.integers(0, p, (r + 60, 4))  # a = a[:, pivots] red, checked on random vectors
    assert np.array_equal(matmul_mod(a[:, pivots], matmul_mod(red, v, p), p), matmul_mod(a, v, p))
    ker = kernel(a, p)
    assert ker.dim == r + 60 - len(pivots) and not np.any(matmul_mod(a, ker.basis.T, p))


@pytest.mark.parametrize("p", [7, 509, 11863279])
def test_reduction_in_time_covers_every_updated_column(p):
    """a = L U mod p, with L unit lower and U unit upper triangular and p - 1
    everywhere else in their triangles, is eliminated without a row swap,
    and every panel's multipliers and transformed pivot rows are then all
    p - 1: each panel moves every entry right of it and below it by the
    most it can, _PANEL (p - 1)^2.  So the stored matrix is reduced in time
    at every column that is updated later, the first column of the next
    panel included: int16 at p = 7 every fifteenth panel, float32 at 509
    and float64 at 11863279 every panel.  U has r < rows rows, so the rows
    below r must come out zero; the RREF is checked by a = a[:, pivots] red
    on random vectors."""
    rows, r = 1100, 1050
    lower = np.tril(np.full((rows, r), p - 1, dtype=np.int64), -1) + np.eye(rows, r, dtype=np.int64)
    upper = np.triu(np.full((r, rows), p - 1, dtype=np.int64), 1) + np.eye(r, rows, dtype=np.int64)
    a = matmul_mod(lower, upper, p)
    assert rank(a, p) == r
    red, pivots = rref(a, p)
    assert pivots == list(range(r))
    v = np.random.default_rng(p % 1000).integers(0, p, (rows, 3))
    assert np.array_equal(matmul_mod(a[:, pivots], matmul_mod(red, v, p), p), matmul_mod(a, v, p))


@pytest.mark.parametrize("p", sorted(STORAGE_PRIMES))
def test_scalar_loop_matches_reference(p):
    """The scalar loop's rank, rref and kernel against the reference
    elimination, at every storage tier:
    - a 100 x 90 matrix whose columns 16-31 and 40-51 are combinations of
      the columns before them, so have no pivot, and whose last panel (64
      rows) spans 26 columns;
    - a sparse 200 x 64 one with five dense columns, so that one panel
      updates some multiplier columns by slices and others by gathered rows;
    - a 40 x 80 one, a last panel wider than _PANEL."""
    rng = np.random.default_rng(p % 997)
    a = rng.integers(0, p, (100, 90))
    a[:, 16:32] = matmul_mod(a[:, :16], rng.integers(0, p, (16, 16)), p)
    a[:, 40:52] = matmul_mod(a[:, 32:40], rng.integers(0, p, (8, 12)), p)
    sparse = rng.integers(0, p, (200, 64)) * (rng.random((200, 64)) < 0.03)
    sparse[:, [0, 5, 17, 33, 50]] = rng.integers(0, p, (200, 5))
    for m in (a, sparse, _known_rank(rng, 40, 80, 30, p)):
        _assert_matches_reference(m, p)


@pytest.mark.parametrize("p", [2, 7, 65521, 11863279])
def test_matmul_mod_reads_vectors_as_numpy_does(p):
    """A 1-D factor is one row (a) or one column (b), and the result drops
    that axis, as in np.matmul: vector by vector (a 0-d array), matrix by
    vector and vector by matrix, and a stacked 3-D a by a matrix or a
    vector, with signed entries, against object integers, K = 0 included.
    v by v is no Gram product b.T @ b, though a 1-D v is its own transpose.
    At 11863279, K = 65 passes 2^53, so the product is summed over float64
    slices.  A b of three axes is refused."""
    rng = np.random.default_rng(p % 991)
    for k in (0, 1, 64, 65):
        v, w, m = rng.integers(1 - p, p, k), rng.integers(1 - p, p, k), rng.integers(1 - p, p, (k, 5))
        stacked = rng.integers(1 - p, p, (3, 4, k))
        for a, b in ((v, v), (v, w), (m.T, v), (v, m), (stacked, m), (stacked, v)):
            want = np.asarray((a.astype(object) @ b.astype(object)) % p)
            got = matmul_mod(a, b, p)
            assert got.dtype == np.int64 and got.shape == want.shape and got.tolist() == want.tolist()
    with pytest.raises(ValueError, match="one or two axes"):
        matmul_mod(np.ones((2, 3), np.int64), np.ones((2, 3, 4), np.int64), p)


@pytest.mark.parametrize("limit", [2**24, 2**53])
def test_matmul_mod_tiers_match_object_products(limit, monkeypatch):
    """Inner products just below and just above the exact range of float32
    (2^24) and float64 (2^53); at 2^53, p = 11863279, the largest prime
    gfp takes, and K = 64 and 65 on either side of where _product cuts K
    into float64 slices.  The factors are given unreduced and negative
    too, so the check that skips the reducing copy must still reduce them;
    a = b.T exercises the symmetric Gram product, which an unreduced b
    keeps: it is reduced once, not as two unrelated factors."""
    grams = []
    product = gfp._product
    monkeypatch.setattr(gfp, "_product", lambda a, b, p: grams.append(a.__array_interface__ == b.T.__array_interface__) or product(a, b, p))
    rng = np.random.default_rng(limit % 1000)
    p = {2**24: 2039, 2**53: 11863279}[limit]
    below = (limit - 1) // (p - 1) ** 2
    narrow = np.float32 if limit == 2**24 else np.float64
    for k in (below, below + 1):
        a = rng.integers(p - p // 256, p, (6, k))
        b = rng.integers(p - p // 256, p, (k, 7))
        want = (a.astype(object) @ b.astype(object)) % p
        if k > below:  # the narrower type would round these sums
            assert not np.array_equal(np.mod((a.astype(narrow) @ b.astype(narrow)).astype(np.int64), p), want)
        for shift_a, shift_b in ((0, 0), (p, -p), (-3 * p, 5 * p)):
            got = matmul_mod(a + shift_a, b + shift_b, p)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
        gram = ((b.T.astype(object) @ b.astype(object)) % p).tolist()
        assert matmul_mod(b.T, b, p).tolist() == gram
        u = b - 2 * p  # outside (-p, p), so reduced
        grams.clear()
        assert matmul_mod(u.T, u, p).tolist() == gram and grams == [True]
    # Gram products b.T @ b, which sum rows // max(d, _PANEL) blocks of rows of
    # b: fewer rows than d, d rows, and one row either side of where one block
    # becomes two; at the largest prime whose inner products stay in range, and
    # at a prime where column 0's square sum, an odd number, leaves it (at 2^53,
    # only with at least 68 rows, as gfp refuses primes above 11863279)
    for d in (7, 70):
        block = max(d, gfp._PANEL)
        for rows in (d - 2, d, 2 * block - 1, 2 * block + 1):
            q = isqrt((limit - 1) // rows)  # rows * (p - 1)^2 < limit iff p <= q + 1
            below = next(p for p in range(q + 1, 1, -1) if _is_prime(p))
            above = next(p for p in range(q + 4, 2 * q + 8) if _is_prime(p))
            if above > gfp._P_MAX:
                continue
            for p in (below, above):
                b = rng.integers(p - p // 8, p, (rows, d))
                b[:, 0] = p - 2
                b[0, 0] -= 1 - rows % 2
                want = (b.T.astype(object) @ b.astype(object)) % p
                if p == above:  # the narrower type would round G[0, 0]
                    assert not np.array_equal(np.mod((b.T.astype(narrow) @ b.astype(narrow)).astype(np.int64), p), want)
                got = matmul_mod(b.T, b, p)
                assert got.dtype == np.int64 and got.tolist() == want.tolist()
    for shape in ((0, 5), (9, 0), (0, 0)):  # no rows, no columns
        b = np.zeros(shape, dtype=np.int64)
        got = matmul_mod(b.T, b, 7)
        assert got.shape == (shape[1], shape[1]) and not got.any()


def _split_rows(rng, heavy, d, p):
    """Rows of d signed entries in (-p, p): where heavy, more than
    d / _KAPPA nonzeros, which gfp's Gram product sums by BLAS, and else 1
    to d // _KAPPA, which it sums as pairs.  Column 0 is +-(p - 2) in every
    row but row 0, where it is +-(p - 2 - (1 - rows % 2)), so that G[0, 0]
    is an odd number near rows (p - 1)^2."""
    b = np.zeros((len(heavy), d), dtype=np.int64)
    light = d // gfp._KAPPA
    for r, dense in enumerate(heavy):
        n = int(rng.integers(light + 1, d + 1)) if dense else int(rng.integers(1, light + 1))
        cols = np.concatenate([[0], 1 + rng.choice(d - 1, n - 1, replace=False)])
        b[r, cols] = rng.integers(1, p, n) * rng.choice([-1, 1], n)
    b[:, 0] = (p - 2) * rng.choice([-1, 1], len(b))
    b[0, 0] -= np.sign(b[0, 0]) * (1 - len(b) % 2)
    return b


def _column_structure(b):
    """b as _column_gram reads it: each column's row indices, its nonzeros
    first, padded with rows where it is 0, and b's entries there."""
    c = int(np.count_nonzero(b, axis=0).max(initial=0))
    index = np.argsort(b.T == 0, axis=1, kind="stable")[:, :c]
    return index, np.take_along_axis(b.T, index, axis=1)


@pytest.mark.parametrize("limit", [2**24, 2**53])
def test_gram_sparse_rows_match_object_products(limit, monkeypatch):
    """Gram products b.T @ b from b's column structure (_column_gram), whose
    rows lie on both sides of the split, or on one, against object
    arithmetic: at the largest prime whose inner products the narrower type
    holds exactly, and at the next, where a sum in it would round G[0, 0]
    (float32 to float64, and float64 to float64 slices, where every row is
    dense and summed in blocks).  The entries are signed, and the padding
    entries 0 are skipped.  matmul_mod reads the same b with unreduced
    entries.  With one pair and one cell a batch, every column is a batch
    of its own; the tiles of the dense rows' product stay _PANEL wide at
    both batch sizes (two column blocks, the last one partial).  At
    p = 65521, G is returned in int32 and the pair sums leave int32, so
    they must be added to G in a wider type."""
    pairs = []
    add = gfp._add_pairs
    monkeypatch.setattr(gfp, "_add_pairs", lambda *args: pairs.append(args[5:7]) or add(*args))
    rng = np.random.default_rng(limit % 991)
    rows, d = 201, 3 * gfp._KAPPA
    narrow = np.float32 if limit == 2**24 else np.float64
    q = isqrt((limit - 1) // rows)  # rows * (p - 1)^2 < limit iff p <= q + 1
    below = next(p for p in range(q + 1, 1, -1) if _is_prime(p))
    above = next(p for p in range(q + 2, 2 * q + 8) if _is_prime(p))
    for p in (below, above, 65521):
        for heavy in (rng.random(rows) < 0.3, np.ones(rows, bool), np.zeros(rows, bool)):
            b = _split_rows(rng, heavy, d, p)
            want = ((b.T.astype(object) @ b.astype(object)) % p).tolist()
            if p == above:
                assert np.mod((b.T.astype(narrow) @ b.astype(narrow)).astype(np.int64), p).tolist() != want
            if p == 65521 and not heavy.any():
                assert np.abs(b.T.astype(object) @ b.astype(object)).max() > 2**31
            unreduced = b + p * rng.integers(-3, 4, b.shape)
            assert matmul_mod(unreduced.T, unreduced, p).tolist() == want
            index, values = _column_structure(b)
            for batch in (gfp._BATCH, 1):
                monkeypatch.setattr(gfp, "_BATCH", batch)
                pairs.clear()
                got = gfp._column_gram(index, values, p)
                assert got.dtype == np.min_scalar_type(1 - p) and got.tolist() == want
                sparse = not heavy.all() and (p != above or limit == 2**24)
                assert bool(pairs) == sparse
                if sparse and batch == 1:
                    assert pairs == [(c, c + 1) for c in range(d)]
    for shape in ((0, d), (rows, 0), (0, 0)):  # no rows, no columns
        got = gfp._column_gram(*_column_structure(np.zeros(shape, dtype=np.int8)), 3)
        assert got.shape == (shape[1], shape[1]) and not got.any()


@pytest.mark.parametrize("p", sorted(STORAGE_PRIMES))
def test_unreduced_input_matches_reduced(p):
    """rank, rref and kernel of a + p X give what they give on a, past one
    panel: with X small, so that the storage type holds every entry and the
    elimination reduces them there in time, and with X near 2^62 / p, beyond
    every storage type, so that the input is reduced first."""
    rng = np.random.default_rng(p % 1013)
    for rows, cols in ((150, 140), (70, 130)):
        a = _known_rank(rng, rows, cols, 50, p)
        want_red, want_pivots = rref(a, p)
        want_ker = kernel(a, p).basis
        for bound in (4, 2**62 // p - 1):
            b = a + p * rng.integers(-bound, bound, a.shape)
            assert rank(b, p) == 50 and rref(b, p)[1] == want_pivots
            assert np.array_equal(rref(b, p)[0], want_red) and np.array_equal(kernel(b, p).basis, want_ker)


@pytest.mark.parametrize("p", [2, 3, 7, 65521])
def test_narrow_signed_input_matches_reduced_int64(p):
    """rank, rref, kernel and matmul_mod read an int8 array with signed
    entries in [-2, 2] without widening it, and give what they give on the
    same array as int64 reduced mod p; at p = 2 the entries +-2 lie outside
    (-p, p) and are reduced.  Contiguous arrays and views (kernel's reversed
    columns, strided slices, a transpose) alike, past one panel and below,
    with a rank deficit; the input is left as it was."""
    rng = np.random.default_rng(p)
    for rows, cols in ((140, 90), (70, 140), (12, 9)):
        narrow = rng.integers(-2, 3, (rows, cols)).astype(np.int8)
        narrow[2 * rows // 3 :] = -narrow[: rows - 2 * rows // 3]
        before = narrow.copy()
        for view in (narrow, narrow[:, ::-1], narrow[::2, 1::3], narrow.T):
            wide = view.astype(np.int64) % p
            assert rank(view, p) == rank(wide, p)
            (red, pivots), (want_red, want_pivots) = rref(view, p), rref(wide, p)
            assert pivots == want_pivots and red.dtype == np.int64 and np.array_equal(red, want_red)
            ker = kernel(view, p)
            assert ker.basis.dtype == np.int64 and np.array_equal(ker.basis, kernel(wide, p).basis)
            for a, b in ((view.T, view), (view, wide.T), (view, view.T)):
                got = matmul_mod(a, b, p)
                want = matmul_mod(a.astype(np.int64) % p, b.astype(np.int64) % p, p)
                assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(narrow, before)


def _fake_blas(monkeypatch, threads=3):
    """Put a fake OpenBLAS (get, set) pair in place of gfp's lookup, get
    reading `threads`; returns the list of counts set."""
    counts = []
    monkeypatch.setattr(gfp, "_blas_threads", lambda: (lambda: threads, counts.append))
    return counts


def _threaded_sides(p, side, rng):
    """matmul_mod's a (256 x 256 b) and rank's matrix whose largest product,
    the first panel's update (rows - 64) x 64 x 1024, takes _THREADED
    multiply-adds (side 0) or one row's worth fewer (side -1)."""
    n = gfp._THREADED // (256 * 256) + side
    a, b = rng.integers(0, p, (n, 256)), rng.integers(0, p, (256, 256))
    return a, b, _known_rank(rng, gfp._THREADED // (64 * 1024) + side + 64, 1024 + 64, 100, p)


def test_products_below_threaded_run_on_one_thread(monkeypatch):
    """A product of more than _SERIAL and fewer than _THREADED multiply-adds
    sets one OpenBLAS thread and then the count it read; one at or below
    _SERIAL, which OpenBLAS runs on one thread itself, or at _THREADED sets
    none, in matmul_mod and in rank's panel products alike."""
    rng = np.random.default_rng(31)
    small, large = _threaded_sides(7, -1, rng), _threaded_sides(7, 0, rng)
    counts = _fake_blas(monkeypatch)
    a = rng.integers(0, 7, (64, 65))
    for y, want in ((a[:40, :20], []), (a[:, :64], []), (a, [1, 3])):  # 64 x 64 x 64 is _SERIAL
        x = a[:, : len(y)]
        assert np.array_equal(matmul_mod(x, y, 7), x @ y % 7) and counts == want
    counts.clear()
    assert np.array_equal(matmul_mod(large[0], large[1], 7), large[0] @ large[1] % 7) and counts == []
    assert rank(small[2], 7) == 100 and counts and counts == [1, 3] * (len(counts) // 2)
    counts.clear()
    products = []
    matmul = gfp._matmul
    monkeypatch.setattr(gfp, "_matmul", lambda x, y: products.append(x.size * y.shape[-1]) or matmul(x, y))
    assert rank(large[2], 7) == 100
    assert len(counts) == 2 * sum(gfp._SERIAL < size < gfp._THREADED for size in products)
    assert max(products) == gfp._THREADED and min(products) <= gfp._SERIAL


def test_blas_lookup_that_finds_nothing_calls_nothing(monkeypatch):
    """Where numpy.libs holds no OpenBLAS, the library does not load, or it
    lacks either of the get and set functions, the lookup gives None and a
    product calls nothing in the library."""
    lookup = gfp._blas_threads.__wrapped__
    called = []

    class OnlyGet:
        def __init__(self, path):
            self.scipy_openblas_get_num_threads64_ = lambda: called.append(path) or 2

    def unloadable(path):
        raise OSError(path)

    monkeypatch.setattr(gfp.glob, "glob", lambda pattern: [])
    assert lookup() is None
    monkeypatch.setattr(gfp.glob, "glob", lambda pattern: ["libopenblas.so"])
    for library in (unloadable, OnlyGet):
        monkeypatch.setattr(gfp.ctypes, "CDLL", library)
        assert lookup() is None
    monkeypatch.setattr(gfp, "_blas_threads", lookup)
    a = np.random.default_rng(5).integers(0, 5, (20, 20))
    assert np.array_equal(matmul_mod(a, a, 5), a @ a % 5) and rank(a, 5) == len(row_reduce(a, 5)[1])
    assert called == []


@pytest.mark.skipif(gfp._blas_threads() is None, reason="numpy's OpenBLAS thread functions were not found")
def test_blas_thread_count_is_restored():
    """numpy's real OpenBLAS thread count after rank and matmul_mod, on
    products either side of _THREADED, is the count before them."""
    get = gfp._blas_threads()[0]
    before = get()
    rng = np.random.default_rng(17)
    for side in (-1, 0):
        a, b, m = _threaded_sides(3, side, rng)
        matmul_mod(a, b, 3)
        rank(m, 3)
        assert get() == before


@pytest.mark.parametrize("p", [3, 65521])
@pytest.mark.parametrize("side", [-1, 0])
def test_products_either_side_of_threaded_are_exact(p, side):
    """matmul_mod and rank where the largest product falls just below
    _THREADED multiply-adds (one OpenBLAS thread) and at it (numpy's
    threads): float32 products at p = 3, float64 at 65521, against int64
    products, which numpy takes without BLAS, and the oracle's elimination."""
    a, b, m = _threaded_sides(p, side, np.random.default_rng(p + side))
    assert np.array_equal(matmul_mod(a, b, p), a @ b % p)
    assert rank(m, p) == len(row_reduce(m, p)[1]) == 100


def _traced_peak(call):
    """call()'s result and the peak of what it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_updates_panels_in_row_blocks():
    """rank of a 2400 x 1800 int8 matrix mod 3 holds its int16 storage copy
    and, beyond it, at most the room of three int64 blocks of _BATCH
    entries (the panel copy, an update block and its coefficients): the
    panel update runs in row blocks, so no 2400 x 1800 product, larger than
    the storage copy, is ever formed."""
    a = np.random.default_rng(3).integers(-1, 2, (2400, 1800)).astype(np.int8)
    r, peak = _traced_peak(lambda: rank(a, 3))
    assert r == 1800 and peak <= 2 * a.size + 3 * 8 * gfp._BATCH


def test_kernel_keeps_no_copy_of_its_rows():
    """kernel of a reversed-column int8 view of rank 900 mod 3 holds no more
    than rank does on it and the 300 x 1200 int64 basis: the int16 storage
    copy and the elimination's workspace, then only the echelon rows'
    entries at the free columns, not an int64 copy of the 900 echelon rows.
    The basis is that of the same matrix as a contiguous int64 array."""
    a = np.random.default_rng(9).integers(-1, 2, (1500, 1200)).astype(np.int8)
    a[:, 900:] = a[:, :300]
    view = a[:, ::-1]
    want = kernel(np.ascontiguousarray(view).astype(np.int64) % 3, 3).basis
    r, rank_peak = _traced_peak(lambda: rank(view, 3))
    ker, peak = _traced_peak(lambda: kernel(view, 3))
    assert r == 900 and ker.basis.dtype == np.int64 and np.array_equal(ker.basis, want)
    assert peak <= rank_peak + 8 * ker.basis.size


def test_kernel_runs_one_elimination(monkeypatch):
    calls = []
    echelon = gfp._echelon

    def counted(arr, p, full):
        calls.append((arr.shape, full))
        return echelon(arr, p, full)

    monkeypatch.setattr(gfp, "_echelon", counted)
    a = _known_rank(np.random.default_rng(4), 90, 120, 50, 5)
    assert kernel(a, 5).dim == 70
    assert calls == [((90, 120), True)]


def test_rejects_p_beyond_int64_products():
    """Above 11863279, the largest prime p with _PANEL (p - 1)^2 < 2^53, a
    panel product leaves float64's exact range; rank, rref, kernel and
    matmul_mod refuse such p, naming the limit, before any primality test
    (2^61 - 1 used to hang in trial division) or elimination."""

    def rank_two(p):
        a = np.array([[p - 1, p - 2, p - 3], [p - 5, p - 7, p - 11], [0, 0, 0]], dtype=np.int64)
        a[2] = (a[0] + a[1]) % p
        return a

    for p in (11863289, 4294967311, 2**61 - 1):
        for call in (rank, rref, kernel, lambda a, p: matmul_mod(a, a.T, p)):
            with pytest.raises(ValueError, match="11863279"):
                call(rank_two(p), p)
    p = gfp._P_MAX
    assert max(q for q in range(p, isqrt((2**53 - 1) // gfp._PANEL) + 2) if _is_prime(q)) == p == 11863279
    assert rank(rank_two(p), p) == 2
    _assert_matches_reference(rank_two(p), p)


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(1)
    for p in (3, 5):
        a = rng.integers(0, p, (12, 20))
        ker = kernel(a, p)
        assert not np.any(matmul_mod(a, ker.basis.T, p))


def test_inv_mod():
    """Inverting through the reduced echelon form of [A | I], by kernel's
    elimination; 100 x 100 runs past one panel."""
    rng = np.random.default_rng(2)
    for p, k in ((3, 6), (7, 6), (5, 100)):
        a = _known_rank(rng, k, k, k, p)
        red, pivots = rref(np.concatenate([a, np.eye(k, dtype=np.int64)], axis=1), p)
        assert pivots == list(range(k))
        inv = red[:, k:]
        assert np.array_equal(matmul_mod(a, inv, p), np.eye(k, dtype=np.int64))
        assert inv.tolist() == inverse_by_hand(a.tolist(), p)


def test_fixed_space_of_cycle_is_constants():
    n, p = 6, 5
    cyc = from_cycles(n, tuple(range(n)))
    basis = subset_basis(n, 1)
    mat = perm_matrix(basis.act(cyc))
    fs = fixed_space([mat], n, p)
    assert fs.dim == 1
    assert contains(fs, [1] * n)


def test_fixed_space_no_generators_is_everything():
    assert fixed_space([], 5, 3).dim == 5


def test_fixed_space_generator_independence():
    """Order of generators and generators-vs-whole-group give the same fixed
    space, on groups of order <= 48 via closure."""
    n, p = 4, 3
    basis = subset_basis(n, 2)
    gens = [from_cycles(n, (0, 1)), from_cycles(n, (0, 1, 2, 3))]
    group = closure(gens)
    assert len(group) == 24
    mats = [perm_matrix(basis.act(g)) for g in gens]
    dim = len(basis)
    a = fixed_space(mats, dim, p)
    b = fixed_space(mats[::-1], dim, p)
    c = fixed_space([perm_matrix(basis.act(g)) for g in sorted(group)], dim, p)
    assert a.basis.tolist() == b.basis.tolist() == c.basis.tolist()


def _random_stable_pair(rng, n, p):
    """An index permutation g and a g-stable subspace W: the span of the
    g-orbits of a few random vectors."""
    g = rng.permutation(n)
    vecs = []
    for v in rng.integers(0, p, (int(rng.integers(0, 3)), n)):
        for _ in range(n):
            vecs.append(v)
            v = v[np.argsort(g)]  # coordinate j goes to g[j]
    return g, subspace_from_rows(np.array(vecs, dtype=np.int64).reshape(-1, n), n, p)


def test_quotient_action_commutes_with_projection():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        p = int(rng.choice([2, 3, 5, 7]))
        g, w = _random_stable_pair(rng, n, p)
        q = quotient_action(g, w)
        proj = quotient_projection(w)
        assert q.shape == (n - w.dim, n - w.dim)
        assert np.array_equal(matmul_mod(q, proj, p), matmul_mod(proj, perm_matrix(g), p))


def test_quotient_action_trivial_cases():
    p = 5
    g = np.array([2, 0, 1])
    zero = subspace_from_rows(np.zeros((0, 3), dtype=np.int64), 3, p)
    assert np.array_equal(quotient_action(g, zero), perm_matrix(g))
    full = subspace_from_rows(np.eye(3, dtype=np.int64), 3, p)
    assert quotient_action(g, full).shape == (0, 0)


def test_quotient_action_rejects_unstable():
    p = 3
    w = subspace_from_rows(np.array([[1, 0, 0]]), 3, p)
    with pytest.raises(ValueError, match="not stable"):
        quotient_action(from_cycles(3, (0, 1)), w)
    with pytest.raises(ValueError, match="permutation"):
        quotient_action([0, 0, 1], w)


def test_rref_is_canonical():
    p = 5
    a = np.array([[2, 4, 1], [1, 2, 0]])
    red, pivots = rref(a, p)
    assert pivots == [0, 2]
    # pivot columns are unit vectors
    for r, c in enumerate(pivots):
        col = red[:, c]
        assert col[r] == 1 and np.count_nonzero(col) == 1
