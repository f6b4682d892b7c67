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
    perm_matrix,
    quotient_action,
    quotient_projection,
    subspace_from_rows,
)
from spinrest import gfp
from spinrest.gfp import kernel, matmul_mod, rank, rref
from spinrest.specht import eta, from_cycles, subset_basis

# primes for the differential tests; the last one is above 2^31, where
# matmul_mod leaves float64 BLAS for exact object arithmetic
PRIMES = [2, 3, 7, 65521, 2147483659]


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


def _assert_matches_reference(a, p):
    n = a.shape[1]
    want_red, want_pivots = gauss_jordan(a.tolist(), n, p)
    red, pivots = rref(a, p)
    assert pivots == want_pivots
    assert red.shape == (len(want_pivots), n) and red.tolist() == want_red
    assert rank(a, p) == len(want_pivots)
    ker = kernel(a, p)
    assert ker.basis.shape == (n - len(want_pivots), n)
    assert ker.basis.tolist() == kernel_by_hand(a.tolist(), n, p)
    assert not np.any(matmul_mod(a, ker.basis.T, p))


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
    product update run, at a small prime and at one above 2^31."""
    rng = np.random.default_rng(11)
    for m, n, p in ((100, 90, 3), (100, 90, 2147483659), (70, 140, 3), (140, 70, 2147483659)):
        _assert_matches_reference(_random_matrix(rng, m, n, p), p)
        _assert_matches_reference(_known_rank(rng, m, n, min(m, n) // 3, p), p)


# primes at which an int64 entry absorbs only K = 1, 2 and 3 unreduced
# rank-one updates, so the elimination core reduces inside every panel
FEW_UPDATE_PRIMES = {3037000493: 1, 2099999999: 2, 1749999991: 3}


def _swap_heavy(rng, m, n, p):
    """An m x n matrix whose pivots sit in the bottom rows, so nearly every
    pivot of the elimination is a row swap."""
    a = np.triu(rng.integers(0, p, (m, n)))
    a[np.arange(min(m, n)), np.arange(min(m, n))] = rng.integers(1, p, min(m, n))
    return a[::-1].copy()


def test_delayed_reduction_matches_reference():
    """Shapes past one panel with many row swaps, at primes where the
    scalar loop must reduce the panel after every 1, 2 or 3 pivots."""
    rng = np.random.default_rng(5)
    for p, k in FEW_UPDATE_PRIMES.items():
        assert (gfp._INT64_MAX - p) // (p - 1) ** 2 == k
        _assert_matches_reference(_swap_heavy(rng, 100, 80, p), p)
        _assert_matches_reference(_swap_heavy(rng, 70, 110, p), p)
        _assert_matches_reference(_known_rank(rng, 80, 90, 60, p), p)


# adjacent primes on either side of the exact range of the float32 and the
# float64 storage of the elimination core: _PANEL (p - 1)^2 against 2^24 and 2^53
STORAGE_PRIMES = {509: np.float32, 521: np.float64, 11863279: np.float64, 11863289: np.int64}


@pytest.mark.parametrize("p", sorted(STORAGE_PRIMES))
def test_storage_tiers_match_reference(p):
    """Shapes past several panels, with many row swaps and with a known rank,
    at the primes next to each storage limit.  At 509 and 11863279 one full
    panel product nearly fills the exact range, so the matrix is reduced
    after every panel; unreduced, the 420 x 400 matrix there would leave it
    after about four panels.  That one is too large for the reference
    elimination and is checked by its known rank and exact identities."""
    assert gfp._exact_type(gfp._PANEL * (p - 1) ** 2)[0] is STORAGE_PRIMES[p]
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


@pytest.mark.parametrize("limit", [2**24, 2**53])
def test_matmul_mod_tiers_match_object_products(limit):
    """Inner products just below and just above the exact range of float32
    (2^24) and float64 (2^53).  The factors are given unreduced and negative
    too, so the check that skips the reducing copy must still reduce them;
    a = b.T exercises the symmetric Gram product."""
    rng = np.random.default_rng(limit % 1000)
    p = {2**24: 2039, 2**53: 47453111}[limit]
    below = (limit - 1) // (p - 1) ** 2
    narrow = np.float32 if limit == 2**24 else np.float64
    for k in (below, below + 1):
        a = rng.integers(p - p // 8, p, (6, k))
        b = rng.integers(p - p // 8, p, (k, 7))
        want = (a.astype(object) @ b.astype(object)) % p
        if k > below:  # the narrower type would round these sums
            assert not np.array_equal(np.mod((a.astype(narrow) @ b.astype(narrow)).astype(np.int64), p), want)
        for shift_a, shift_b in ((0, 0), (p, -p), (-3 * p, 5 * p)):
            got = matmul_mod(a + shift_a, b + shift_b, p)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert matmul_mod(b.T, b, p).tolist() == ((b.T.astype(object) @ b.astype(object)) % p).tolist()
        assert matmul_mod((b - p).T, b - p, p).tolist() == matmul_mod(b.T, b, p).tolist()


def test_kernel_runs_one_rref(monkeypatch):
    calls = []

    def counted(arr, p):
        calls.append(arr.shape)
        return rref(arr, p)

    monkeypatch.setattr(gfp, "rref", counted)
    a = _known_rank(np.random.default_rng(4), 90, 120, 50, 5)
    assert kernel(a, 5).dim == 70
    assert calls == [(90, 120)]


def test_rejects_p_beyond_int64_products():
    """(p-1)^2 overflows int64 above isqrt(2^63 - 1) = 3037000499; such p are
    refused before any primality test or elimination."""

    def rank_two(p):
        a = np.array([[p - 1, p - 2, p - 3], [p - 5, p - 7, p - 11], [0, 0, 0]], dtype=np.int64)
        a[2] = (a[0] + a[1]) % p
        return a

    for p in (4294967311, 2**61 - 1):
        for call in (rank, rref, kernel):
            with pytest.raises(ValueError, match="3037000499"):
                call(rank_two(p), p)
    p = 3037000493  # the largest prime below the limit
    assert rank(rank_two(p), p) == 2
    _assert_matches_reference(rank_two(p), p)


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(1)
    for p in (3, 5):
        a = rng.integers(0, p, (12, 20))
        ker = kernel(a, p)
        assert not np.any(matmul_mod(a, ker.basis.T, p))


def test_inv_mod():
    """Inverting through rref of [A | I], the way the elimination core
    inverts its pivot blocks; 100 x 100 runs past one panel."""
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
    assert a == b == c


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
