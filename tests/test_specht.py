from math import comb, factorial

import numpy as np
import pytest

from itertools import combinations, permutations

from oracles import (
    closure,
    contingency_count,
    dual_specht_invariant_dim_by_hand,
    dual_specht_invariant_dim_by_quotients,
    fixed_space,
    gauss_jordan,
    multinomial_rank,
    partitions_by_recursion,
    perm_matrix,
    polytabloids_by_hand,
    residue,
    specht_perp,
)
from spinrest.gfp import matmul_mod
from spinrest.specht import (
    SubgroupSpec,
    alt_young,
    dual_specht_invariant_dim,
    eta,
    generators,
    gram_irreducibility,
    hook_dimension,
    index2_wr_b2,
    orbit_basis,
    orbit_count,
    perm_basis,
    perm_sign,
    polytabloid_matrix,
    shape_from_tail,
    standard_tableaux,
    subset_basis,
    wilson_rank,
    wreath,
    wreath_alt,
    young,
    z_invariant_dim,
)


# ---------------------------------------------------------------------------
# Generating sets, validated by closure orders
# ---------------------------------------------------------------------------


def test_young_generator_closure():
    assert len(closure(generators(young(5, (5,))))) == 120
    assert len(closure(generators(young(5, (3, 2))))) == 12
    assert len(closure(generators(young(6, (2, 2, 2))))) == 8


def test_alt_young_generator_closure():
    assert len(closure(generators(alt_young(5, (5,))))) == 60
    assert len(closure(generators(alt_young(5, (3, 2))))) == 6
    assert len(closure(generators(alt_young(4, (2, 2))))) == 2
    assert len(closure(generators(alt_young(6, (3, 3))))) == 18
    for spec in (alt_young(5, (3, 2)), alt_young(6, (3, 3)), alt_young(6, (2, 2, 2))):
        assert all(perm_sign(g) == 1 for g in closure(generators(spec)))


def test_wreath_generator_closure():
    assert len(closure(generators(wreath(2, 3)))) == 2**3 * 6
    assert len(closure(generators(wreath(3, 2)))) == 36 * 2
    assert len(closure(generators(wreath(2, 4)))) == 2**4 * 24


def test_wreath_alt_closure():
    for a, b in ((2, 3), (3, 2), (2, 4)):
        full = closure(generators(wreath(a, b)))
        even = closure(generators(wreath_alt(a, b)))
        assert even == {g for g in full if perm_sign(g) == 1}


def test_index2_subgroups():
    b = 3
    full = closure(generators(wreath(b, 2)))
    assert len(full) == 72
    blockwise = {g for g in full if all(g[i] < b for i in range(b))}
    assert len(blockwise) == 36  # S_{3,3}
    variants = []
    for v in (1, 2):
        h = closure(generators(index2_wr_b2(v, b)))
        assert len(h) == 36
        assert h < full
        assert h != blockwise
        # transitive on the 6 points
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in h:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        assert orbit == set(range(6))
        # meets S_{b,b} in its even part
        assert {g for g in h if all(g[i] < b for i in range(b))} == {
            g for g in blockwise if perm_sign(g) == 1
        }
        variants.append(h)
    assert variants[0] != variants[1]


# ---------------------------------------------------------------------------
# Bases, orbit counting
# ---------------------------------------------------------------------------


def test_perm_basis_counts():
    assert len(perm_basis((4, 2))) == 15
    assert len(perm_basis((3, 2, 1))) == 60
    assert len(subset_basis(6, 0)) == 1


def _word_index(basis) -> dict:
    return {tuple(int(a) for a in w): i for i, w in enumerate(basis.words)}


def test_perm_basis_words_are_sorted_multiset_permutations():
    for n in range(0, 7):
        for shape in partitions_by_recursion(n):
            basis = perm_basis(shape)
            content = [a for a, part in enumerate(shape) for _ in range(part)]
            assert basis.words.tolist() == [list(w) for w in sorted(set(permutations(content)))]
            assert basis.words.dtype == np.int8 and not basis.words.flags.writeable
            assert np.array_equal(basis.index_of(basis.words), np.arange(len(basis)))


def test_index_of_matches_multinomial_rank():
    """Binary search in the sorted basis ranks batches of permuted words as
    the closed-form rank does, for every shape with n <= 8."""
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for shape in partitions_by_recursion(n):
            basis = perm_basis(shape)
            picked = basis.words[rng.integers(len(basis), size=60)]
            words = rng.permuted(picked, axis=1)  # still tabloids of this shape
            for batch in ((60,), (6, 10), (0,)):
                batched = words[: int(np.prod(batch))].reshape(*batch, n)
                got = basis.index_of(batched)
                assert got.shape == batch
                assert np.array_equal(got, multinomial_rank(batched, shape)), (shape, batch)


def test_index_of_on_the_empty_shape():
    """M^() has one tabloid, the empty word, at position 0."""
    basis = perm_basis(())
    assert basis.words.shape == (1, 0)
    assert np.array_equal(basis.index_of(basis.words), [0])
    assert basis.index_of(np.zeros((2, 3, 0), dtype=np.int8)).shape == (2, 3)
    assert orbit_count(SubgroupSpec("full_sym", 0), basis) == 1


def test_long_words_rank_without_overflow():
    """(18,1,1,1,1) has 22-letter words over 5 labels, past what a packed
    64-bit key of 3 bits per label holds; the orbit count of S(11,11) on
    them still matches the contingency tables."""
    basis = perm_basis((18, 1, 1, 1, 1))
    assert np.array_equal(basis.index_of(basis.words[::997]), np.arange(0, len(basis), 997))
    assert orbit_count(young(22, (11, 11)), basis) == contingency_count((11, 11), (18, 1, 1, 1, 1))


def test_perm_basis_refuses_beyond_physical_memory(monkeypatch):
    """(1^14) has 14! tabloids, about 8 TB at the last level: with 8 GB of
    physical memory it is refused before the first level is built."""
    from spinrest import specht

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2_000_000}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(specht.np, "concatenate", _unreachable)
    with pytest.raises(ValueError, match=r"the tabloids of \(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1\) needs about .* \(m = 87178291200 tabloids\), more than the 8\.2 GB"):
        perm_basis((1,) * 14)


def test_act_matches_moving_entries():
    """g t has entry g[x] in the row of entry x of t."""
    rng = np.random.default_rng(5)
    for shape in ((3, 2, 1), (4, 4), (2, 2, 1, 1)):
        basis = perm_basis(shape)
        index = _word_index(basis)
        for _ in range(5):
            g = tuple(int(x) for x in rng.permutation(basis.n))
            img = basis.act(g)
            for j, w in enumerate(basis.words.tolist()):
                moved = [0] * basis.n
                for x, row in enumerate(w):
                    moved[g[x]] = row
                assert img[j] == index[tuple(moved)]


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: orbit_count(spec, perm_basis((4, 3))),
        lambda spec: orbit_basis(spec, perm_basis((4, 3))),
        lambda spec: z_invariant_dim(3, 7, 3, spec),
        lambda spec: dual_specht_invariant_dim((2, 1, 1, 1, 1, 1), 3, spec),
    ],
    ids=["orbit_count", "orbit_basis", "z_invariant_dim", "dual_specht_invariant_dim"],
)
def test_wrong_subgroup_degree_is_a_value_error(call):
    """W(2,4) permutes 8 points and cannot act on tabloids with 7 entries."""
    with pytest.raises(ValueError, match="degree 8 .* degree 7"):
        call(wreath(2, 4))


def test_orbit_count_is_a_contingency_count():
    """S_mu has as many orbits on shape-lambda tabloids as there are
    matrices with row sums mu and column sums lambda."""
    for n in range(0, 8):
        for lam in partitions_by_recursion(n):
            basis = perm_basis(lam)
            for mu in partitions_by_recursion(n):
                assert orbit_count(young(n, mu), basis) == contingency_count(mu, lam), (lam, mu)


def test_orbit_basis_rows_are_orbits():
    basis = perm_basis((3, 2, 1))
    spec = wreath(2, 3)
    rows = orbit_basis(spec, basis)
    assert rows.shape[0] == orbit_count(spec, basis)
    assert np.array_equal(rows.sum(axis=0), np.ones(len(basis)))
    # numbered by smallest index, and closed under every generator
    firsts = [int(np.flatnonzero(r)[0]) for r in rows]
    assert firsts == sorted(firsts)
    for g in generators(spec):
        img = basis.act(g)
        for r in rows:
            assert np.array_equal(r[img], r)


def test_orbit_count_examples():
    # stabilizer of a 3-subset acting on 3-subsets has 4 orbits
    for n, m in ((8, 3), (9, 4), (10, 3)):
        assert orbit_count(young(n, (n - m, m)), subset_basis(n, 3)) == 4
    # wreath subgroups on 4-subsets
    for b in (5, 6, 7, 8):
        assert orbit_count(wreath(2, b), subset_basis(2 * b, 4)) == 3
        assert orbit_count(wreath(b, 2), subset_basis(2 * b, 4)) == 3
    # three-row shape (n-3, 2, 1) under W_{2,6}
    assert orbit_count(wreath(2, 6), perm_basis(shape_from_tail(12, (2, 1)))) == 3


def test_shape_from_tail_sorts_compositions():
    assert shape_from_tail(10, (5, 1)) == (5, 4, 1)
    assert shape_from_tail(12, (2, 2, 2)) == (6, 2, 2, 2)
    with pytest.raises(ValueError):
        shape_from_tail(4, (3, 2))


# ---------------------------------------------------------------------------
# Polytabloids, Specht modules, invariants
# ---------------------------------------------------------------------------


def test_hook_dimension():
    assert hook_dimension((4, 2)) == 9
    assert hook_dimension((6, 4, 2)) == 2673
    assert hook_dimension((3, 2, 1)) == 16
    assert len(standard_tableaux((3, 2))) == 5


def test_polytabloid_matrix_rank_is_standard_count():
    """Standard polytabloids stay independent over GF(p)."""
    for shape, p in (((4, 2), 3), ((5, 1), 3), ((4, 4), 5), ((3, 2, 1), 3)):
        e = polytabloid_matrix(shape, p)
        assert e.shape == (len(perm_basis(shape)), hook_dimension(shape))
        assert e.rank() == hook_dimension(shape)


def test_polytabloid_matrix_matches_brute_force():
    for n in range(0, 7):
        for shape in partitions_by_recursion(n):
            basis = perm_basis(shape)
            index = _word_index(basis)
            want = np.zeros((len(basis), hook_dimension(shape)), dtype=np.int64)
            for j, vec in enumerate(polytabloids_by_hand(shape)):
                for tabloid, coeff in vec.items():
                    word = [0] * n
                    for r, row in enumerate(tabloid):
                        for x in row:
                            word[x] = r
                    want[index[tuple(word)], j] = coeff % 7
            assert np.array_equal(polytabloid_matrix(shape, 7).array, want), shape


def test_eta_matches_subset_incidence():
    for n, k, l in ((7, 1, 3), (8, 3, 2), (8, 4, 4), (6, 0, 2), (6, 2, 0)):
        kb, lb = _word_index(subset_basis(n, k)), _word_index(subset_basis(n, l))

        def word(subset):
            return tuple(int(x in subset) for x in range(n))

        want = np.zeros((len(lb), len(kb)), dtype=np.int64)
        for x in combinations(range(n), k):
            for y in combinations(range(n), l):
                if set(x) <= set(y) or set(y) <= set(x):
                    want[lb[word(y)], kb[word(x)]] = 1
        assert np.array_equal(eta(k, l, n, 5).array, want)


def test_specht_perp_dims():
    assert specht_perp((5, 1), 3).dim == 1
    assert specht_perp((4, 2), 3).dim == 15 - 9


def _unreachable(*args, **kwargs):
    raise AssertionError("the request should have been refused before this call")


def test_dual_specht_refuses_beyond_physical_memory(monkeypatch):
    """With 1 GB of physical memory, (6,4,2) under W(2,6) (E and six
    2673 x 2673 blocks, about 1.3 GB) is refused before any basis or matrix
    is built, and (5,3,2) under W(2,5) (about 33 MB) still runs."""
    from spinrest import specht

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 250_000}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    with monkeypatch.context() as patch:
        patch.setattr(specht, "perm_basis", _unreachable)
        patch.setattr(specht, "polytabloid_matrix", _unreachable)
        with pytest.raises(ValueError, match=r"needs about 1\.3 GB \(m = 13860 tabloids, dim S = 2673\)"):
            dual_specht_invariant_dim((6, 4, 2), 3, wreath(2, 6))
    assert dual_specht_invariant_dim((5, 3, 2), 3, wreath(2, 5)) == 0


def test_dual_specht_counts_the_tabloid_basis_against_memory(monkeypatch):
    """(1^12) under W(2,6) has d = 1, so E and the blocks take under 4 GB,
    but its 12! tabloids and column permutations need far more: with 8 GB
    of physical memory it is refused before any basis is built."""
    from spinrest import specht

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2_000_000}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(specht, "perm_basis", _unreachable)
    monkeypatch.setattr(specht, "polytabloid_matrix", _unreachable)
    with pytest.raises(ValueError, match=r"\(m = 479001600 tabloids, dim S = 1\), more than the 8\.2 GB"):
        dual_specht_invariant_dim((1,) * 12, 3, wreath(2, 6))


@pytest.mark.parametrize(
    "shape, spec",
    [((2, 1, 1, 1, 1, 1, 1, 1), young(9, (3, 3, 3))), ((2, 2, 2, 1, 1, 1), young(9, (9,))), ((3, 3, 2, 1), wreath(3, 3))],
)
def test_dual_specht_memory_bound_holds(shape, spec):
    """The bytes the refusal is based on cover what the computation
    allocates, tabloid basis included, as traced by tracemalloc."""
    import tracemalloc

    from spinrest import specht

    n = sum(shape)
    m = factorial(n) // np.prod([factorial(part) for part in shape])
    bound = specht._dual_specht_bytes(shape, m, hook_dimension(shape), len(generators(spec)))
    specht.perm_basis.cache_clear()
    tracemalloc.start()
    try:
        dual_specht_invariant_dim(shape, 3, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_orbits_refuse_beyond_physical_memory(monkeypatch):
    """Orbit labels need two int64 index arrays per generator over the
    tabloids, and orbit sums an (orbits x m) matrix; both are refused when
    they exceed physical memory."""
    from spinrest import specht

    basis = perm_basis((3, 3, 2, 1))
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    with pytest.raises(ValueError, match=r"the orbits of S\(9,\) needs about .* \(m = 5040 tabloids\)"):
        orbit_count(young(9, (9,)), basis)
    pages["SC_PHYS_PAGES"] = 2_000
    with pytest.raises(ValueError, match=r"orbit sums of S\(2, 2, 2, 2, 1\) .* \(644 orbits on m = 5040 tabloids\)"):
        orbit_basis(young(9, (2, 2, 2, 2, 1)), basis)


def test_dual_specht_checks_the_degree_first(monkeypatch):
    """A subgroup of the wrong degree is refused before E is built."""
    from spinrest import specht

    monkeypatch.setattr(specht, "polytabloid_matrix", _unreachable)
    with pytest.raises(ValueError, match=r"degree 10 .* \(6, 4, 2\), of degree 12"):
        dual_specht_invariant_dim((6, 4, 2), 3, wreath(2, 5))


def test_specht_perp_stable_under_symmetric_group():
    shape, p = (4, 2), 3
    w = specht_perp(shape, p)
    basis = perm_basis(shape)
    for g in generators(young(6, (6,))):
        image = matmul_mod(perm_matrix(basis.act(g)), w.basis.T, p).T
        assert not np.any(residue(w, image))


def test_dual_specht_trivial_subgroup_dimension():
    for n in (6, 8):
        triv = SubgroupSpec("trivial", n)
        assert dual_specht_invariant_dim((n - 2, 2), 3, triv) == n * (n - 3) // 2


def _every_kind(n: int) -> list:
    """One subgroup of each kind for even n, both index-2 variants included."""
    b = n // 2
    return [
        young(n, (n - 2, 2)),
        alt_young(n, (b, n - b)),
        wreath(2, b),
        wreath(b, 2),
        wreath_alt(2, b),
        wreath_alt(b, 2),
        index2_wr_b2(1, b),
        index2_wr_b2(2, b),
        SubgroupSpec("full_sym", n),
        SubgroupSpec("full_alt", n),
        SubgroupSpec("trivial", n),
    ]


def test_dual_specht_matches_quotient_route():
    """The d x d standard-tabloid blocks against the fixed space of the
    quotient matrices on M / (S^perp), for every subgroup kind: every shape
    of 6 at p = 2 and 3, and the shapes of 8 with at most 420 tabloids at
    p = 2 or 5."""
    kinds = {spec.kind for spec in _every_kind(6)}
    assert kinds == {"young", "alt_young", "wreath", "wreath_alt", "index2_wr_b2", "full_sym", "full_alt", "trivial"}
    for shape in partitions_by_recursion(6):
        for p in (2, 3):
            for spec in _every_kind(6):
                want = dual_specht_invariant_dim_by_quotients(shape, p, spec)
                assert dual_specht_invariant_dim(shape, p, spec) == want, (shape, p, str(spec))
    for shape in partitions_by_recursion(8):
        if len(perm_basis(shape)) > 420:
            continue
        for i, spec in enumerate(_every_kind(8)):
            p = (2, 5)[i % 2]
            want = dual_specht_invariant_dim_by_quotients(shape, p, spec)
            assert dual_specht_invariant_dim(shape, p, spec) == want, (shape, p, str(spec))


def test_dual_specht_matches_hand_polytabloids():
    """d - rank of the maps v -> E^T (g v - v), on polytabloids built from all
    fillings and ranked by textbook Gauss-Jordan, for every shape with
    n <= 5."""
    for n in range(1, 6):
        specs = [SubgroupSpec("full_sym", n), SubgroupSpec("full_alt", n), SubgroupSpec("trivial", n)]
        specs += [young(n, (n - 1, 1))] if n > 1 else []
        for shape in partitions_by_recursion(n):
            for p in (2, 3, 5):
                for spec in specs:
                    want = dual_specht_invariant_dim_by_hand(shape, p, generators(spec))
                    assert dual_specht_invariant_dim(shape, p, spec) == want, (shape, p, str(spec))


def test_dual_specht_4222_under_w25_mod_5():
    """S^(4,2,2,2) is irreducible mod 5 and so self-dual: the invariant
    dimension is dim (D^alpha)^W, which the p = 5 orbit identity of inv42
    puts at 1."""
    assert dual_specht_invariant_dim((4, 2, 2, 2), 5, wreath(2, 5)) == 1


def test_dual_specht_parity_pattern_large_p():
    """For p > k the invariant dimension only sees the parity of k."""
    for b in (5, 6):
        for p in (5, 7):
            for spec in (wreath(2, b), wreath(b, 2)):
                for k in range(0, 5):
                    want = 1 - k % 2
                    assert dual_specht_invariant_dim((2 * b - k, k), p, spec) == want


def test_z_invariant_examples():
    for b in (5, 6):
        for spec in (wreath(2, b), wreath(b, 2)):
            assert z_invariant_dim(2, 2 * b, 3, spec) == (1, 2, True)
    # intransitive stabilizers: dim Z_3 <= 3 against 4 orbits
    for n, m in ((9, 3), (10, 4)):
        z, mh, gap = z_invariant_dim(3, n, 3, young(n, (n - m, m)))
        assert mh == 4 and z <= 3 and gap


def test_eta_examples():
    assert eta(2, 2, 8, 3).array.tolist() == np.eye(comb(8, 2), dtype=int).tolist()
    e = eta(1, 2, 4, 3)
    assert e.shape == (6, 4)
    assert sorted(e.array.sum(axis=0).tolist()) == [3, 3, 3, 3]


def test_wilson_rank_matches_eta_small():
    for n in (6, 8, 9):
        for l in range(0, min(4, n // 2) + 1):
            for k in range(0, l + 1):
                for p in (3, 5):
                    assert eta(k, l, n, p).rank() == wilson_rank(k, l, n, p), (k, l, n, p)


def test_wilson_rank_full_at_equal_indices():
    for n in (8, 10):
        for k in range(0, n // 2 + 1):
            for p in (3, 5, 7):
                assert wilson_rank(k, k, n, p) == comb(n, k)


def test_filtration_bookkeeping():
    """Dual Specht layers of M_k have char-0 dimensions in every odd
    characteristic, so their sizes telescope to binomials."""
    for n in (10, 12):
        for p in (3, 5):
            total = 0
            for j in range(0, 5):
                rank_j = polytabloid_matrix((n - j, j) if j else (n,), p).rank()
                assert rank_j == comb(n, j) - (comb(n, j - 1) if j else 0)
                total += rank_j
            assert total == comb(n, 4)


def test_gram_criterion_examples():
    assert gram_irreducibility((6,), 5)
    assert not gram_irreducibility((1, 1, 1), 3)  # sign column, |C_t| = 3! = 0 mod 3
    assert not gram_irreducibility((4, 2), 5)  # the (1,1)-hook has length 5
    # the Gram matrix of S^(n-1,1) is I + J, of determinant n
    for n in range(3, 13):
        for p in (2, 3, 5, 7):
            assert gram_irreducibility((n - 1, 1), p) == (n % p != 0), (n, p)


def test_gram_criterion_matches_hand_gram_matrix():
    """The Gram matrix of the hand-built polytabloids, ranked by textbook
    Gauss-Jordan, for every shape with n <= 6."""
    for n in range(1, 7):
        for shape in partitions_by_recursion(n):
            vecs = polytabloids_by_hand(shape)
            gram = [[sum(c * v.get(t, 0) for t, c in u.items()) for v in vecs] for u in vecs]
            for p in (2, 3, 5):
                want = len(gauss_jordan(gram, len(vecs), p)[1]) == len(vecs)
                assert gram_irreducibility(shape, p) == want, (shape, p)


def test_multinomial_and_fixed_space_agree():
    """dim M^shape is the tabloid count and the H-fixed dimension matches the
    orbit count through the actual matrices."""
    shape, p = (4, 2, 1), 3
    basis = perm_basis(shape)
    assert len(basis) == factorial(7) // (factorial(4) * factorial(2))
    spec = wreath(2, 3)  # W_{2,3} inside S_6 <= S_7 is not defined; use Young
    spec = young(7, (4, 3))
    mats = [perm_matrix(basis.act(g)) for g in generators(spec)]
    assert fixed_space(mats, len(basis), p).dim == orbit_count(spec, basis)
