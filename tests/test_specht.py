import re
from math import comb, factorial, prod

import numpy as np
import pytest

from itertools import combinations, permutations

from oracles import (
    carter_irreducible,
    closure,
    contingency_count,
    coxeter_generators,
    dense_polytabloid_matrix,
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
    z_invariant_dim_by_hand,
)
from spinrest.gfp import matmul_mod, rank
from spinrest.specht import (
    SubgroupSpec,
    _standard_tabloids,
    alt_young,
    dual_specht_invariant_dim,
    eta,
    generators,
    gram_irreducibility,
    hook_dimension,
    index2_wr_b2,
    orbit_count,
    parse_spec,
    perm_basis,
    perm_sign,
    polytabloid_matrix,
    shape_from_tail,
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


def _compositions(n: int):
    """Every composition of n, one per subset of the n - 1 cut points."""
    for cuts in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 0
            run += 1
        yield tuple(parts + [run])


def _specs_of_degree(n: int) -> list:
    """Every subgroup spec of degree n: Young and alternating-Young on every
    composition, among them the whole group S(n), A(n) and the trivial group
    S(1,...,1), every wreath product and its even part, and both index-2
    variants."""
    specs = [f(n, c) for c in _compositions(n) for f in (young, alt_young)]
    for a in range(2, n // 2 + 1):
        if n % a == 0:
            specs += [wreath(a, n // a), wreath_alt(a, n // a)]
    if n % 2 == 0 and n >= 4:
        specs += [index2_wr_b2(1, n // 2), index2_wr_b2(2, n // 2)]
    return specs


@pytest.mark.parametrize("n", range(1, 9))
def test_generators_match_coxeter_sets(n):
    """The small generating sets generate the same group as the Coxeter-style
    sets of the oracle, for every kind of subgroup of degree n."""
    for spec in _specs_of_degree(n):
        assert closure(generators(spec)) == closure(coxeter_generators(spec)), spec


@pytest.mark.parametrize("n", range(1, 9))
def test_spec_survives_printing_and_parsing(n):
    """str(spec) is the CLI spelling, and parse_spec reads it back."""
    for spec in _specs_of_degree(n):
        assert parse_spec(str(spec), n) == spec, str(spec)


def test_subgroup_specs_have_five_kinds_and_one_degree_check():
    """Five kinds, printed without spaces or a trailing comma; the parser
    names the expected form, and checks the degree of every kind against n."""
    assert {spec.kind for spec in _specs_of_degree(8)} == {"young", "alt_young", "wreath", "wreath_alt", "index2_wr_b2"}
    for kind in ("full_sym", "full_alt", "trivial"):
        with pytest.raises(ValueError, match=f"unknown subgroup kind '{kind}'"):
            SubgroupSpec(kind, 6)
    with pytest.raises(ValueError, match=r"W\(2,3\) names no subgroup of S_5"):
        SubgroupSpec("wreath", 5, (2, 3))
    assert [str(s) for s in (young(5, (3, 2)), alt_young(10, (10,)), young(0, ()))] == ["S(3,2)", "A(10)", "S()"]
    assert parse_spec(" S(3, 2) ", 5) == young(5, (3, 2))
    malformed = (("S(3,0)", "S(b1,...,bk)"), ("W(1,6)", "W(a,b)"), ("I2(3,3)", "I2(v,b)"), ("WA(2,3,1)", "WA(a,b)"))
    for text, form in malformed:
        with pytest.raises(ValueError, match=re.escape(f"cannot parse subgroup {text!r}: expected {form}")):
            parse_spec(text, 6)
    for text, degree in (("S(3,2)", 5), ("A(7)", 7), ("W(2,5)", 10), ("WA(3,3)", 9), ("I2(1,4)", 8)):
        with pytest.raises(ValueError, match=re.escape(f"subgroup {text} acts on {degree} points, but n = 6")):
            parse_spec(text, 6)
    for text in ("Sn", "X(3,3)", "S", "S6"):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse subgroup {text!r}")):
            parse_spec(text, 6)


def test_generator_counts_are_bounded():
    """At most 2 generators per Young block, plus one double transposition
    per pair of adjacent blocks for the even part; at most 4 for S_a wr S_b
    and 8 for its even part."""
    for n in range(1, 13):
        for blocks in ((n,), (n - 1, 1), (n // 2, n - n // 2), (1,) * n, (2,) * (n // 2) + (1,) * (n % 2)):
            blocks = tuple(b for b in blocks if b)
            assert len(generators(young(n, blocks))) == sum(min(b - 1, 2) for b in blocks)
            assert len(generators(alt_young(n, blocks))) <= 2 * len(blocks) + len(blocks) - 1
    for a in range(2, 7):
        for b in range(2, 7):
            assert len(generators(wreath(a, b))) <= 4
            assert len(generators(wreath_alt(a, b))) <= 8
    assert len(generators(wreath(3, 3))) == 4


def _orbit_cases() -> list:
    """The li and special-inv grids, and seeded Young and alternating-Young
    specs with n <= 12 and at most 5000 tabloids."""
    from spinrest.suites import _SPECIAL_INV

    cases = [(spec, (2 * b - k, k)) for b in range(5, 9) for spec in (wreath(2, b), wreath(b, 2)) for k in range(b + 1)]
    cases += [(wreath(2, b), shape_from_tail(2 * b, tail)) for b in (5, 6) for tail in _SPECIAL_INV]
    rng = np.random.default_rng(11)
    for n in range(4, 13):
        shapes = [lam for lam in partitions_by_recursion(n) if factorial(n) // prod(map(factorial, lam)) <= 5000]
        blocks = list(_compositions(n))
        for _ in range(6):
            lam = shapes[rng.integers(len(shapes))]
            mu = blocks[rng.integers(len(blocks))]
            cases += [(young(n, mu), lam), (alt_young(n, mu), lam)]
    return cases


def test_orbit_labels_match_coxeter_sets(monkeypatch):
    """_orbit_labels gives the same array from the small generating sets as
    from the Coxeter-style ones."""
    from spinrest import specht

    cases = _orbit_cases()
    want = [specht._orbit_labels(spec, perm_basis(shape)) for spec, shape in cases]
    monkeypatch.setattr(specht, "generators", coxeter_generators)
    for (spec, shape), lab in zip(cases, want):
        assert np.array_equal(specht._orbit_labels(spec, perm_basis(shape)), lab), (spec, shape)


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
    """The walk over _rank_table's states ranks batches of randomly permuted
    words as the closed-form rank of tests/oracles.py does, which shares no
    code with the table: for every shape with n <= 8, and for (6,4,2),
    (18,1,1,1,1) and (24,1,1,1,1), whose 22- and 28-letter words are past a
    packed 64-bit key."""
    rng = np.random.default_rng(9)
    shapes = [shape for n in range(1, 9) for shape in partitions_by_recursion(n)]
    for shape in shapes + [(6, 4, 2), (18, 1, 1, 1, 1), (24, 1, 1, 1, 1)]:
        basis = perm_basis(shape)
        picked = basis.words[rng.integers(len(basis), size=60)]
        words = rng.permuted(picked, axis=1)  # still tabloids of this shape
        for batch in ((60,), (6, 10), (0,)):
            batched = words[: int(np.prod(batch))].reshape(*batch, basis.n)
            got = basis.index_of(batched)
            assert got.shape == batch
            assert np.array_equal(got, multinomial_rank(batched, shape)), (shape, batch)


def test_index_of_ranks_every_basis_in_order():
    """Every basis with n <= 9 ranks its own words 0, 1, ..., m - 1."""
    for n in range(0, 10):
        for shape in partitions_by_recursion(n):
            basis = perm_basis(shape)
            assert np.array_equal(basis.index_of(basis.words), np.arange(len(basis))), shape


def test_act_at_is_act_then_taken():
    """act(g, at), which ranks only the words at `at`, read through g's
    column order, equals act(g)[at], on shapes up to 28 letters."""
    rng = np.random.default_rng(3)
    for shape in ((3, 2, 1), (6, 4, 2), (1,) * 8, (8, 2, 2, 2), (24, 1, 1, 1, 1)):
        basis = perm_basis(shape)
        g = tuple(int(x) for x in rng.permutation(basis.n))
        at = rng.integers(len(basis), size=(5, 7))
        assert np.array_equal(basis.act(g, at), basis.act(g)[at]), shape
        assert np.array_equal(basis.act(g, basis.standard), basis.act(g)[basis.standard]), shape


def test_index_of_on_the_empty_shape():
    """M^() has one tabloid, the empty word, at position 0."""
    basis = perm_basis(())
    assert basis.words.shape == (1, 0)
    assert np.array_equal(basis.index_of(basis.words), [0])
    assert basis.index_of(np.zeros((2, 3, 0), dtype=np.int8)).shape == (2, 3)
    assert orbit_count(young(0, ()), basis) == 1


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
        lambda spec: z_invariant_dim(3, 7, 3, spec),
        lambda spec: dual_specht_invariant_dim((2, 1, 1, 1, 1, 1), 3, spec),
    ],
    ids=["orbit_count", "z_invariant_dim", "dual_specht_invariant_dim"],
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
    assert len(_standard_tabloids(perm_basis((3, 2)))) == 5


def test_standard_tabloids_are_the_lattice_words():
    """The lattice words of every basis with n <= 10 number as the hook
    formula says, and each is the own tabloid of its column of E, with
    coefficient 1, read from E's column structure."""
    from spinrest import specht

    for n in range(0, 11):
        for shape in partitions_by_recursion(n):
            standard = perm_basis(shape).standard
            assert len(standard) == hook_dimension(shape), shape
            index, signs = polytabloid_matrix(shape)
            own = np.argmax(index == standard[:, None], axis=1)
            assert np.array_equal(index[np.arange(len(index)), own], standard), shape
            assert np.all(signs[own] == 1), shape
    specht.perm_basis.cache_clear()
    specht._column_table.cache_clear()


def test_polytabloid_matrix_rank_is_standard_count():
    """Standard polytabloids stay independent over GF(p)."""
    for shape, p in (((4, 2), 3), ((5, 1), 3), ((4, 4), 5), ((3, 2, 1), 3)):
        e = dense_polytabloid_matrix(shape)
        assert e.shape == (len(perm_basis(shape)), hook_dimension(shape))
        assert rank(e, p) == hook_dimension(shape)


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
            assert np.array_equal(dense_polytabloid_matrix(shape) % 7, want), shape


def test_polytabloid_matrix_is_int8_signs():
    """E is one integer matrix for every p, given by its column structure:
    int8 signs -1 and 1, one per element of the column group, and in each
    column as many distinct tabloids of the basis."""
    from spinrest import specht

    for n in range(0, 8):
        for shape in partitions_by_recursion(n):
            index, signs = polytabloid_matrix(shape)
            column_group = prod(factorial(h) for h in specht._column_heights(shape))
            assert signs.dtype == np.int8 and set(signs.tolist()) <= {-1, 1}, shape
            assert index.shape == (hook_dimension(shape), column_group) == (len(index), len(signs)), shape
            assert 0 <= index.min() and index.max() < len(perm_basis(shape)), shape
            assert np.all(np.diff(np.sort(index, axis=1), axis=1) > 0), shape


@pytest.mark.parametrize(
    "shape, spec",
    [
        ((5, 3, 2), wreath(2, 5)),
        ((9, 3), wreath(2, 6)),
        ((8, 4), wreath(6, 2)),
        ((4, 2, 2, 2), wreath(2, 5)),
        ((6, 4, 2), wreath(2, 6)),
        ((3, 2, 1, 1), alt_young(7, (7,))),
    ],
)
def test_fixed_class_blocks_match_dense_e(shape, spec):
    """The blocks (E[g(J)] - E[J])^T set from E's column structure equal
    the same rows of the dense E, scattered by tests/oracles.py."""
    from spinrest import specht

    basis = perm_basis(shape)
    e = dense_polytabloid_matrix(shape)
    want = [(e[basis.act(g, basis.standard)] - e[basis.standard]).T for g in generators(spec)]
    got = specht._fixed_class_blocks(polytabloid_matrix(shape), shape, generators(spec))
    assert got.dtype == np.int8 and np.array_equal(got, np.concatenate(want)), (shape, str(spec))


@pytest.mark.parametrize(
    "shape, primes", [((6, 4, 2), (3,))] + [(shape, (2, 3, 7, 65521)) for shape in [(4, 3, 2, 1), (3, 3, 2, 1), (1,) * 7, (8,)]]
)
def test_column_gram_matches_dense_e(shape, primes):
    """G = E^T E mod p summed from E's column structure (gfp._column_gram)
    equals matmul_mod's product of the dense E scattered by
    tests/oracles.py: on S^(6,4,2) mod 3, the Gram criterion of inv42, and
    on smaller shapes at p = 2, 3, 7 and 65521."""
    from spinrest import gfp

    e = dense_polytabloid_matrix(shape)
    for p in primes:
        got = gfp._column_gram(*polytabloid_matrix(shape), p)
        assert got.dtype == np.min_scalar_type(1 - p) and np.array_equal(got, matmul_mod(e.T, e, p)), (shape, p)


def test_column_table_is_cached_read_only():
    """The column table is built once per shape, and its cached arrays
    refuse writes, so no caller can corrupt the next polytabloid matrix."""
    from spinrest import specht

    labels, signs = specht._column_table((3, 2, 1))
    assert specht._column_table((3, 2, 1))[0] is labels
    for array in (labels, signs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert len(signs) == 3 * 2 * 2 and signs.sum() == 0


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
        assert np.array_equal(eta(k, l, n), want)


def test_specht_perp_dims():
    assert specht_perp((5, 1), 3).dim == 1
    assert specht_perp((4, 2), 3).dim == 15 - 9


def _unreachable(*args, **kwargs):
    raise AssertionError("the request should have been refused before this call")


def test_dual_specht_refuses_beyond_physical_memory(monkeypatch):
    """With 0.2 GB of physical memory, (6,4,2) under W(2,6) mod 65521 (three
    2673 x 2673 int8 blocks, one per generator, their float64 copy and the
    elimination's workspace, about 0.23 GB) is refused before any basis or
    matrix is built, and (5,3,2) under W(2,5) mod 3 (about 12 MB) still
    runs.  Mod 3 the elimination stores int16, and (6,4,2) needs about
    0.11 GB."""
    from spinrest import specht

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 48_800}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    with monkeypatch.context() as patch:
        patch.setattr(specht, "perm_basis", _unreachable)
        patch.setattr(specht, "polytabloid_matrix", _unreachable)
        with pytest.raises(ValueError, match=r"needs about 0\.2 GB \(m = 13860 tabloids, dim S = 2673\)"):
            dual_specht_invariant_dim((6, 4, 2), 65521, wreath(2, 6))
    assert dual_specht_invariant_dim((5, 3, 2), 3, wreath(2, 5)) == 0


def test_dual_specht_counts_the_tabloid_basis_against_memory(monkeypatch):
    """(1^12) under W(2,6) has d = 1, so the blocks take a few bytes, but
    its 12! tabloids and column permutations need far more: with 8 GB of
    physical memory it is refused before any basis is built."""
    from spinrest import specht

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2_000_000}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(specht, "perm_basis", _unreachable)
    monkeypatch.setattr(specht, "polytabloid_matrix", _unreachable)
    with pytest.raises(ValueError, match=r"\(m = 479001600 tabloids, dim S = 1\), more than the 8\.2 GB"):
        dual_specht_invariant_dim((1,) * 12, 3, wreath(2, 6))


@pytest.mark.parametrize(
    "shape, spec",
    [
        ((2, 1, 1, 1, 1, 1, 1, 1), young(9, (3, 3, 3))),
        ((2, 2, 2, 1, 1, 1), young(9, (9,))),
        ((3, 3, 2, 1), wreath(3, 3)),
        ((6, 4), wreath(2, 5)),
        ((5, 2, 1), young(8, (4, 4))),
        ((7, 3), index2_wr_b2(2, 5)),
        ((8,), wreath_alt(2, 4)),
        ((1,) * 9, alt_young(9, (9,))),
        ((6, 3, 1), young(10, (1,) * 10)),
        ((3, 2, 1), wreath(3, 2)),
        ((4, 2, 1), young(7, (4, 3))),
        ((4, 3, 2, 1), young(10, (5, 5))),
    ],
)
def test_dual_specht_memory_bound_holds(shape, spec):
    """The bytes the refusal is based on cover what the computation
    allocates, tabloid basis and column table included, as traced by
    tracemalloc: at p = 2 and 3, where the elimination stores int16, and at
    p = 65521, where it stores float64.  At p = 2 the blocks' entries +-2
    lie outside (-p, p); on (4,3,2,1) under S(5,5) an int64 copy of the
    reduced blocks, which the bound does not count, would take the peak to
    1.4 times the bound."""
    import tracemalloc

    from spinrest import specht

    n = sum(shape)
    m = factorial(n) // np.prod([factorial(part) for part in shape])
    for p in (2, 3, 65521):
        bound = specht._dual_specht_bytes(shape, m, hook_dimension(shape), len(generators(spec)), p)
        specht.perm_basis.cache_clear()
        specht._column_table.cache_clear()
        tracemalloc.start()
        try:
            dual_specht_invariant_dim(shape, p, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, p


def test_z_step_memory_bound_holds(monkeypatch):
    """invariant_dims on (8,8) under the trivial group mod 3 sums E's rows
    over 12870 orbits into 1430 x 12870 float64 sums, copies them to int64
    and takes their rank: about 0.39 GB under tracemalloc, ten times the
    dual-Specht preflight.  The bytes the dim Z^H refusal states cover it."""
    import tracemalloc

    from spinrest import specht

    stated = {}
    refuse = specht._refuse_beyond_memory

    def record(need, what, detail):
        stated[what] = need
        refuse(need, what, detail)

    monkeypatch.setattr(specht, "_refuse_beyond_memory", record)
    specht.perm_basis.cache_clear()
    specht._column_table.cache_clear()
    tracemalloc.start()
    try:
        dims = specht.invariant_dims((8, 8), 3, young(16, (1,) * 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == {"dim_M_H": 12870, "dim_dualS_H": 1430, "dim_Z_H": 11440, "hom_gap": True}
    z_step = stated[f"dim Z^H of (8, 8) under {young(16, (1,) * 16)}"]
    assert peak <= z_step and 10 * stated["(S^(8, 8))^*"] < peak


def test_gram_refuses_shapes_beyond_memory(monkeypatch):
    """S^(7,5,3) has m = 360360 tabloids and d = 45045, so G takes 2 GB in
    int8 and its int16 copy for the elimination 4.1 GB: with 4 GB of
    physical memory the Gram criterion is refused, with its estimate,
    before any basis or E is built."""
    from spinrest import specht

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1_000_000}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(specht, "perm_basis", _unreachable)
    monkeypatch.setattr(specht, "polytabloid_matrix", _unreachable)
    want = r"S\^\(7, 5, 3\)'s Gram matrix needs about [\d,.]+ GB \(m = 360360 tabloids, dim S = 45045\), more than"
    with pytest.raises(ValueError, match=want + r" the 4\.1 GB"):
        gram_irreducibility((7, 5, 3), 3)


def _traced_gram_peak(shape, p) -> int:
    """The tracemalloc peak of gram_irreducibility, from cold caches."""
    import tracemalloc

    from spinrest import specht

    specht.perm_basis.cache_clear()
    specht._column_table.cache_clear()
    tracemalloc.start()
    try:
        gram_irreducibility(shape, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "shape, p",
    [(shape, p) for shape in [(4, 3, 2, 1), (3, 3, 2, 1), (5, 2, 2), (1,) * 8, (8,), (4, 4)] for p in (3, 65521)]
    + [((4, 3, 1), 11863279), ((1,) * 5, 11863279)],
)
def test_gram_memory_bound_holds(shape, p):
    """The bytes the Gram refusal is based on cover what gram_irreducibility
    allocates, as traced by tracemalloc: in float32 and float64 products,
    and at p = 11863279, where m (p - 1)^2 > 2^53, so the dense rows'
    product is summed over float64 slices."""
    from spinrest import specht

    m = factorial(sum(shape)) // prod(factorial(part) for part in shape)
    assert _traced_gram_peak(shape, p) <= specht._gram_bytes(shape, m, hook_dimension(shape), p)


@pytest.mark.parametrize("shape", [(4, 3, 2, 1), (5, 3, 1)])
def test_gram_keeps_one_dense_copy_of_e(shape):
    """The Gram criterion holds no dense E, only E's column structure, the
    sparse rows' batches, tiles of the dense rows' product and G, then G's
    elimination, all within the room of one int8 E and three int64 d x d
    arrays.  An int64 copy of E, or a float copy of the whole of it, would
    take four to eight times E again."""
    m, d = factorial(sum(shape)) // prod(factorial(part) for part in shape), hook_dimension(shape)
    assert _traced_gram_peak(shape, 3) <= m * d + 3 * 8 * d * d + 1_000_000


def test_gram_of_642_peaks_below_one_int64_g():
    """The Gram criterion of inv42, S^(6,4,2) mod 3 (d = 2673), peaks below
    5 d^2 bytes, less than G in int64 (8 d^2), under tracemalloc: G is summed
    straight into its reduced int8 form, from tiles of the dense rows'
    product and batches of pair sums, and eliminated in int16 by row
    blocks."""
    d = hook_dimension((6, 4, 2))
    assert _traced_gram_peak((6, 4, 2), 3) < 5 * d * d


def test_orbits_refuse_beyond_physical_memory(monkeypatch):
    """Orbit labels need two int64 index arrays per generator over the
    tabloids; they are refused when they exceed physical memory."""
    from spinrest import specht

    basis = perm_basis((3, 3, 2, 1))
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    with pytest.raises(ValueError, match=r"the orbits of S\(9\) needs about .* \(m = 5040 tabloids\)"):
        orbit_count(young(9, (9,)), basis)


@pytest.mark.parametrize(
    "shape, spec", [((1,) * 9, alt_young(9, (9,))), ((24, 1, 1, 1, 1), wreath(2, 14))]
)
def test_orbits_and_polytabloids_stay_under_their_stated_bytes(monkeypatch, shape, spec):
    """The bytes _orbit_labels states before it refuses, and
    _polytabloid_bytes, cover what each allocates from cold caches, as traced
    by tracemalloc, on (1^9) (m = 362880) and (24,1,1,1,1) (m = 491400, 28
    letters): the walk that ranks the tabloids reads one position at a time,
    and no permuted copy of the words is gathered."""
    import tracemalloc

    from spinrest import specht

    stated = {}
    refuse = specht._refuse_beyond_memory

    def record(need, what, detail):
        stated[what] = need
        refuse(need, what, detail)

    def traced_peak(call):
        specht._rank_table.cache_clear()
        specht._column_table.cache_clear()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(specht, "_refuse_beyond_memory", record)
    basis = perm_basis(shape)
    assert traced_peak(lambda: orbit_count(spec, basis)) <= stated[f"the orbits of {spec}"]
    specht.perm_basis.cache_clear()
    need = specht._polytabloid_bytes(shape, len(basis), hook_dimension(shape), 0)
    assert traced_peak(lambda: polytabloid_matrix(shape)) <= need
    specht.perm_basis.cache_clear()


def test_dual_specht_checks_the_degree_first(monkeypatch):
    """A subgroup of the wrong degree is refused before E is built."""
    from spinrest import specht

    monkeypatch.setattr(specht, "polytabloid_matrix", _unreachable)
    with pytest.raises(ValueError, match=r"degree 10 .* \(6, 4, 2\), of degree 12"):
        dual_specht_invariant_dim((6, 4, 2), 3, wreath(2, 5))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 11863289])
def test_composite_p_is_refused_before_any_work(monkeypatch, p):
    """dual_specht_invariant_dim refuses p next to the degree check, before
    the memory preflight and the tabloid basis; gram_irreducibility refuses
    it first of all.  So are primes above gfp's limit, 11863279."""
    from spinrest import specht

    monkeypatch.setattr(specht, "perm_basis", _unreachable)
    monkeypatch.setattr(specht, "_refuse_beyond_memory", _unreachable)
    message = "p must be at most 11863279" if p == 11863289 else f"p must be prime, got {p}"
    with pytest.raises(ValueError, match=message):
        dual_specht_invariant_dim((3, 2), p, young(5, (3, 2)))
    with pytest.raises(ValueError, match=message):
        gram_irreducibility((3, 2), p)


def test_specht_perp_stable_under_symmetric_group():
    shape, p = (4, 2), 3
    w = specht_perp(shape, p)
    basis = perm_basis(shape)
    for g in generators(young(6, (6,))):
        image = matmul_mod(perm_matrix(basis.act(g)), w.basis.T, p).T
        assert not np.any(residue(w, image))


def test_dual_specht_trivial_subgroup_dimension():
    for n in (6, 8):
        triv = young(n, (1,) * n)
        assert dual_specht_invariant_dim((n - 2, 2), 3, triv) == n * (n - 3) // 2


def _every_kind(n: int) -> list:
    """One subgroup of each kind for even n, both index-2 variants included,
    and the whole group, A_n and the trivial group."""
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
        young(n, (n,)),
        alt_young(n, (n,)),
        young(n, (1,) * n),
    ]


def test_dual_specht_matches_quotient_route():
    """The d x d standard-tabloid blocks against the fixed space of the
    quotient matrices on M / (S^perp), for every subgroup kind: every shape
    of 6 at p = 2 and 3, and the shapes of 8 with at most 420 tabloids at
    p = 2 or 5."""
    kinds = {spec.kind for spec in _every_kind(6)}
    assert kinds == {"young", "alt_young", "wreath", "wreath_alt", "index2_wr_b2"}
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


def test_dual_specht_mod_2_matches_quotient_route():
    """At p = 2 the int8 blocks E[g(J)] - E[J] hold entries +-2, outside
    (-p, p), which elimination must reduce to 0: dual_specht_invariant_dim
    agrees with the quotient route of tests/oracles.py on every shape of 7
    with at most 420 tabloids, under the subgroups of _z_subgroups(7)."""
    from spinrest import specht

    twos = 0
    for shape in partitions_by_recursion(7):
        if len(perm_basis(shape)) > 420:
            continue
        for spec in _z_subgroups(7):
            blocks = specht._fixed_class_blocks(polytabloid_matrix(shape), shape, generators(spec))
            twos += int(np.count_nonzero(np.abs(blocks) == 2))
            want = dual_specht_invariant_dim_by_quotients(shape, 2, spec)
            assert dual_specht_invariant_dim(shape, 2, spec) == want, (shape, str(spec))
    assert twos


def test_dual_specht_matches_hand_polytabloids():
    """d - rank of the maps v -> E^T (g v - v), on polytabloids built from all
    fillings and ranked by textbook Gauss-Jordan, for every shape with
    n <= 5."""
    for n in range(1, 6):
        specs = [young(n, (n,)), alt_young(n, (n,)), young(n, (1,) * n)]
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


def _z_subgroups(n: int) -> list:
    """Young, alternating Young, full, alternating, trivial, and for even n
    every wreath and index-2 kind."""
    if n % 2 == 0 and n >= 4:
        return _every_kind(n)
    specs = [young(n, (n - 1, 1)), alt_young(n, (n - 1, 1))] if n >= 2 else []
    return specs + [young(n, (n,)), alt_young(n, (n,)), young(n, (1,) * n)]


def test_z_invariant_dim_matches_hand_orbits():
    """z_invariant_dim against orbit sums of hand-built polytabloids under the
    whole group, ranked by Gauss-Jordan, for n <= 7 and every k <= n/2."""
    for n in range(1, 8):
        for spec in _z_subgroups(n):
            gens = generators(spec)
            for k in range(n // 2 + 1):
                for p in (2, 3, 5):
                    want = z_invariant_dim_by_hand(k, n, p, gens)
                    assert z_invariant_dim(k, n, p, spec) == want, (k, n, p, str(spec))


def test_gram_criterion_matches_carter():
    """S^shape is irreducible iff shape is p-regular and satisfies Carter's
    hook criterion, which shares no code with gfp; every shape with n <= 8
    and p in {2, 3, 5, 7}.  For a p-singular shape the form vanishes on
    S^shape, so its Gram matrix is zero."""
    for n in range(1, 9):
        for shape in partitions_by_recursion(n):
            for p in (2, 3, 5, 7):
                regular = all(shape.count(part) < p for part in shape)
                assert gram_irreducibility(shape, p) == (regular and carter_irreducible(shape, p)), (shape, p)
                if not regular:
                    e = dense_polytabloid_matrix(shape)
                    assert not matmul_mod(e.T, e, p).any(), (shape, p)


def test_eta_examples():
    assert eta(2, 2, 8).tolist() == np.eye(comb(8, 2), dtype=int).tolist()
    e = eta(1, 2, 4)
    assert e.shape == (6, 4) and e.dtype == np.int64
    assert sorted(e.sum(axis=0).tolist()) == [3, 3, 3, 3]


def test_wilson_rank_matches_eta_small():
    for n in (6, 8, 9):
        for l in range(0, min(4, n // 2) + 1):
            for k in range(0, l + 1):
                for p in (3, 5):
                    assert rank(eta(k, l, n), p) == wilson_rank(k, l, n, p), (k, l, n, p)


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
                rank_j = rank(dense_polytabloid_matrix((n - j, j) if j else (n,)), p)
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
