import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import is_prime_by_trial_division, partitions_by_recursion
from spinrest.partitions import (
    _is_prime,
    check_odd_prime,
    a_0,
    a_p,
    format_partition,
    is_p_regular,
    is_p_strict,
    is_restricted_p_strict,
    is_strict,
    parse_partition,
    part_counts,
    p_strict_partitions,
    partitions_of,
    restricted_p_strict_partitions,
)


def test_p_strict_examples():
    assert is_p_strict((3, 3, 1), 3)
    assert not is_p_strict((2, 2), 3)
    assert is_p_strict((4, 2), 3)


def test_restricted_p_strict_examples():
    assert is_restricted_p_strict((4, 2), 3)
    assert not is_restricted_p_strict((7, 1), 3)
    assert is_restricted_p_strict((8, 3), 5)
    # last part compared against 0
    assert not is_restricted_p_strict((3,), 3)
    assert is_restricted_p_strict((2,), 3)


def test_rp_enumeration_anchors():
    assert list(restricted_p_strict_partitions(6, 3)) == [(4, 2), (3, 2, 1)]
    assert list(restricted_p_strict_partitions(0, 5)) == [()]
    assert list(restricted_p_strict_partitions(4, 3)) == [(3, 1)]


def test_enumeration_against_recursive_oracle():
    """RP_p(n) equals an independent recursive generator, filtered by a
    from-scratch predicate, as a list (so in the same order), for n <= 30."""

    def oracle_ok(lam, p):
        strict_ok = all(
            lam[i] != lam[i + 1] or lam[i] % p == 0 for i in range(len(lam) - 1)
        )
        gaps = [lam[i] - (lam[i + 1] if i + 1 < len(lam) else 0) for i in range(len(lam))]
        gap_ok = all(g < p or (g == p and lam[i] % p) for i, g in enumerate(gaps))
        return strict_ok and gap_ok

    for p in (3, 5, 7):
        for n in range(0, 31):
            expected = [lam for lam in partitions_by_recursion(n) if oracle_ok(lam, p)]
            got = list(restricted_p_strict_partitions(n, p))
            assert got == expected, (n, p)
            for lam in got:
                assert is_p_strict(lam, p) and is_restricted_p_strict(lam, p)


def test_walks_equal_filtered_recursion_in_order():
    """The p-strict and the strict walks equal the recursive generator
    filtered by from-scratch predicates, as lists, for n <= 30 and p in
    {3, 5, 7}; so does partitions_of with any other predicate."""
    for n in range(0, 31):
        every = partitions_by_recursion(n)
        for p in (3, 5, 7):
            want = [lam for lam in every if all(a > b or a % p == 0 for a, b in zip(lam, lam[1:]))]
            assert list(p_strict_partitions(n, p)) == want, (n, p)
        assert list(partitions_of(n, is_strict)) == [lam for lam in every if len(set(lam)) == len(lam)], n
        assert list(partitions_of(n, lambda lam: 3 in lam)) == [lam for lam in every if 3 in lam], n


@pytest.mark.parametrize(
    "walk",
    [
        partitions_of,
        lambda n: partitions_of(n, is_strict),
        lambda n: p_strict_partitions(n, 3),
        lambda n: restricted_p_strict_partitions(n, 3),
    ],
)
def test_walks_refuse_negative_n(walk):
    with pytest.raises(ValueError, match="n must be >= 0"):
        list(walk(-1))


def test_enumeration_order_is_lex_decreasing():
    seq = list(partitions_of(9))
    assert seq == sorted(seq, reverse=True)
    assert len(seq) == len(partitions_by_recursion(9))


def test_part_counts():
    assert part_counts((4, 2), 3) == (2, 0, 2)
    assert part_counts((3, 3, 3, 1), 3) == (4, 3, 1)
    assert part_counts((), 5) == (0, 0, 0)


def test_a_p_known_values():
    assert a_p((4, 2), 3) == 0
    assert a_p((3, 2, 1), 7) == 1
    assert a_p((4, 3, 2, 1), 7) == 0


def _pauli():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return x, y, z


def test_a_0_single_row_by_clifford_commutant():
    """Oracle for a_0((4)) = 1: realize the rank-3 twisted symmetric-group
    relations on the rank-4 Clifford module and check the representation
    splits into two inequivalent pieces (commutant dimension 2), so the
    single-row label carries a +/- pair."""
    x, y, z = _pauli()
    eye = np.eye(2)
    c = [np.kron(x, eye), np.kron(y, eye), np.kron(z, x), np.kron(z, y)]
    t = [(c[j + 1] - c[j]) / np.sqrt(2) for j in range(3)]
    for j in range(3):
        assert np.allclose(t[j] @ t[j], np.eye(4))
    for j in range(2):
        assert np.allclose(t[j] @ t[j + 1] @ t[j], t[j + 1] @ t[j] @ t[j + 1])
    assert np.allclose(t[0] @ t[2], -t[2] @ t[0])
    # commutant of the image algebra
    blocks = [np.kron(np.eye(4), tj.T) - np.kron(tj, np.eye(4)) for tj in t]
    m = np.concatenate(blocks, axis=0)
    commutant_dim = 16 - np.linalg.matrix_rank(m)
    assert commutant_dim == 2
    assert a_0((4,)) == 1


def test_a_0_hook_by_double_cover_class_count():
    """Oracle for a_0((3, 1)) = 0: GL(2,3) is a double cover of S_4 in which
    transpositions lift to involutions; its spin representation count is
    #classes(GL(2,3)) - #classes(S_4) = 3.  The single-row label accounts for
    two of them (previous test), leaving exactly one self-associate label."""
    mats = []
    for a in range(3):
        for b in range(3):
            for cc in range(3):
                for d in range(3):
                    if (a * d - b * cc) % 3:
                        mats.append((a, b, cc, d))
    group = set(mats)
    assert len(group) == 48

    def mul(g, h):
        a, b, c, d = g
        e, f, gg, hh = h
        return (
            (a * e + b * gg) % 3,
            (a * f + b * hh) % 3,
            (c * e + d * gg) % 3,
            (c * f + d * hh) % 3,
        )

    def inv(g):
        a, b, c, d = g
        det_inv = pow((a * d - b * c) % 3, -1, 3)
        return (d * det_inv % 3, -b * det_inv % 3, -c * det_inv % 3, a * det_inv % 3)

    seen, classes = set(), 0
    for g in mats:
        if g in seen:
            continue
        classes += 1
        seen.update(mul(mul(h, g), inv(h)) for h in mats)
    assert classes == 8
    s4_classes = len(partitions_by_recursion(4))
    spin_irreps = classes - s4_classes
    assert spin_irreps == 3
    # two of the three are the +/- pair for (4); the remaining one forces:
    assert a_0((3, 1)) == 0


def test_a_0_equals_a_p_for_large_p():
    def next_prime(m):
        q = m + 1
        while any(q % d == 0 for d in range(2, q)):
            q += 1
        return q

    for n in range(1, 21):
        p = next_prime(max(n, 2))
        for lam in partitions_of(n, is_strict):
            assert a_0(lam) == a_p(lam, p), (lam, p)


def test_a_0_large_p_anchor():
    assert a_0((3, 2, 1)) == 1  # matches a_p at every p > 6
    assert a_p((3, 2, 1), 7) == 1


def test_a_0_rejects_non_strict():
    with pytest.raises(ValueError):
        a_0((2, 2))


def test_serialization_round_trip():
    assert format_partition((4, 3, 2, 1)) == "(4,3,2,1)"
    assert format_partition(()) == "()"
    assert parse_partition("(4,3,2,1)") == (4, 3, 2, 1)
    assert parse_partition("()") == ()
    assert parse_partition("4,2") == (4, 2)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=8))
def test_predicates_total(parts):
    lam = tuple(sorted(parts, reverse=True))
    for p in (3, 5):
        is_p_strict(lam, p)
        is_restricted_p_strict(lam, p)
        is_p_regular(lam, p)
        if is_strict(lam):
            a_0(lam)


def test_is_prime_matches_trial_division():
    assert [p for p in range(-5, 10**5) if _is_prime(p)] == [
        p for p in range(-5, 10**5) if is_prime_by_trial_division(p)
    ]


def test_is_prime_large():
    # Mersenne primes, a Carmichael number, and composites that pass
    # Miller-Rabin for the bases 2..23 and 2..37 (the latter fails at 41)
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)
    assert not _is_prime(561) and not _is_prime(2**61 + 1)
    assert not _is_prime(318665857834031151167461)
    assert not _is_prime(3825123056546413051)
    assert check_odd_prime(2**61 - 1) == 2**61 - 1
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        check_odd_prime(2**127 - 1)
