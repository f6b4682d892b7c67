import pytest

from oracles import ladder_counts_by_nodes, regularize_by_ladders
from spinrest.labels import alpha_n
from spinrest.partitions import (
    is_restricted_p_strict,
    is_strict,
    p_strict_partitions,
    partitions_of,
)
from spinrest.regularization import (
    _ladder_node,
    ladder_counts,
    ladder_index,
    leading_coefficient,
    reg_closed_form,
    regularize,
)


def test_ladder_examples():
    assert _ladder_node(2, 0, 3) == (1, 2)
    assert {_ladder_node(5, j, 3) for j in range(2)} == {(2, 2), (1, 5)}
    # fused residue-0 pair: columns mp and mp+1 interleave into ladder mp + 1
    assert ladder_index((1, 3), 3) == ladder_index((1, 4), 3) == 4
    assert {_ladder_node(4, j, 3) for j in range(3)} == {(1, 3), (1, 4), (2, 1)}


def test_ladders_partition_the_quadrant():
    """Every node of the quadrant is a node of its own ladder, every node of
    that ladder maps back to it, and a ladder's nodes are distinct."""
    for p in (3, 5):
        for r in range(1, 13):
            for c in range(1, 13):
                idx = ladder_index((r, c), p)
                m = idx // p
                size = m + 1 + (m if idx % p == 1 else 0)
                nodes = [_ladder_node(idx, j, p) for j in range(size)]
                assert (r, c) in nodes and min(min(nd) for nd in nodes) >= 1
                assert all(ladder_index(nd, p) == idx for nd in nodes)
                assert len(set(nodes)) == size


def test_regularize_known_value():
    assert regularize((11, 2, 1), 5) == (7, 6, 1)


def test_regularize_fixes_restricted_labels():
    for p in (3, 5):
        for n in range(0, 18):
            for lam in p_strict_partitions(n, p):
                reg = regularize(lam, p)
                assert is_restricted_p_strict(reg, p)
                assert regularize(reg, p) == reg
                assert ladder_counts(reg, p) == ladder_counts(lam, p)
                if is_restricted_p_strict(lam, p):
                    assert reg == lam


def test_regularize_matches_ladder_scan():
    """The closed-form ladder positions against a scan of every quadrant
    node of each ladder, and the ladder counts by row runs against a count
    node by node: on the wide reg grid (n <= 28 at p = 3, 5) and at p = 7
    for n <= 20."""
    for p, top in ((3, 28), (5, 28), (7, 20)):
        for n in range(0, top + 1):
            for lam in p_strict_partitions(n, p):
                assert regularize(lam, p) == regularize_by_ladders(lam, p), (lam, p)
                assert ladder_counts(lam, p) == ladder_counts_by_nodes(lam, p), (lam, p)


@pytest.mark.parametrize("p", [3, 5, 2**61 - 1])
def test_ladder_counts_of_non_p_strict_partitions(p):
    """ladder_counts reads any partition, p-strict or not, and a p above
    every part (no row shares a column) as well as one below."""
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert ladder_counts(lam, p) == ladder_counts_by_nodes(lam, p), (lam, p)


@pytest.mark.parametrize(
    "lam, p, message",
    [
        ((3, 1), 2, "odd prime"),
        ((3, 1), 4, "odd prime"),
        ((3, 1), 9, "odd prime"),
        ((3, 1), 15, "odd prime"),
        ((1, 3), 3, "weakly decreasing"),
        ((3, -1), 3, "positive"),
        ((3, 0, 1), 3, "positive"),
        ((2, 2), 3, "is not 3-strict"),
        ((4, 4, 1), 5, "is not 5-strict"),
    ],
)
def test_regularize_refuses_bad_input(lam, p, message):
    """An even or composite p, a non-partition and a partition that is not
    p-strict are refused with ValueError."""
    with pytest.raises(ValueError, match=message):
        regularize(lam, p)


def test_closed_form_examples():
    assert reg_closed_form((7, 3), 3) == (5, 4, 1)
    # alpha_10 at p = 5 is (5,4,1) (10 = 5*2 takes the divisible branch), so
    # the sum with alpha_4 = (4) is (9,4,1); cross-checked by regularize below
    assert reg_closed_form((10, 4), 5) == (9, 4, 1)
    assert regularize((10, 4), 5) == (9, 4, 1)
    assert reg_closed_form((9,), 3) == alpha_n(9, 3)
    with pytest.raises(ValueError):
        reg_closed_form((10, 5), 5)  # gap 5 but 5 | 10 needs >= 6


def test_closed_form_matches_regularize():
    for p in (3, 5):
        for n in range(1, 20):
            for lam in partitions_of(n, is_strict):
                try:
                    closed = reg_closed_form(lam, p)
                except ValueError:
                    continue
                assert closed == regularize(lam, p), (lam, p)


def test_leading_coefficient_anchors():
    assert leading_coefficient((10,), 3) == 1
    # p | n with n even carries the halved bracket, so the coefficient is 2
    assert leading_coefficient((6,), 3) == 2
    assert leading_coefficient((10,), 5) == 2
    # fixed points of regularization
    assert leading_coefficient((4, 2), 3) == 1
    assert leading_coefficient((3, 1), 3) == 2 ** ((1 + 0 - 1) // 2)


def test_leading_coefficient_exponent_integral():
    for p in (3, 5, 7):
        for n in range(1, 17):
            for lam in partitions_of(n, is_strict):
                coeff = leading_coefficient(lam, p)
                assert coeff in (1, 2, 4, 8), (lam, p, coeff)
