"""Ladders and the regularization map onto restricted p-strict partitions.

A node (r, c) sits on the ladder through column c + (r-1)p.  Ladders of
columns with residue 0 come in fused pairs: the two columns mp and mp+1
interleave into a single ladder (the unique reading that makes ladders
partition the quadrant).  Regularization slides each ladder's nodes as far
left (= down the ladder) as they can go.  The row of a ladder's j-th node
from the left is a closed form, so no ladder is ever listed to regularize.
"""

from collections import Counter

from .labels import alpha_n
from .partitions import (
    Partition,
    a_0,
    a_p,
    check_odd_prime,
    check_partition,
    is_p_strict,
    is_restricted_p_strict,
    is_strict,
    part_counts,
)
from .residues import Node


def ladder_index(node: Node, p: int) -> int:
    """Canonical ladder id of a node; fused residue-0 ladders use id mp+1."""
    r, c = node
    s = c + (r - 1) * p
    return s + (s % p == 0)


def _ladder_node(index: int, j: int, p: int) -> Node:
    """The j-th node, counting from 0 by ascending column, of the ladder with
    canonical id `index`.  With m = index // p it lies in row m + 1 - ceil(j/2)
    on a fused ladder (index = mp + 1: columns 1, p, p + 1, 2p, 2p + 1, ...)
    and in row m + 1 - j otherwise; its column is then fixed by the ladder."""
    m, fused = index // p, index % p == 1
    r = m + 1 - ((j + 1) // 2 if fused else j)
    return r, index - (r - 1) * p - (j % 2 if fused else 0)


def ladder_counts(lam: Partition, p: int) -> dict[int, int]:
    """Node count of lam on each (canonical) ladder."""
    return Counter(ladder_index((r, c), p) for r, row_len in enumerate(lam, start=1) for c in range(1, row_len + 1))


def regularize(lam: Partition, p: int) -> Partition:
    """Slide nodes along their ladders to the smallest columns; lands in RP_p
    and fixes RP_p pointwise."""
    check_odd_prime(p)
    lam = check_partition(lam)
    if not is_p_strict(lam, p):
        raise ValueError(f"{lam} is not {p}-strict")
    row_lens = Counter(
        _ladder_node(idx, j, p)[0] for idx, count in ladder_counts(lam, p).items() for j in range(count)
    )
    out = tuple(row_lens[r] for r in range(1, max(row_lens, default=0) + 1))
    out = check_partition(out)
    if not is_restricted_p_strict(out, p):
        raise RuntimeError(f"regularization of {lam} gave {out}, not restricted {p}-strict")
    return out


def reg_closed_form(lam: Partition, p: int) -> Partition:
    """lam^Reg = sum of alpha_(lam_r) (part-wise) for well-separated strict lam:
    requires lam_r - lam_(r+1) >= p + [p | lam_r] for all r < h."""
    check_odd_prime(p)
    if not is_strict(lam):
        raise ValueError(f"need a strict partition, got {lam}")
    for r in range(len(lam) - 1):
        if lam[r] - lam[r + 1] < p + (1 if lam[r] % p == 0 else 0):
            raise ValueError(f"{lam} violates the gap hypothesis at row {r + 1}")
    rows: list[int] = []
    for part in lam:
        al = alpha_n(part, p)
        for i, x in enumerate(al):
            if i < len(rows):
                rows[i] += x
            else:
                rows.append(x)
    return check_partition(rows)


def leading_coefficient(lam: Partition, p: int) -> int:
    """2^((h_p(lam) + a_0(lam) - a_p(lam^Reg))/2): the multiplicity of
    D(lam^Reg) at the top of the reduction of S(lam) mod p."""
    if not is_strict(lam):
        raise ValueError(f"need a strict partition, got {lam}")
    _, h_p, _ = part_counts(lam, p)
    exponent2 = h_p + a_0(lam) - a_p(regularize(lam, p), p)
    if exponent2 % 2 or exponent2 < 0:
        raise RuntimeError(
            f"leading coefficient exponent {exponent2}/2 for {lam}, p={p} is not a nonnegative integer"
        )
    return 2 ** (exponent2 // 2)
