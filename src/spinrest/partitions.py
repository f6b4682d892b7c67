"""Partition arithmetic and membership predicates for p-strict combinatorics.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().  All enumeration runs in lexicographically decreasing order
on part sequences, which is the fixed output order everywhere.
"""

from typing import Callable, Iterator

Partition = tuple[int, ...]


# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p below _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {p}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> int:
    if p < 3 or p % 2 == 0 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    return p


def check_partition(parts) -> Partition:
    """Validate and normalize an iterable of parts into a partition tuple.

    Trailing zeros are stripped; raises ValueError on non-partitions.
    """
    lam = tuple(int(x) for x in parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(x <= 0 for x in lam):
        raise ValueError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def format_partition(lam: Partition) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def parse_partition(text: str) -> Partition:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    s = s.strip().rstrip(",")
    if not s:
        return ()
    return check_partition(int(x) for x in s.split(","))


def size(lam: Partition) -> int:
    return sum(lam)


def is_strict(lam: Partition) -> bool:
    return all(lam[i] > lam[i + 1] for i in range(len(lam) - 1))


def is_p_strict(lam: Partition, p: int) -> bool:
    """Repeated parts are allowed only when divisible by p."""
    return all(lam[i] != lam[i + 1] or lam[i] % p == 0 for i in range(len(lam) - 1))


def is_p_regular(lam: Partition, p: int) -> bool:
    """No part repeats p or more times."""
    run = 1
    for i in range(1, len(lam)):
        run = run + 1 if lam[i] == lam[i - 1] else 1
        if run >= p:
            return False
    return True


def is_restricted_p_strict(lam: Partition, p: int) -> bool:
    """p-strict, and every gap is < p, or = p with the upper part not divisible by p.

    The last part is compared against 0.
    """
    if not is_p_strict(lam, p):
        return False
    for i in range(len(lam)):
        gap = lam[i] - (lam[i + 1] if i + 1 < len(lam) else 0)
        if gap > p or (gap == p and lam[i] % p == 0):
            return False
    return True


def partitions_of(n: int, predicate: Callable[[Partition], bool] | None = None) -> Iterator[Partition]:
    """All partitions of n in lexicographically decreasing order, optionally filtered."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, max_part: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            yield from gen(remaining - part, part, prefix)
            prefix.pop()

    for lam in gen(n, n if n else 0, []):
        if predicate is None or predicate(lam):
            yield lam


def strict_partitions(n: int) -> Iterator[Partition]:
    return partitions_of(n, is_strict)


def p_strict_partitions(n: int, p: int) -> Iterator[Partition]:
    return partitions_of(n, lambda lam: is_p_strict(lam, p))


def restricted_p_strict_partitions(n: int, p: int) -> Iterator[Partition]:
    """RP_p(n), the labels of the irreducible spin supermodules."""
    return partitions_of(n, lambda lam: is_restricted_p_strict(lam, p))


def part_counts(lam: Partition, p: int) -> tuple[int, int, int]:
    """(h, h_p, h_p'): number of parts, parts divisible by p, parts not divisible by p."""
    h = len(lam)
    h_p = sum(1 for x in lam if x % p == 0)
    return h, h_p, h - h_p


def a_p(lam: Partition, p: int) -> int:
    """0 if n - h_p'(lam) is even, else 1.

    Governs whether the supermodule D(lam) has type M (a_p = 0) or Q.
    """
    _, _, h_pp = part_counts(lam, p)
    return (size(lam) - h_pp) % 2


def a_0(lam: Partition) -> int:
    """Characteristic-0 type indicator: 1 iff n - h(lam) is odd.

    This is the specialization of a_p at any p > n, which pins the sign
    convention (a strict partition carries two sign-labels exactly when this
    is 1).
    """
    if not is_strict(lam):
        raise ValueError(f"a_0 requires a strict partition, got {lam}")
    return (size(lam) - len(lam)) % 2


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """True iff lam is dominated by mu (partial sums of lam never exceed mu's)."""
    if size(lam) != size(mu):
        raise ValueError("dominance is only defined for partitions of equal size")
    s_l = s_m = 0
    for i in range(max(len(lam), len(mu))):
        s_l += lam[i] if i < len(lam) else 0
        s_m += mu[i] if i < len(mu) else 0
        if s_l > s_m:
            return False
    return True
