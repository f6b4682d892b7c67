"""The benchmark's own reference computations.  None of this calls spinrest,
so a wrong answer from the program cannot also be the expected one."""

from functools import lru_cache
from math import factorial, prod

import numpy as np


def tabloid_count(shape) -> int:
    """m = n! / prod(lambda_i!), the dimension of the permutation module."""
    return factorial(sum(shape)) // prod(factorial(part) for part in shape)


def hook_dimension(shape) -> int:
    """dim S^shape: the number of standard tableaux, by the hook formula."""
    conj = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    hooks = prod(
        (part - c) + (conj[c] - r) - 1 for r, part in enumerate(shape) for c in range(part)
    )
    return factorial(sum(shape)) // hooks


def contingency_count(rows, cols) -> int:
    """Number of non-negative integer matrices with the given row and column
    sums.  For a Young subgroup S_rows acting on tabloids of shape cols this
    is the number of orbits (double cosets S_rows \\ S_n / S_cols)."""
    if sum(rows) != sum(cols):
        return 0

    @lru_cache(maxsize=None)
    def fill(i: int, remaining: tuple) -> int:
        if i == len(rows):
            return 1
        return sum(fill(i + 1, rest) for rest in _splits(rows[i], remaining))

    return fill(0, tuple(cols))


def _splits(total: int, caps: tuple):
    """All ways to take `total` out of the capacities, as the capacities left."""
    if not caps:
        if total == 0:
            yield ()
        return
    head, tail = caps[0], caps[1:]
    for take in range(min(total, head) + 1):
        for rest in _splits(total - take, tail):
            yield (head - take,) + rest


def is_restricted_p_strict(lam, p: int) -> bool:
    """Repeated parts only when divisible by p; every gap (the last part
    against 0) below p, or equal to p with the upper part not divisible by p."""
    parts = list(lam) + [0]
    for upper, lower in zip(parts, parts[1:]):
        if upper == lower and upper % p:
            return False
        gap = upper - lower
        if gap > p or (gap == p and upper % p == 0):
            return False
    return True


def label_signs(lam, p: int, group: str) -> tuple[str, ...]:
    """The sign labels of D(lam) ('S') or E(lam) ('A'): one unsigned label
    when a_p(lam) is 0 for 'S' (1 for 'A'), otherwise the pair +, -."""
    a_p = (sum(lam) - sum(1 for part in lam if part % p)) % 2
    unsigned = a_p == 0 if group == "S" else a_p == 1
    return ("0",) if unsigned else ("+", "-")


def partitions(n: int, max_part: int | None = None):
    """All partitions of n, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def known_rank_matrix(rng: np.random.Generator, rows: int, cols: int, rank: int, p: int) -> np.ndarray:
    """A rows x cols matrix over GF(p) of rank exactly `rank`: X @ Y with X of
    full column rank (a unit lower-triangular block under a row shuffle) and Y
    of full row rank (a unit upper-triangular block under a column shuffle).
    The product goes through float64, which is exact while rank * (p-1)^2
    stays below 2^53."""
    x = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
    x[:rank] = np.tril(x[:rank], -1) + np.eye(rank, dtype=np.int64)
    y = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
    y[:, :rank] = np.triu(y[:, :rank], 1) + np.eye(rank, dtype=np.int64)
    x = x[rng.permutation(rows)]
    y = y[:, rng.permutation(cols)]
    if rank * (p - 1) ** 2 >= 2**53:
        raise ValueError("entries of X @ Y would not be exact in float64")
    return np.rint(x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64) % p


def kernel_ok(a: np.ndarray, basis: np.ndarray, rank: int, p: int) -> bool:
    """basis spans the right kernel of a: it has cols - rank rows, each row
    has its own pivot (so the rows are independent), and a @ basis^T = 0."""
    a = np.asarray(a, dtype=np.int64)
    basis = np.asarray(basis, dtype=np.int64) % p
    cols = a.shape[1]
    if basis.shape != (cols - rank, cols):
        return False
    if basis.size == 0:
        return True
    pivots = [int(np.flatnonzero(row)[0]) if row.any() else -1 for row in basis]
    if -1 in pivots or len(set(pivots)) != len(pivots):
        return False
    if not np.array_equal(basis[:, pivots], np.eye(len(pivots), dtype=np.int64)):
        return False
    return not np.any((a @ basis.T) % p)


# The paper's fixed probes: the Gram criterion on S^(6,4,2) mod 3 and the
# dual-Specht invariants of (5,3,2) under W(2,5) mod 3.
GRAM_SHAPE = (6, 4, 2)
DUAL_SHAPE = (5, 3, 2)


def probe_sizes() -> dict:
    """Problem sizes of the fixed probes, computed without spinrest."""
    m, dim = tabloid_count(GRAM_SHAPE), hook_dimension(GRAM_SHAPE)
    dm, ddim = tabloid_count(DUAL_SHAPE), hook_dimension(DUAL_SHAPE)
    return {
        "gram": {
            "shape": list(GRAM_SHAPE),
            "p": 3,
            "m": m,
            "dim_S": dim,
            "rank": dim,
            "polytabloid_matrix": [m, dim],
            "gram_matrix": [dim, dim],
        },
        "dual": {
            "shape": list(DUAL_SHAPE),
            "p": 3,
            "subgroup": "W(2,5)",
            "m": dm,
            "dim_S": ddim,
            "dim_S_perp": dm - ddim,
            "transposed_polytabloid": [ddim, dm],
            "kernel_basis": [dm - ddim, dm],
            "permutation_matrix": [dm, dm],
            "generators": (2 - 1) + (5 - 1),
        },
    }
