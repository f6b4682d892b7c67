"""Dense exact linear algebra over the prime field GF(p).

Matrices are numpy int64 arrays with entries reduced to [0, p).  All
elimination goes through one panel-blocked echelon routine: pivots are found
in a narrow column panel by a scalar loop, and the rest of the matrix is
updated by one BLAS-backed product per panel.  The scalar loop leaves its
multipliers in the cells it clears, as LU factorizations do, so the
transform of the panel's pivot rows is replayed on k x k arrays instead of
by a second elimination.  Elimination refuses a p that is not prime, and
as its row updates form products of two residues, p is limited to
isqrt(2^63 - 1), where (p - 1)^2 still fits in int64.
Subspaces carry a canonical reduced-echelon basis, so equality is matrix
equality.

Reduction mod p is delayed, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet,
ACM TOMS 2008): elimination subtracts unreduced products and reduces only
before an entry could leave the range its type holds exactly, and at the
end.  Products of residue matrices run in the narrowest exact type: float32
while every inner product stays below 2^24, float64 below 2^53, and object
integers beyond.  The matrix being eliminated is stored in the type of a
full panel's product, float32 while 64 (p - 1)^2 < 2^24 (p <= 509), float64
while it is below 2^53 (p <= 11863279) and int64 beyond, so panel products
are subtracted in place; the scalar loop works on an int64 copy of its
panel."""

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .partitions import _is_prime

_INT64_MAX = 2**63 - 1
_P_MAX = isqrt(_INT64_MAX)
_PANEL = 64


def _check_prime(p: int) -> None:
    """Refuse a p that elimination cannot work with: (p - 1)^2 must fit in
    int64, which is checked before the primality test, and p must be prime."""
    if p > _P_MAX:
        raise ValueError(f"p must be at most {_P_MAX} so that (p-1)^2 fits in int64, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _exact_type(bound: int) -> tuple[type, int]:
    """The narrowest of float32, float64 and int64 that holds every integer
    below bound exactly, and the magnitude up to which it does."""
    for dtype, limit in ((np.float32, 2**24), (np.float64, 2**53)):
        if bound < limit:
            return dtype, limit
    return np.int64, _INT64_MAX


def _pivot_transform(m: np.ndarray, p: int, full: bool, delay: int) -> np.ndarray:
    """The k x k matrix T that takes a panel's k pivot rows, as they entered
    the scalar loop, to the rows it left: U, with unit pivots and zeros
    below them, or with full=True the RREF rows.

    m holds the panel's pivot columns of those rows as the loop left them:
    pivot j's inverse on the diagonal, and in every cell it cleared the
    multiple of pivot row j that was subtracted there.  T replays the loop's
    row operations on the identity: scale row j, then subtract the stored
    multiples of it from the rows below j (full=True: all other rows)."""
    off = m.copy() if full else np.tril(m)
    np.fill_diagonal(off, 0)
    t = np.eye(len(m), dtype=np.int64)
    for j in range(len(m)):
        t[j] = t[j] % p * m[j, j] % p
        t -= np.outer(off[:, j], t[j])
        if (j + 1) % delay == 0:
            t %= p
    return t % p


def _echelon(arr: np.ndarray, p: int, full: bool) -> tuple[np.ndarray, list[int]]:
    """Echelon form over GF(p) by column panels: (nonzero rows, pivot columns).

    The scalar loop finds the pivots of the next _PANEL columns, or of all
    remaining columns once at most _PANEL rows are left.  It leaves each
    pivot's inverse in the pivot cell and each multiplier in the cell it
    cleared, so the transform of the pivot rows comes from k x k arrays
    (_pivot_transform), and one product with the transformed pivot rows
    updates the rest of the matrix.  Only rows with a nonzero coefficient
    take part, which keeps sparse incidence matrices cheap.  full=True
    clears the rows above the panel too and yields the RREF, taking each
    row's coefficients from its entries in the pivot columns.  full=False
    clears only below, by the rows' own multipliers, and skips the panel's
    columns, which is all the rank needs: then only the pivots are
    meaningful.

    The scalar loop runs on an int64 copy of its panel.  There each pivot
    reduces only its column and its row, and subtracts the outer product
    unreduced.  That moves an entry by at most (p - 1)^2, so the panel is
    reduced after every `delay` pivots.  The panel products are subtracted
    unreduced from the matrix, stored in the type of a full panel product
    (_exact_type), and `spread` bounds its entries, so that it is reduced
    before any leaves the range that type holds exactly.
    """
    _check_prime(p)
    store, limit = _exact_type(_PANEL * (p - 1) ** 2)
    a = _reduced(arr, p).astype(store)
    rows, cols = a.shape
    delay = (_INT64_MAX - p) // max((p - 1) ** 2, 1)
    spread = p - 1  # no entry of a is larger in magnitude
    pivots: list[int] = []
    top = c0 = 0
    while top < rows and c0 < cols:
        c1 = cols if rows - top <= _PANEL else min(c0 + _PANEL, cols)
        work = a[top:, c0:c1].astype(np.int64)
        work %= p
        perm = np.arange(rows - top)
        found: list[int] = []
        for c in range(c1 - c0):
            r = len(found)
            if r == work.shape[0]:
                break
            first = 0 if full else r
            work[first:, c] %= p
            nz = np.nonzero(work[r:, c])[0]
            if nz.size == 0:
                continue
            if nz[0]:
                work[[r, r + nz[0]]] = work[[r + nz[0], r]]
                perm[[r, r + nz[0]]] = perm[[r + nz[0], r]]
            # the pivot row is zero left of c but for its multipliers, so the
            # update starts right of c; column c keeps inverse and multipliers
            inv = pow(int(work[r, c]), -1, p)
            work[r, c + 1 :] = work[r, c + 1 :] % p * inv % p
            work[r, c] = inv
            clear = first + np.nonzero(work[first:, c])[0]
            clear = clear[clear != r]
            if clear.size:
                work[clear, c + 1 :] -= np.outer(work[clear, c], work[r, c + 1 :])
            found.append(c)
            if len(found) % delay == 0:
                work %= p
        k = len(found)
        if k:
            piv = np.array(found)
            last = c1 == cols  # the scalar loop saw every remaining column
            if last:
                work[:k, piv] = np.eye(k, dtype=np.int64)
                x, start = work[:k] % p, c0
            else:
                start = c0 if full else c1
                moved = np.nonzero(perm != np.arange(rows - top))[0]
                a[top + moved, start:] = a[top + perm[moved], start:]
                x = matmul_mod(_pivot_transform(work[:k, piv], p, full, delay), a[top : top + k, start:], p)
            # full=True: the other rows, by their pivot-column entries against
            # the RREF rows (the pivot rows are then overwritten); full=False:
            # the rows below, by their multipliers against U.  After the last
            # panel only the rows above are left.
            if full:
                lo, hi = 0, top if last else rows
                coeff = a[lo:hi, c0 + piv].astype(np.int64) % p
            else:
                lo, hi = top + k, top + k if last else rows
                coeff = work[k : hi - top, piv]
            hit = np.nonzero(coeff.any(axis=1))[0]
            if hit.size:
                step = min(k * (p - 1) ** 2, 2**53)
                if spread + step > limit:
                    np.mod(a, p, out=a)
                    spread = p - 1
                spread += step
                if hit.size == hi - lo:
                    a[lo:hi, start:] -= _product(coeff, x, p).astype(store, copy=False)
                else:
                    a[lo + hit, start:] -= _product(coeff[hit], x, p).astype(store, copy=False)
            a[top : top + k, start:] = x
            pivots += (c0 + piv).tolist()
            top += k
        c0 = c1
    return a[:top].astype(np.int64) % p, pivots


def rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, over GF(p)."""
    return _echelon(arr, p, True)


def rank(arr: np.ndarray, p: int) -> int:
    """Rank over GF(p), by forward elimination only."""
    return len(_echelon(arr, p, False)[1])


def _reduced(a, p: int) -> np.ndarray:
    """a as int64 in [0, p); copies only when some entry lies outside."""
    a = np.asarray(a, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= p):
        return np.mod(a, p)
    return a


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b for int64 factors with entries in [0, p), exact: in the
    narrowest float type whose mantissa holds every inner product
    (_exact_type), or beyond 2^53 in object arithmetic, reduced mod p to
    int64."""
    dtype, _ = _exact_type(a.shape[-1] * (p - 1) ** 2)
    if dtype is np.int64:
        return np.mod(a.astype(object) @ b.astype(object), p).astype(np.int64)
    fb = b.astype(dtype)
    # a = b.T (a Gram product): one conversion, and BLAS sees the symmetric product
    fa = fb.T if a.__array_interface__ == b.T.__array_interface__ else a.astype(dtype)
    return fa @ fb


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p, for any modulus p >= 1."""
    return _product(_reduced(a, p), _reduced(b, p), p).astype(np.int64, copy=False) % p


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^ambient with a canonical RREF basis (rows)."""

    ambient: int
    basis: np.ndarray
    p: int
    pivots: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        piv = []
        for row in self.basis:
            nz = np.nonzero(row)[0]
            piv.append(int(nz[0]))
        object.__setattr__(self, "pivots", tuple(piv))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.p == other.p
            and np.array_equal(self.basis, other.basis)
        )


def kernel(arr: np.ndarray, p: int) -> Subspace:
    """Right kernel {v : arr v = 0} as a canonical Subspace.

    Eliminating the reversed columns puts each free column after the pivots
    its kernel vector involves; reversed back, the kernel vectors have their
    leading 1 at distinct columns that are zero in the others, so read from
    the last free column to the first they are already the RREF.
    """
    a = np.asarray(arr, dtype=np.int64)
    cols = a.shape[1]
    red, pivots = rref(a[:, ::-1], p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[:, free].T) % p
    return Subspace(cols, np.ascontiguousarray(basis[::-1, ::-1]), p)

