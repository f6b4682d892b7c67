"""Dense exact linear algebra over the prime field GF(p).

Inputs are integer arrays of any width with entries in (-p, p), such as the
int8 dual-Specht blocks and Gram matrices, read without a widening copy (an
entry outside costs matmul_mod one reduced copy, and elimination none where
its storage type holds the entry); the public functions return int64 arrays
with entries in [0, p).  The public elimination is rank and kernel, which
returns the kernel's canonical reduced-echelon basis and its dim.  Both go
through one panel-blocked echelon routine: pivots are found in a narrow
column panel by a scalar loop, and the rest of the matrix is updated by
BLAS-backed products, one per block of rows of at most _BATCH entries, so
that no product as large as the matrix is formed.  The scalar loop runs on
a transposed copy of its panel, so that a pivot's update runs along the
panel's rows.  It leaves its multipliers in the cells it clears, as LU
factorizations do, so the transform of the panel's pivot rows is the
inverse of a k x k triangular matrix, found in about 2 log2 k products,
instead of by a second elimination.  Elimination refuses a p that is not
prime, and every function a p above _P_MAX = 11863279, beyond which a full
panel's product leaves the integers that float64 holds exactly.

Reduction mod p is delayed, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet,
ACM TOMS 35(3), 2008): elimination stores the matrix in int16 for p <= 7,
which holds p - 1 plus eight panels' products, else in float32 or float64,
whichever holds one exactly (_storage), subtracts unreduced products, and
reduces, by vectorized floor division, only the part the next product
updates and only before an entry could leave that range, and at the end.
Products of residue matrices run in float32 while every inner product
stays below 2^24, else in float64, over slices of the inner dimension,
each reduced mod p, where it would pass 2^53; BLAS sees a Gram product
b.T @ b as symmetric.  _column_gram forms EᵀE from E's column structure
row by row, as in Gustavson's sparse product (ACM TOMS 1978): a row with
few nonzeros adds its pair products e_ri e_rj by bincount, and only the
other rows are made dense, for BLAS, in bounded tiles.  Both are summed
straight into G, reduced, in the narrowest signed type that holds [0, p).
Elimination states its own memory (_echelon_bytes), which callers compose
to refuse a request beyond physical memory before they allocate it.

Every BLAS product of fewer than _THREADED multiply-adds runs on one
OpenBLAS thread, and the caller's thread count is restored straight after
it (_matmul): where small products dominate, as in the Wilson ranks, a
second thread saved little wall time and cost CPU.  FFLAS-FFPACK, too,
sends only large products to parallel BLAS.  After a threaded product,
OpenBLAS's idle thread spins for 2^28 cycles (about 0.13 s on a 2-core
host) before it sleeps, and so through every scalar loop between two panel
products.  So the first product above _SERIAL also sets that timeout to
its minimum, 2^4 cycles, once per process, unless OPENBLAS_THREAD_TIMEOUT
is set: it sets the variable, has the library read its environment again,
removes the variable, and shuts the thread pool down, which the next
threaded product starts again with the new timeout.  This goes through the
functions of numpy's bundled OpenBLAS, found once by ctypes
(_blas_threads).  Where the thread count's get or set is missing (another
BLAS or wheel), every product keeps numpy's threads; where the environment
reader or the shut-down is, the timeout is left as it is.  The count and
the pool are the process's, so gfp must not be called from two Python
threads at once, and its first product above _SERIAL must not run while
another thread is inside BLAS."""

import ctypes
import glob
import os
from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from .partitions import _is_prime

# The largest prime with _PANEL (p - 1)^2 < 2^53, so that a full panel's
# product is exact in float64.
_P_MAX = 11863279
_PANEL = 64


def _check_prime(p: int) -> None:
    """Refuse a p that elimination cannot work with: p must be at most
    _P_MAX, which is checked before the primality test, and prime."""
    if p > _P_MAX:
        raise ValueError(f"p must be at most {_P_MAX}, the largest prime at which a panel product is exact in float64, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _exact_type(bound: int) -> tuple[type, int]:
    """float32 if it holds every integer below bound exactly, else float64,
    and the magnitude up to which it does (2^24 or 2^53)."""
    return (np.float32, 2**24) if bound < 2**24 else (np.float64, 2**53)


def _storage(p: int) -> tuple[type, int]:
    """_echelon's storage type and the magnitude it holds exactly: int16 for
    p <= 7, where it holds p - 1 plus eight panels' products (from p = 11 it
    would be reduced every fifth panel or more often, and measured slower),
    else _exact_type's for a full panel product: float32 for p <= 509 and
    float64 up to _P_MAX."""
    if p - 1 + 8 * _PANEL * (p - 1) ** 2 <= np.iinfo(np.int16).max:
        return np.int16, np.iinfo(np.int16).max
    return _exact_type(_PANEL * (p - 1) ** 2)


def _pivot_transform(m: np.ndarray, p: int, full: bool) -> np.ndarray:
    """The k x k matrix T that takes a panel's k pivot rows, as they entered
    the scalar loop, to the rows it left: U, with unit pivots and zeros
    below them, or with full=True the RREF rows.

    m holds the panel's pivot columns of those rows as the loop left them:
    pivot j's inverse on the diagonal, and in every cell it cleared the
    multiple of pivot row j that was subtracted there.  With L the
    multipliers below the diagonal and D the pivots, the rows entered as
    (D + L) U, so T = (D + L)^-1 = (I + N)^-1 D^-1 with N = D^-1 L.  N is
    strictly lower triangular, so N^k = 0 and (I + N)^-1 = (I - N)(I + N^2)
    (I + N^4)..., about 2 log2 k exact products (k (p - 1)^2 < 2^53 for
    k <= _PANEL), not a replay of k row operations.  full=True then
    subtracts, from each row, the multiples of the later rows stored above
    the diagonal: T = (I - R) (D + L)^-1, with R those multiples."""
    k = len(m)
    m = m.astype(np.int64)
    inv = np.diag(m).copy()
    n = _mod(np.tril(m, -1) * inv[:, None], p)
    s, q, e = np.eye(k, dtype=np.int64) - n, n, 2
    while e < k:
        q = _mod(_product(q, q, p).astype(np.int64), p)
        s = _mod(_product(s, q, p).astype(np.int64) + s, p)
        e *= 2
    t = _mod(s * inv, p)
    if full:
        t = _mod(_product(np.eye(k, dtype=np.int64) - np.triu(m, 1), t, p).astype(np.int64), p)
    return t


def _echelon(arr: np.ndarray, p: int, full: bool) -> tuple[np.ndarray, list[int]]:
    """Echelon form over GF(p) by column panels: (nonzero rows, pivot columns).

    The scalar loop finds the pivots of the next _PANEL columns, or of all
    remaining columns once at most _PANEL rows are left.  It leaves each
    pivot's inverse in the pivot cell and each multiplier in the cell it
    cleared, so the transform of the pivot rows comes from k x k arrays
    (_pivot_transform), and one product with the transformed pivot rows
    updates the rest of the matrix, in blocks of rows of at most _BATCH
    entries, so that no rows x cols product exists.  Where at most half the
    rows have a nonzero coefficient, only those take part, which keeps
    sparse incidence matrices cheap; else every row is updated in place,
    rows with zero coefficients by zero, so no gathered copy is made.
    full=True clears the rows above the panel too and yields the RREF,
    taking each row's coefficients from its entries in the pivot columns.
    full=False clears only below, by the rows' own multipliers, and skips
    the panel's columns, which is all the rank needs: it transforms a
    panel's pivot rows only where a row below has a multiplier, and never
    writes them back, so then only the returned pivots are meaningful.

    The scalar loop runs on a transposed copy of its panel, in int16 where
    the matrix is stored so (p <= 7) and else in int64, so that a column is
    contiguous and a pivot's update runs along rows.  There each pivot
    reduces only its column and its row, and subtracts the outer product
    unreduced: from a slice of the rows where more than an eighth of them
    have a multiplier, else from those rows gathered (gathering along the
    copy's second axis costs about eight times a slice's cell).  An entry
    moves by at most (p - 1)^2 a pivot, at most _PANEL times, which the copy
    holds after its p - 1.  The panel products are subtracted unreduced from
    the matrix, stored in _storage's type, which `spread` keeps exact by
    reducing (_mod) the rows and columns that the next product updates,
    before it could pass the type's exact range; no other part of the matrix
    is read again but for the pivot rows, which are reduced where they are
    read.  An input whose entries that type holds exactly is copied into it
    as it is, reduced or not (the int8 dual-Specht blocks hold +-2, outside
    (-2, 2)), and reduced there in time like any product; any other input is
    reduced first, in an int64 copy.  The matrix is returned in that type,
    unreduced.  _echelon_bytes bounds what this allocates.
    """
    _check_prime(p)
    store, limit = _storage(p)
    wide = store if store is np.int16 else np.int64  # the panel copy's type
    a = np.asarray(arr)
    a = a if a.dtype.kind in "iu" else a.astype(np.int64)
    spread = max(p - 1, -int(a.min(initial=0)), int(a.max(initial=0)))  # no entry of a is larger in magnitude
    if spread > limit:  # the storage type would not hold every entry exactly
        a, spread = np.mod(a, p, dtype=np.int64), p - 1
    a = a.astype(store, order="C")
    rows, cols = a.shape
    pivots: list[int] = []
    top = c0 = 0
    while top < rows and c0 < cols:
        c1 = cols if rows - top <= _PANEL else min(c0 + _PANEL, cols)
        work = _mod(a[top:, c0:c1].T.astype(wide, order="C"), p)  # work[j] is the panel's column j
        width, h = work.shape
        perm = np.arange(h)
        found: list[int] = []
        for c in range(width):
            r = len(found)
            if r == h:
                break
            first = 0 if full else r
            col = work[c, first:]
            col -= col // p * p
            nz = work[c, r:].nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                work[:, [r, r + nz[0]]] = work[:, [r + nz[0], r]]
                perm[[r, r + nz[0]]] = perm[[r + nz[0], r]]
            # the pivot row is zero left of c but for its multipliers, so
            # the update starts right of c; column c keeps inverse and
            # multipliers.  A swap moves the row that was zero at c to
            # r + nz[0], so the other nonzero rows below are r + nz[1:]
            inv = pow(int(work[c, r]), -1, p)
            pivot = work[c + 1 :, r] % p * inv % p
            work[c + 1 :, r] = pivot
            clear = r + nz[1:]
            if full:
                clear = np.concatenate([work[c, :r].nonzero()[0], clear])
            if 8 * clear.size > h - first:  # a slice, the pivot row by zero
                work[c, r] = 0
                work[c + 1 :, first:] -= pivot[:, None] * work[c, first:]
            elif clear.size:
                work[c + 1 :, clear] -= pivot[:, None] * work[c, clear]
            work[c, r] = inv
            found.append(c)
        k = len(found)
        if k:
            piv = np.array(found)
            last = c1 == cols  # the scalar loop saw every remaining column
            start = c0 if full or last else c1
            if not last:
                moved = np.nonzero(perm != np.arange(h))[0]
                a[top + moved, start:] = a[top + perm[moved], start:]
            # full=False reads the pivot rows only to update the rows below,
            # so it transforms them only where one of those has a multiplier
            if full or not last and work[piv, k:].any():
                if last:
                    work[piv, :k] = np.eye(k, dtype=wide)
                    x = work[:, :k].T % p
                else:
                    u = _mod(a[top : top + k, start:].copy(), p)
                    x = _product(_pivot_transform(work[piv, :k].T, p, full), u, p)
                    del u
                    x = _mod(x, p)  # kept in the product's float type, which the blocks below read without a copy
            # full=True: the other rows, by their pivot-column entries against
            # the RREF rows (the pivot rows are then overwritten); full=False:
            # the rows below, by their multipliers against U.  After the last
            # panel only the rows above are left.
            if full:
                lo, hi = 0, top if last else rows
                coeff = _mod(a[lo:hi, c0 + piv], p)  # a gathered copy, reduced in its own type
            else:
                lo, hi = top + k, top + k if last else rows
                coeff = work[piv, k : hi - top].T
            hit = np.nonzero(coeff.any(axis=1))[0]
            if hit.size:
                step = k * (p - 1) ** 2
                if spread + step > limit:
                    _mod(a[lo:hi, start:], p)
                    spread = p - 1
                spread += step
                height = max(_BATCH // (cols - start), 1)
                if 2 * hit.size > hi - lo:  # the rows in place, those with zero coefficients by zero
                    blocks = [(slice(r, min(r + height, hi)), slice(r - lo, r - lo + height)) for r in range(lo, hi, height)]
                else:
                    blocks = [(lo + hit[i : i + height], hit[i : i + height]) for i in range(0, hit.size, height)]
                for rows_at, of in blocks:
                    a[rows_at, start:] -= _product(coeff[of], x, p).astype(store, copy=False)
            if full:
                a[top : top + k, start:] = x
            pivots += (c0 + piv).tolist()
            top += k
        c0 = c1
    return a[:top], pivots


def _echelon_bytes(rows: int, cols: int, p: int, full: bool) -> int:
    """Bytes that bound what rank (full=False) or kernel (full=True)
    allocates beyond its rows x cols input.  Besides the copy in _storage's
    type (s bytes an entry), 64 bytes a row of index arrays, 48 bytes a
    pivot and 16 kB of small objects, it holds the scalar loop's panel copy
    (w bytes an entry, `panel` entries: rows x _PANEL, or _PANEL rows x
    every remaining column in the last panel) and the largest of three
    stages, with f bytes an entry of a panel product's float type and
    `block` entries (_BATCH + cols, or fewer) a block of rows:
    - the scalar loop: the next panel's copy and its reduction's quotient
      buffer, or a rank-1 update's product (and the rows it gathers, at most
      an eighth of them), no larger than the panel, in w;
    - the pivot rows' transform: the k x k arrays of _pivot_transform, at
      most 96 bytes a cell, and the rows in s, as floats and their product,
      then its reduction through int64, a block at a time;
    - the update: the transformed rows (floats) and the coefficients (w, or
      in full mode gathered from the matrix in s), and a block of rows: its
      coefficients and their floats, and the product, its cast and the rows
      it updates, a block each, or, in a float type, the in-time
      reduction's int64 block and quotient.
    kernel's basis follows.  It reads the pivot rows at the free columns,
    at most kf = max k (cols - k) entries over the ranks k <= rows, gathered
    in s beside the storage copy, which is then freed; they are reduced
    (at most 16 bytes an entry of buffers, _BATCH entries at a time) and
    cast, 8 bytes an entry, into the int64 basis, at most cols x cols, with
    the index arrays of the pivot and free columns, 96 bytes a column."""
    s, f = np.dtype(_storage(p)[0]).itemsize, np.dtype(_exact_type(_PANEL * (p - 1) ** 2)[0]).itemsize
    w = 2 if s == 2 else 8
    c = s if full else w
    panel, block = max(rows * min(cols, _PANEL), min(rows, _PANEL) * cols), min(_BATCH + cols, rows * cols)
    k = min(rows, cols, _PANEL)  # the most pivots a panel has
    scalar = 2 * w * panel
    transform = (s + 2 * f) * panel + 16 * block + 96 * k * k
    update = 2 * (f + c) * panel + max(f + 2 * s, 0 if s == 2 else 16) * block
    work = w * panel + max(scalar, transform, update) + 64 * rows
    echelon = s * rows * cols + work + 48 * cols + (1 << 14)
    if not full:
        return echelon
    half = min(rows, cols // 2)
    kf = half * (cols - half)
    basis = max(s * rows * cols, 8 * cols * cols + 8 * kf + 16 * min(_BATCH, kf)) + s * kf
    return max(echelon, basis + 96 * cols + (1 << 14))


def rank(arr: np.ndarray, p: int) -> int:
    """Rank over GF(p), by forward elimination only."""
    return len(_echelon(arr, p, False)[1])


def _reduced(a, p: int) -> np.ndarray:
    """a as an integer array with entries in (-p, p), in its own type (int64
    for any other input); copies, to int64 in [0, p), only when some entry
    lies outside."""
    a = np.asarray(a)
    a = a if a.dtype.kind in "iu" else a.astype(np.int64)
    if a.size and (a.min() <= -p or a.max() >= p):
        return np.mod(a, p, dtype=np.int64)
    return a


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b for integer or integer-valued float factors with entries in
    (-p, p), exact and unreduced, in the narrowest float type whose mantissa
    holds every inner product (_exact_type).  An inner dimension K with K (p - 1)^2 >= 2^53
    (only matmul_mod's; a panel's K is at most _PANEL) is cut into float64
    slices whose products are exact, each reduced mod p by fmod before it
    is added, and the sum after it, so the result lies in (-p, p).  A Gram
    product b.T @ b (a = b.T) is summed over blocks of under 2 max(d,
    _PANEL) rows of b, or the slices if shorter, each a symmetric product."""
    k = len(b)
    dtype, limit = _exact_type(k * (p - 1) ** 2)
    sliced = k * (p - 1) ** 2 >= limit
    gram = a.__array_interface__ == b.T.__array_interface__
    n = max(-(-k // ((limit - 1) // (p - 1) ** 2)) if sliced else 1, k // max(b.shape[1], _PANEL) if gram else 1)
    step = max(-(-k // n), 1)
    out = None
    for i in range(0, max(k, 1), step):
        y = b[i : i + step].astype(dtype, copy=False)
        part = _matmul(y.T, y) if gram else _matmul(a[..., i : i + step].astype(dtype, copy=False), y)
        if sliced:
            np.fmod(part, p, out=part)
        out = part if out is None else np.add(out, part, out=out)
        if sliced:
            np.fmod(out, p, out=out)
    return out


# A row of b with c nonzeros adds about c^2 / 2 pair products to the upper
# triangle of b.T @ b.  Summed one at a time (_column_gram's sparse side), a
# pair costs about _KAPPA^2 of the multiply-adds that a symmetric BLAS product
# spends on the row's d^2 / 2 cells, so a row goes to BLAS when c * _KAPPA > d.
# Measured on S^(6,4,2)'s E, where the split sends 1267 of 13860 rows to BLAS.
_KAPPA = 40
# Entries handled at once: of the pairs and the output cells of one of
# _column_gram's bincounts, and of a product matmul_mod reduces.
_BATCH = 1 << 19
# Products of fewer multiply-adds than this run on one OpenBLAS thread.  On
# two cores, float32 n x 64 x n products ran faster on two threads, back to
# back and after an idle gap, from n = 600 (2^24.5) on; below it the gain
# was mixed or none.  With the second thread asleep straight after each
# product (_blas_threads), removing this rule still cost CPU on the Wilson
# ranks and the Gram criterion.  Elimination's row-block updates of G (about
# _BATCH * _PANEL = 2^25 multiply-adds) stay above it.
_THREADED = 1 << 24
# Products of at most this many multiply-adds, as _pivot_transform's 64^3,
# neither look up OpenBLAS nor set its thread count: numpy's OpenBLAS 0.3.31
# ran float32 64 x 64 x n products on one thread itself up to n = 240, and
# on two from n = 248.
_SERIAL = 1 << 18


@cache
def _blas_threads():
    """The (get, set) functions of the thread count of numpy's bundled
    OpenBLAS and its reader of the spin timeout's exponent (None where it is
    missing), found once by ctypes, or None where the library or either
    thread function is missing (then every product keeps numpy's threads).

    Once found, the spin timeout is set to its minimum exponent, 4, unless
    OPENBLAS_THREAD_TIMEOUT is set already or openblas_read_env or
    blas_thread_shutdown_ is missing: the variable is set only while the
    library reads its environment again, and the shut-down pool is started
    again, with the new timeout, by the next threaded product."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                read, shutdown, timeout = (getattr(handle, f, None) for f in ("openblas_read_env", "blas_thread_shutdown_", "openblas_thread_timeout"))
                if read is not None and shutdown is not None and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
                    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
                    try:
                        read()
                    finally:
                        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
                    shutdown()
                if timeout is not None:
                    timeout.argtypes, timeout.restype = [], ctypes.c_int
                return get, put, timeout
    return None


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y, on one OpenBLAS thread where it takes more than _SERIAL and
    fewer than _THREADED multiply-adds, and the caller's thread count
    restored after it.  Every product above _SERIAL reaches the lookup, so
    that the first of them sets the spin timeout (_blas_threads)."""
    size = x.size * y.shape[-1]
    blas = _blas_threads() if size > _SERIAL else None
    if blas is None or size >= _THREADED:
        return x @ y
    get, put, _ = blas
    threads = get()
    put(1)
    try:
        return x @ y
    finally:
        put(threads)


def _signed(bound: int) -> type:
    """The narrowest signed integer type that holds every integer of
    magnitude at most bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _column_gram(index: np.ndarray, values, p: int) -> np.ndarray:
    """b.T @ b mod p, in the narrowest signed type that holds [0, p) (int8
    for p <= 127), for the integer matrix b given by its column structure:
    column j holds values[..., k] (broadcast to index's d x c shape) in row
    index[j, k], each row at most once, and zeros elsewhere; entries lie in
    (-p, p), and entries 0 are skipped.

    The nonzeros are sorted by row, then by column (Gustavson, ACM TOMS
    4(3), 1978).  A row of r nonzeros is dense if r * _KAPPA > d; only the
    dense rows are formed, as h, and their products taken by matmul_mod,
    reduced, in square tiles of the upper triangle, isqrt(batch) wide but
    at least _PANEL, so that no d x d product exists.  Every other row adds
    its pair products b_ri b_rj, i <= j, by one float64 bincount per batch
    of columns i, of at most `batch` pairs and cells (_add_pairs), found in
    the nonzeros' column order, exact while c v^2 < 2^53 for v the largest
    |value| (else every row is dense).  G's upper triangle is then mirrored
    in place, _PANEL columns at a time."""
    d, c = index.shape
    flat = np.broadcast_to(values, index.shape).ravel()
    order = np.argsort(index, axis=None, kind="stable")  # by row, then by column
    order = order[flat[order] != 0]
    row, col, val = index.ravel()[order], order // max(c, 1), flat[order]
    del order, flat
    count = np.bincount(row)
    dense = (count * _KAPPA > d) | (c * int(np.abs(val).max(initial=0)) ** 2 >= 2**53)  # or a cell's pair sum may round
    heavy = dense[row]
    h = np.zeros((np.count_nonzero(dense), d), val.dtype)
    h[(np.cumsum(dense) - 1)[row[heavy]], col[heavy]] = val[heavy]
    rep = np.cumsum(count)[row] - np.arange(len(row))  # partners j >= i in the row
    del row, count, dense
    col, val, rep = col[~heavy], val[~heavy], rep[~heavy]
    del heavy
    g = np.zeros((d, d), _signed(p - 1))
    batch = min(_BATCH, d * d // 48)  # at about 48 bytes an entry, within the elimination's copy of G
    w = max(isqrt(batch), _PANEL)
    for i in range(0, d if len(h) else 0, w):
        for j in range(i, d, w):
            g[i : i + w, j : j + w] = matmul_mod(h[:, i : i + w].T, h[:, j : j + w], p)
    del h
    if len(col):
        per_col = np.bincount(col, weights=rep, minlength=d).tolist()
        by_col = np.argsort(col.astype(np.min_scalar_type(d)), kind="stable")  # a radix sort while d < 2^16
        start = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=d))]).tolist()
        c0 = pairs = 0
        for c1 in range(d):
            if c1 > c0 and (pairs + per_col[c1] > batch or (c1 + 1 - c0) * (d - c0) > batch):
                _add_pairs(g, col, val, rep, by_col[start[c0] : start[c1]], c0, c1, p)
                c0, pairs = c1, 0
            pairs += per_col[c1]
        _add_pairs(g, col, val, rep, by_col[start[c0] :], c0, d, p)
        del by_col
    del col, val, rep
    for i in range(0, d, _PANEL):  # mirror the upper triangle
        g[i:, i : i + _PANEL] = np.tril(g[i : i + _PANEL, i:].T) + np.triu(g[i:, i : i + _PANEL], 1)
    return g


def _add_pairs(g: np.ndarray, col: np.ndarray, val: np.ndarray, rep: np.ndarray, k: np.ndarray, c0: int, c1: int, p: int) -> None:
    """Add to g[c0:c1, c0:], mod p, the products of each nonzero k, those in
    columns [c0, c1), with the rep[k] nonzeros from k on in its row, all in
    one row of b and in column order: the pairs i <= j, summed exactly in
    float64 and reduced with g's cells in int64."""
    n = rep[k]
    partner = np.repeat(k - np.cumsum(n) + n, n)
    partner += np.arange(len(partner))
    weight = np.repeat(val[k].astype(np.float64), n)
    weight *= val[partner]
    width = g.shape[1] - c0
    flat = np.repeat((col[k] - c0) * width - c0, n)
    flat += col[partner]
    cells = np.bincount(flat, weight, minlength=(c1 - c0) * width).astype(np.int64).reshape(c1 - c0, width)
    cells += g[c0:c1, c0:]
    g[c0:c1, c0:] = _mod(cells, p)


def _column_gram_bytes(m: int, d: int, c: int, p: int) -> int:
    """Bytes that bound rank(_column_gram(index, values, p), p) for an m x d
    matrix b with c entries +-1 a column, given by its d x c intp index,
    N = d c.  While G is formed: the index, 8 bytes an entry, 24 bytes a
    row, and the largest of the sort and split, 44 bytes an entry, with the
    dense rows h (at most min(m, c _KAPPA), as each has more than d / _KAPPA
    entries); with the kept 17 bytes an entry and G, a tile (h, two w-wide
    blocks of it in the product's float type, f bytes an entry, and f + 16
    bytes a cell for the product, its int64 copy and _mod's buffer, or for
    _product's running sum of float64 slices and a slice's product) or a
    batch (8 bytes an entry for the column order and its sort, 10 more, or
    48 bytes a pair, at most the batch and one column's pairs, and 16 a
    cell).  Then G, with its rank's workspace (_echelon_bytes)."""
    n, dense, batch = d * c, min(m, c * _KAPPA), min(_BATCH, d * d // 48)
    w, f = min(max(isqrt(batch), _PANEL), d), np.dtype(_exact_type(dense * (p - 1) ** 2)[0]).itemsize
    g = np.dtype(_signed(p - 1)).itemsize * d * d
    tile = dense * d + 2 * f * dense * w + (f + 16) * w * w
    sparse = 8 * n + max(10 * n, 48 * (batch + c * (d // _KAPPA)) + 16 * batch)
    product = 8 * n + 24 * m + max(44 * n + dense * d, 17 * n + g + max(tile, sparse))
    return max(product, g + _echelon_bytes(d, d, p, False))


def _mod(out: np.ndarray, p: int) -> np.ndarray:
    """out, of any integer type or a float type with integer entries,
    reduced mod p in place, to [0, p), and returned: by x - x // p * p, which
    numpy vectorizes, unlike np.mod, in blocks of rows of at most _BATCH
    entries, through one quotient buffer (and for a float type one int64
    copy), so that no temporary of out's size is live.  An integer type is
    reduced in itself: in int16, x // p * p may wrap, but x - x // p * p
    lies in [0, p), so it is still right modulo 2^16.  A float type goes
    through int64, which holds its entries exactly (np.mod takes five times
    as long on floats, np.fmod more).  An out of other than two axes (a
    stacked product) is read as the rows of its last axis, without a copy."""
    if out.ndim != 2:
        _mod(out.reshape(-1, out.shape[-1], copy=False), p)
        return out
    height = max(_BATCH // max(out.shape[1], 1), 1)
    own = out.dtype.kind in "iu"
    shape = (min(height, len(out)), out.shape[1])
    quotient, exact = np.empty(shape, out.dtype if own else np.int64), None if own else np.empty(shape, np.int64)
    for lo in range(0, len(out), height):
        x = out[lo : lo + height]
        y = x if own else exact[: len(x)]
        if not own:
            y[...] = x
        q = np.floor_divide(y, p, out=quotient[: len(y)])
        q *= p
        y -= q
        if not own:
            x[...] = y
    return out


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p, for any modulus 1 <= p <= _P_MAX; a may be stacked
    (more than two axes), b has one or two.  In a Gram product b.T @ b of a
    2-D b, b is reduced once, so that _product still sees one.  As in
    np.matmul, a 1-D a is one row and a 1-D b one column, and the result
    drops that axis (a 0-d array for two vectors)."""
    if p > _P_MAX:
        _check_prime(p)  # refuses it, as elimination does
    a, b = np.asarray(a), np.asarray(b)
    if b.ndim > 2:
        raise ValueError(f"b must have one or two axes, got {b.ndim}")
    if a.ndim == 1 or b.ndim == 1:  # a vector is its own transpose, so it must not pass for a Gram factor
        out = matmul_mod(a[None, :] if a.ndim == 1 else a, b[:, None] if b.ndim == 1 else b, p)
        out = out[..., 0, :] if a.ndim == 1 else out
        return out[..., 0] if b.ndim == 1 else out
    gram = a.__array_interface__ == b.T.__array_interface__
    b = _reduced(b, p)
    a = b.T if gram else _reduced(a, p)
    return _mod(_product(a, b, p).astype(np.int64, order="C", copy=False), p)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of GF(p)^n by its canonical reduced-echelon basis: an
    int64 array of dim rows and n columns."""

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def kernel(arr: np.ndarray, p: int) -> Subspace:
    """Right kernel {v : arr v = 0} by its canonical basis.

    Eliminating the reversed columns puts each free column after the pivots
    its kernel vector involves; reversed back, the kernel vectors have their
    leading 1 at distinct columns that are zero in the others, so read from
    the last free column to the first they are already the RREF.  The basis
    reads of the RREF only its rows' entries at the free columns, so only
    those are copied and reduced, before the elimination's copy is freed,
    and it is written once, in its final order."""
    a = np.asarray(arr)
    cols = a.shape[1]
    red, pivots = _echelon(a[:, ::-1], p, True)
    piv = np.array(pivots, dtype=np.intp)
    free = np.ones(cols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)[::-1]  # the reversed matrix's free columns, the last first
    x = red[:, free]
    del red
    x = _mod(np.negative(x, out=x), p)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), cols - 1 - free] = 1
    basis[:, cols - 1 - piv] = x.T
    return Subspace(basis)

