"""Independent brute-force oracles used to freeze expected values.

Everything here works directly on node sets / literal definitions and avoids
the package's row-arithmetic code paths, so agreement is meaningful.  The
exceptions use the package's elimination on other matrices than the routes
they check: subspace_from_rows, and the last section, the quotient route to
dual Specht invariants.
"""

from collections import defaultdict
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import numpy as np

from spinrest.gfp import Subspace, kernel, matmul_mod, rref
from spinrest.specht import generators, perm_basis, polytabloid_matrix

Node = tuple[int, int]


def partitions_by_recursion(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n by bounded-largest-part recursion (independent of
    the package's generator)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_by_recursion(n - first, first):
            out.append((first,) + rest)
    return out


def brute_residue(s: int, p: int) -> int:
    """Residue of a column by exhausting the defining decomposition."""
    ell = (p - 1) // 2
    hits = set()
    for m in range(-2, s // p + 2):
        for k in range(ell + 1):
            for sign in (1, -1):
                if m * p + ell + 1 + sign * k == s:
                    hits.add(ell - k)
    assert len(hits) == 1, (s, p, hits)
    return hits.pop()


def cells_to_partition(cells: set) -> tuple[int, ...] | None:
    """Row lengths if the cell set is a left-justified Young diagram, else None."""
    if not cells:
        return ()
    rows = defaultdict(set)
    for r, c in cells:
        rows[r].add(c)
    top = max(rows)
    lengths = []
    for r in range(1, top + 1):
        cols = rows.get(r, set())
        if cols != set(range(1, len(cols) + 1)):
            return None
        lengths.append(len(cols))
    if any(x == 0 for x in lengths):
        return None
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return None
    return tuple(lengths)


def is_pstrict_cells(cells: set, p: int) -> bool:
    lam = cells_to_partition(cells)
    if lam is None:
        return False
    return all(lam[i] != lam[i + 1] or lam[i] % p == 0 for i in range(len(lam) - 1))


def brute_signature(lam: tuple[int, ...], p: int, i: int):
    """(signature word, surviving signs) straight from the definitions: test
    every nearby node against the removability/addability clauses, read the
    rim bottom-left to top-right, erase adjacent '+-' pairs to a fixpoint."""
    diagram = {(r + 1, c + 1) for r, part in enumerate(lam) for c in range(part)}
    height = len(lam)
    width = lam[0] if lam else 0
    entries = []  # (node, sign)
    for r in range(1, height + 1):
        for c in range(1, width + 2):
            a = (r, c)
            if a not in diagram:
                continue
            if brute_residue(c, p) == i and is_pstrict_cells(diagram - {a}, p):
                entries.append((a, "-"))
            b = (r, c + 1)
            if (
                b in diagram
                and brute_residue(c, p) == brute_residue(c + 1, p) == i
                and is_pstrict_cells(diagram - {b}, p)
                and is_pstrict_cells(diagram - {a, b}, p)
            ):
                entries.append((a, "-"))
    for r in range(1, height + 2):
        for c in range(1, width + 3):
            b = (r, c)
            if b in diagram:
                continue
            if brute_residue(c, p) == i and is_pstrict_cells(diagram | {b}, p):
                entries.append((b, "+"))
            a = (r, c - 1)
            if (
                c >= 2
                and a not in diagram
                and brute_residue(c - 1, p) == brute_residue(c, p) == i
                and is_pstrict_cells(diagram | {a}, p)
                and is_pstrict_cells(diagram | {a, b}, p)
            ):
                entries.append((b, "+"))
    entries.sort(key=lambda t: (-t[0][0], t[0][1]))
    word = [(node, sign) for node, sign in entries]
    # literal fixpoint erasure of adjacent "+-" pairs
    reduced = list(word)
    changed = True
    while changed:
        changed = False
        for idx in range(len(reduced) - 1):
            if reduced[idx][1] == "+" and reduced[idx + 1][1] == "-":
                del reduced[idx : idx + 2]
                changed = True
                break
    return word, reduced


def brute_eps_phi(lam: tuple[int, ...], p: int, i: int) -> tuple[int, int]:
    _, reduced = brute_signature(lam, p, i)
    eps = sum(1 for _, s in reduced if s == "-")
    return eps, len(reduced) - eps


def brute_good_cogood(lam: tuple[int, ...], p: int, i: int):
    _, reduced = brute_signature(lam, p, i)
    normal = [node for node, s in reduced if s == "-"]
    conormal = [node for node, s in reduced if s == "+"]
    return (normal[-1] if normal else None, conormal[0] if conormal else None)


def gauss_jordan(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Textbook Gauss-Jordan over GF(p) on lists of Python ints, one row at a
    time: (nonzero rows of the reduced echelon form, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(a)) if a[i][c]), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def kernel_by_hand(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Reduced echelon basis of {v : rows v = 0}: one vector per free column,
    then a second Gauss-Jordan pass over those vectors."""
    red, pivots = gauss_jordan(rows, ncols, p)
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -red[r][f] % p
        vecs.append(v)
    return gauss_jordan(vecs, ncols, p)[0]


def inverse_by_hand(rows: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of a nonsingular square matrix over GF(p), from [A | I]."""
    k = len(rows)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    red, pivots = gauss_jordan(aug, 2 * k, p)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in red]


def is_prime_by_trial_division(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


# ---------------------------------------------------------------------------
# Permutation groups, tabloids and polytabloids on tuples
# ---------------------------------------------------------------------------


def closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The whole group generated by the image tuples gens (small groups only)."""
    if not gens:
        return set()
    ident = tuple(range(len(gens[0])))
    group, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[g[i]] for i in range(len(g)))
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return group


def multinomial_rank(words, shape) -> np.ndarray:
    """Lexicographic rank of each row-label word of the given shape (batch
    shape (..., n)), in closed form.  If `count` words continue the prefix
    before position x, then count * below / (n - x) of them put a smaller
    label at x, where `below` counts the later entries with a smaller label,
    and count * here / (n - x) put the same label."""
    words = np.asarray(words)
    n, batch = sum(shape), words.shape[:-1]
    cols = np.ascontiguousarray(words.reshape(int(np.prod(batch)), n).T)
    m = factorial(n) // prod(factorial(part) for part in shape)
    count = np.full(cols.shape[1], m, dtype=object)
    out = np.zeros(cols.shape[1], dtype=object)
    for x in range(n - 1):  # the last label is forced
        rest = cols[x + 1 :]
        below = np.count_nonzero(rest < cols[x], axis=0)
        here = np.count_nonzero(rest == cols[x], axis=0) + 1
        out += count * below // (n - x)
        count = count * here // (n - x)
    return out.astype(np.int64).reshape(batch)


def perm_matrix(img) -> np.ndarray:
    """Dense 0/1 matrix of an index permutation: column j has its 1 in row img[j]."""
    m = len(img)
    mat = np.zeros((m, m), dtype=np.int64)
    for j, i in enumerate(img):
        mat[int(i), j] = 1
    return mat


def contingency_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Number of nonnegative integer matrices with the given row and column
    sums, one row at a time: the orbits of the Young subgroup S_rows on the
    tabloids of shape cols."""
    if not rows:
        return int(not any(cols))
    first, rest = rows[0], rows[1:]

    def split(i: int, left: int, remaining: tuple[int, ...]) -> int:
        if i == len(cols):
            return contingency_count(rest, remaining) if left == 0 else 0
        return sum(
            split(i + 1, left - take, remaining + (cols[i] - take,))
            for take in range(min(left, cols[i]) + 1)
        )

    return split(0, first, ())


def _inversions(seq) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


@lru_cache(maxsize=None)
def polytabloids_by_hand(shape: tuple[int, ...]) -> list[dict]:
    """For each standard tableau of the shape (lex order of its rows), its
    polytabloid as {tabloid: coefficient}; a tabloid is the tuple of its rows
    as sorted tuples.  Tableaux come from filtering all fillings, and each
    column group from all permutations that fix every column setwise."""
    n = sum(shape)
    diagram = [(r, c) for r, part in enumerate(shape) for c in range(part)]
    tableaux = []
    for filling in permutations(range(n)):
        at = dict(zip(diagram, filling))
        if all(at[r, c] < at[r, c + 1] for r, c in diagram if (r, c + 1) in at) and all(
            at[r, c] < at[r + 1, c] for r, c in diagram if (r + 1, c) in at
        ):
            tableaux.append(tuple(tuple(at[r, c] for c in range(part)) for r, part in enumerate(shape)))
    tableaux.sort()
    out = []
    for t in tableaux:
        column_of = {x: c for row in t for c, x in enumerate(row)}
        vec: dict = defaultdict(int)
        for sigma in permutations(range(n)):
            if any(column_of[sigma[x]] != column_of[x] for x in range(n)):
                continue
            tabloid = tuple(tuple(sorted(sigma[x] for x in row)) for row in t)
            vec[tabloid] += (-1) ** _inversions(sigma)
        out.append(dict(vec))
    return out


def z_invariant_dim_by_hand(k: int, n: int, p: int, gens) -> tuple[int, int, bool]:
    """(dim Z_k^H, dim M_k^H, gap) for H = <gens> on k-subsets: the orbits of
    the whole group (closure) on tabloids as tuples of sorted rows, and
    Z_k^H = the orbit-sum combinations that pair to zero with every
    hand-built polytabloid, ranked by gauss_jordan; for small n only."""
    shape = (n - k, k) if k else (n,)
    polys = polytabloids_by_hand(shape)
    group = closure(gens) or {tuple(range(n))}
    orbits, seen = [], set()
    for t in _all_tabloids(shape):
        if t not in seen:
            orbits.append({tuple(tuple(sorted(g[x] for x in row)) for row in t) for g in group})
            seen |= orbits[-1]
    rows = [[sum(vec.get(t, 0) for t in orbit) for vec in polys] for orbit in orbits]
    dim_z = len(rows) - len(gauss_jordan(rows, len(polys), p)[1])
    return dim_z, len(rows), dim_z < len(rows)


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def carter_irreducible(shape, p: int) -> bool:
    """Carter's criterion (James and Murphy, J. Algebra 59, 1979; James,
    LNM 682, Theorem 23.7) for a p-regular shape: S^shape is irreducible
    over GF(p) iff in each column all hook lengths have the same p-adic
    valuation."""
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0])] if shape else []
    return all(
        len({_valuation(shape[r] - c + heights[c] - r - 1, p) for r in range(heights[c])}) == 1
        for c in range(len(heights))
    )


# ---------------------------------------------------------------------------
# Subspaces in reduced echelon form
# ---------------------------------------------------------------------------


def subspace_from_rows(rows, ambient: int, p: int) -> Subspace:
    """The span of the given rows, with its canonical RREF basis."""
    arr = np.asarray(rows, dtype=np.int64)
    if arr.size == 0:
        return Subspace(ambient, np.zeros((0, ambient), dtype=np.int64), p)
    return Subspace(ambient, rref(arr, p)[0], p)


def residue(w, rows) -> np.ndarray:
    """Residues of row vectors modulo the subspace w (canonical RREF basis)."""
    x = np.mod(np.asarray(rows, dtype=np.int64), w.p)
    for r, c in enumerate(w.pivots):
        x = (x - np.outer(x[:, c], w.basis[r])) % w.p
    return x


def contains(w, vec) -> bool:
    return not np.any(residue(w, [vec]))


def quotient_projection(w) -> np.ndarray:
    """The projection ambient -> ambient/W, rows indexed by W's free columns."""
    free = [c for c in range(w.ambient) if c not in w.pivots]
    proj = np.zeros((len(free), w.ambient), dtype=np.int64)
    for k, f in enumerate(free):
        proj[k, f] = 1
        for r, c in enumerate(w.pivots):
            proj[k, c] = -w.basis[r, f] % w.p
    return proj


# ---------------------------------------------------------------------------
# Dual Specht invariants through the kernel of E^T and quotient matrices
# ---------------------------------------------------------------------------


def specht_perp(shape, p: int):
    """(S^shape)^perp in M^shape under the standard tabloid pairing: the
    kernel of the transposed polytabloid matrix, a dense (m - d) x m basis.
    For two-row shapes this is the radical Z_k with M_k / Z_k = S_k^*."""
    return kernel(polytabloid_matrix(shape, p).T, p)


def fixed_space(mats, dim: int, p: int):
    """Common fixed vectors of the given square matrices: the intersection of
    kernel(G - I); the full space when no generators are given."""
    mats = list(mats)
    if not mats:
        return Subspace(dim, np.eye(dim, dtype=np.int64), p)
    blocks = []
    for g in mats:
        g = np.mod(np.asarray(g, dtype=np.int64), p)
        if g.shape != (dim, dim):
            raise ValueError(f"generator shape {g.shape} != ({dim}, {dim})")
        blocks.append((g - np.eye(dim, dtype=np.int64)) % p)
    return kernel(np.concatenate(blocks, axis=0), p)


def quotient_action(g, w) -> np.ndarray:
    """Matrix induced on ambient/W, in the coordinates of W's non-pivot
    columns, by the coordinate permutation g (coordinate j goes to g[j]);
    raises if g does not stabilize W.

    The projection to ambient/W is the identity on the free columns and
    -basis[:, free] on the pivots; the quotient matrix gathers its columns
    at the images of the free coordinates."""
    p, n = w.p, w.ambient
    g = np.asarray(g, dtype=np.intp)
    if g.shape != (n,) or not np.array_equal(np.sort(g), np.arange(n)):
        raise ValueError(f"generator must be a permutation of {n} coordinates")
    pivots = list(w.pivots)
    free = np.setdiff1d(np.arange(n), pivots)
    image = w.basis[:, np.argsort(g)]  # rows are g * basis vectors
    # in RREF the residue modulo W vanishes on the pivot columns identically
    residue = (image[:, free] - matmul_mod(image[:, pivots], w.basis[:, free], p)) % p
    if np.any(residue):
        raise ValueError("subspace is not stable under the generator")
    proj = np.zeros((len(free), n), dtype=np.int64)
    proj[np.arange(len(free)), free] = 1
    proj[:, pivots] = (-w.basis[:, free].T) % p
    return proj[:, g[free]]


def dual_specht_invariant_dim_by_quotients(shape, p: int, spec) -> int:
    """dim (M^shape / (S^shape)^perp)^H as the common fixed space of the
    generators' matrices on the quotient by the full perp basis."""
    w = specht_perp(shape, p)
    basis = perm_basis(shape)
    mats = [quotient_action(basis.act(g), w) for g in generators(spec)]
    return fixed_space(mats, len(basis) - w.dim, p).dim


def dual_specht_invariant_dim_by_hand(shape, p: int, gens) -> int:
    """dim (M / S^perp)^H = d - rank of the stacked maps v -> E^T (g v - v),
    on hand-built polytabloids (tabloids as tuples of sorted rows) ranked by
    gauss_jordan; for small shapes only."""
    polys = polytabloids_by_hand(shape)
    tabloids = _all_tabloids(shape)
    rows = []
    for g in gens:
        for vec in polys:
            row = [0] * len(tabloids)
            for j, t in enumerate(tabloids):
                moved = tuple(tuple(sorted(g[x] for x in r)) for r in t)
                row[j] = (vec.get(moved, 0) - vec.get(t, 0)) % p
            rows.append(row)
    return len(polys) - len(gauss_jordan(rows, len(tabloids), p)[1])


@lru_cache(maxsize=None)
def _all_tabloids(shape) -> list:
    """Every tabloid of the shape, as a tuple of sorted rows."""
    out = set()
    for filling in permutations(range(sum(shape))):
        rows, start = [], 0
        for part in shape:
            rows.append(tuple(sorted(filling[start : start + part])))
            start += part
        out.add(tuple(rows))
    return sorted(out)
