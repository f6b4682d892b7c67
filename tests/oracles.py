"""Independent brute-force oracles used to freeze expected values.

Everything here works directly on node sets / literal definitions and avoids
the package's row-arithmetic code paths, so agreement is meaningful.  Linear
algebra over GF(p) runs on this module's own eliminations, gauss_jordan on
Python ints and row_reduce, its numpy counterpart, and imports nothing from
spinrest.gfp.  The quotient route to dual Specht invariants builds its
matrices from the package's tabloid bases and polytabloids.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import numpy as np

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


def regularize_by_ladders(lam: tuple[int, ...], p: int) -> tuple[int, ...]:
    """lam^Reg by the definition: node (r, c) lies on the ladder of column
    s = c + (r - 1)p, except that columns mp and mp + 1 make one fused
    ladder.  Every quadrant node of each ladder that lam meets is scanned,
    each ladder's nodes are sorted by column, and each ladder keeps as many
    of its leftmost nodes as lam has on it."""

    def ladder_of(r: int, c: int):
        s = c + (r - 1) * p
        return ("fused", (s + 1) // p) if s % p in (0, 1) else ("plain", s)

    cells = [(r, c) for r, part in enumerate(lam, start=1) for c in range(1, part + 1)]
    top = max((c + (r - 1) * p for r, c in cells), default=0) + 1
    ladders = defaultdict(list)
    for r in range(1, top // p + 2):
        for c in range(1, top + 1):
            ladders[ladder_of(r, c)].append((c, r))
    counts = defaultdict(int)
    for r, c in cells:
        counts[ladder_of(r, c)] += 1
    rows = defaultdict(int)
    for key, k in counts.items():
        for _c, r in sorted(ladders[key])[:k]:
            rows[r] += 1
    return tuple(rows[r] for r in range(1, max(rows, default=0) + 1))


def ladder_counts_by_nodes(lam: tuple[int, ...], p: int) -> dict[int, int]:
    """Node count on each ladder, one node at a time: node (r, c) lies on
    column s = c + (r - 1)p, and the fused ladder of columns mp and mp + 1
    is named mp + 1."""
    counts = defaultdict(int)
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            s = c + (r - 1) * p
            counts[s + 1 if s % p == 0 else s] += 1
    return dict(counts)


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


def _from_cycles(n: int, *cycles) -> tuple[int, ...]:
    img = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            img[x] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def _after(g, h) -> tuple[int, ...]:
    return tuple(g[x] for x in h)


def _is_odd(g) -> bool:
    """By inversions, not by cycles."""
    return _inversions(g) % 2 == 1


def coxeter_generators(spec) -> list[tuple[int, ...]]:
    """The Coxeter-style generating sets, of up to n - 1 elements:
    - adjacent transpositions in every Young block;
    - for the even part, adjacent 3-cycles in every block and one double
      transposition per adjacent pair of blocks of size >= 2;
    - for S_a wr S_b, adjacent transpositions in the first block and the
      swaps of adjacent blocks;
    - for S_a wr S_b meet A_n, Schreier's lemma with transversal {1, t}, t
      the first odd generator;
    - for I2(v, b), the even part of S_(b,b) and the swap of the two
      blocks, times (0 1) when v = 2."""
    n, kind = spec.n, spec.kind
    blocks = (n // 2,) * 2 if kind == "index2_wr_b2" else spec.blocks
    starts = [sum(blocks[:i]) for i in range(len(blocks))]
    if kind == "young":
        return [_from_cycles(n, (i, i + 1)) for s, b in zip(starts, blocks) for i in range(s, s + b - 1)]
    if kind in ("alt_young", "index2_wr_b2"):
        gens = [_from_cycles(n, (i, i + 1, i + 2)) for s, b in zip(starts, blocks) for i in range(s, s + b - 2)]
        big = [s for s, b in zip(starts, blocks) if b >= 2]
        gens += [_from_cycles(n, (s1, s1 + 1), (s2, s2 + 1)) for s1, s2 in zip(big, big[1:])]
        if kind == "index2_wr_b2":
            b = blocks[0]
            swap = _from_cycles(n, *((i, i + b) for i in range(b)))
            gens.append(swap if spec.blocks[0] == 1 else _after(_from_cycles(n, (0, 1)), swap))
        return gens
    a, b = spec.blocks  # wreath or wreath_alt
    gens = [_from_cycles(n, (i, i + 1)) for i in range(a - 1)]
    gens += [_from_cycles(n, *((i, i + a) for i in range(j * a, (j + 1) * a))) for j in range(b - 1)]
    odd = [g for g in gens if _is_odd(g)]
    if kind == "wreath" or not odd:
        return gens
    t = odd[0]
    t_inv = tuple(sorted(range(n), key=t.__getitem__))
    even = []
    for g in gens:
        even += [g, _after(t, _after(g, t_inv))] if not _is_odd(g) else [_after(g, t_inv), _after(t, g)]
    return [g for g in dict.fromkeys(even) if g != tuple(range(n))]


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


def lattice_positions(words, rows: int) -> np.ndarray:
    """Positions of the lattice words among (m, n) row-label words over
    `rows` labels: those in which every prefix holds label a at least as
    often as label a + 1, read from the cumulative sums of one-hot labels."""
    counts = np.cumsum(np.asarray(words)[..., None] == np.arange(rows), axis=1, dtype=np.int8)
    return np.flatnonzero(np.all(counts[..., :-1] >= counts[..., 1:], axis=(1, 2)))


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
    """For each standard tableau of the shape, in lex order of its row-label
    words (word[x] = the row of entry x), its polytabloid as {tabloid:
    coefficient}; a tabloid is the tuple of its rows as sorted tuples.
    Tableaux come from filtering all fillings, and each column group from all
    permutations that fix every column setwise."""
    n = sum(shape)
    diagram = [(r, c) for r, part in enumerate(shape) for c in range(part)]
    tableaux = []
    for filling in permutations(range(n)):
        at = dict(zip(diagram, filling))
        if all(at[r, c] < at[r, c + 1] for r, c in diagram if (r, c + 1) in at) and all(
            at[r, c] < at[r + 1, c] for r, c in diagram if (r + 1, c) in at
        ):
            tableaux.append(tuple(tuple(at[r, c] for c in range(part)) for r, part in enumerate(shape)))
    tableaux.sort(key=lambda t: [r for _x, r in sorted((x, r) for r, row in enumerate(t) for x in row)])
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
# Subspaces in reduced echelon form, by numpy Gauss-Jordan
# ---------------------------------------------------------------------------


def row_reduce(rows, p: int) -> tuple[np.ndarray, list[int]]:
    """gauss_jordan on an integer array: (nonzero rows of the reduced
    echelon form, int64 in [0, p), pivot columns).  One int64 row operation
    per pivot, applied to the rows that are nonzero in the pivot column and
    reduced mod p each time, so exact while p (p - 1) < 2^63."""
    a = np.mod(np.asarray(rows, dtype=np.int64), p)
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        hit = r + np.flatnonzero(a[r:, c])
        if hit.size == 0:
            continue
        a[[r, hit[0]]] = a[[hit[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p  # zero left of c
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
        pivots.append(c)
    return a[: len(pivots)], pivots


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of GF(p)^ambient by its reduced echelon basis (rows) and
    their pivot columns."""

    ambient: int
    basis: np.ndarray
    pivots: list[int]
    p: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace_from_rows(rows, ambient: int, p: int) -> Subspace:
    """The span of the given rows, with its canonical RREF basis."""
    return Subspace(ambient, *row_reduce(np.asarray(rows, dtype=np.int64), p), p)


def null_space(a, p: int) -> Subspace:
    """{v : a v = 0} by its RREF basis, from row_reduce of a's reversed
    columns: one vector per free column, 1 there and minus the RREF's
    column at the pivots.  Reversed back, each has its leading 1 at its
    free column, where the others are zero, so read from the last free
    column to the first they are the RREF (kernel_by_hand, a second
    Gauss-Jordan pass, checks this on small inputs)."""
    a = np.asarray(a, dtype=np.int64)
    cols = a.shape[1]
    red, pivots = row_reduce(a[:, ::-1], p)
    free = sorted(set(range(cols)) - set(pivots))
    vecs = np.zeros((len(free), cols), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, pivots] = -red[:, free].T % p
    return Subspace(cols, np.ascontiguousarray(vecs[::-1, ::-1]), [cols - 1 - f for f in reversed(free)], p)


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


def dense_polytabloid_matrix(shape) -> np.ndarray:
    """E as the dense m x d int8 matrix over Z, scattered from its column
    structure: column j holds signs[k] at tabloid index[j, k]."""
    index, signs = polytabloid_matrix(shape)
    e = np.zeros((len(perm_basis(shape)), len(index)), dtype=np.int8)
    e[index, np.arange(len(index))[:, None]] = signs
    return e


def specht_perp(shape, p: int):
    """(S^shape)^perp in M^shape under the standard tabloid pairing: the
    kernel of the transposed polytabloid matrix, a dense (m - d) x m basis.
    For two-row shapes this is the radical Z_k with M_k / Z_k = S_k^*."""
    return null_space(dense_polytabloid_matrix(shape).T, p)


def fixed_space(mats, dim: int, p: int):
    """Common fixed vectors of the given square matrices: the intersection of
    kernel(G - I); the full space when no generators are given."""
    mats = list(mats)
    if not mats:
        return subspace_from_rows(np.eye(dim, dtype=np.int64), dim, p)
    blocks = []
    for g in mats:
        g = np.mod(np.asarray(g, dtype=np.int64), p)
        if g.shape != (dim, dim):
            raise ValueError(f"generator shape {g.shape} != ({dim}, {dim})")
        blocks.append((g - np.eye(dim, dtype=np.int64)) % p)
    return null_space(np.concatenate(blocks, axis=0), p)


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
    # in RREF the residue modulo W vanishes on the pivot columns identically;
    # the int64 product is exact while dim W (p - 1)^2 < 2^63
    residue = (image[:, free] - image[:, pivots] @ w.basis[:, free]) % p
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
