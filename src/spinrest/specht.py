"""Permutation modules on tabloids and k-subsets, Specht modules over GF(p),
invariants under wreath/Young subgroups, and the incidence maps between
k-subset bases.

Permutations are 0-indexed image tuples.  A tabloid of shape
(l_1, ..., l_r) is one word of row labels: word[x] is the row of entry x,
with row 1 labelled 0, so label a occurs l_{a+1} times.  A basis lists these
words in lexicographic word order, and a word's index is found by binary
search among them, each word read as one n-byte key.  A permutation acts
on a basis as one index array (image of each tabloid), so orbits,
polytabloids and the blocks of the dual Specht action are gathers and
scatters on integer arrays, and matrices are reproducible.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, prod

import numpy as np

from .gfp import _check_prime, kernel, matmul_mod, rank
from .partitions import Partition, check_partition

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# Permutations and subgroup generating sets
# ---------------------------------------------------------------------------


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def from_cycles(n: int, *cycles) -> Perm:
    """Permutation of {0..n-1} from disjoint cycles (0-indexed)."""
    img = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            img[x] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def compose(g: Perm, h: Perm) -> Perm:
    """g after h."""
    return tuple(g[h[i]] for i in range(len(g)))


def inverse(g: Perm) -> Perm:
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return tuple(inv)


def perm_sign(g: Perm) -> int:
    seen = [False] * len(g)
    sign = 1
    for i in range(len(g)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class SubgroupSpec:
    """A named subgroup of S_n.

    kind: 'young', 'alt_young' (blocks = composition of n), 'wreath',
    'wreath_alt' (blocks = (a, b) with ab = n), 'index2_wr_b2'
    (blocks = (variant, b), n = 2b), 'full_sym', 'full_alt', 'trivial'.
    """

    kind: str
    n: int
    blocks: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind in ("young", "alt_young"):
            if sum(self.blocks) != self.n or any(b <= 0 for b in self.blocks):
                raise ValueError(f"blocks {self.blocks} do not compose {self.n}")
        elif self.kind in ("wreath", "wreath_alt"):
            a, b = self.blocks
            if a < 2 or b < 2 or a * b != self.n:
                raise ValueError(f"wreath blocks {self.blocks} invalid for n={self.n}")
        elif self.kind == "index2_wr_b2":
            variant, b = self.blocks
            if variant not in (1, 2) or 2 * b != self.n:
                raise ValueError(f"index-2 spec {self.blocks} invalid for n={self.n}")
        elif self.kind not in ("full_sym", "full_alt", "trivial"):
            raise ValueError(f"unknown subgroup kind {self.kind}")

    def __str__(self) -> str:
        if self.kind == "young":
            return "S" + str(tuple(self.blocks))
        if self.kind == "alt_young":
            return "A" + str(tuple(self.blocks))
        if self.kind == "wreath":
            return f"W({self.blocks[0]},{self.blocks[1]})"
        if self.kind == "wreath_alt":
            return f"WA({self.blocks[0]},{self.blocks[1]})"
        if self.kind == "index2_wr_b2":
            return f"I2({self.blocks[0]},{self.blocks[1]})"
        return {"full_sym": "Sn", "full_alt": "An", "trivial": "1"}[self.kind]


def young(n: int, blocks) -> SubgroupSpec:
    return SubgroupSpec("young", n, tuple(blocks))


def alt_young(n: int, blocks) -> SubgroupSpec:
    return SubgroupSpec("alt_young", n, tuple(blocks))


def wreath(a: int, b: int) -> SubgroupSpec:
    return SubgroupSpec("wreath", a * b, (a, b))


def wreath_alt(a: int, b: int) -> SubgroupSpec:
    return SubgroupSpec("wreath_alt", a * b, (a, b))


def index2_wr_b2(variant: int, b: int) -> SubgroupSpec:
    return SubgroupSpec("index2_wr_b2", 2 * b, (variant, b))


def _young_generators(n: int, blocks) -> list[Perm]:
    gens = []
    start = 0
    for b in blocks:
        for i in range(start, start + b - 1):
            gens.append(from_cycles(n, (i, i + 1)))
        start += b
    return gens


def _alt_young_generators(n: int, blocks) -> list[Perm]:
    """Within-block 3-cycles plus one double transposition per adjacent pair
    of blocks of size >= 2; generates the even part of the Young subgroup."""
    gens = []
    starts = []
    start = 0
    for b in blocks:
        starts.append(start)
        for i in range(start, start + b - 2):
            gens.append(from_cycles(n, (i, i + 1, i + 2)))
        start += b
    big = [(s, b) for s, b in zip(starts, blocks) if b >= 2]
    for (s1, _), (s2, _) in zip(big, big[1:]):
        gens.append(from_cycles(n, (s1, s1 + 1), (s2, s2 + 1)))
    return gens


def _wreath_generators(a: int, b: int) -> list[Perm]:
    """S_a on the first block plus adjacent block swaps."""
    n = a * b
    gens = [from_cycles(n, (i, i + 1)) for i in range(a - 1)]
    for j in range(b - 1):
        gens.append(tuple(_block_swap_image(i, j, a, n) for i in range(n)))
    return gens


def _block_swap_image(i: int, j: int, a: int, n: int) -> int:
    lo, hi = j * a, (j + 1) * a
    if lo <= i < hi:
        return i + a
    if hi <= i < hi + a:
        return i - a
    return i


def _schreier_even_subgroup(gens: list[Perm], n: int) -> list[Perm]:
    """Generators of <gens> intersected with A_n via Schreier's lemma with
    transversal {1, t} for an odd generator t."""
    odd = [g for g in gens if perm_sign(g) < 0]
    if not odd:
        return list(gens)
    t = odd[0]
    t_inv = inverse(t)
    out = []
    for g in gens:
        if perm_sign(g) > 0:
            out.append(g)
            out.append(compose(t, compose(g, t_inv)))
        else:
            out.append(compose(g, t_inv))
            out.append(compose(t, g))
    ident = identity_perm(n)
    return [g for g in dict.fromkeys(out) if g != ident]


def generators(spec: SubgroupSpec) -> list[Perm]:
    """A generating set for the named subgroup."""
    n = spec.n
    if spec.kind == "trivial":
        return []
    if spec.kind == "full_sym":
        return _young_generators(n, (n,))
    if spec.kind == "full_alt":
        return _alt_young_generators(n, (n,))
    if spec.kind == "young":
        return _young_generators(n, spec.blocks)
    if spec.kind == "alt_young":
        return _alt_young_generators(n, spec.blocks)
    if spec.kind == "wreath":
        return _wreath_generators(*spec.blocks)
    if spec.kind == "wreath_alt":
        return _schreier_even_subgroup(_wreath_generators(*spec.blocks), n)
    # index2_wr_b2: A_b x A_b, the double transposition, and the block swap
    variant, b = spec.blocks
    gens = _alt_young_generators(n, (b, b))
    gens.append(from_cycles(n, (0, 1), (b, b + 1)))
    swap = tuple(_block_swap_image(i, 0, b, n) for i in range(n))
    if variant == 2:
        swap = compose(from_cycles(n, (0, 1)), swap)
    gens.append(swap)
    return gens


# ---------------------------------------------------------------------------
# Tabloid bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PermBasis:
    """Ordered basis of tabloids of a given shape.

    `words` is a read-only (m, n) int8 array: words[t, x] is the row of
    entry x in tabloid t (row 1 is label 0), and the rows are in
    lexicographic word order.  For shape (n - k, k) the entries labelled 1
    are the k-subset.
    """

    shape: Partition
    words: np.ndarray

    @property
    def n(self) -> int:
        return sum(self.shape)

    def __len__(self) -> int:
        return self.words.shape[0]

    def index_of(self, words) -> np.ndarray:
        """Positions in the basis of a batch of words (shape (..., n)), by
        binary search.  Each word is one n-byte key: labels are non-negative
        int8 and all words have length n, so bytewise order is lexicographic
        word order, the order of the basis.  The words must be tabloids of
        this shape; any other word gets a meaningless position."""
        words = np.asarray(words)
        if self.n == 0:  # one empty tabloid, and no zero-byte key type
            return np.zeros(words.shape[:-1], dtype=np.intp)
        key = f"S{self.n}"
        keys = np.ascontiguousarray(words, np.int8).view(key)[..., 0]
        return np.searchsorted(self.words.view(key)[:, 0], keys)

    def act(self, g: Perm, at=None) -> np.ndarray:
        """g on the basis as an index array: img[j] is the position of g t_j,
        whose entry g[x] sits in the row of entry x of t_j.  With `at`, only
        the images of the tabloids at those positions, act(g)[at]."""
        g = np.asarray(g, dtype=np.intp)
        if g.shape != (self.n,):
            raise ValueError(
                f"a permutation of degree {len(g)} cannot act on the tabloids of {self.shape}, of degree {self.n}"
            )
        words = self.words if at is None else self.words[at]
        return self.index_of(words[:, np.argsort(g)])


def shape_from_tail(n: int, tail) -> Partition:
    """The row sizes (n - |tail|, tail...) used for invariants M_{mu}, sorted
    into a partition (the permutation module only sees the size multiset)."""
    tail = check_partition(tail)
    first = n - sum(tail)
    if first < 0:
        raise ValueError(f"tail {tail} exceeds n = {n}")
    return check_partition(sorted((first,) + tail, reverse=True))


def _tabloid_count(shape: Partition) -> int:
    """m = n! / prod(l_i!), the number of tabloids of the shape."""
    return factorial(sum(shape)) // prod(factorial(part) for part in shape)


def _basis_bytes(shape: Partition, m: int) -> int:
    """Bytes of perm_basis at its last level: the old, gathered and extended
    words, two copies of the row counts left, and three int64 index arrays."""
    count_bytes = np.min_scalar_type(max(shape, default=0)).itemsize
    return m * (3 * sum(shape) + 2 * len(shape) * count_bytes + 24)


@lru_cache(maxsize=512)
def perm_basis(shape: Partition) -> PermBasis:
    """All tabloids of the given shape as row-label words, in lex order: each
    level extends every prefix by every label it has left, smallest first.
    A shape whose last level cannot fit in physical memory is refused before
    the first level is built."""
    shape = check_partition(shape)
    m = _tabloid_count(shape)
    _refuse_beyond_memory(_basis_bytes(shape, m), f"the tabloids of {shape}", f"m = {m} tabloids")
    words = np.zeros((1, 0), dtype=np.int8)
    # m x rows counts are live at the last level: one byte each while rows are short
    left = np.array([shape], dtype=np.min_scalar_type(max(shape, default=0)))
    for _ in range(sum(shape)):
        prefix, label = np.nonzero(left)  # by prefix, then by label
        words = np.concatenate([words[prefix], label[:, None].astype(np.int8)], axis=1)
        left = left[prefix]
        left[np.arange(len(prefix)), label] -= 1
    words.flags.writeable = False
    return PermBasis(shape, words)


def _refuse_beyond_memory(need: int, what: str, detail: str) -> None:
    """Raise ValueError if `need` bytes exceed the physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 1e9:,.1f} GB ({detail}), "
            f"more than the {have / 1e9:,.1f} GB of physical memory"
        )


def _orbit_labels(spec: SubgroupSpec, basis: PermBasis) -> np.ndarray:
    """lab[j] = the smallest index in the orbit of tabloid j: min-label
    propagation along each generator and its inverse, plus pointer jumping,
    until a round changes nothing.

    Two int64 index arrays per generator, a few label arrays and the
    temporaries of basis.act must fit in physical memory, or the request is
    refused before any is allocated."""
    gens = generators(spec)
    need = len(basis) * (3 * basis.n + 16 * len(gens) + 96)
    _refuse_beyond_memory(need, f"the orbits of {spec}", f"m = {len(basis)} tabloids")
    lab = np.arange(len(basis))
    moves = []
    for g in gens:
        img = basis.act(g)
        inv = np.empty_like(img)
        inv[img] = lab
        moves += [img, inv]
    while True:
        old = lab
        lab = lab.copy()
        for move in moves:
            np.minimum(lab, lab[move], out=lab)
        lab = lab[lab]
        if np.array_equal(lab, old):
            return lab


def orbit_count(spec: SubgroupSpec, basis: PermBasis) -> int:
    """Number of orbits of the generated group on the basis objects; equals
    dim M^H in every characteristic."""
    return int(np.count_nonzero(_orbit_labels(spec, basis) == np.arange(len(basis))))


# ---------------------------------------------------------------------------
# Standard tableaux and polytabloids
# ---------------------------------------------------------------------------

# Standard tableaux ranked per batch in polytabloid_matrix; bounds the
# temporaries at (column group order) x _TABLEAU_CHUNK x n.
_TABLEAU_CHUNK = 256


def hook_dimension(shape: Partition) -> int:
    """Number of standard tableaux, by the hook length formula."""
    shape = check_partition(shape)
    n = sum(shape)
    conj = [sum(1 for part in shape if part > c) for c in range(shape[0])] if shape else []
    denom = 1
    for r, part in enumerate(shape):
        for c in range(part):
            denom *= part - c + conj[c] - r - 1
    return factorial(n) // denom


def standard_tableaux(shape: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard tableaux (rows of entries 0..n-1 increasing along rows and
    columns), in lexicographic order of their row words."""
    shape = check_partition(shape)
    n = sum(shape)
    out = []

    def place(val: int, rows: list[list[int]]):
        if val == n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(shape)):
            if len(rows[r]) < shape[r] and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(val)
                place(val + 1, rows)
                rows[r].pop()

    place(0, [[] for _ in shape])
    out.sort()
    if len(out) != hook_dimension(shape):
        raise RuntimeError(f"standard tableau count mismatch for {shape}")
    return out


def _cell_of_entry(shape: Partition) -> np.ndarray:
    """cell_of[t, x]: the cell, in row-reading order, that holds entry x of
    the t-th standard tableau."""
    cells = np.array([sum(t, ()) for t in standard_tableaux(shape)], dtype=np.intp)
    return np.argsort(cells, axis=1)


def _column_table(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The column stabiliser of the diagram as (labels, signs).  Cells are
    numbered in row-reading order; labels[pi, i] is the row of the cell that
    pi sends cell i to.  For a tableau with entry T[i] in cell i, the
    tabloid of the column-permuted tableau is the word with T[i] labelled
    labels[pi, i], and it enters the polytabloid with signs[pi]."""
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0])] if shape else []
    cell = {}
    for r, part in enumerate(shape):
        for c in range(part):
            cell[r, c] = len(cell)
    labels, signs = [], []
    for perms in product(*(permutations(range(h)) for h in heights)):
        word = [0] * len(cell)
        sign = 1
        for c, perm in enumerate(perms):
            sign *= perm_sign(perm)
            for r, target in enumerate(perm):
                word[cell[r, c]] = target
        labels.append(word)
        signs.append(sign)
    return np.array(labels, dtype=np.int8), np.array(signs, dtype=np.int64)


def polytabloid_matrix(shape: Partition, p: int) -> np.ndarray:
    """The m x d matrix whose columns are the polytabloids of the standard
    tableaux, in the tabloid basis, with entries in [0, p); its column space
    is the Specht module S^shape over GF(p).  A p that is not prime is
    refused before the basis is built.

    Distinct column permutations of one tableau give distinct tabloids
    (C_t meets R_t trivially), so every entry is set exactly once."""
    _check_prime(p)
    shape = check_partition(shape)
    basis = perm_basis(shape)
    labels, signs = _column_table(shape)
    cell_of = _cell_of_entry(shape)
    mat = np.zeros((len(basis), len(cell_of)), dtype=np.int64)
    for lo in range(0, len(cell_of), _TABLEAU_CHUNK):
        block = cell_of[lo : lo + _TABLEAU_CHUNK]
        mat[basis.index_of(labels[:, block]), np.arange(lo, lo + len(block))] = signs[:, None] % p
    return mat


def gram_irreducibility(shape: Partition, p: int) -> bool:
    """True iff the Gram matrix of the standard polytabloid basis is
    nonsingular mod p (then S^shape = D^shape is irreducible)."""
    e = polytabloid_matrix(shape, p)
    gram = matmul_mod(e.T, e, p)
    return rank(gram, p) == gram.shape[0]


# ---------------------------------------------------------------------------
# Invariant dimensions
# ---------------------------------------------------------------------------


def _dual_specht_bytes(shape: Partition, m: int, d: int, gens: int) -> int:
    """Bytes that bound what dual_specht_invariant_dim allocates (traced
    peaks were 0.54-0.85 of it on sixteen shapes), as the sum of its stages:
    - perm_basis at its last level (_basis_bytes);
    - _column_table: per column permutation a list of n ints and a tuple in
      itertools.product's pool, then the int8 labels;
    - one chunk of column words ranked by index_of in polytabloid_matrix;
    - E (m x d) and the stacked blocks, then the blocks next to the
      elimination's copy of them and its panel products."""
    n = sum(shape)
    column_group = prod(factorial(sum(1 for part in shape if part > c)) for c in range(max(shape, default=0)))
    columns = column_group * (18 * n + 144 + min(d, _TABLEAU_CHUNK) * (3 * n + 64))
    return _basis_bytes(shape, m) + columns + 8 * (m * d + 3 * gens * d * d)


def dual_specht_invariant_dim(shape: Partition, p: int, spec: SubgroupSpec) -> int:
    """dim of the H-fixed vectors on the dual Specht module
    M^shape / (S^shape)^perp.

    v -> E^T v identifies the quotient with GF(p)^d, E the m x d polytabloid
    matrix.  In the polytabloid of a standard tableau t the tabloid {t} has
    coefficient 1 and every other tabloid lies below {t} in dominance
    (James, LNM 682, section 8), so the rows E[J] at the standard tabloids
    form an invertible d x d block and their classes are a basis of the
    quotient.  The class of sum_j y_j {t_j} is fixed by g iff
    (E[g(J)] - E[J])^T y = 0: the fixed classes are the kernel of these
    d x d blocks stacked over the generators.

    A subgroup of another degree, a p that is not prime, and a shape whose
    tabloid basis, column table, E and stacked blocks cannot fit in physical
    memory, are refused before anything is allocated."""
    shape = check_partition(shape)
    n = sum(shape)
    if spec.n != n:
        raise ValueError(f"subgroup {spec} has degree {spec.n} and cannot act on the tabloids of {shape}, of degree {n}")
    _check_prime(p)
    gens = generators(spec)
    m = _tabloid_count(shape)
    d = hook_dimension(shape)
    need = _dual_specht_bytes(shape, m, d, len(gens))
    _refuse_beyond_memory(need, f"(S^{shape})^*", f"m = {m} tabloids, dim S = {d}")
    basis = perm_basis(shape)
    row_of_cell = np.repeat(np.arange(len(shape), dtype=np.int8), shape)
    standard = basis.index_of(row_of_cell[_cell_of_entry(shape)])
    e = polytabloid_matrix(shape, p)
    blocks = np.empty((len(gens) * d, d), dtype=np.int64)
    for i, g in enumerate(gens):
        block = blocks[i * d : (i + 1) * d].T
        np.subtract(e[basis.act(g, standard)], e[standard], out=block)
        block %= p
    del e  # not needed while the blocks are eliminated
    return kernel(blocks, p).dim


def z_invariant_dim(k: int, n: int, p: int, spec: SubgroupSpec) -> tuple[int, int, bool]:
    """(dim Z_k^H, dim M_k^H, gap): Z_k = (S^(n-k,k))^perp; a strict gap means
    a nonzero H-invariant functional survives on the dual Specht quotient.

    The orbit sums are a basis of M_k^H, and sum_O c_O O lies in Z_k iff it
    pairs to zero with every polytabloid, that is iff sum_O c_O s_O = 0 for
    s_O the sum of the rows of E at the tabloids of O.  So dim Z_k^H is the
    number of orbits less the rank of the orbit sums of E's rows."""
    if 2 * k > n:
        raise ValueError("need k <= n/2")
    shape = check_partition((n - k, k))
    e = polytabloid_matrix(shape, p)
    roots, orbit = np.unique(_orbit_labels(spec, perm_basis(shape)), return_inverse=True)
    sums = np.zeros((len(roots), e.shape[1]), dtype=np.int64)
    np.add.at(sums, orbit, e)
    dim_m_h = len(roots)
    dim_z_h = dim_m_h - rank(sums, p)
    return dim_z_h, dim_m_h, dim_z_h < dim_m_h


# ---------------------------------------------------------------------------
# Incidence maps between k-subset bases and Wilson's rank formula
# ---------------------------------------------------------------------------


def subset_basis(n: int, k: int) -> PermBasis:
    return perm_basis(check_partition((n - k, k)))


def eta(k: int, l: int, n: int) -> np.ndarray:
    """The 0/1 incidence map M_k -> M_l sending X to the sum of all l-subsets
    comparable with X (rows: l-subsets, columns: k-subsets), as an int64
    array.  X and Y are comparable iff |X & Y| = min(k, l); the intersection
    sizes are one product of the 0/1 membership words, in one byte per
    entry."""
    if not (0 <= k <= n // 2 and 0 <= l <= n // 2):
        raise ValueError("need k, l <= n/2")
    kb, lb = subset_basis(n, k), subset_basis(n, l)
    meet = lb.words.view(np.uint8) @ kb.words.view(np.uint8).T
    return (meet == min(k, l)).astype(np.int64)


def wilson_rank(k: int, l: int, n: int, p: int) -> int:
    """Closed-form rank of eta_{k,l} mod p: the sum of C(n,r) - C(n,r-1) over
    r <= k with C(l-r, k-r) not divisible by p."""
    if not (k <= l <= n // 2):
        raise ValueError("need k <= l <= n/2")
    total = 0
    for r in range(k + 1):
        if comb(l - r, k - r) % p != 0:
            total += comb(n, r) - (comb(n, r - 1) if r >= 1 else 0)
    return total


# ---------------------------------------------------------------------------
# The direct-summand identity for (n-6, 4, 2) / (n-6, 2^3)
# ---------------------------------------------------------------------------


def orbit_identity_check_inv42(b: int, p: int) -> int:
    """Evaluate dim (D^alpha)^W, W = W_{2,b}, as the alternating sum of orbit
    counts from the Young-module direct-sum identity; expected value 1.

    p = 3 uses alpha = (n-6, 4, 2) (needs 3 | b, b >= 6); p >= 5 uses
    alpha = (n-6, 2, 2, 2) (needs p | b, b >= 5).
    """
    n = 2 * b
    if b % p:
        raise ValueError("the identity needs p | b")
    w = wreath(2, b)
    if p == 3:
        if b < 6:
            raise ValueError("need b >= 6 for p = 3")
        plus = [(4, 2), (5,), (3, 1)]
        minus = [(5, 1), (3, 2), (4,)]
    else:
        if b < 5:
            raise ValueError("need b >= 5")
        plus = [(2, 2, 2), (3, 3), (4, 1, 1), (3, 1, 1), (3, 2), (2, 1, 1), (4,), (2, 1), (2, 1)]
        minus = [(3, 2, 1), (3, 2, 1), (4, 2), (2, 2, 1), (4, 1), (2, 2), (3, 1), (1, 1, 1), (3,)]
    total = 0
    for tail in plus:
        total += orbit_count(w, perm_basis(shape_from_tail(n, tail)))
    for tail in minus:
        total -= orbit_count(w, perm_basis(shape_from_tail(n, tail)))
    return total
