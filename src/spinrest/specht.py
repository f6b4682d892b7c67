"""Permutation modules on tabloids and k-subsets, Specht modules over GF(p),
invariants under wreath/Young subgroups, and the incidence maps between
k-subset bases.

Permutations are 0-indexed image tuples.  A tabloid of shape
(l_1, ..., l_r) is one word of row labels: word[x] is the row of entry x,
with row 1 labelled 0, so label a occurs l_{a+1} times.  A basis lists these
words in lexicographic word order, and a word's index is its rank in that
order, read one position at a time from a per-shape table indexed by the
counts of the labels still to be placed and the label placed next: no
search, and no word is copied to be ranked.  Standard tableaux are the
lattice words among them (no prefix holds more of label a + 1 than of label
a), kept in word order, and found by a walk over the same states.  A
permutation acts on a basis as one index array (image of each tabloid),
read through its column order, so orbits, polytabloids and the blocks of
the dual Specht action are gathers and scatters on integer arrays, and
matrices are reproducible.  The polytabloid matrix E is only ever its
column structure, the tabloids and signs of each column's entries.
"""

import os
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb, factorial, prod
from typing import Iterator

import numpy as np

from .gfp import _check_prime, _column_gram, _column_gram_bytes, _echelon_bytes, kernel, rank
from .partitions import Partition, check_partition

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# Permutations and subgroup generating sets
# ---------------------------------------------------------------------------


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
    """(-1) to the number of inversions of g."""
    return (-1) ** sum(g[i] > g[j] for j in range(len(g)) for i in range(j))


# kind -> its CLI prefix and the form of its integers: str(spec) is PREFIX(i1,...,ik).
_SPELLING = {
    "young": ("S", "b1,...,bk"),
    "alt_young": ("A", "b1,...,bk"),
    "wreath": ("W", "a,b"),
    "wreath_alt": ("WA", "a,b"),
    "index2_wr_b2": ("I2", "v,b"),
}
_KIND_OF_PREFIX = {prefix: kind for kind, (prefix, _form) in _SPELLING.items()}
_INTEGERS = re.compile(r"(\d+(?:,\d+)*)?\)")


def _degree(kind: str, blocks: tuple[int, ...]) -> int | None:
    """The degree n of the subgroup the blocks name, or None if they name
    none: a composition of n, (a, b) with a, b >= 2, or (v, b) with v = 1, 2."""
    if kind in ("young", "alt_young"):
        return sum(blocks) if all(b > 0 for b in blocks) else None
    if len(blocks) != 2:
        return None
    a, b = blocks
    if kind == "index2_wr_b2":
        return 2 * b if a in (1, 2) else None
    return a * b if a >= 2 and b >= 2 else None


@dataclass(frozen=True)
class SubgroupSpec:
    """A named subgroup of S_n, of five kinds: 'young' S_mu and 'alt_young'
    S_mu meet A_n (blocks = a composition mu of n, so S(n) is S_n, A(n) is
    A_n and S(1,...,1) is trivial), 'wreath' S_a wr S_b and 'wreath_alt' its
    even part (blocks = (a, b), n = ab), and 'index2_wr_b2' (blocks = (v, b),
    n = 2b).  str(spec) is its CLI spelling, which parse_spec reads back."""

    kind: str
    n: int
    blocks: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _SPELLING:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if _degree(self.kind, self.blocks) != self.n:
            raise ValueError(f"{self} names no subgroup of S_{self.n}")

    def __str__(self) -> str:
        return f"{_SPELLING[self.kind][0]}({','.join(map(str, self.blocks))})"


def parse_spec(text: str, n: int) -> SubgroupSpec:
    """Read back str(spec), spaces ignored: S(b1,...,bk), A(b1,...,bk),
    W(a,b), WA(a,b) or I2(v,b).  A ValueError names the text and the
    expected form, or the degree when it is not n."""
    prefix, paren, rest = text.replace(" ", "").partition("(")
    kind = _KIND_OF_PREFIX.get(prefix)
    if kind is None or not paren:
        raise ValueError(f"cannot parse subgroup {text!r}")
    ints = _INTEGERS.fullmatch(rest)
    blocks = tuple(int(x) for x in ints[1].split(",")) if ints and ints[1] else ()
    degree = _degree(kind, blocks) if ints else None
    if degree is None:
        raise ValueError(f"cannot parse subgroup {text!r}: expected {prefix}({_SPELLING[kind][1]})")
    spec = SubgroupSpec(kind, degree, blocks)
    if degree != n:
        raise ValueError(f"subgroup {spec} acts on {degree} points, but n = {n}")
    return spec


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


def _sym_generators(n: int, start: int, k: int) -> list[Perm]:
    """S_k on the points start..start+k-1: the transposition of the first two
    and the k-cycle of all of them (Coxeter and Moser, section 6.2), which
    coincide for k = 2."""
    if k < 2:
        return []
    gens = [from_cycles(n, (start, start + 1))]
    if k > 2:
        gens.append(from_cycles(n, tuple(range(start, start + k))))
    return gens


def _alt_generators(n: int, start: int, k: int) -> list[Perm]:
    """A_k on the points start..start+k-1: the 3-cycle of the first three,
    with the k-cycle of all of them for odd k, and with the (k-1)-cycle of all
    but the first for even k (Coxeter and Moser, section 6.2)."""
    if k < 3:
        return []
    gens = [from_cycles(n, (start, start + 1, start + 2))]
    if k > 3:
        gens.append(from_cycles(n, tuple(range(start + 1 - k % 2, start + k))))
    return gens


def _young_generators(n: int, blocks) -> list[Perm]:
    starts = accumulate(blocks, initial=0)
    return [g for s, b in zip(starts, blocks) for g in _sym_generators(n, s, b)]


def _alt_young_generators(n: int, blocks) -> list[Perm]:
    """A_b on every block plus one double transposition per adjacent pair of
    blocks of size >= 2; generates the even part of the Young subgroup."""
    starts = list(accumulate(blocks, initial=0))
    gens = [g for s, b in zip(starts, blocks) for g in _alt_generators(n, s, b)]
    big = [s for s, b in zip(starts, blocks) if b >= 2]
    gens += [from_cycles(n, (s1, s1 + 1), (s2, s2 + 1)) for s1, s2 in zip(big, big[1:])]
    return gens


def _block_swap(n: int, a: int) -> Perm:
    """The swap of the first two blocks of size a."""
    return from_cycles(n, *((i, i + a) for i in range(a)))


def _wreath_generators(a: int, b: int) -> list[Perm]:
    """S_a on the first block, the swap of the first two blocks, and the
    cycle of all b blocks, i -> i + a mod n, when it is not that swap
    (Dixon and Mortimer, Permutation Groups, section 2.6)."""
    n = a * b
    gens = _sym_generators(n, 0, a) + [_block_swap(n, a)]
    if b > 2:
        gens.append(tuple((i + a) % n for i in range(n)))
    return gens


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
    return [g for g in dict.fromkeys(out) if g != tuple(range(n))]


def generators(spec: SubgroupSpec) -> list[Perm]:
    """A generating set for the named subgroup, with at most two generators
    per factor: at most 2 per Young block (plus the double transpositions
    between blocks for the even part), 4 for S_a wr S_b and 8 for its even
    part."""
    n = spec.n
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
    swap = _block_swap(n, b)
    if variant == 2:
        swap = compose(from_cycles(n, (0, 1)), swap)
    return _alt_young_generators(n, (b, b)) + [swap]


# ---------------------------------------------------------------------------
# Tabloid bases
# ---------------------------------------------------------------------------


# Words walked at a time by _walk; bounds its state arrays at 8 * _WALK_BLOCK bytes.
_WALK_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class PermBasis:
    """Ordered basis of tabloids of a given shape.

    `words` is a read-only (m, n) int8 array: words[t, x] is the row of
    entry x in tabloid t (row 1 is label 0), and the rows are in
    lexicographic word order.  For shape (n - k, k) the entries labelled 1
    are the k-subset; `standard` holds the positions of the standard tableaux.
    """

    shape: Partition
    words: np.ndarray
    standard = cached_property(lambda self: _standard_tabloids(self))

    @property
    def n(self) -> int:
        return sum(self.shape)

    def __len__(self) -> int:
        return self.words.shape[0]

    def index_of(self, words, order=None) -> np.ndarray:
        """Positions in the basis of a batch of words (shape (..., n)): their
        lexicographic ranks, read one position at a time from _rank_table.
        With `order` (shape (..., n)), the words read through it, word
        (i, j) having label words[i, order[j, x]] at position x, in a batch of
        shape words.shape[:-1] + order.shape[:-1]; no permuted copy is made.
        The words must be tabloids of this shape; any other word gets a
        meaningless position or an IndexError."""
        words = np.asarray(words)
        lead, tail = words.shape[:-1], () if order is None else order.shape[:-1]
        words = words.reshape(prod(lead), self.n)
        add = _rank_table(self.shape)[1]
        rank = np.zeros((len(words),) + tail, dtype=np.intp)
        for rows, state in _walk(self.shape, words, order):
            rank[rows] += add[state]
        return rank.reshape(lead + tail)

    def act(self, g: Perm, at=None) -> np.ndarray:
        """g on the basis as an index array: img[j] is the position of g t_j,
        whose entry g[x] sits in the row of entry x of t_j, so its label at
        position y is that of t_j at argsort(g)[y].  With `at`, only the
        images of the tabloids at those positions, act(g)[at]."""
        g = np.asarray(g, dtype=np.intp)
        if g.shape != (self.n,):
            raise ValueError(
                f"a permutation of degree {len(g)} cannot act on the tabloids of {self.shape}, of degree {self.n}"
            )
        return self.index_of(self.words if at is None else self.words[at], np.argsort(g))


@lru_cache(maxsize=512)
def _rank_table(shape: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lexicographic rank of the shape's words as a walk over states, one
    position at a time (Knuth, TAOCP 4A, section 7.2.1.2).  A state counts
    the labels still to be placed, label a in mixed radix with base l_a + 1,
    label 0 slowest, so the walk starts at the last state.  The read-only
    tables are flat, indexed by state * rows + label:

    - step, the state that placing the label reaches, times rows;
    - add, the number of words that share the prefix read so far and place
      a smaller label here: the multinomials of the states reached by
      placing each smaller label that is left;
    - lattice, whether placing the label keeps a lattice word: it is label
      0, or more labels a - 1 than labels a are placed already.

    A state's multinomial is the product over a of C(c_0 + ... + c_a, c_a)
    for its counts c, read from a Pascal table capped at m.  No state has
    more than m words, so every binomial read is exact."""
    rows, n, m = len(shape), sum(shape), _tabloid_count(shape)
    bases = [part + 1 for part in shape]
    left = np.indices(bases).reshape(rows, prod(bases)).T  # left[s, a]: labels a left in state s
    radix = prod(bases) // np.cumprod(bases, dtype=np.int64)
    binom = np.zeros((n + 1, max(shape, default=0) + 1), dtype=np.int64)
    binom[:, 0] = 1
    for t in range(1, n + 1):
        np.minimum(binom[t - 1, 1:] + binom[t - 1, :-1], m, out=binom[t, 1:])
    count = np.prod(binom[np.cumsum(left, axis=1), left], axis=1)  # the words of each state
    here = left > 0
    after = np.arange(len(left))[:, None] - radix  # the state after placing each label; wraps where none is left
    first = np.where(here, count[after], 0)  # the words that place each label first
    placed = np.array(shape) - left
    lattice = here.copy()
    lattice[:, 1:] &= placed[:, :-1] > placed[:, 1:]
    step = np.where(here, after * rows, 0)
    add = np.cumsum(first, axis=1) - first
    tables = step.ravel(), add.ravel(), lattice.ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _walk_bytes(shape: Partition) -> int:
    """Bytes that bound what a walk allocates beside its caller's results:
    _rank_table's making, 96 bytes a table entry, of which 17 stay cached,
    and 24 bytes a word of a block for the states and one gathered table
    value."""
    return 96 * len(shape) * prod(part + 1 for part in shape) + 24 * _WALK_BLOCK


def _walk(shape: Partition, words: np.ndarray, order) -> Iterator[tuple[slice, np.ndarray]]:
    """The states of (m, n) words, read through `order` as in
    PermBasis.index_of, in blocks of rows of about _WALK_BLOCK words: for
    each block and each position x = 0 .. n - 2, the block's rows and the
    index state * rows + label into _rank_table of each of its words, for
    the state before position x and the label there.  The last position is
    left out: its label is forced, so it adds no rank and keeps every
    lattice word one."""
    step = _rank_table(shape)[0]
    tail = () if order is None else order.shape[:-1]
    size = max(1, _WALK_BLOCK // max(1, prod(tail)))
    for lo in range(0, len(words), size):
        block = words[lo : lo + size]
        state = np.full(block.shape[:-1] + tail, len(step) - len(shape))  # the full state, times rows
        for x in range(sum(shape) - 1):
            if x:
                state = step[state]
            state += block[..., x if order is None else order[..., x]]
            yield slice(lo, lo + size), state


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
    until a round changes nothing.  generators() gives at most two
    generators per factor of the subgroup, so there are few moves per round.
    Labels only fall, and lab[j] <= j throughout, so a round changes nothing
    iff it leaves the labels' sum as it was; no copy is kept to compare.

    Two int64 index arrays per generator, the labels and one gathered copy
    of them, and what basis.act walks with (_walk_bytes) must fit in
    physical memory, or the request is refused before any is allocated."""
    gens = generators(spec)
    need = len(basis) * (16 * len(gens) + 16) + _walk_bytes(basis.shape)
    _refuse_beyond_memory(need, f"the orbits of {spec}", f"m = {len(basis)} tabloids")
    lab = np.arange(len(basis))
    moves = []
    for g in gens:
        img = basis.act(g)
        inv = np.empty_like(img)
        inv[img] = lab
        moves += [img, inv]
    total = None
    while True:
        for move in moves:
            np.minimum(lab, lab[move], out=lab)
        lab = lab[lab]
        total, before = int(lab.sum()), total
        if total == before:
            return lab


def orbit_count(spec: SubgroupSpec, basis: PermBasis) -> int:
    """Number of orbits of the generated group on the basis objects; equals
    dim M^H in every characteristic."""
    return int(np.count_nonzero(_orbit_labels(spec, basis) == np.arange(len(basis))))


# ---------------------------------------------------------------------------
# Standard tableaux and polytabloids
# ---------------------------------------------------------------------------

# Standard tableaux ranked per batch in polytabloid_matrix; bounds the
# positions ranked at once at (column group order) x _TABLEAU_CHUNK.
_TABLEAU_CHUNK = 256


def _column_heights(shape: Partition) -> list[int]:
    """The height of each column of the diagram: the conjugate partition."""
    return [sum(1 for part in shape if part > c) for c in range(max(shape, default=0))]


def _column_group_order(shape: Partition) -> int:
    """|C_t|, the product of h! over the column heights h: the number of
    entries in a column of E."""
    return prod(factorial(h) for h in _column_heights(shape))


def hook_dimension(shape: Partition) -> int:
    """Number of standard tableaux, by the hook length formula."""
    shape = check_partition(shape)
    heights = _column_heights(shape)
    hooks = (part - c + heights[c] - r - 1 for r, part in enumerate(shape) for c in range(part))
    return factorial(sum(shape)) // prod(hooks)


def _standard_tabloids(basis: PermBasis) -> np.ndarray:
    """Positions in the basis of the standard tableaux, ascending.  A word is
    the tabloid of a standard tableau (entry x in row word[x]) iff it is a
    lattice word: in every prefix, label a occurs at least as often as label
    a + 1.  One walk over the words' states (_rank_table's lattice)."""
    lattice = _rank_table(basis.shape)[2]
    keep = np.ones(len(basis), dtype=bool)
    for rows, state in _walk(basis.shape, basis.words, None):
        keep[rows] &= lattice[state]
    standard = np.flatnonzero(keep)
    standard.flags.writeable = False
    return standard


@lru_cache(maxsize=64)
def _column_table(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The column stabiliser of the diagram as read-only (labels, signs).
    Cells are numbered in row-reading order; labels[pi, i] is the row of the
    cell that pi sends cell i to.  For a tableau with entry T[i] in cell i,
    the tabloid of the column-permuted tableau is the word with T[i]
    labelled labels[pi, i], and it enters the polytabloid with signs[pi].

    A column of height h permutes its cells as the words of perm_basis((1,)*h),
    in lex order, each with sign (-1) to its number of inversions.  The table
    is their product over the columns, the first column slowest."""
    starts = list(accumulate(shape, initial=0))
    heights = _column_heights(shape)
    labels = np.empty((_column_group_order(shape), sum(shape)), dtype=np.int8)
    signs = np.ones(len(labels), dtype=np.int8)
    later = len(labels)
    for c, h in enumerate(heights):
        words = perm_basis((1,) * h).words
        later //= len(words)
        inversions = sum((words[:, i] > words[:, j] for j in range(h) for i in range(j)), np.zeros(len(words), int))
        # the table's rows in blocks of (earlier columns, this column, later columns)
        labels.reshape(-1, len(words), later, labels.shape[1])[..., [starts[r] + c for r in range(h)]] = words[:, None]
        column_signs = signs.reshape(-1, len(words), later)
        column_signs *= ((-1) ** inversions)[:, None]
    labels.flags.writeable = signs.flags.writeable = False
    return labels, signs


def polytabloid_matrix(shape: Partition) -> tuple[np.ndarray, np.ndarray]:
    """E, the m x d matrix over Z of the standard polytabloids, as its column
    structure (index, signs): column j holds signs[k] at tabloid index[j, k]
    and 0 elsewhere, for the c = |C_t| int8 signs of the column group.  E is
    the same for every p, and its column space mod p is the Specht module
    S^shape over GF(p) (James, LNM 682, section 8).  Column j, of the j-th
    lattice word (PermBasis.standard), holds its own tabloid with sign 1.
    As C_t meets R_t trivially, a tabloid occurs at most once a column."""
    shape = check_partition(shape)
    basis = perm_basis(shape)
    labels, signs = _column_table(shape)
    standard = basis.standard
    index = np.empty((len(standard), len(labels)), dtype=np.intp)
    for lo in range(0, len(standard), _TABLEAU_CHUNK):
        words = basis.words[standard[lo : lo + _TABLEAU_CHUNK]]
        # entry x sits in cell (start of row word[x]) + (earlier entries
        # labelled word[x]): its place in the stable sort of the word
        cell_of = np.argsort(np.argsort(words, axis=1, kind="stable"), axis=1)
        index[lo : lo + len(words)] = basis.index_of(labels, cell_of).T
    return index, signs


def _polytabloid_bytes(shape: Partition, m: int, d: int, later: int) -> int:
    """Bytes that bound what polytabloid_matrix, and then its caller with
    `later` bytes, allocate: 64 kB and what its walks allocate (_walk_bytes),
    and the larger of perm_basis at its last level (_basis_bytes), which the
    lattice pass and the column table's making do not exceed, and what stays
    (the words, the standard positions and the column table with its
    one-column words, 2n + 1 bytes a column permutation) with either the
    caller's bytes or E's structure, 8 bytes an entry, and one chunk of
    tableaux: its words and cell numbers, 17n bytes a tableau, and the
    positions index_of returns, 8 bytes a column permutation."""
    n = sum(shape)
    group = _column_group_order(shape)
    kept = m * n + 8 * d + group * (2 * n + 1)
    columns = 8 * d * group + min(d, _TABLEAU_CHUNK) * (8 * group + 17 * n)
    return 64 * 1024 + _walk_bytes(shape) + max(_basis_bytes(shape, m), kept + max(columns, later))


def gram_irreducibility(shape: Partition, p: int) -> bool:
    """True iff the Gram matrix G = E^T E of the standard polytabloid basis
    is nonsingular mod p (then S^shape = D^shape is irreducible); E's column
    structure (gfp._column_gram) is freed before G is eliminated.  A shape
    beyond physical memory (_gram_bytes) and a p that is not prime are
    refused first."""
    shape = check_partition(shape)
    _check_prime(p)
    m, d = _tabloid_count(shape), hook_dimension(shape)
    _refuse_beyond_memory(_gram_bytes(shape, m, d, p), f"S^{shape}'s Gram matrix", f"m = {m} tabloids, dim S = {d}")
    return rank(_column_gram(*polytabloid_matrix(shape), p), p) == d


def _gram_bytes(shape: Partition, m: int, d: int, p: int) -> int:
    """Bytes that bound what gram_irreducibility allocates: E's making
    (_polytabloid_bytes), then E^T E mod p from E's structure and G's rank
    (gfp._column_gram_bytes)."""
    return _polytabloid_bytes(shape, m, d, _column_gram_bytes(m, d, _column_group_order(shape), p))


# ---------------------------------------------------------------------------
# Invariant dimensions
# ---------------------------------------------------------------------------


def _dual_specht_bytes(shape: Partition, m: int, d: int, gens: int, p: int) -> int:
    """Bytes that bound what dual_specht_invariant_dim allocates at p: E's
    making (_polytabloid_bytes), then the g d x d int8 blocks of g
    generators with the larger of their making from E's N = d |C_t| entries
    (8 bytes a tabloid, 17 an entry and 40 a hit, at most min(N, d^2)) and
    the kernel's workspace (gfp._echelon_bytes)."""
    n = d * _column_group_order(shape)
    reading = 8 * m + 17 * n + 40 * min(n, d * d)
    return _polytabloid_bytes(shape, m, d, gens * d * d + max(reading, _echelon_bytes(gens * d, d, p, True)))


def _dual_specht_preflight(shape: Partition, p: int, spec: SubgroupSpec) -> tuple[Partition, list[Perm]]:
    """The checked shape and the subgroup's generators, after refusing, before
    anything is allocated, a subgroup of another degree, a p that is not prime
    and a shape whose _dual_specht_bytes exceed physical memory."""
    shape = check_partition(shape)
    n = sum(shape)
    if spec.n != n:
        raise ValueError(f"subgroup {spec} has degree {spec.n} and cannot act on the tabloids of {shape}, of degree {n}")
    _check_prime(p)
    gens = generators(spec)
    m, d = _tabloid_count(shape), hook_dimension(shape)
    need = _dual_specht_bytes(shape, m, d, len(gens), p)
    _refuse_beyond_memory(need, f"(S^{shape})^*", f"m = {m} tabloids, dim S = {d}")
    return shape, gens


def _fixed_class_blocks(e: tuple[np.ndarray, np.ndarray], shape: Partition, gens: list[Perm]) -> np.ndarray:
    """The d x d blocks (E[g(J)] - E[J])^T of dual_specht_invariant_dim,
    stacked over the generators, over Z: int8 with entries in [-2, 2].  E is
    its column structure, where a tabloid occurs at most once a column.  The
    tabloids' places in J or g(J), and their gathers at E's entries, are in
    the narrowest type that holds -1 and d - 1."""
    index, signs = e
    basis = perm_basis(shape)
    standard = basis.standard
    d = len(standard)
    blocks = np.zeros((len(gens) * d, d), dtype=np.int8)
    at = np.full(len(basis), -1, dtype=np.min_scalar_type(-d))  # at[t] = k where t is the k-th tabloid of J, or of g(J)
    for i, g in enumerate(gens):
        for sign, tabloids in ((-1, standard), (1, basis.act(g, standard))):
            at[tabloids] = np.arange(d)
            k = at[index]
            j, c = np.nonzero(k >= 0)
            blocks[i * d + j, k[j, c]] += sign * signs[c]
            at[tabloids] = -1
    return blocks


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
    d x d blocks stacked over the generators, at most two per factor of the
    subgroup.  E's column structure is freed before they are eliminated.

    A subgroup of another degree, a p that is not prime, and a shape beyond
    physical memory are refused first (_dual_specht_preflight)."""
    shape, gens = _dual_specht_preflight(shape, p, spec)
    return kernel(_fixed_class_blocks(polytabloid_matrix(shape), shape, gens), p).dim


def z_invariant_dim(k: int, n: int, p: int, spec: SubgroupSpec) -> tuple[int, int, bool]:
    """(dim Z_k^H, dim M_k^H, gap): Z_k = (S^(n-k,k))^perp; a strict gap means
    a nonzero H-invariant functional survives on the dual Specht quotient.
    They are invariant_dims' dim_Z_H, dim_M_H and hom_gap."""
    if 2 * k > n:
        raise ValueError("need k <= n/2")
    dims = invariant_dims((n - k, k), p, spec)
    return dims["dim_Z_H"], dims["dim_M_H"], dims["hom_gap"]


def invariant_dims(shape: Partition, p: int, spec: SubgroupSpec) -> dict:
    """dim_M_H, the number of orbits; dim_dualS_H, as dual_specht_invariant_dim;
    and on a shape of at most two rows dim_Z_H and hom_gap, Z = (S^shape)^perp
    (see z_invariant_dim), from one orbit labelling and one E.  Refuses what
    dual_specht_invariant_dim refuses, first, and then, before E is built, a
    dim Z^H beyond physical memory.

    The orbit sums are a basis of M^H, and sum_O c_O O lies in Z iff it pairs
    to zero with every polytabloid, that is iff sum_O c_O s_O = 0 for s_O the
    sum of the rows of E at the tabloids of O.  So dim Z^H is the number of
    orbits less the rank of the orbit sums: d x orbits float64 sums, with
    either the N = d |C_t| cells and weights of their bincount, 17 bytes an
    entry, or their int64 copy and its rank (gfp._echelon_bytes)."""
    shape, gens = _dual_specht_preflight(shape, p, spec)
    roots, orbit = np.unique(_orbit_labels(spec, perm_basis(shape)), return_inverse=True)
    d, o, two_rows = hook_dimension(shape), len(roots), len(shape) <= 2
    if two_rows:  # beside E's structure, the orbit labels and what E's making keeps
        n = d * _column_group_order(shape)
        step = 8 * d * o + max(17 * n, 8 * d * o + _echelon_bytes(d, o, p, False))
        need = _polytabloid_bytes(shape, len(orbit), d, 8 * (n + len(orbit) + o) + step)
        _refuse_beyond_memory(need, f"dim Z^H of {shape} under {spec}", f"dim S = {d}, {o} orbits")
    e = index, signs = polytabloid_matrix(shape)
    zs = {}
    if two_rows:
        cells = orbit[index] + o * np.arange(d)[:, None]
        sums = np.bincount(cells.ravel(), np.broadcast_to(signs, index.shape).ravel(), o * d).reshape(d, o)
        del cells
        dim_z_h = o - rank(np.mod(sums, p, out=sums).astype(np.int64), p)
        del sums
        zs = {"dim_Z_H": dim_z_h, "hom_gap": dim_z_h < o}
    blocks = _fixed_class_blocks(e, shape, gens)
    del e, index, orbit  # not needed while the blocks are eliminated
    return {"dim_M_H": o, "dim_dualS_H": kernel(blocks, p).dim, **zs}


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
