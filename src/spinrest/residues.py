"""Residues, i-signatures, normal/good nodes and the crystal-style operators.

Nodes are 1-based (row, col) pairs.  The residue of a node depends only on
its column; the alphabet is I = {0, ..., (p-1)/2}.  Removable and addable
nodes come in two flavours: proper ones, and pair-type ones that only occur
at residue 0 (a horizontal domino whose two columns share the residue).
Every qualifying node contributes one sign of its own to the signature.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .partitions import (
    Partition,
    a_0,
    check_odd_prime,
    format_partition,
    is_p_strict,
    is_restricted_p_strict,
    is_strict,
)

Node = tuple[int, int]


def residue_of_column(s: int, p: int) -> int:
    """Residue of column s: ell - k for the unique s = m*p + ell + 1 +/- k."""
    if s < 1:
        raise ValueError("columns are 1-based")
    ell = (p - 1) // 2
    r = (s - 1) % p
    return r if r <= ell else p - 1 - r


def residue_counts(lam: Partition, p: int) -> tuple[int, ...]:
    """(gamma_0, ..., gamma_ell): number of nodes of lam of each residue."""
    ell = (p - 1) // 2
    gamma = [0] * (ell + 1)
    for row_len in lam:
        for s in range(1, row_len + 1):
            gamma[residue_of_column(s, p)] += 1
    return tuple(gamma)


def _row(lam: Partition, r: int) -> int:
    return lam[r - 1] if 1 <= r <= len(lam) else 0


def _remove_last(lam: Partition, r: int, count: int = 1) -> Partition | None:
    """lam minus the last `count` nodes of row r, or None if not a diagram."""
    new = lam[r - 1] - count
    if new < _row(lam, r + 1) or new < 0:
        return None
    parts = list(lam)
    parts[r - 1] = new
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _add_at_end(lam: Partition, r: int, count: int = 1) -> Partition | None:
    """lam plus `count` nodes appended to row r, or None if not a diagram."""
    cur = _row(lam, r)
    if r > len(lam) + 1:
        return None
    new = cur + count
    if r > 1 and new > _row(lam, r - 1):
        return None
    parts = list(lam)
    if r == len(lam) + 1:
        parts.append(new)
    else:
        parts[r - 1] = new
    return tuple(parts)


def removable_nodes(lam: Partition, p: int, i: int) -> list[tuple[Node, bool]]:
    """All i-removable nodes as (node, proper) pairs.

    Proper: res = i and lam - {A} is p-strict.  Pair-type: the right
    neighbour B is the row end, res A = res B = i, and both lam - {B} and
    lam - {A, B} are p-strict (forces i = 0).
    """
    out = []
    for r in range(1, len(lam) + 1):
        end = lam[r - 1]
        minus_one = _remove_last(lam, r, 1)
        if minus_one is not None and is_p_strict(minus_one, p):
            if residue_of_column(end, p) == i:
                out.append(((r, end), True))
            # pair-type: A = (r, end-1), B = (r, end)
            if end >= 2 and residue_of_column(end - 1, p) == residue_of_column(end, p) == i:
                minus_two = _remove_last(lam, r, 2)
                if minus_two is not None and is_p_strict(minus_two, p):
                    out.append(((r, end - 1), False))
    return out


def addable_nodes(lam: Partition, p: int, i: int) -> list[tuple[Node, bool]]:
    """All i-addable nodes as (node, proper) pairs, dual to removable_nodes."""
    out = []
    for r in range(1, len(lam) + 2):
        pos = _row(lam, r) + 1
        plus_one = _add_at_end(lam, r, 1)
        if plus_one is not None and is_p_strict(plus_one, p):
            if residue_of_column(pos, p) == i:
                out.append(((r, pos), True))
            # pair-type: A = (r, pos), B = (r, pos+1); B is the addable node
            if residue_of_column(pos, p) == residue_of_column(pos + 1, p) == i:
                plus_two = _add_at_end(lam, r, 2)
                if plus_two is not None and is_p_strict(plus_two, p):
                    out.append(((r, pos + 1), False))
    return out


@dataclass(frozen=True)
class SignatureEntry:
    node: Node
    sign: str  # '+' addable, '-' removable
    proper: bool
    normal: bool = False  # surviving '-' after reduction
    conormal: bool = False  # surviving '+'


@dataclass(frozen=True)
class ResidueData:
    """Per-residue slice of a profile."""

    i: int
    removable: tuple[tuple[Node, bool], ...]
    addable: tuple[tuple[Node, bool], ...]
    signature: tuple[SignatureEntry, ...]
    epsilon: int
    phi: int
    good: Node | None
    cogood: Node | None

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "removable": [{"node": list(n), "proper": pr} for n, pr in self.removable],
            "addable": [{"node": list(n), "proper": pr} for n, pr in self.addable],
            "signature": "".join(e.sign for e in self.signature),
            "reduced": "-" * self.epsilon + "+" * self.phi,
            "epsilon": self.epsilon,
            "phi": self.phi,
            "good": list(self.good) if self.good else None,
            "cogood": list(self.cogood) if self.cogood else None,
        }


@dataclass(frozen=True)
class ResidueProfile:
    lam: Partition
    p: int
    data: tuple[ResidueData, ...]

    def __getitem__(self, i: int) -> ResidueData:
        return self.data[i]

    @property
    def eps_vector(self) -> tuple[int, ...]:
        return tuple(d.epsilon for d in self.data)

    def to_json(self) -> dict:
        return {
            "lambda": format_partition(self.lam),
            "p": self.p,
            "residues": [d.to_json() for d in self.data],
        }


def _signature(lam: Partition, p: int, i: int) -> ResidueData:
    rem = removable_nodes(lam, p, i)
    add = addable_nodes(lam, p, i)
    raw = [(n, "-", pr) for n, pr in rem] + [(n, "+", pr) for n, pr in add]
    # rim order: bottom left to top right = row descending, column ascending
    raw.sort(key=lambda t: (-t[0][0], t[0][1]))

    # reduce by cancelling adjacent "+-" pairs to a fixpoint (stack scan)
    stack: list[int] = []
    cancelled = [False] * len(raw)
    for idx, (_, sign, _) in enumerate(raw):
        if sign == "-" and stack and raw[stack[-1]][1] == "+":
            cancelled[stack.pop()] = True
            cancelled[idx] = True
        else:
            stack.append(idx)

    entries = []
    normal_nodes: list[Node] = []
    conormal_nodes: list[Node] = []
    for idx, (node, sign, proper) in enumerate(raw):
        surv = not cancelled[idx]
        entries.append(
            SignatureEntry(node, sign, proper, normal=surv and sign == "-", conormal=surv and sign == "+")
        )
        if surv:
            (normal_nodes if sign == "-" else conormal_nodes).append(node)

    return ResidueData(
        i=i,
        removable=tuple(rem),
        addable=tuple(add),
        signature=tuple(entries),
        epsilon=len(normal_nodes),
        phi=len(conormal_nodes),
        good=normal_nodes[-1] if normal_nodes else None,
        cogood=conormal_nodes[0] if conormal_nodes else None,
    )


@lru_cache(maxsize=200_000)
def build_profile(lam: Partition, p: int) -> ResidueProfile:
    """Full residue profile of lam: signatures, epsilon/phi, good/cogood nodes."""
    check_odd_prime(p)
    if not is_restricted_p_strict(lam, p):
        raise ValueError(f"{lam} is not restricted {p}-strict")
    ell = (p - 1) // 2
    return ResidueProfile(lam, p, tuple(_signature(lam, p, i) for i in range(ell + 1)))


def epsilon(lam: Partition, p: int, i: int) -> int:
    return build_profile(lam, p)[i].epsilon


def eps_vector(lam: Partition, p: int) -> tuple[int, ...]:
    return build_profile(lam, p).eps_vector


def tilde_e(lam: Partition, p: int, i: int) -> Partition | None:
    """Remove the i-good node; None when epsilon_i = 0.

    The good node is always properly removable (pair-type nodes cannot
    survive rightmost); we check anyway and fail loudly.
    """
    d = build_profile(lam, p)[i]
    if d.good is None:
        return None
    proper = any(n == d.good and pr for n, pr in d.removable)
    if not proper:
        raise RuntimeError(f"good node {d.good} of {lam} at i={i} is pair-type; removal undefined")
    r, c = d.good
    out = _remove_last(lam, r, 1)
    if out is None or not is_restricted_p_strict(out, p):
        raise RuntimeError(f"tilde_e({lam}, p={p}, i={i}) left {out}, not restricted {p}-strict")
    return out


def tilde_f(lam: Partition, p: int, i: int) -> Partition | None:
    """Add the i-cogood node; None when phi_i = 0."""
    d = build_profile(lam, p)[i]
    if d.cogood is None:
        return None
    proper = any(n == d.cogood and pr for n, pr in d.addable)
    if not proper:
        raise RuntimeError(f"cogood node {d.cogood} of {lam} at i={i} is pair-type; addition undefined")
    r, c = d.cogood
    out = _add_at_end(lam, r, 1)
    if out is None or not is_restricted_p_strict(out, p):
        raise RuntimeError(f"tilde_f({lam}, p={p}, i={i}) gave {out}, not restricted {p}-strict")
    return out


def js_class(lam: Partition, p: int) -> int | None:
    """The residue i with epsilon_i = 1 and all other epsilon zero, else None."""
    eps = eps_vector(lam, p)
    if sum(eps) != 1:
        return None
    return eps.index(1)


# ---------------------------------------------------------------------------
# Characteristic-0 branching of the supermodules S(lam) for strict lam.
# ---------------------------------------------------------------------------


def down_set(lam: Partition) -> tuple[list[Partition], list[Partition]]:
    """(R'(lam), R(lam)): rows whose decrement stays strict, plus the last row."""
    if not is_strict(lam) or not lam:
        raise ValueError(f"need a nonempty strict partition, got {lam}")
    h = len(lam)
    r_prime = []
    for r in range(h - 1):
        if lam[r] - lam[r + 1] > 1:
            r_prime.append(lam[:r] + (lam[r] - 1,) + lam[r + 1 :])
    last = lam[:-1] if lam[-1] == 1 else lam[:-1] + (lam[-1] - 1,)
    return r_prime, r_prime + [last]


def up_set(lam: Partition) -> tuple[list[Partition], list[Partition]]:
    """(A'(lam), A(lam)); the appended-row label is dropped when not strict."""
    if not is_strict(lam):
        raise ValueError(f"need a strict partition, got {lam}")
    h = len(lam)
    a_prime = []
    for r in range(h):
        above = lam[r - 1] if r > 0 else None
        if above is None or above - lam[r] > 1:
            a_prime.append(lam[:r] + (lam[r] + 1,) + lam[r + 1 :])
    full = list(a_prime)
    appended = lam + (1,)
    if is_strict(appended):
        full.append(appended)
    return a_prime, full


def char0_branching_down(lam: Partition) -> Counter:
    """Multiset of labels of S(lam) restricted one step down, with multiplicities."""
    r_prime, r_full = down_set(lam)
    out: Counter = Counter()
    if a_0(lam) == 0:
        for mu in r_full:
            out[mu] += 1
    elif lam[-1] > 1:
        for mu in r_full:
            out[mu] += 2
    else:
        out[lam[:-1]] += 1
        for mu in r_prime:
            out[mu] += 2
    return out


def char0_branching_up(lam: Partition) -> Counter:
    """Multiset of labels of S(lam) induced one step up, with multiplicities."""
    a_prime, a_full = up_set(lam)
    out: Counter = Counter()
    if a_0(lam) == 0:
        for nu in a_full:
            out[nu] += 1
    else:
        appended = lam + (1,)
        if is_strict(appended):
            out[appended] += 1
        for nu in a_prime:
            out[nu] += 2
    return out
