"""Spin labels: alpha_n / beta_n, dimension/type tables for basic and second
basic supermodules, module dimensions per cover, char-0 spin dimensions,
two-row factor sets trp_set / mu_na.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .partitions import (
    Partition,
    a_0,
    a_p,
    check_odd_prime,
    format_partition,
    is_restricted_p_strict,
    is_strict,
    parse_partition,
    size,
)

TYPE_M = "M"
TYPE_Q = "Q"


def supermodule_type(lam: Partition, p: int) -> str:
    """Type M iff a_p(lam) = 0."""
    return TYPE_M if a_p(lam, p) == 0 else TYPE_Q


def _eps_is_zero(lam: Partition, p: int, group: str) -> bool:
    """The sign rule: eps is '0' iff a_p(lam) = 0 in the S cover, or
    a_p(lam) = 1 in the A cover."""
    return a_p(lam, p) == (0 if group == "S" else 1)


@dataclass(frozen=True)
class ModuleLabel:
    """An irreducible spin module D(lam; eps) of the symmetric-group double
    cover ('S') or E(lam; eps) of the alternating one ('A')."""

    group: str  # 'S' or 'A'
    lam: Partition
    eps: str  # '0', '+', '-'
    p: int

    def __post_init__(self):
        if self.group not in ("S", "A"):
            raise ValueError(f"group must be 'S' or 'A', got {self.group}")
        if self.eps not in ("0", "+", "-"):
            raise ValueError(f"eps must be one of 0 + -, got {self.eps}")
        check_odd_prime(self.p)
        if not is_restricted_p_strict(self.lam, self.p):
            raise ValueError(f"{self.lam} is not restricted {self.p}-strict")
        if _eps_is_zero(self.lam, self.p, self.group) != (self.eps == "0"):
            raise ValueError(
                f"eps={self.eps} invalid for {self.group}-label of {self.lam} with a_p={a_p(self.lam, self.p)}"
            )

    @property
    def letter(self) -> str:
        return "D" if self.group == "S" else "E"

    def __str__(self) -> str:
        return f"{self.letter}[{format_partition(self.lam)};{self.eps}]@p={self.p}"


_LABEL = re.compile(r"([DE])\[([^;\]]*);([^;\]]*)\](?:@p=(\d+))?")


def parse_label(text: str, p: int) -> ModuleLabel:
    """Parse e.g. 'D[(4,3,2,1);0]' or 'E[(4,2);+]@p=3' (trailing @p wins)."""
    match = _LABEL.fullmatch(text.strip())
    if match is None:
        raise ValueError(
            f"cannot parse label {text!r}: expected D[(l1,...,lh);eps] or E[...;eps], optionally @p=P"
        )
    letter, body, eps, ptxt = match.groups()
    return ModuleLabel("S" if letter == "D" else "A", parse_partition(body), eps.strip(), int(ptxt or p))


def labels_for(lam: Partition, p: int, group: str) -> list[ModuleLabel]:
    """All valid labels of lam on the given double cover."""
    eps = ["0"] if _eps_is_zero(lam, p, group) else ["+", "-"]
    return [ModuleLabel(group, lam, e, p) for e in eps]


def alpha_n(n: int, p: int) -> Partition:
    """Label of the basic spin supermodule: (p^m, b) for n = pm + b with
    0 < b < p, and (p^(m-1), p-1, 1) when p | n."""
    check_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    m, b = divmod(n, p)
    if b > 0:
        lam = (p,) * m + (b,)
    else:
        lam = (p,) * (m - 1) + (p - 1, 1)
    return lam


def beta_n(n: int, p: int) -> Partition:
    """Label of the second basic spin supermodule (four-case formula)."""
    check_odd_prime(p)
    if n >= p + 2:
        al = alpha_n(n - 1, p)
        return (al[0] + 1,) + al[1:]
    if n == p + 1 and n >= 6:
        return (p - 2, 2, 1)
    if n == p and n >= 5:
        return (p - 2, 2)
    if 3 <= n < p:
        return (n - 1, 1)
    raise ValueError(f"no second basic label for n={n}, p={p}")


def basic_table(n: int, p: int) -> tuple[int, str]:
    """(supermodule dimension, type) of the basic supermodule D(alpha_n), n >= 5."""
    check_odd_prime(p)
    if n < 5:
        raise ValueError("basic table starts at n=5")
    if n % p and n % 2 == 0:
        return 2 ** (n // 2), TYPE_Q
    if n % p:
        return 2 ** ((n - 1) // 2), TYPE_M
    if n % 2 == 0:
        return 2 ** ((n - 2) // 2), TYPE_M
    return 2 ** ((n - 1) // 2), TYPE_Q


def second_basic_table(n: int, p: int) -> tuple[int, str]:
    """(supermodule dimension, type) of the second basic D(beta_n), n >= 5."""
    check_odd_prime(p)
    if n < 5:
        raise ValueError("second basic table starts at n=5")
    even = n % 2 == 0
    if n % p and (n - 1) % p:
        if even:
            return 2 ** ((n - 2) // 2) * (n - 2), TYPE_M
        return 2 ** ((n - 1) // 2) * (n - 2), TYPE_Q
    if n % p == 0:
        if even:
            return 2 ** ((n - 2) // 2) * (n - 3), TYPE_M
        return 2 ** ((n - 1) // 2) * (n - 3), TYPE_Q
    # p | (n - 1)
    if even:
        return 2 ** ((n - 2) // 2) * (n - 4), TYPE_Q
    return 2 ** ((n - 3) // 2) * (n - 4), TYPE_M


def basic_bracket(n: int, p: int) -> Fraction:
    """Coefficient c with [D(alpha_n)] = c [Sbar(n)] in the Grothendieck group."""
    if n % p == 0 and n % 2 == 0:
        return Fraction(1, 2)
    return Fraction(1)


def second_basic_bracket(n: int, p: int) -> tuple[Fraction, Fraction]:
    """(c1, c2) with [D(beta_n)] = c1 [Sbar(n-1,1)] - c2 [Sbar(n)]."""
    if n % p and (n - 1) % p:
        return Fraction(1), Fraction(0)
    if n % p == 0:
        return Fraction(1), Fraction(1, 2) if n % 2 == 0 else Fraction(1)
    if n % 2 == 0:
        return Fraction(1), Fraction(1)
    return Fraction(1, 2), Fraction(1)


def kappa(n: int, p: int) -> int:
    return 1 if n % p == 0 else 0


def intro_dims(n: int, p: int, group: str, which: str) -> int:
    """Module dimension of the basic / second basic module on the given cover,
    by the kappa closed forms."""
    if n < 5:
        raise ValueError("n must be >= 5")
    if group not in ("S", "A") or which not in ("basic", "second"):
        raise ValueError(f"bad group/which: {group}, {which}")
    kn, kn1 = kappa(n, p), kappa(n - 1, p)
    if which == "basic":
        drop = 1 if group == "S" else 2
        return 2 ** ((n - drop - kn) // 2)
    drop = 2 if group == "S" else 3
    return 2 ** ((n - drop - kn1) // 2) * (n - 2 - kn - 2 * kn1)


def schur_char0_dim(lam: Partition) -> int:
    """Dimension of the underlying space of the irreducible spin supermodule
    S(lam) over C, for strict lam: 2^ceil((n-h)/2) * n!/prod(lam_i!) *
    prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j).

    Module dimensions are this value halved exactly when a_0(lam) = 1.
    """
    if not is_strict(lam):
        raise ValueError(f"need a strict partition, got {lam}")
    n, h = size(lam), len(lam)
    if n == 0:
        return 1
    val = Fraction(factorial(n))
    for x in lam:
        val /= factorial(x)
    for i in range(h):
        for j in range(i + 1, h):
            val *= Fraction(lam[i] - lam[j], lam[i] + lam[j])
    val *= 2 ** ((n - h + 1) // 2)
    if val.denominator != 1:
        raise RuntimeError(f"non-integral spin dimension for {lam}: {val}")
    return val.numerator


def char0_module_dim(lam: Partition) -> int:
    """Dimension of each irreducible C-module S(lam; eps) over the symmetric cover."""
    d = schur_char0_dim(lam)
    return d // 2 if a_0(lam) == 1 else d


def m_n(n: int, p: int) -> int:
    """max(floor((n-1)/2) - [p=3] - [n = p mod 2p], 0): index bound for the
    two-row composition-factor labels."""
    check_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    val = (n - 1) // 2 - (1 if p == 3 else 0) - (1 if n % (2 * p) == p else 0)
    return max(val, 0)


def _partition_sum(lam: Partition, mu: Partition) -> Partition:
    h = max(len(lam), len(mu))
    out = tuple(
        (lam[i] if i < len(lam) else 0) + (mu[i] if i < len(mu) else 0) for i in range(h)
    )
    return out


def trp_prime(p: int, n: int) -> list[Partition]:
    """The sporadic two-row factor labels of size n (empty for p = 3)."""
    if p == 3:
        return []
    out = []
    max_a = n // p + 1
    for a in range(max_a + 1):
        rest = n - a * p
        head = (p,) * a
        # (p^a, b, c) with 1 = c < b <= p-2 or 2 <= c < b <= p-1
        for b in range(2, p):
            c = rest - b
            if c < 1 or c >= b:
                continue
            if (c == 1 and b <= p - 2) or (2 <= c < b <= p - 1):
                out.append(head + (b, c))
        # (p^a, p-1, b, 1) with 2 <= b <= p-2
        b = rest - p
        if 2 <= b <= p - 2:
            out.append(head + (p - 1, b, 1))
        # the three fixed tails
        for tail in ((p - 1, p - 2, 2, 1), (p - 1, p - 2, 2), (p - 2, 2, 1)):
            if rest == sum(tail):
                out.append(head + tail)
    return sorted(set(out), reverse=True)


def trp_set(n: int, p: int) -> list[Partition]:
    """TR_p(n): labels of all composition factors of reduced two-row spin
    supermodules, via the explicit alpha-sum family plus the sporadic list."""
    check_odd_prime(p)
    out = {alpha_n(n, p)} if n >= 1 else set()
    k = 1
    while 2 * k <= n - p - (1 if k % p == 0 else 0):
        out.add(_partition_sum(alpha_n(n - k, p), alpha_n(k, p)))
        k += 1
    sporadic = trp_prime(p, n)
    overlap = out.intersection(sporadic)
    if overlap:
        raise RuntimeError(f"TR clauses overlap at n={n}, p={p}: {overlap}")
    out.update(sporadic)
    return sorted(out, reverse=True)


def mu_na(n: int, a: int, p: int) -> Partition:
    """The two-row factor label mu_{n,a} = alpha_{n-a} + alpha_a on its explicit
    domain; a = 0, 1 always give alpha_n, beta_n."""
    check_odd_prime(p)
    if a == 0:
        return alpha_n(n, p)
    if a == 1:
        return beta_n(n, p)
    if n <= p:
        raise ValueError(f"explicit mu_{{n,a}} needs n > p (n={n}, p={p})")
    in_range = a <= m_n(n, p) if p == 3 else 2 * a <= n - 1 - p - (1 if a % p == 0 else 0)
    if a < 0 or not in_range:
        raise ValueError(f"a={a} outside the explicit range for n={n}, p={p}")
    return _partition_sum(alpha_n(n - a, p), alpha_n(a, p))
