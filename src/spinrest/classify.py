"""The classification oracle: decide irreducibility of the restriction of an
irreducible spin module to a named subgroup family.

`classify` validates the subgroup, computes the label's kind once, refuses a
basic label on a non-maximal imprimitive subgroup as out of scope, and asks one
subgroup family for the clauses that fire.  `_verdict_from` insists on at most
one, so overlap bugs surface as errors rather than silent misclassification.
"""

from dataclasses import dataclass
from enum import Enum

from .labels import ModuleLabel, alpha_n, beta_n, char0_module_dim, schur_char0_dim
from .partitions import Partition, format_partition, size
from .residues import js_class
from .specht import SubgroupSpec


class Outcome(Enum):
    IRREDUCIBLE = "Irreducible"
    REDUCIBLE = "Reducible"
    IRREDUCIBLE_ONE_SIGN = "IrreducibleForOneSignChoice"
    OUT_OF_SCOPE = "OutOfScope"


# The primitive atoms by degree n; "other-primitive" stands for any primitive
# subgroup not listed.
PRIMITIVE_ATOMS = {
    5: ("Z5:4", "Z5:2"),
    6: ("S5", "A5"),
    7: ("L2(7)",),
    8: ("AGL3(2)",),
    9: ("L2(8)", "3^2:Q8"),
    10: ("S6", "M10", "AutA6", "A6"),
    11: ("M11",),
    12: ("M12",),
}


@dataclass(frozen=True)
class PrimitiveCase:
    """A primitive-subgroup atom from the known finite list, e.g. M_12 < S_12;
    `name` identifies pi(H)."""

    name: str
    n: int

    def __post_init__(self):
        if self.name != "other-primitive" and self.name not in PRIMITIVE_ATOMS.get(self.n, ()):
            listed = ", ".join(PRIMITIVE_ATOMS.get(self.n, ())) or "none"
            raise ValueError(
                f"prim:{self.name} is not a listed primitive atom of degree {self.n} "
                f"(listed: {listed}; or other-primitive)"
            )

    def __str__(self) -> str:
        return f"prim:{self.name}"


# Table II: the non-maximal imprimitive atoms, by row.
_TABLE_II = {
    1: ("S", 6, (3, 2, 1), lambda p: p >= 7, "Z5:4 inside S_{5,1}"),
    2: ("S", 6, (3, 2, 1), lambda p: p >= 7, "subgroup of W_{3,2} meeting S_{3,3} in A_{3,3}"),
    3: ("S", 6, (3, 2, 1), lambda p: p >= 5, "W_{2,2} x S_2"),
    4: ("A", 7, (4, 2, 1), lambda p: p == 3, "A5 primitive inside S_{6,1}"),
}


@dataclass(frozen=True)
class TableIICase:
    """A non-maximal imprimitive atom from Table II, identified by row."""

    row: int

    def __post_init__(self):
        if self.row not in _TABLE_II:
            rows = ", ".join(map(str, _TABLE_II))
            raise ValueError(f"{self} is not a Table II row (rows: {rows})")

    def __str__(self) -> str:
        return f"tab2:{self.row}"


@dataclass(frozen=True)
class RestrictionQuery:
    group: str  # 'S' or 'A'
    n: int
    p: int
    label: ModuleLabel
    subgroup: object  # SubgroupSpec | PrimitiveCase | TableIICase
    sixfold_cover: bool = False

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("classification needs n >= 5")
        if self.label.group != self.group or self.label.p != self.p:
            raise ValueError("label does not match query group/characteristic")
        if size(self.label.lam) != self.n:
            raise ValueError("label size does not match n")
        if self.sixfold_cover and self.n not in (6, 7):
            raise ValueError(f"the exceptional 6-fold covers exist only at n = 6, 7, not n = {self.n}")
        sub = self.subgroup
        if isinstance(sub, (SubgroupSpec, PrimitiveCase)) and sub.n != self.n:
            raise ValueError(f"subgroup {sub} acts on {sub.n} points, but n = {self.n}")


@dataclass(frozen=True)
class RestrictionVerdict:
    outcome: Outcome
    clause: str
    citations: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "clause": self.clause,
            "citations": list(self.citations),
        }


def _kind(lam: Partition, n: int, p: int) -> str:
    if lam == alpha_n(n, p):
        return "basic"
    try:
        if lam == beta_n(n, p):
            return "second"
    except ValueError:
        pass
    return "other"


def _second_even(query: RestrictionQuery, kind: str) -> bool:
    """The hypothesis of wreath (ii) and index-2 (ii): the second basic label
    with n even and p | n - 1."""
    return kind == "second" and (query.n - 1) % query.p == 0 and query.n % 2 == 0


# ---------------------------------------------------------------------------
# Young subgroups S_mu, and A_mu in either cover
# ---------------------------------------------------------------------------

_WHOLE = "restriction to the whole group"


def _young(query: RestrictionQuery, kind: str, blocks: tuple[int, ...]) -> list[str]:
    """The whole group, the intransitive S_{n-k,k} clauses, or clause (iv) on
    S_{n-2,1,1}."""
    lam, p, n = query.label.lam, query.p, query.n
    if len(blocks) == 1:
        return [_WHOLE]
    if len(blocks) > 2:
        fires = sorted(blocks) == [1, 1, n - 2] and js_class(lam, p) == 0 and query.label.eps in "+-"
        return ["clause (iv): signed JS(0) label on S_{n-2,1,1}"] if fires else []
    k = min(blocks)
    if kind == "basic":
        parity_ok = (n % 2 == 0) if query.group == "S" else (n % 2 == 1)
        fires = k % p and (n - k) % p and (parity_ok or n % p == 0)
        return ["intransitive (i): basic with p coprime to both block sizes"] if fires else []
    js = js_class(lam, p)
    clauses = []
    if k == 1 and js == 0:
        clauses.append("intransitive (ii)(a): one-step restriction of a JS(0) label")
    if k == 1 and js is not None and js != 0 and query.label.eps in "+-":
        clauses.append("intransitive (ii)(b): signed one-step restriction of a JS label")
    if k == 2 and js == 0:
        clauses.append("intransitive (iii): two-step restriction of a JS(0) label")
    return clauses


def _alt_young(query: RestrictionQuery, kind: str, blocks: tuple[int, ...]) -> list[str]:
    """A_mu inside the symmetric cover: clauses (ii) and (v)."""
    n = query.n
    if js_class(query.label.lam, query.p) != 0 or query.label.eps not in "+-":
        return []
    if sorted(blocks) == [1, n - 1]:
        return ["clause (ii): signed JS(0) label on A_{n-1,1} in the symmetric cover"]
    if sorted(blocks) == [2, n - 2]:
        return ["clause (v): signed JS(0) label on A_{n-2,2} in the symmetric cover"]
    return []


# ---------------------------------------------------------------------------
# Maximal wreath subgroups W_{a,b} (and W_{a,b} ∩ A_n), plus Table I
# ---------------------------------------------------------------------------

_TABLE_I = (
    # (lam, group, (a, b), min_p)
    ((3, 2, 1), "S", (3, 2), 7),
    ((3, 2, 1), "S", (2, 3), 7),
    ((3, 2, 1), "A", (3, 2), 7),
    ((4, 3, 2, 1), "S", (5, 2), 7),
    ((4, 3, 2, 1), "A", (5, 2), 7),
)


def table_i_rows() -> list[dict]:
    out = []
    for lam, group, (a, b), min_p in _TABLE_I:
        dim = char0_module_dim(lam) if group == "S" else schur_char0_dim(lam) // 2
        out.append({"lam": lam, "group": group, "a": a, "b": b, "min_p": min_p, "dim": dim})
    return out


def _wreath(query: RestrictionQuery, kind: str, a: int, b: int) -> list[str]:
    lam, p, group = query.label.lam, query.p, query.group
    if kind == "basic":
        return ["wreath (i): basic with p coprime to the inner block size"] if a % p else []
    clauses = []
    if _second_even(query, kind):
        if group == "S" and (a == 2 or b == 2):
            clauses.append("wreath (ii)(a): second basic on a 2-part wreath subgroup")
        if group == "A" and b == 2:
            clauses.append("wreath (ii)(b): second basic on W_{n/2,2} inside the alternating cover")
    for row_lam, row_group, row_ab, min_p in _TABLE_I:
        if (lam, group, (a, b)) == (row_lam, row_group, row_ab) and p >= min_p:
            clauses.append(f"Table I row ({format_partition(lam)}, W({a},{b}), {group})")
    return clauses


# ---------------------------------------------------------------------------
# Subgroups of W_{b,2} and W_{2,b}: the index-2 classification
# ---------------------------------------------------------------------------


def _index2(query: RestrictionQuery, kind: str) -> list[str]:
    """Inside hat-W_{b,2}: the full group, its two transitive index-2
    subgroups (hat-W ∩ hat-A_n among them) are irreducible for the second
    basic module with p | (n-1); everything else and every proper subgroup of
    hat-W_{2,b} is reducible."""
    sub = query.subgroup
    second = _second_even(query, kind)
    if sub.kind == "wreath_alt":
        # hat-W_{b,2} ∩ hat-A_n is one of the two transitive index-2 subgroups
        if second and sub.blocks[1] == 2:
            return ["index-2 (ii): W_{n/2,2} meet the alternating cover, inside the symmetric cover"]
        return []
    clauses = []
    if second:
        clauses.append("index-2 (ii): transitive index-2 subgroup of W_{n/2,2}, not S_{b,b}")
    if _table_ii_fires(query, 2):
        clauses.append("Table II row 2 (index-2 subgroup of W_{3,2} meeting S_{3,3} in A_{3,3})")
    return clauses


# ---------------------------------------------------------------------------
# Primitive subgroups: the known finite list
# ---------------------------------------------------------------------------

# (kind, group, n, name) -> p-condition
_PRIMITIVE_ROWS = {
    ("basic", "S", 5, "Z5:4"): lambda p: p != 5,
    ("basic", "S", 6, "S5"): lambda p: True,
    ("basic", "S", 6, "A5"): lambda p: p != 3,
    ("basic", "S", 8, "AGL3(2)"): lambda p: True,
    ("basic", "S", 10, "S6"): lambda p: p not in (3, 5),
    ("basic", "S", 10, "M10"): lambda p: p not in (3, 5),
    ("basic", "S", 10, "AutA6"): lambda p: p != 3,
    ("basic", "S", 11, "M11"): lambda p: p == 11,
    ("basic", "S", 12, "M12"): lambda p: p != 3,
    ("basic", "A", 5, "Z5:2"): lambda p: p != 5,
    ("basic", "A", 6, "A5"): lambda p: True,
    ("basic", "A", 7, "L2(7)"): lambda p: True,
    ("basic", "A", 8, "AGL3(2)"): lambda p: True,
    ("basic", "A", 9, "L2(8)"): lambda p: p != 3,
    ("basic", "A", 9, "3^2:Q8"): lambda p: p != 3,
    ("basic", "A", 10, "M10"): lambda p: p != 3,
    ("basic", "A", 10, "A6"): lambda p: p == 5,
    ("basic", "A", 11, "M11"): lambda p: p != 3,
    ("basic", "A", 12, "M12"): lambda p: p != 3,
    ("second", "A", 6, "A5"): lambda p: p == 3,
    ("second", "A", 7, "L2(7)"): lambda p: p == 3,
    ("second", "A", 8, "AGL3(2)"): lambda p: p != 7,
    ("second", "A", 12, "M12"): lambda p: p not in (3, 11),
}

# The one row that holds for only one of the two sign choices.
_ONE_SIGN = "primitive list (basic, L2(8) < S_9)"

# Neither basic nor second basic, for p > 5: only two rows survive.
_PRIMITIVE_OTHER_ROWS = {("S", 5, "Z5:4", (3, 2)), ("S", 6, "S5", (3, 2, 1))}


def _primitive(query: RestrictionQuery, kind: str) -> list[str]:
    name, group, n, p = query.subgroup.name, query.group, query.n, query.p
    cond = _PRIMITIVE_ROWS.get((kind, group, n, name))
    if cond is not None and cond(p):
        return [f"primitive list ({kind}, {name} < S_{n})"]
    if kind == "other" and p > 5 and (group, n, name, query.label.lam) in _PRIMITIVE_OTHER_ROWS:
        return [f"primitive list (non-basic, {name} < S_{n})"]
    return []


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


def _table_ii_fires(query: RestrictionQuery, row: int) -> bool:
    group, n, lam, cond, _desc = _TABLE_II[row]
    fires = (query.group, query.n, query.label.lam) == (group, n, lam) and cond(query.p)
    return fires and query.label.eps in "+-"


def _table_ii(query: RestrictionQuery, kind: str) -> list[str]:
    row = query.subgroup.row
    return [f"Table II row {row} ({_TABLE_II[row][4]})"] if _table_ii_fires(query, row) else []


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_CLIFFORD = "index-2 Clifford theory: signed label stays irreducible"
_SIXFOLD = "exceptional 6-fold covers at n = 6, 7 are settled elsewhere"
_NOT_CLASSIFIED = "basic spin modules on non-maximal imprimitive subgroups are not classified"
# General facts and out-of-scope reasons rather than clauses of the
# classification: their verdicts cite nothing.
_UNCITED = (_WHOLE, _CLIFFORD, _SIXFOLD, _NOT_CLASSIFIED)


def _clifford(query: RestrictionQuery, kind: str) -> list[str]:
    """hat-A_n inside the symmetric cover."""
    return [_CLIFFORD] if query.label.eps in "+-" else []


def _verdict_from(clauses: list[str], outcome: Outcome = Outcome.IRREDUCIBLE) -> RestrictionVerdict:
    """Reducible when no clause fires, `outcome` with the one clause that
    fires, and an overlap error when more than one does."""
    if not clauses:
        return RestrictionVerdict(Outcome.REDUCIBLE, "", ())
    if len(clauses) > 1:
        raise RuntimeError(f"clause overlap: {clauses}")
    clause = clauses[0]
    return RestrictionVerdict(outcome, clause, () if clause in _UNCITED else (clause,))


def _family(query: RestrictionQuery):
    """The clause family of the query's subgroup, its extra arguments, and
    whether the subgroup is non-maximal imprimitive; a ValueError for a
    subgroup that the query's cover does not classify."""
    sub, group = query.subgroup, query.group
    if isinstance(sub, PrimitiveCase):
        return _primitive, (), False
    if isinstance(sub, TableIICase):
        return _table_ii, (), True
    if not isinstance(sub, SubgroupSpec):
        raise ValueError(f"unsupported subgroup {sub!r}")
    kind, blocks = sub.kind, sub.blocks
    if kind == "index2_wr_b2" and group != "S":
        raise ValueError("index-2 wreath subgroups are classified inside the symmetric cover")
    if group == "A":
        # inside the alternating cover, H ∩ A_n is classified as H
        kind = {"alt_young": "young", "wreath_alt": "wreath"}.get(kind, kind)
    if kind == "young":
        return _young, (blocks,), len(blocks) > 2
    if kind == "alt_young" and len(blocks) == 1:
        return _clifford, (), False  # A_n, maximal in S_n
    if kind == "alt_young":
        return _alt_young, (blocks,), True
    if kind == "wreath":
        return _wreath, blocks, False
    return _index2, (), True  # wreath_alt or index2_wr_b2 in the symmetric cover


def classify(query: RestrictionQuery) -> RestrictionVerdict:
    """Decide the query; exactly one classification clause may fire."""
    family, args, non_maximal = _family(query)
    if query.sixfold_cover:
        return _verdict_from([_SIXFOLD], Outcome.OUT_OF_SCOPE)
    kind = _kind(query.label.lam, query.n, query.p)
    if kind == "basic" and non_maximal:
        return _verdict_from([_NOT_CLASSIFIED], Outcome.OUT_OF_SCOPE)
    clauses = family(query, kind, *args)
    one_sign = clauses == [_ONE_SIGN]
    return _verdict_from(clauses, Outcome.IRREDUCIBLE_ONE_SIGN if one_sign else Outcome.IRREDUCIBLE)
