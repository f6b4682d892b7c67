"""The classification oracle: decide irreducibility of the restriction of an
irreducible spin module to a named subgroup family.

Verdicts carry a clause citation.  The dispatcher collects every clause that
fires and insists on exactly one, so overlap bugs surface as errors in the
sweep rather than silent misclassification.
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
    """A primitive-subgroup atom from the known finite list, e.g. M_12 < S_12.

    `name` identifies pi(H); `two_classes` marks the rows that occur as two
    conjugacy classes (the verdict quantifies over the class).
    """

    name: str
    n: int
    two_classes: bool = False

    def __post_init__(self):
        if self.name != "other-primitive" and self.name not in PRIMITIVE_ATOMS.get(self.n, ()):
            listed = ", ".join(PRIMITIVE_ATOMS.get(self.n, ())) or "none"
            raise ValueError(
                f"prim:{self.name} is not a listed primitive atom of degree {self.n} "
                f"(listed: {listed}; or other-primitive)"
            )

    def __str__(self) -> str:
        return f"prim:{self.name}<S{self.n}"


@dataclass(frozen=True)
class TableIICase:
    """A non-maximal imprimitive atom from Table II, identified by row."""

    row: int  # 1..4

    def __str__(self) -> str:
        return f"tab2:row{self.row}"


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


# ---------------------------------------------------------------------------
# Intransitive subgroups  S_{n-k,k} (and the alternating variants)
# ---------------------------------------------------------------------------


def _intransitive_clauses(query: "RestrictionQuery", k: int) -> list[str]:
    lam, p, n = query.label.lam, query.p, query.n
    eps = query.label.eps
    clauses = []
    if _kind(lam, n, p) == "basic":
        parity_ok = (n % 2 == 0) if query.group == "S" else (n % 2 == 1)
        if k % p and (n - k) % p and (parity_ok or n % p == 0):
            clauses.append("intransitive (i): basic with p coprime to both block sizes")
        return clauses
    js = js_class(lam, p)
    if k == 1:
        if js == 0:
            clauses.append("intransitive (ii)(a): one-step restriction of a JS(0) label")
        if js is not None and js != 0 and eps in "+-":
            clauses.append("intransitive (ii)(b): signed one-step restriction of a JS label")
    if k == 2 and js == 0:
        clauses.append("intransitive (iii): two-step restriction of a JS(0) label")
    return clauses


def classify_intransitive(query: "RestrictionQuery") -> RestrictionVerdict:
    """Restriction to the two-block Young subgroup intersected with the
    query's group."""
    sub = query.subgroup
    if not isinstance(sub, SubgroupSpec) or sub.kind != "young" or len(sub.blocks) != 2:
        raise ValueError("classify_intransitive needs a two-block Young subgroup")
    k = min(sub.blocks)
    if k < 1 or 2 * k > query.n:
        raise ValueError("need 1 <= k <= n/2")
    clauses = _intransitive_clauses(query, k)
    return _verdict_from(clauses)


# ---------------------------------------------------------------------------
# Maximal wreath subgroups  W_{a,b} (and intersections with the alternating
# group), plus Table I
# ---------------------------------------------------------------------------

_TABLE_I = (
    # (lam, group, (a, b), alt_intersection, min_p, dim)
    ((3, 2, 1), "S", (3, 2), False, 7),
    ((3, 2, 1), "S", (2, 3), False, 7),
    ((3, 2, 1), "A", (3, 2), True, 7),
    ((4, 3, 2, 1), "S", (5, 2), False, 7),
    ((4, 3, 2, 1), "A", (5, 2), True, 7),
)


def table_i_rows() -> list[dict]:
    out = []
    for lam, group, (a, b), _alt, min_p in _TABLE_I:
        dim = char0_module_dim(lam) if group == "S" else schur_char0_dim(lam) // 2
        out.append({"lam": lam, "group": group, "a": a, "b": b, "min_p": min_p, "dim": dim})
    return out


def _wreath_clauses(query: "RestrictionQuery", a: int, b: int) -> list[str]:
    lam, p, n = query.label.lam, query.p, query.n
    kind = _kind(lam, n, p)
    clauses = []
    if kind == "basic":
        if a % p:
            clauses.append("wreath (i): basic with p coprime to the inner block size")
        return clauses
    if kind == "second" and (n - 1) % p == 0 and n % 2 == 0:
        if query.group == "S" and (a == 2 or b == 2):
            clauses.append("wreath (ii)(a): second basic on a 2-part wreath subgroup")
        if query.group == "A" and b == 2:
            clauses.append("wreath (ii)(b): second basic on W_{n/2,2} inside the alternating cover")
    for row_lam, row_group, (row_a, row_b), _alt, min_p in _TABLE_I:
        if lam == row_lam and query.group == row_group and (a, b) == (row_a, row_b) and p >= min_p:
            clauses.append(f"Table I row ({format_partition(lam)}, W({a},{b}), {row_group})")
    return clauses


def classify_wreath(query: "RestrictionQuery") -> RestrictionVerdict:
    sub = query.subgroup
    if not isinstance(sub, SubgroupSpec) or sub.kind not in ("wreath", "wreath_alt"):
        raise ValueError("classify_wreath needs a wreath subgroup")
    a, b = sub.blocks
    if query.group == "S" and sub.kind == "wreath_alt":
        return _classify_index2_family(query)
    return _verdict_from(_wreath_clauses(query, a, b))


# ---------------------------------------------------------------------------
# Subgroups of W_{b,2} and W_{2,b}: the index-2 classification
# ---------------------------------------------------------------------------


def _classify_index2_family(query: "RestrictionQuery") -> RestrictionVerdict:
    """Inside hat-W_{b,2}: the full group, its two transitive index-2
    subgroups (hat-W ∩ hat-A_n among them) are irreducible for the second
    basic module with p | (n-1); everything else and every proper subgroup of
    hat-W_{2,b} is reducible."""
    sub = query.subgroup
    lam, p, n = query.label.lam, query.p, query.n
    kind = _kind(lam, n, p)
    if kind == "basic":
        return RestrictionVerdict(
            Outcome.OUT_OF_SCOPE,
            "basic spin modules on non-maximal imprimitive subgroups are not classified",
            ("excluded family",),
        )
    clauses = []
    second = kind == "second" and (n - 1) % p == 0 and n % 2 == 0
    if isinstance(sub, SubgroupSpec) and sub.kind == "index2_wr_b2":
        _variant, b = sub.blocks
        if second and query.group == "S":
            clauses.append("index-2 (ii): transitive index-2 subgroup of W_{n/2,2}, not S_{b,b}")
        if query.group == "S" and n == 6 and lam == (3, 2, 1) and p >= 7 and query.label.eps in "+-":
            clauses.append("Table II row 2 (index-2 subgroup of W_{3,2} meeting S_{3,3} in A_{3,3})")
    elif isinstance(sub, SubgroupSpec) and sub.kind == "wreath_alt":
        a, b = sub.blocks
        if second and query.group == "S" and b == 2:
            # hat-W_{b,2} ∩ hat-A_n is one of the two transitive index-2 subgroups
            clauses.append("index-2 (ii): W_{n/2,2} meet the alternating cover, inside the symmetric cover")
    return _verdict_from(clauses)


def classify_index2(query: "RestrictionQuery") -> RestrictionVerdict:
    return _classify_index2_family(query)


# ---------------------------------------------------------------------------
# Primitive subgroups: the known finite list
# ---------------------------------------------------------------------------

# (kind, group, n, name, p-condition, outcome)
_PRIMITIVE_ROWS = [
    ("basic", "S", 5, "Z5:4", lambda p: p != 5, Outcome.IRREDUCIBLE),
    ("basic", "S", 6, "S5", lambda p: True, Outcome.IRREDUCIBLE),
    ("basic", "S", 6, "A5", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("basic", "S", 8, "AGL3(2)", lambda p: True, Outcome.IRREDUCIBLE),
    ("basic", "S", 10, "S6", lambda p: p not in (3, 5), Outcome.IRREDUCIBLE),
    ("basic", "S", 10, "M10", lambda p: p not in (3, 5), Outcome.IRREDUCIBLE),
    ("basic", "S", 10, "AutA6", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("basic", "S", 11, "M11", lambda p: p == 11, Outcome.IRREDUCIBLE),
    ("basic", "S", 12, "M12", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("basic", "A", 5, "Z5:2", lambda p: p != 5, Outcome.IRREDUCIBLE),
    ("basic", "A", 6, "A5", lambda p: True, Outcome.IRREDUCIBLE),
    ("basic", "A", 7, "L2(7)", lambda p: True, Outcome.IRREDUCIBLE),
    ("basic", "A", 8, "AGL3(2)", lambda p: True, Outcome.IRREDUCIBLE),
    ("basic", "A", 9, "L2(8)", lambda p: p != 3, Outcome.IRREDUCIBLE_ONE_SIGN),
    ("basic", "A", 9, "3^2:Q8", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("basic", "A", 10, "M10", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("basic", "A", 10, "A6", lambda p: p == 5, Outcome.IRREDUCIBLE),
    ("basic", "A", 11, "M11", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("basic", "A", 12, "M12", lambda p: p != 3, Outcome.IRREDUCIBLE),
    ("second", "A", 6, "A5", lambda p: p == 3, Outcome.IRREDUCIBLE),
    ("second", "A", 7, "L2(7)", lambda p: p == 3, Outcome.IRREDUCIBLE),
    ("second", "A", 8, "AGL3(2)", lambda p: p != 7, Outcome.IRREDUCIBLE),
    ("second", "A", 12, "M12", lambda p: p not in (3, 11), Outcome.IRREDUCIBLE),
]

_PRIMITIVE_OTHER_ROWS = [
    # neither basic nor second basic: only two rows survive
    ("S", 5, "Z5:4", (3, 2)),
    ("S", 6, "S5", (3, 2, 1)),
]


def classify_primitive(query: "RestrictionQuery") -> RestrictionVerdict:
    sub = query.subgroup
    if not isinstance(sub, PrimitiveCase):
        raise ValueError("classify_primitive needs a PrimitiveCase atom")
    lam, p, n = query.label.lam, query.p, query.n
    kind = _kind(lam, n, p)
    clauses = []
    outcome = Outcome.IRREDUCIBLE
    for row_kind, group, row_n, name, cond, row_outcome in _PRIMITIVE_ROWS:
        if (
            kind == row_kind
            and query.group == group
            and n == row_n
            and sub.name == name
            and cond(p)
        ):
            clauses.append(f"primitive list ({row_kind}, {name} < S_{row_n})")
            outcome = row_outcome
    if kind == "other":
        for group, row_n, name, row_lam in _PRIMITIVE_OTHER_ROWS:
            if query.group == group and n == row_n and sub.name == name and p > 5 and lam == row_lam:
                clauses.append(f"primitive list (non-basic, {name} < S_{row_n})")
    if not clauses:
        return RestrictionVerdict(Outcome.REDUCIBLE, "", ())
    if len(clauses) > 1:
        raise RuntimeError(f"clause overlap for {query}: {clauses}")
    return RestrictionVerdict(outcome, clauses[0], (clauses[0],))


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------

_TABLE_II = {
    1: ("S", 6, (3, 2, 1), lambda p: p >= 7, "Z5:4 inside S_{5,1}"),
    2: ("S", 6, (3, 2, 1), lambda p: p >= 7, "subgroup of W_{3,2} meeting S_{3,3} in A_{3,3}"),
    3: ("S", 6, (3, 2, 1), lambda p: p >= 5, "W_{2,2} x S_2"),
    4: ("A", 7, (4, 2, 1), lambda p: p == 3, "A5 primitive inside S_{6,1}"),
}


def _classify_table2(query: "RestrictionQuery") -> RestrictionVerdict:
    sub = query.subgroup
    row = _TABLE_II.get(sub.row)
    if row is None:
        raise ValueError(f"unknown Table II row {sub.row}")
    group, n, lam, cond, desc = row
    clauses = []
    if (
        query.group == group
        and query.n == n
        and query.label.lam == lam
        and cond(query.p)
        and query.label.eps in "+-"
    ):
        clauses.append(f"Table II row {sub.row} ({desc})")
    return _verdict_from(clauses)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def _verdict_from(clauses: list[str]) -> RestrictionVerdict:
    if not clauses:
        return RestrictionVerdict(Outcome.REDUCIBLE, "", ())
    if len(clauses) > 1:
        raise RuntimeError(f"clause overlap: {clauses}")
    return RestrictionVerdict(Outcome.IRREDUCIBLE, clauses[0], (clauses[0],))


def _out_of_scope(reason: str) -> RestrictionVerdict:
    return RestrictionVerdict(Outcome.OUT_OF_SCOPE, reason, ())


def classify(query: RestrictionQuery) -> RestrictionVerdict:
    """Decide the query; exactly one classification clause may fire."""
    if query.sixfold_cover:
        return _out_of_scope("exceptional 6-fold covers at n = 6, 7 are settled elsewhere")
    sub = query.subgroup
    lam, p, n = query.label.lam, query.p, query.n
    kind = _kind(lam, n, p)
    eps = query.label.eps

    if isinstance(sub, PrimitiveCase):
        return classify_primitive(query)
    if isinstance(sub, TableIICase):
        if kind == "basic":
            return _out_of_scope(
                "basic spin modules on non-maximal imprimitive subgroups are not classified"
            )
        return _classify_table2(query)
    if not isinstance(sub, SubgroupSpec):
        raise ValueError(f"unsupported subgroup {sub!r}")
    if sub.n != n:
        raise ValueError("subgroup degree does not match query")

    if sub.kind == "full_sym":
        if query.group != "S":
            raise ValueError("full symmetric subgroup lives in the symmetric cover")
        return RestrictionVerdict(Outcome.IRREDUCIBLE, "restriction to the whole group", ())
    if sub.kind == "full_alt":
        if query.group == "A":
            return RestrictionVerdict(Outcome.IRREDUCIBLE, "restriction to the whole group", ())
        if eps in "+-":
            return RestrictionVerdict(
                Outcome.IRREDUCIBLE, "index-2 Clifford theory: signed label stays irreducible", ()
            )
        return RestrictionVerdict(Outcome.REDUCIBLE, "", ())

    if sub.kind == "young":
        blocks = sub.blocks
        if len(blocks) == 1:
            return RestrictionVerdict(Outcome.IRREDUCIBLE, "restriction to the whole group", ())
        if len(blocks) == 2:
            return classify_intransitive(query)
        if kind == "basic":
            return _out_of_scope(
                "basic spin modules on non-maximal imprimitive subgroups are not classified"
            )
        if sorted(blocks) == [1, 1, n - 2]:
            clauses = []
            if js_class(lam, p) == 0 and eps in "+-":
                clauses.append("clause (iv): signed JS(0) label on S_{n-2,1,1}")
            return _verdict_from(clauses)
        return RestrictionVerdict(Outcome.REDUCIBLE, "", ())

    if sub.kind == "alt_young":
        if query.group == "A":
            # A_{mu} = S_{mu} meet A_n is the intransitive case for the
            # alternating cover
            proxy = RestrictionQuery(
                query.group, n, p, query.label, SubgroupSpec("young", n, sub.blocks)
            )
            return classify(proxy)
        if kind == "basic":
            return _out_of_scope(
                "basic spin modules on non-maximal imprimitive subgroups are not classified"
            )
        blocks = sorted(sub.blocks)
        clauses = []
        if js_class(lam, p) == 0 and eps in "+-":
            if blocks == [1, n - 1]:
                clauses.append("clause (ii): signed JS(0) label on A_{n-1,1} in the symmetric cover")
            if blocks == [2, n - 2]:
                clauses.append("clause (v): signed JS(0) label on A_{n-2,2} in the symmetric cover")
        return _verdict_from(clauses)

    if sub.kind in ("wreath", "wreath_alt"):
        if kind == "basic" and query.group == "S" and sub.kind == "wreath_alt":
            return _out_of_scope(
                "basic spin modules on non-maximal imprimitive subgroups are not classified"
            )
        return classify_wreath(query)

    if sub.kind == "index2_wr_b2":
        if query.group != "S":
            raise ValueError("index-2 wreath subgroups are classified inside the symmetric cover")
        return _classify_index2_family(query)

    raise ValueError(f"unsupported subgroup kind {sub.kind}")
