"""Deterministic verification suites behind `spinrest verify` and the
acceptance tests.

Each `run_<name>(wide)` is a generator that yields one `(got, want, case)`
triple per check; `case` is a dict naming what was checked.  `run_suite` is
the only code that counts: every triple is one check, and a triple with
got != want becomes the violation {**case, "got": got, "want": want}.  A
check that can fail in several ways yields the list of what went wrong,
against want = [].  Suites are pure and idempotent.

`wide=True` widens some grids and leaves the others as they are:
  li            b in [5, 10] instead of [5, 8];
  wilson        n up to 14 instead of 12;
  etas          n = 14 as well as n = 12;
  js, parity    n up to 20 instead of 16;
  reg           n up to 28 instead of 24;
  inv42         adds the two dual-Specht checks;
  special-inv, largeps, tables, trp and classify-sweep ignore it.
"""

from math import comb

from . import labels as lb
from .classify import (
    PRIMITIVE_ATOMS,
    Outcome,
    PrimitiveCase,
    RestrictionQuery,
    TableIICase,
    _TABLE_II as TABLE_II_ROWS,
    classify as classify_query,
    table_i_rows,
)
from .gfp import matmul_mod, rank
from .labels import ModuleLabel
from . import regularization as rg
from . import residues as rs
from .partitions import (
    a_p,
    is_restricted_p_strict,
    is_strict,
    p_strict_partitions,
    partitions_of,
    restricted_p_strict_partitions,
    size,
)
from .specht import (
    SubgroupSpec,
    alt_young,
    dual_specht_invariant_dim,
    eta,
    gram_irreducibility,
    index2_wr_b2,
    orbit_count,
    orbit_identity_check_inv42,
    perm_basis,
    shape_from_tail,
    subset_basis,
    wilson_rank,
    wreath,
    wreath_alt,
    young,
    z_invariant_dim,
)

SUITES = {}


def _suite(name):
    def deco(fn):
        SUITES[name] = fn
        return fn

    return deco


@_suite("li")
def run_li(wide: bool = False):
    """Orbit counts on k-subsets: dim M_k^W = ceil((k+1)/2) for both wreath
    types, k <= b, b in [5, 8] (60 checks; [5, 10] and 102 checks wide)."""
    for b in range(5, 11 if wide else 9):
        for spec in (wreath(2, b), wreath(b, 2)):
            for k in range(0, b + 1):
                got = orbit_count(spec, subset_basis(2 * b, k))
                yield got, (k + 2) // 2, {"b": b, "k": k, "subgroup": str(spec)}


_SPECIAL_INV = {
    (2, 1): (3, 0),
    (1, 1, 1): (4, 0),
    (3, 1): (4, 0),
    (2, 2): (6, 0),
    (2, 1, 1): (7, 0),
    (4, 1): (5, 0),
    (3, 2): (7, 0),
    (3, 1, 1): (9, 0),
    (2, 2, 1): (12, 0),
    (5, 1): (6, 1),
    (4, 2): (10, 1),
    (4, 1, 1): (12, 1),
    (3, 3): (10, 1),
    (3, 2, 1): (17, 1),
    (2, 2, 2): (24, 1),
}


@_suite("special-inv")
def run_special_inv(wide: bool = False):
    """Orbit counts of W_{2,b} on small tabloid shapes, with the b = 5 drops."""
    for b in (5, 6):
        w = wreath(2, b)
        for tail, (base, delta) in _SPECIAL_INV.items():
            got = orbit_count(w, perm_basis(shape_from_tail(2 * b, tail)))
            yield got, base - (delta if b == 5 else 0), {"b": b, "tail": tail}


@_suite("largeps")
def run_largeps(wide: bool = False):
    """Dual-Specht invariants under the wreath subgroups: the (1,0,1,0,1)
    vector for k <= 4, the vanishing of (S_p^*)^W at p = 3, n = 12, and
    dim Z_6^W = 3 at p = 3, b = 6."""
    expect = (1, 0, 1, 0, 1)
    for b in (5, 6):
        n = 2 * b
        for p in (3, 5):
            for spec in (wreath(2, b), wreath(b, 2)):
                for k in range(5):
                    got = dual_specht_invariant_dim((n - k, k) if k else (n,), p, spec)
                    yield got, expect[k], {"b": b, "p": p, "k": k, "subgroup": str(spec)}
    for spec in (wreath(2, 6), wreath(6, 2)):
        yield dual_specht_invariant_dim((9, 3), 3, spec), 0, {"case": "(S_p^*)^W", "subgroup": str(spec)}
        # (dim Z_6^W, dim M_6^W, whether the first is smaller)
        yield z_invariant_dim(6, 12, 3, spec), (3, 4, True), {"case": "Z_6^W", "subgroup": str(spec)}


@_suite("wilson")
def run_wilson(wide: bool = False):
    """wilson_rank = rank(eta_{k,l}) over the full desk grid."""
    for n in range(6, (14 if wide else 12) + 1):
        for l in range(0, min(5, n // 2) + 1):
            for k in range(0, l + 1):
                incidence = eta(k, l, n)
                for p in (3, 5, 7):
                    yield rank(incidence, p), wilson_rank(k, l, n, p), {"k": k, "l": l, "n": n, "p": p}


@_suite("etas")
def run_etas(wide: bool = False):
    """Exactness of M_3 -> M_5 -> M_6 at p = 3, n = 12."""
    for n in (12, 14) if wide else (12,):
        e35, e56 = eta(3, 5, n), eta(5, 6, n)
        r35, r56 = rank(e35, 3), rank(e56, 3)
        yield r35, n * (n - 1) * (n - 5) // 6 + 1, {"n": n, "case": "rank eta_35"}
        yield bool(matmul_mod(e56, e35, 3).any()), False, {"n": n, "case": "eta_56 . eta_35 nonzero"}
        yield r35 + r56, comb(n, 5), {"n": n, "case": "rank sum"}


@_suite("js")
def run_js(wide: bool = False):
    """Crystal-operator properties over RP_p(n), n <= 16, p in {3, 5}:
    tilde_e_i vanishes where epsilon_i = 0; elsewhere the epsilon drop,
    mutual inversion and cross-residue monotonicity; and the JS(0) -> JS(1)
    step."""
    for p in (3, 5):
        ell = (p - 1) // 2
        for n in range(1, (20 if wide else 16) + 1):
            for lam in restricted_p_strict_partitions(n, p):
                eps = rs.eps_vector(lam, p)
                for i in range(ell + 1):
                    mu = rs.tilde_e(lam, p, i)
                    case = {"lam": lam, "p": p, "i": i}
                    if eps[i] == 0:
                        yield mu, None, {**case, "case": "tilde_e at eps = 0"}
                        continue
                    yield rs.epsilon(mu, p, i), eps[i] - 1, {**case, "case": "epsilon drop"}
                    yield rs.tilde_f(mu, p, i), lam, {**case, "case": "tilde_f . tilde_e"}
                    dropped = [j for j in range(ell + 1) if j != i and rs.epsilon(mu, p, j) < eps[j]]
                    yield dropped, [], {**case, "case": "monotonicity"}
                # the JS(0) -> JS(1) step degenerates at n = 1 (tilde_e_0 lands on the
                # empty partition, which has no normal nodes at all)
                if n >= 2 and rs.js_class(lam, p) == 0:
                    got = rs.js_class(rs.tilde_e(lam, p, 0), p)
                    yield got, 1, {"lam": lam, "p": p, "case": "JS(0) -> JS(1)"}


@_suite("parity")
def run_parity(wide: bool = False):
    """a_p(lam) = gamma_1 + ... + gamma_ell (mod 2) over the js-suite grid."""
    for p in (3, 5):
        for n in range(0, (20 if wide else 16) + 1):
            for lam in restricted_p_strict_partitions(n, p):
                yield a_p(lam, p), sum(rs.residue_counts(lam, p)[1:]) % 2, {"lam": lam, "p": p}


@_suite("reg")
def run_reg(wide: bool = False):
    """Regularization: the (11,2,1) anchor, idempotence, ladder-count
    preservation, RP fixed points, closed-form agreement, and integral
    leading-coefficient exponents."""
    yield rg.regularize((11, 2, 1), 5), (7, 6, 1), {"case": "anchor"}
    for p in (3, 5):
        for n in range(0, (28 if wide else 24) + 1):
            for lam in p_strict_partitions(n, p):
                reg = rg.regularize(lam, p)
                case = {"lam": lam, "p": p}
                yield rg.ladder_counts(reg, p), rg.ladder_counts(lam, p), {**case, "case": "ladder counts"}
                yield rg.regularize(reg, p), reg, {**case, "case": "idempotence"}
                # a restricted p-strict partition is its own regularization
                yield reg, lam if is_restricted_p_strict(lam, p) else reg, {**case, "case": "fixed point"}
                if is_strict(lam) and lam:
                    try:
                        closed = rg.reg_closed_form(lam, p)
                    except ValueError:  # lam breaks the closed form's gap hypothesis
                        continue
                    yield closed, reg, {**case, "case": "closed form"}
    for p in (3, 5, 7):
        for n in range(1, 21):
            for lam in partitions_of(n, is_strict):
                try:
                    rg.leading_coefficient(lam, p)
                    err = None
                except RuntimeError as exc:
                    err = str(exc)
                yield err, None, {"lam": lam, "p": p, "case": "leading coefficient"}


_TABLE_I_DIM = {((3, 2, 1), "S"): 4, ((3, 2, 1), "A"): 4, ((4, 3, 2, 1), "S"): 96, ((4, 3, 2, 1), "A"): 48}


@_suite("tables")
def run_tables(wide: bool = False):
    """Tables III/IV against the kappa closed forms, their bracket expansion
    through the characteristic-0 dimensions, the type rule, and the Table I
    dimension column."""
    for p in (3, 5, 7):
        for n in range(5, 21):
            bdim, btype = lb.basic_table(n, p)
            sdim, stype = lb.second_basic_table(n, p)
            for which, dim, typ, lam in (
                ("basic", bdim, btype, lb.alpha_n(n, p)),
                ("second", sdim, stype, lb.beta_n(n, p)),
            ):
                case = {"n": n, "p": p, "which": which}
                q = 2 if typ == lb.TYPE_Q else 1
                yield dim, lb.intro_dims(n, p, "S", which) * q, {**case, "case": "intro S"}
                yield dim, lb.intro_dims(n, p, "A", which) * 2, {**case, "case": "intro A"}
                yield typ, lb.supermodule_type(lam, p), {**case, "case": "type rule"}
                yield size(lam), n, {**case, "case": "label size"}
            # bracket expansion: [D(alpha)] = c [Sbar(n)], etc.
            want = lb.basic_bracket(n, p) * lb.schur_char0_dim((n,))
            yield bdim, want, {"n": n, "p": p, "case": "basic bracket"}
            c1, c2 = lb.second_basic_bracket(n, p)
            want = c1 * lb.schur_char0_dim((n - 1, 1)) - c2 * lb.schur_char0_dim((n,))
            yield sdim, want, {"n": n, "p": p, "case": "second basic bracket"}
    for row in table_i_rows():
        yield row["dim"], _TABLE_I_DIM[row["lam"], row["group"]], {"case": "Table I dim", "row": row}


@_suite("trp")
def run_trp(wide: bool = False):
    """Two-row factor labels: the n = 6, p = 3 identity with RP_3(6), the
    inclusion in RP, and the mu anchors at a = 0, 1."""
    rp6 = sorted(restricted_p_strict_partitions(6, 3))
    yield sorted(set(lb.trp_set(6, 3))), rp6, {"case": "TR_3(6) = RP_3(6)"}
    yield rp6, [(3, 2, 1), (4, 2)], {"case": "RP_3(6) literal"}
    for p in (3, 5, 7):
        for n in range(1, 21):
            tr = lb.trp_set(n, p)
            case = {"n": n, "p": p}
            yield len(set(tr)), len(tr), {**case, "case": "duplicates"}
            for lam in tr:
                yield is_restricted_p_strict(lam, p), True, {**case, "lam": lam, "case": "TR in RP"}
            yield lb.mu_na(n, 0, p), lb.alpha_n(n, p), {**case, "case": "mu_{n,0}"}
            if n >= 5:
                yield lb.mu_na(n, 1, p), lb.beta_n(n, p), {**case, "case": "mu_{n,1}"}


@_suite("inv42")
def run_inv42(wide: bool = False):
    """The alternating orbit-count identities for (n-6,4,2) / (n-6,2^3) and
    the Gram irreducibility of S^(6,4,2) mod 3.  The wide grid also finds
    the value 1 of the identities as dim (S^alpha*)^W on the Specht modules
    themselves: S^(6,4,2) mod 3 and S^(4,2,2,2) mod 5 are irreducible, so
    self-dual."""
    yield orbit_identity_check_inv42(6, 3), 1, {"case": "p=3, b=6"}
    yield orbit_identity_check_inv42(5, 5), 1, {"case": "p=5, b=5"}
    yield gram_irreducibility((6, 4, 2), 3), True, {"case": "Gram S^(6,4,2) mod 3 nonsingular"}
    for shape, p, b in (((6, 4, 2), 3, 6), ((4, 2, 2, 2), 5, 5)) if wide else ():
        yield dual_specht_invariant_dim(shape, p, wreath(2, b)), 1, {"case": f"(S^{shape}*)^W(2,{b}) mod {p}"}


# ---------------------------------------------------------------------------
# Classification sweep
# ---------------------------------------------------------------------------


def _sweep_subgroups(n: int) -> list:
    """Every subgroup the sweep classifies against at degree n: two-part and
    (n-2,1,1) Young subgroups, their alternating kinds, the wreath subgroups,
    the index-2 subgroups of W(n/2,2), the primitive atoms and the Table II
    rows of degree n."""
    subs = [young(n, (n - k, k)) for k in range(1, n // 2 + 1)]
    if n >= 4:
        subs.append(young(n, (n - 2, 1, 1)))
    subs += [alt_young(n, (n - 1, 1)), alt_young(n, (n - 2, 2))]
    for a in range(2, n):
        if n % a == 0 and n // a >= 2:
            subs += [wreath(a, n // a), wreath_alt(a, n // a)]
    if n % 2 == 0 and n >= 6:
        subs += [index2_wr_b2(1, n // 2), index2_wr_b2(2, n // 2)]
    subs += [PrimitiveCase(name, n) for name in PRIMITIVE_ATOMS.get(n, ()) + ("other-primitive",)]
    return subs + [TableIICase(r) for r, row in TABLE_II_ROWS.items() if row[1] == n]


_IRR, _RED = Outcome.IRREDUCIBLE, Outcome.REDUCIBLE

# (case, group, n, p, lam, eps, subgroup, outcome): the Table I rows under
# their stated conditions (p = 7 representative), the Table II rows,
# negations that break one condition each, and the second-basic chain at
# p | n - 1 (lam = beta_n): W(n/2,2), its two transitive index-2 subgroups
# and its alternating intersection are irreducible together.
_TABLE_ROWS = (
    ("Table I row 1", "S", 6, 7, (3, 2, 1), "+", wreath(3, 2), _IRR),
    ("Table I row 2", "S", 6, 7, (3, 2, 1), "+", wreath(2, 3), _IRR),
    ("Table I row 3", "A", 6, 7, (3, 2, 1), "0", wreath_alt(3, 2), _IRR),
    ("Table I row 4", "S", 10, 7, (4, 3, 2, 1), "0", wreath(5, 2), _IRR),
    ("Table I row 5", "A", 10, 7, (4, 3, 2, 1), "+", wreath_alt(5, 2), _IRR),
    ("Table I row 4 at p=5", "S", 10, 5, (4, 3, 2, 1), "0", wreath(5, 2), _RED),
    ("Table I row 5 at p=5", "A", 10, 5, (4, 3, 2, 1), "+", wreath_alt(5, 2), _RED),
    ("Table I row 4 wrong wreath", "S", 10, 7, (4, 3, 2, 1), "0", wreath(2, 5), _RED),
    ("Table I row 1 at p=3 (basic, 3|a)", "S", 6, 3, (3, 2, 1), "0", wreath(3, 2), _RED),
    ("Table II row 1", "S", 6, 7, (3, 2, 1), "+", TableIICase(1), _IRR),
    ("Table II row 2", "S", 6, 7, (3, 2, 1), "+", TableIICase(2), _IRR),
    ("Table II row 3", "S", 6, 5, (3, 2, 1), "+", TableIICase(3), _IRR),
    ("Table II row 4", "A", 7, 3, (4, 2, 1), "+", TableIICase(4), _IRR),
    ("Table II row 1 at p=5", "S", 6, 5, (3, 2, 1), "+", TableIICase(1), _RED),
    ("index-2 chain", "S", 10, 3, (4, 3, 2, 1), "+", wreath(5, 2), _IRR),
    ("index-2 chain", "S", 10, 3, (4, 3, 2, 1), "+", index2_wr_b2(1, 5), _IRR),
    ("index-2 chain", "S", 10, 3, (4, 3, 2, 1), "+", index2_wr_b2(2, 5), _IRR),
    ("index-2 chain", "A", 10, 3, (4, 3, 2, 1), "0", wreath_alt(5, 2), _IRR),
    ("index-2 chain", "S", 8, 7, (5, 2, 1), "+", wreath(4, 2), _IRR),
    ("index-2 chain", "S", 8, 7, (5, 2, 1), "+", index2_wr_b2(1, 4), _IRR),
    ("index-2 chain", "S", 8, 7, (5, 2, 1), "+", index2_wr_b2(2, 4), _IRR),
    ("index-2 chain", "A", 8, 7, (5, 2, 1), "0", wreath_alt(4, 2), _IRR),
)


@_suite("classify-sweep")
def run_classify_sweep(wide: bool = False):
    """Clause exclusivity and combinatorial consistency over all in-scope
    queries with n <= 14, plus the Table I/II rows and their negations.  A
    sweep check fails on a clause overlap, on a JS(0) clause cited for a
    label outside JS(0), and on a second-basic clause fired anywhere but
    beta_n with p | n - 1."""
    for p in (3, 5, 7):
        for n in range(5, 15):
            subs = [(sub, str(sub)) for sub in _sweep_subgroups(n)]
            beta = lb.beta_n(n, p) if (n - 1) % p == 0 else None
            for lam in restricted_p_strict_partitions(n, p):
                for group in ("S", "A"):
                    for label in lb.labels_for(lam, p, group):
                        name = str(label)
                        for sub, sub_name in subs:
                            if group == "A" and isinstance(sub, SubgroupSpec) and sub.kind == "index2_wr_b2":
                                continue
                            case = {"label": name, "subgroup": sub_name}
                            try:
                                verdict = classify_query(RestrictionQuery(group, n, p, label, sub))
                            except RuntimeError as exc:  # clause overlap
                                yield [str(exc)], [], case
                                continue
                            clause = verdict.clause if verdict.outcome == _IRR else ""
                            wrong = []
                            if "JS(0)" in clause and rs.js_class(lam, p) != 0:
                                wrong.append(f"JS(0) cited at JS class {rs.js_class(lam, p)}")
                            if clause.startswith(("wreath (ii)", "index-2 (ii)")) and lam != beta:
                                wrong.append("second-basic clause misfire")
                            yield wrong, [], case
    for tag, group, n, p, lam, eps, sub, want in _TABLE_ROWS:
        verdict = classify_query(RestrictionQuery(group, n, p, ModuleLabel(group, lam, eps, p), sub))
        yield verdict.outcome.value, want.value, {"case": tag, "subgroup": str(sub)}


def run_suite(name: str, wide: bool = False) -> dict:
    """Run one suite: {"suite", "checks", "violations"}, one check per
    triple the suite yields and one violation per triple with got != want."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks, violations = 0, []
    for checks, (got, want, case) in enumerate(SUITES[name](wide=wide), 1):
        if got != want:
            violations.append({**case, "got": got, "want": want})
    return {"suite": name, "checks": checks, "violations": violations}
