"""Deterministic verification suites behind `spinrest verify` and the
acceptance tests.

Each suite returns {"suite", "checks", "violations"}; a violation is a dict
naming the failing case and the observed/expected values.  Suites are pure
and idempotent; `wide=True` extends the n-range by 4 where runtime permits.
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
from .labels import ModuleLabel
from .specht import SubgroupSpec
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


def _result(name: str, checks: int, violations: list) -> dict:
    return {"suite": name, "checks": checks, "violations": violations}


@_suite("li")
def run_li(wide: bool = False) -> dict:
    """Orbit counts on k-subsets: dim M_k^W = ceil((k+1)/2) for both wreath
    types, k <= b, b in [5, 8] (60 checks; [5, 10] and 102 checks wide)."""
    checks, bad = 0, []
    for b in range(5, 11 if wide else 9):
        n = 2 * b
        for spec in (wreath(2, b), wreath(b, 2)):
            for k in range(0, b + 1):
                got = orbit_count(spec, subset_basis(n, k))
                want = (k + 2) // 2
                checks += 1
                if got != want:
                    bad.append({"b": b, "k": k, "subgroup": str(spec), "got": got, "want": want})
    return _result("li", checks, bad)


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
def run_special_inv(wide: bool = False) -> dict:
    """Orbit counts of W_{2,b} on small tabloid shapes, with the b = 5 drops."""
    checks, bad = 0, []
    for b in (5, 6):
        n = 2 * b
        w = wreath(2, b)
        for tail, (base, delta) in _SPECIAL_INV.items():
            want = base - (delta if b == 5 else 0)
            got = orbit_count(w, perm_basis(shape_from_tail(n, tail)))
            checks += 1
            if got != want:
                bad.append({"b": b, "tail": tail, "got": got, "want": want})
    return _result("special-inv", checks, bad)


@_suite("largeps")
def run_largeps(wide: bool = False) -> dict:
    """Dual-Specht invariants under the wreath subgroups: the (1,0,1,0,1)
    vector for k <= 4, the vanishing of (S_p^*)^W at p = 3, n = 12, and
    dim Z_6^W = 3 at p = 3, b = 6."""
    checks, bad = 0, []
    expect = (1, 0, 1, 0, 1)
    for b in (5, 6):
        n = 2 * b
        for p in (3, 5):
            for spec in (wreath(2, b), wreath(b, 2)):
                for k in range(5):
                    got = dual_specht_invariant_dim((n - k, k) if k else (n,), p, spec)
                    checks += 1
                    if got != expect[k]:
                        bad.append(
                            {"b": b, "p": p, "k": k, "subgroup": str(spec), "got": got, "want": expect[k]}
                        )
    for spec in (wreath(2, 6), wreath(6, 2)):
        got = dual_specht_invariant_dim((9, 3), 3, spec)
        checks += 1
        if got != 0:
            bad.append({"case": "(S_p^*)^W", "subgroup": str(spec), "got": got, "want": 0})
        z, m, gap = z_invariant_dim(6, 12, 3, spec)
        checks += 1
        if (z, m, gap) != (3, 4, True):
            bad.append({"case": "Z_6^W", "subgroup": str(spec), "got": [z, m, gap], "want": [3, 4, True]})
    return _result("largeps", checks, bad)


@_suite("wilson")
def run_wilson(wide: bool = False) -> dict:
    """wilson_rank = rank(eta_{k,l}) over the full desk grid."""
    checks, bad = 0, []
    top = 14 if wide else 12
    for n in range(6, top + 1):
        for l in range(0, min(5, n // 2) + 1):
            for k in range(0, l + 1):
                for p in (3, 5, 7):
                    got = eta(k, l, n, p).rank()
                    want = wilson_rank(k, l, n, p)
                    checks += 1
                    if got != want:
                        bad.append({"k": k, "l": l, "n": n, "p": p, "got": got, "want": want})
    return _result("wilson", checks, bad)


@_suite("etas")
def run_etas(wide: bool = False) -> dict:
    """Exactness of M_3 -> M_5 -> M_6 at p = 3, n = 12."""
    checks, bad = 0, []
    for n in (12, 14) if wide else (12,):
        e35 = eta(3, 5, n, 3)
        e56 = eta(5, 6, n, 3)
        r35, r56 = e35.rank(), e56.rank()
        want35 = n * (n - 1) * (n - 5) // 6 + 1
        checks += 3
        if r35 != want35:
            bad.append({"n": n, "case": "rank eta_35", "got": r35, "want": want35})
        if not (e56 @ e35).is_zero():
            bad.append({"n": n, "case": "eta_56 . eta_35", "got": "nonzero", "want": "zero"})
        if r35 + r56 != comb(n, 5):
            bad.append({"n": n, "case": "rank sum", "got": r35 + r56, "want": comb(n, 5)})
    return _result("etas", checks, bad)


@_suite("js")
def run_js(wide: bool = False) -> dict:
    """Crystal-operator properties over RP_p(n), n <= 16, p in {3, 5}:
    epsilon drop, mutual inversion, cross-residue monotonicity, and the
    JS(0) -> JS(1) step."""
    checks, bad = 0, []
    top = 20 if wide else 16
    for p in (3, 5):
        ell = (p - 1) // 2
        for n in range(1, top + 1):
            for lam in restricted_p_strict_partitions(n, p):
                eps = rs.eps_vector(lam, p)
                for i in range(ell + 1):
                    if eps[i] == 0:
                        if rs.tilde_e(lam, p, i) is not None:
                            bad.append({"lam": lam, "p": p, "i": i, "case": "tilde_e nonzero at eps=0"})
                        continue
                    mu = rs.tilde_e(lam, p, i)
                    checks += 3
                    if rs.epsilon(mu, p, i) != eps[i] - 1:
                        bad.append({"lam": lam, "p": p, "i": i, "case": "epsilon drop", "got": rs.epsilon(mu, p, i)})
                    if rs.tilde_f(mu, p, i) != lam:
                        bad.append({"lam": lam, "p": p, "i": i, "case": "tilde_f . tilde_e != id"})
                    for j in range(ell + 1):
                        if j != i and rs.epsilon(mu, p, j) < eps[j]:
                            bad.append({"lam": lam, "p": p, "i": i, "j": j, "case": "monotonicity"})
                # the JS(0) -> JS(1) step degenerates at n = 1 (tilde_e_0 lands on the
                # empty partition, which has no normal nodes at all)
                if n >= 2 and rs.js_class(lam, p) == 0:
                    mu = rs.tilde_e(lam, p, 0)
                    checks += 1
                    if rs.js_class(mu, p) != 1:
                        bad.append({"lam": lam, "p": p, "case": "JS(0) -> JS(1)", "got": rs.js_class(mu, p)})
    return _result("js", checks, bad)


@_suite("parity")
def run_parity(wide: bool = False) -> dict:
    """a_p(lam) = gamma_1 + ... + gamma_ell (mod 2) over the js-suite grid."""
    checks, bad = 0, []
    top = 20 if wide else 16
    for p in (3, 5):
        for n in range(0, top + 1):
            for lam in restricted_p_strict_partitions(n, p):
                gamma = rs.residue_counts(lam, p)
                checks += 1
                if a_p(lam, p) != sum(gamma[1:]) % 2:
                    bad.append({"lam": lam, "p": p, "gamma": gamma, "a_p": a_p(lam, p)})
    return _result("parity", checks, bad)


@_suite("reg")
def run_reg(wide: bool = False) -> dict:
    """Regularization: the (11,2,1) anchor, idempotence, ladder-count
    preservation, RP fixed points, closed-form agreement, and integral
    leading-coefficient exponents."""
    checks, bad = 0, []
    if rg.regularize((11, 2, 1), 5) != (7, 6, 1):
        bad.append({"case": "anchor", "got": rg.regularize((11, 2, 1), 5)})
    checks += 1
    top = 28 if wide else 24
    for p in (3, 5):
        for n in range(0, top + 1):
            for lam in p_strict_partitions(n, p):
                reg = rg.regularize(lam, p)
                checks += 3
                if rg.ladder_counts(lam, p) != rg.ladder_counts(reg, p):
                    bad.append({"lam": lam, "p": p, "case": "ladder counts"})
                if rg.regularize(reg, p) != reg:
                    bad.append({"lam": lam, "p": p, "case": "idempotence"})
                if is_restricted_p_strict(lam, p) and reg != lam:
                    bad.append({"lam": lam, "p": p, "case": "fixed point"})
                if is_strict(lam) and lam:
                    try:
                        closed = rg.reg_closed_form(lam, p)
                    except ValueError:
                        closed = None
                    if closed is not None:
                        checks += 1
                        if closed != reg:
                            bad.append({"lam": lam, "p": p, "case": "closed form", "got": closed})
    for p in (3, 5, 7):
        for n in range(1, 21):
            for lam in partitions_of(n, is_strict):
                checks += 1
                try:
                    rg.leading_coefficient(lam, p)
                except RuntimeError as exc:
                    bad.append({"lam": lam, "p": p, "case": "leading coefficient", "err": str(exc)})
    return _result("reg", checks, bad)


@_suite("tables")
def run_tables(wide: bool = False) -> dict:
    """Tables III/IV against the kappa closed forms, their bracket expansion
    through the characteristic-0 dimensions, the type rule, and the Table I
    dimension column."""
    checks, bad = 0, []
    for p in (3, 5, 7):
        for n in range(5, 21):
            bdim, btype = lb.basic_table(n, p)
            sdim, stype = lb.second_basic_table(n, p)
            for which, dim, typ, lam in (
                ("basic", bdim, btype, lb.alpha_n(n, p)),
                ("second", sdim, stype, lb.beta_n(n, p)),
            ):
                checks += 4
                q = 2 if typ == lb.TYPE_Q else 1
                if dim != lb.intro_dims(n, p, "S", which) * q:
                    bad.append({"n": n, "p": p, "which": which, "case": "intro S"})
                if dim != lb.intro_dims(n, p, "A", which) * 2:
                    bad.append({"n": n, "p": p, "which": which, "case": "intro A"})
                if typ != lb.supermodule_type(lam, p):
                    bad.append({"n": n, "p": p, "which": which, "case": "type rule"})
                if size(lam) != n:
                    bad.append({"n": n, "p": p, "which": which, "case": "label size"})
            # bracket expansion: [D(alpha)] = c [Sbar(n)], etc.
            checks += 2
            if bdim != lb.basic_bracket(n, p) * lb.schur_char0_dim((n,)):
                bad.append({"n": n, "p": p, "case": "basic bracket"})
            c1, c2 = lb.second_basic_bracket(n, p)
            if sdim != c1 * lb.schur_char0_dim((n - 1, 1)) - c2 * lb.schur_char0_dim((n,)):
                bad.append({"n": n, "p": p, "case": "second basic bracket"})
    for row in table_i_rows():
        want = {(3, 2, 1): 4, (4, 3, 2, 1): {"S": 96, "A": 48}}[row["lam"]]
        if isinstance(want, dict):
            want = want[row["group"]]
        checks += 1
        if row["dim"] != want:
            bad.append({"case": "Table I dim", "row": row, "want": want})
    return _result("tables", checks, bad)


@_suite("trp")
def run_trp(wide: bool = False) -> dict:
    """Two-row factor labels: the n = 6, p = 3 identity with RP_3(6), the
    inclusion in RP, and the mu anchors at a = 0, 1."""
    checks, bad = 0, []
    got = set(lb.trp_set(6, 3))
    rp6 = set(restricted_p_strict_partitions(6, 3))
    checks += 2
    if got != rp6:
        bad.append({"case": "TR_3(6) = RP_3(6)", "got": sorted(got), "rp": sorted(rp6)})
    if rp6 != {(3, 2, 1), (4, 2)}:
        bad.append({"case": "RP_3(6) literal", "got": sorted(rp6)})
    for p in (3, 5, 7):
        for n in range(1, 21):
            tr = lb.trp_set(n, p)
            checks += 1
            if len(set(tr)) != len(tr):
                bad.append({"n": n, "p": p, "case": "duplicates"})
            for lam in tr:
                checks += 1
                if not is_restricted_p_strict(lam, p):
                    bad.append({"n": n, "p": p, "lam": lam, "case": "TR not in RP"})
            checks += 1
            if lb.mu_na(n, 0, p) != lb.alpha_n(n, p):
                bad.append({"n": n, "p": p, "case": "mu_{n,0}"})
            if n >= 5:
                checks += 1
                if lb.mu_na(n, 1, p) != lb.beta_n(n, p):
                    bad.append({"n": n, "p": p, "case": "mu_{n,1}"})
    return _result("trp", checks, bad)


@_suite("inv42")
def run_inv42(wide: bool = False) -> dict:
    """The alternating orbit-count identities for (n-6,4,2) / (n-6,2^3) and
    the Gram irreducibility of S^(6,4,2) mod 3.  The wide grid also finds
    the value 1 of the identities as dim (S^alpha*)^W on the Specht modules
    themselves: S^(6,4,2) mod 3 and S^(4,2,2,2) mod 5 are irreducible, so
    self-dual."""
    checks, bad = 0, []
    got = orbit_identity_check_inv42(6, 3)
    checks += 1
    if got != 1:
        bad.append({"case": "p=3, b=6", "got": got, "want": 1})
    got = orbit_identity_check_inv42(5, 5)
    checks += 1
    if got != 1:
        bad.append({"case": "p=5, b=5", "got": got, "want": 1})
    checks += 1
    if not gram_irreducibility((6, 4, 2), 3):
        bad.append({"case": "Gram S^(6,4,2) mod 3", "got": "singular", "want": "nonsingular"})
    for shape, p, b in (((6, 4, 2), 3, 6), ((4, 2, 2, 2), 5, 5)) if wide else ():
        got = dual_specht_invariant_dim(shape, p, wreath(2, b))
        checks += 1
        if got != 1:
            bad.append({"case": f"(S^{shape}*)^W(2,{b}) mod {p}", "got": got, "want": 1})
    return _result("inv42", checks, bad)


# ---------------------------------------------------------------------------
# Classification sweep
# ---------------------------------------------------------------------------


def _sweep_subgroups(n: int):
    subs = []
    for k in range(1, n // 2 + 1):
        subs.append(young(n, (n - k, k)))
    if n >= 4:
        subs.append(young(n, (n - 2, 1, 1)))
    subs.append(alt_young(n, (n - 1, 1)))
    subs.append(alt_young(n, (n - 2, 2)))
    for a in range(2, n):
        if n % a == 0 and n // a >= 2:
            subs.append(wreath(a, n // a))
            subs.append(wreath_alt(a, n // a))
    if n % 2 == 0 and n >= 6:
        subs.append(index2_wr_b2(1, n // 2))
        subs.append(index2_wr_b2(2, n // 2))
    return subs


def _primitive_atoms(n: int) -> list[PrimitiveCase]:
    return [PrimitiveCase(name, n) for name in PRIMITIVE_ATOMS.get(n, ()) + ("other-primitive",)]


@_suite("classify-sweep")
def run_classify_sweep(wide: bool = False) -> dict:
    """Clause exclusivity and combinatorial consistency over all in-scope
    queries with n <= 14, plus the Table I/II rows and their negations."""
    checks, bad = 0, []
    top = 14
    for p in (3, 5, 7):
        for n in range(5, top + 1):
            subs = _sweep_subgroups(n) + _primitive_atoms(n) + [
                TableIICase(r) for r, row in TABLE_II_ROWS.items() if row[1] == n
            ]
            for lam in restricted_p_strict_partitions(n, p):
                for group in ("S", "A"):
                    for label in lb.labels_for(lam, p, group):
                        for sub in subs:
                            if group == "A" and isinstance(sub, SubgroupSpec) and sub.kind == "index2_wr_b2":
                                continue
                            query = RestrictionQuery(group, n, p, label, sub)
                            checks += 1
                            try:
                                verdict = classify_query(query)
                            except RuntimeError as exc:  # clause overlap
                                bad.append({"query": str(label) + " | " + str(sub), "err": str(exc)})
                                continue
                            bad.extend(_consistency_violations(query, verdict))
    bad.extend(_table_row_checks())
    checks += 14
    bad.extend(_index2_chain_checks())
    checks += 8
    return _result("classify-sweep", checks, bad)


def _consistency_violations(query, verdict) -> list:
    out = []
    lam, p, n = query.label.lam, query.p, query.n
    clause = verdict.clause
    if verdict.outcome != Outcome.IRREDUCIBLE:
        return out
    if "JS(0)" in clause and rs.js_class(lam, p) != 0:
        out.append({"query": str(query.label) + "|" + str(query.subgroup), "case": "JS(0) cited", "js": rs.js_class(lam, p)})
    if clause.startswith(("wreath (ii)", "index-2 (ii)")):
        if lam != lb.beta_n(n, p) or (n - 1) % p != 0:
            out.append({"query": str(query.label) + "|" + str(query.subgroup), "case": "second-basic clause misfire"})
    return out


def _index2_chain_checks() -> list:
    """Monotonicity across the second-basic wreath chain: the full W_{b,2},
    its two transitive index-2 subgroups, and the alternating intersections
    are all irreducible together when p | (n-1)."""
    bad = []
    for n, p in ((10, 3), (8, 7)):
        b = n // 2
        lam = lb.beta_n(n, p)
        chain = [
            ("S", wreath(b, 2)),
            ("S", index2_wr_b2(1, b)),
            ("S", index2_wr_b2(2, b)),
            ("A", wreath_alt(b, 2)),
        ]
        for group, sub in chain:
            label = lb.labels_for(lam, p, group)[0]
            verdict = classify_query(RestrictionQuery(group, n, p, label, sub))
            if verdict.outcome != Outcome.IRREDUCIBLE:
                bad.append({"case": "index-2 chain", "n": n, "p": p, "sub": str(sub), "got": verdict.outcome.value})
    return bad


def _table_row_checks() -> list:
    bad = []

    def expect(group, n, p, lam, eps, sub, outcome, tag):
        label = ModuleLabel(group, lam, eps, p)
        verdict = classify_query(RestrictionQuery(group, n, p, label, sub))
        if verdict.outcome != outcome:
            bad.append({"case": tag, "got": verdict.outcome.value, "want": outcome.value, "clause": verdict.clause})

    irr, red = Outcome.IRREDUCIBLE, Outcome.REDUCIBLE
    # Table I rows under their stated conditions (p = 7 representative)
    expect("S", 6, 7, (3, 2, 1), "+", wreath(3, 2), irr, "Table I row 1")
    expect("S", 6, 7, (3, 2, 1), "+", wreath(2, 3), irr, "Table I row 2")
    expect("A", 6, 7, (3, 2, 1), "0", wreath_alt(3, 2), irr, "Table I row 3")
    expect("S", 10, 7, (4, 3, 2, 1), "0", wreath(5, 2), irr, "Table I row 4")
    expect("A", 10, 7, (4, 3, 2, 1), "+", wreath_alt(5, 2), irr, "Table I row 5")
    # single-condition negations
    expect("S", 10, 5, (4, 3, 2, 1), "0", wreath(5, 2), red, "Table I row 4 at p=5")
    expect("A", 10, 5, (4, 3, 2, 1), "+", wreath_alt(5, 2), red, "Table I row 5 at p=5")
    expect("S", 10, 7, (4, 3, 2, 1), "0", wreath(2, 5), red, "Table I row 4 wrong wreath")
    expect("S", 6, 3, (3, 2, 1), "0", wreath(3, 2), red, "Table I row 1 at p=3 (basic, 3|a)")
    # Table II rows and negations
    expect("S", 6, 7, (3, 2, 1), "+", TableIICase(1), irr, "Table II row 1")
    expect("S", 6, 7, (3, 2, 1), "+", TableIICase(2), irr, "Table II row 2")
    expect("S", 6, 5, (3, 2, 1), "+", TableIICase(3), irr, "Table II row 3")
    expect("A", 7, 3, (4, 2, 1), "+", TableIICase(4), irr, "Table II row 4")
    expect("S", 6, 5, (3, 2, 1), "+", TableIICase(1), red, "Table II row 1 at p=5")
    return bad


def run_suite(name: str, wide: bool = False) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](wide=wide)
