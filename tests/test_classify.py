import pytest

from spinrest.classify import (
    PRIMITIVE_ATOMS,
    Outcome,
    PrimitiveCase,
    RestrictionQuery,
    TableIICase,
    classify,
    table_i_rows,
)
from spinrest.cli import parse_subgroup
from spinrest.labels import ModuleLabel, alpha_n, beta_n, labels_for
from spinrest.partitions import a_p, restricted_p_strict_partitions
from spinrest.residues import js_class
from spinrest.specht import alt_young, index2_wr_b2, wreath, wreath_alt, young
from spinrest.suites import _sweep_subgroups


def _q(group, n, p, lam, eps, sub, **kw):
    return RestrictionQuery(group, n, p, ModuleLabel(group, lam, eps, p), sub, **kw)


def _outcome(group, n, p, lam, eps, sub, **kw):
    return classify(_q(group, n, p, lam, eps, sub, **kw)).outcome


def test_intransitive_js_clauses():
    # an unsigned non-basic JS(0) label restricts irreducibly at k = 1, 2
    mu = (5, 4, 2, 1)
    assert js_class(mu, 3) == 0 and mu != alpha_n(12, 3)
    assert _outcome("S", 12, 3, mu, "0", young(12, (10, 2))) == Outcome.IRREDUCIBLE
    assert _outcome("S", 12, 3, mu, "0", young(12, (11, 1))) == Outcome.IRREDUCIBLE
    assert _outcome("S", 12, 3, mu, "0", young(12, (9, 3))) == Outcome.REDUCIBLE
    # eps = 0 labels need JS(0) for k = 1; JS away from 0 needs signs
    nu = (4, 2)  # JS(1) at p = 3 with a_p = 0
    assert js_class(nu, 3) == 1
    assert _outcome("S", 6, 3, nu, "0", young(6, (5, 1))) == Outcome.REDUCIBLE
    assert _outcome("A", 6, 3, nu, "+", young(6, (5, 1))) == Outcome.IRREDUCIBLE
    assert _outcome("A", 6, 3, nu, "+", young(6, (4, 2))) == Outcome.REDUCIBLE


def test_intransitive_basic_clause():
    lam = alpha_n(8, 3)
    assert _outcome("S", 8, 3, lam, "+", young(8, (7, 1))) == Outcome.IRREDUCIBLE
    # p | k kills the basic clause
    assert _outcome("S", 8, 3, lam, "+", young(8, (5, 3))) == Outcome.REDUCIBLE
    # odd n needs p | n on the symmetric side
    lam9 = alpha_n(9, 5)
    assert _outcome("S", 9, 5, lam9, "0", young(9, (8, 1))) == Outcome.REDUCIBLE
    lam9b = alpha_n(9, 3)
    assert _outcome("S", 9, 3, lam9b, "+", young(9, (8, 1))) == Outcome.IRREDUCIBLE


def test_wreath_clauses():
    # second basic at p | (n-1) on the 2-part wreaths
    b10 = beta_n(10, 3)
    assert _outcome("S", 10, 3, b10, "+", wreath(5, 2)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 10, 3, b10, "+", wreath(2, 5)) == Outcome.IRREDUCIBLE
    assert _outcome("A", 10, 3, b10, "0", wreath_alt(5, 2)) == Outcome.IRREDUCIBLE
    assert _outcome("A", 10, 3, b10, "0", wreath_alt(2, 5)) == Outcome.REDUCIBLE
    # basic needs p coprime to the inner block size
    a12 = alpha_n(12, 5)
    assert _outcome("S", 12, 5, a12, "+", wreath(4, 3)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 12, 5, a12, "+", wreath(3, 4)) == Outcome.IRREDUCIBLE
    a10 = alpha_n(10, 5)
    assert _outcome("S", 10, 5, a10, "0", wreath(5, 2)) == Outcome.REDUCIBLE


def test_table_i():
    assert _outcome("S", 6, 7, (3, 2, 1), "+", wreath(3, 2)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 6, 11, (3, 2, 1), "+", wreath(2, 3)) == Outcome.IRREDUCIBLE
    assert _outcome("A", 6, 7, (3, 2, 1), "0", wreath_alt(3, 2)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 10, 7, (4, 3, 2, 1), "0", wreath(5, 2)) == Outcome.IRREDUCIBLE
    assert _outcome("A", 10, 7, (4, 3, 2, 1), "+", wreath_alt(5, 2)) == Outcome.IRREDUCIBLE
    # at p = 5 the label is neither basic, second basic, nor a table row
    assert _outcome("A", 10, 5, (4, 3, 2, 1), "+", wreath_alt(5, 2)) == Outcome.REDUCIBLE
    assert _outcome("S", 10, 5, (4, 3, 2, 1), "0", wreath(5, 2)) == Outcome.REDUCIBLE
    dims = {(row["lam"], row["group"]): row["dim"] for row in table_i_rows()}
    assert dims[((3, 2, 1), "S")] == 4
    assert dims[((4, 3, 2, 1), "S")] == 96
    assert dims[((4, 3, 2, 1), "A")] == 48


def test_index2_family():
    b10 = beta_n(10, 3)
    assert _outcome("S", 10, 3, b10, "+", index2_wr_b2(1, 5)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 10, 3, b10, "+", index2_wr_b2(2, 5)) == Outcome.IRREDUCIBLE
    # S_{b,b} itself stays reducible
    assert _outcome("S", 10, 3, b10, "+", young(10, (5, 5))) == Outcome.REDUCIBLE
    # proper subgroups of W_{2,b} are all reducible
    assert _outcome("S", 10, 3, b10, "+", wreath_alt(2, 5)) == Outcome.REDUCIBLE
    # W_{b,2} meet the alternating cover inside the symmetric cover
    assert _outcome("S", 10, 3, b10, "+", wreath_alt(5, 2)) == Outcome.IRREDUCIBLE


def test_primitive_rows():
    a11 = alpha_n(11, 11)
    assert _outcome("S", 11, 11, a11, "+", PrimitiveCase("M11", 11)) == Outcome.IRREDUCIBLE
    a9 = alpha_n(9, 5)
    assert (
        _outcome("A", 9, 5, a9, "0" if a_p(a9, 5) else "+", PrimitiveCase("L2(8)", 9))
        == Outcome.IRREDUCIBLE_ONE_SIGN
    )
    b8 = beta_n(8, 3)
    assert _outcome("A", 8, 3, b8, "+", PrimitiveCase("AGL3(2)", 8)) == Outcome.IRREDUCIBLE
    # p-condition negation: second basic AGL_3(2) row dies at p = 7
    b8_7 = beta_n(8, 7)
    assert _outcome("A", 8, 7, b8_7, "0", PrimitiveCase("AGL3(2)", 8)) == Outcome.REDUCIBLE
    assert _outcome("S", 11, 3, alpha_n(11, 3), "0", PrimitiveCase("other-primitive", 11)) == Outcome.REDUCIBLE


def test_primitive_atoms_are_checked_against_the_list():
    for n, names in PRIMITIVE_ATOMS.items():
        for name in names + ("other-primitive",):
            assert PrimitiveCase(name, n).n == n
    for name, n in (("M12", 6), ("FOO", 6), ("M11", 12), ("S5", 13)):
        with pytest.raises(ValueError, match="not a listed primitive atom"):
            PrimitiveCase(name, n)


def test_table_ii():
    assert _outcome("S", 6, 7, (3, 2, 1), "+", TableIICase(1)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 6, 7, (3, 2, 1), "-", TableIICase(2)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 6, 5, (3, 2, 1), "+", TableIICase(3)) == Outcome.IRREDUCIBLE
    assert _outcome("A", 7, 3, (4, 2, 1), "+", TableIICase(4)) == Outcome.IRREDUCIBLE
    assert _outcome("S", 6, 5, (3, 2, 1), "+", TableIICase(1)) == Outcome.REDUCIBLE
    # at p >= 7 the same index-2 subgroups carry Table II row 2
    v = classify(_q("S", 6, 7, (3, 2, 1), "+", index2_wr_b2(1, 3)))
    assert v.outcome == Outcome.IRREDUCIBLE and "Table II row 2" in v.clause


def test_out_of_scope():
    a10 = alpha_n(10, 3)
    assert _outcome("S", 10, 3, a10, "+", alt_young(10, (8, 2))) == Outcome.OUT_OF_SCOPE
    assert _outcome("S", 10, 3, a10, "+", index2_wr_b2(1, 5)) == Outcome.OUT_OF_SCOPE
    assert (
        _outcome("S", 6, 7, (3, 2, 1), "+", wreath(3, 2), sixfold_cover=True)
        == Outcome.OUT_OF_SCOPE
    )


def test_clause_b_iv_and_v():
    mu = (4, 3, 2, 1)  # signed JS(0) label at p = 3, n = 10
    assert js_class(mu, 3) == 0
    assert _outcome("S", 10, 3, mu, "+", young(10, (8, 1, 1))) == Outcome.IRREDUCIBLE
    assert _outcome("S", 10, 3, mu, "+", alt_young(10, (8, 2))) == Outcome.IRREDUCIBLE
    assert _outcome("S", 10, 3, mu, "+", alt_young(10, (9, 1))) == Outcome.IRREDUCIBLE
    # without the JS(0) hypothesis everything dies
    nu = (6, 4, 2)
    assert js_class(nu, 5) != 0
    for sub in (young(12, (10, 1, 1)), alt_young(12, (10, 2))):
        assert _outcome("S", 12, 5, nu, "+", sub) == Outcome.REDUCIBLE


def test_full_group_restrictions():
    assert _outcome("S", 6, 7, (3, 2, 1), "+", young(6, (6,))) == Outcome.IRREDUCIBLE
    assert _outcome("S", 6, 7, (3, 2, 1), "+", alt_young(6, (6,))) == Outcome.IRREDUCIBLE
    assert _outcome("S", 10, 7, (4, 3, 2, 1), "0", alt_young(10, (10,))) == Outcome.REDUCIBLE


def test_query_validation():
    with pytest.raises(ValueError):
        classify(_q("S", 6, 3, (4, 2), "0", young(7, (6, 1))))  # degree mismatch
    with pytest.raises(ValueError):
        RestrictionQuery("S", 6, 3, ModuleLabel("A", (4, 2), "+", 3), young(6, (5, 1)))


def test_subgroup_degree_is_checked_on_construction():
    with pytest.raises(ValueError, match="prim:M12 acts on 12 points, but n = 6"):
        RestrictionQuery("S", 6, 7, ModuleLabel("S", (6,), "+", 7), PrimitiveCase("M12", 12))
    with pytest.raises(ValueError, match="acts on 7 points, but n = 6"):
        _q("S", 6, 3, (4, 2), "0", young(7, (6, 1)), sixfold_cover=True)


def test_unknown_table_ii_row_is_rejected():
    for row in (0, 5, 9):
        with pytest.raises(ValueError, match=r"tab2:\d is not a Table II row \(rows: 1, 2, 3, 4\)"):
            TableIICase(row)


def test_out_of_scope_verdicts_cite_nothing():
    a10, a6 = alpha_n(10, 3), alpha_n(6, 3)
    for group, n, lam, sub in (
        ("S", 10, a10, alt_young(10, (8, 2))),
        ("S", 10, a10, young(10, (8, 1, 1))),
        ("S", 10, a10, wreath_alt(5, 2)),
        ("S", 10, a10, index2_wr_b2(1, 5)),
        ("S", 6, a6, TableIICase(3)),
    ):
        for label in labels_for(lam, 3, group):
            verdict = classify(RestrictionQuery(group, n, 3, label, sub))
            assert verdict.outcome == Outcome.OUT_OF_SCOPE and verdict.citations == ()


_B10 = beta_n(10, 3)
_CLAUSES = [
    ("S", 8, 3, alpha_n(8, 3), "+", young(8, (7, 1)), "intransitive (i): basic with p coprime to both block sizes"),
    ("S", 12, 3, (5, 4, 2, 1), "0", young(12, (11, 1)), "intransitive (ii)(a): one-step restriction of a JS(0) label"),
    ("A", 6, 3, (4, 2), "+", young(6, (5, 1)), "intransitive (ii)(b): signed one-step restriction of a JS label"),
    ("S", 12, 3, (5, 4, 2, 1), "0", young(12, (10, 2)), "intransitive (iii): two-step restriction of a JS(0) label"),
    ("A", 12, 3, (5, 4, 2, 1), "+", alt_young(12, (11, 1)), "intransitive (ii)(a): one-step restriction of a JS(0) label"),
    ("S", 10, 3, (4, 3, 2, 1), "+", alt_young(10, (9, 1)), "clause (ii): signed JS(0) label on A_{n-1,1} in the symmetric cover"),
    ("S", 10, 3, (4, 3, 2, 1), "+", young(10, (8, 1, 1)), "clause (iv): signed JS(0) label on S_{n-2,1,1}"),
    ("S", 10, 3, (4, 3, 2, 1), "+", alt_young(10, (8, 2)), "clause (v): signed JS(0) label on A_{n-2,2} in the symmetric cover"),
    ("S", 12, 5, alpha_n(12, 5), "+", wreath(4, 3), "wreath (i): basic with p coprime to the inner block size"),
    ("S", 10, 3, _B10, "+", wreath(5, 2), "wreath (ii)(a): second basic on a 2-part wreath subgroup"),
    ("A", 10, 3, _B10, "0", wreath_alt(5, 2), "wreath (ii)(b): second basic on W_{n/2,2} inside the alternating cover"),
    ("S", 6, 7, (3, 2, 1), "+", wreath(3, 2), "Table I row ((3,2,1), W(3,2), S)"),
    ("A", 10, 7, (4, 3, 2, 1), "+", wreath_alt(5, 2), "Table I row ((4,3,2,1), W(5,2), A)"),
    ("S", 10, 3, _B10, "+", index2_wr_b2(1, 5), "index-2 (ii): transitive index-2 subgroup of W_{n/2,2}, not S_{b,b}"),
    ("S", 10, 3, _B10, "+", wreath_alt(5, 2), "index-2 (ii): W_{n/2,2} meet the alternating cover, inside the symmetric cover"),
    ("S", 6, 7, (3, 2, 1), "+", TableIICase(1), "Table II row 1 (Z5:4 inside S_{5,1})"),
    ("S", 6, 7, (3, 2, 1), "-", TableIICase(2), "Table II row 2 (subgroup of W_{3,2} meeting S_{3,3} in A_{3,3})"),
    ("S", 6, 5, (3, 2, 1), "+", TableIICase(3), "Table II row 3 (W_{2,2} x S_2)"),
    ("A", 7, 3, (4, 2, 1), "+", TableIICase(4), "Table II row 4 (A5 primitive inside S_{6,1})"),
    ("S", 6, 7, (3, 2, 1), "+", index2_wr_b2(1, 3), "Table II row 2 (index-2 subgroup of W_{3,2} meeting S_{3,3} in A_{3,3})"),
    ("S", 11, 11, alpha_n(11, 11), "+", PrimitiveCase("M11", 11), "primitive list (basic, M11 < S_11)"),
    ("A", 8, 3, beta_n(8, 3), "+", PrimitiveCase("AGL3(2)", 8), "primitive list (second, AGL3(2) < S_8)"),
    ("S", 6, 7, (3, 2, 1), "+", PrimitiveCase("S5", 6), "primitive list (non-basic, S5 < S_6)"),
    ("S", 6, 7, (3, 2, 1), "+", young(6, (6,)), "restriction to the whole group"),
    ("S", 6, 7, alpha_n(6, 7), "+", young(6, (6,)), "restriction to the whole group"),
    ("A", 6, 7, (3, 2, 1), "0", young(6, (6,)), "restriction to the whole group"),
    ("A", 6, 7, (3, 2, 1), "0", alt_young(6, (6,)), "restriction to the whole group"),
    ("S", 6, 7, (3, 2, 1), "+", alt_young(6, (6,)), "index-2 Clifford theory: signed label stays irreducible"),
    ("S", 10, 3, alpha_n(10, 3), "+", young(10, (8, 1, 1)), "basic spin modules on non-maximal imprimitive subgroups are not classified"),
]


@pytest.mark.parametrize("group, n, p, lam, eps, sub, clause", _CLAUSES)
def test_clause_text(group, n, p, lam, eps, sub, clause):
    """Each clause string the classifier emits, verbatim."""
    assert classify(_q(group, n, p, lam, eps, sub)).clause == clause


def test_one_sign_and_sixfold_clause_text():
    a9 = alpha_n(9, 5)
    verdict = classify(_q("A", 9, 5, a9, "0" if a_p(a9, 5) else "+", PrimitiveCase("L2(8)", 9)))
    assert verdict.clause == "primitive list (basic, L2(8) < S_9)"
    verdict = classify(_q("S", 6, 7, (3, 2, 1), "+", wreath(3, 2), sixfold_cover=True))
    assert verdict.clause == "exceptional 6-fold covers at n = 6, 7 are settled elsewhere"


def test_sixfold_query_validates_the_subgroup():
    """A six-fold query is refused for a subgroup that its cover does not
    classify, as any other query is, not answered OutOfScope."""
    with pytest.raises(ValueError, match="classified inside the symmetric cover"):
        classify(_q("A", 6, 7, (3, 2, 1), "0", index2_wr_b2(1, 3), sixfold_cover=True))


def test_sixfold_cover_needs_n_6_or_7():
    """The exceptional 6-fold covers exist only at n = 6 and 7."""
    assert _outcome("A", 7, 3, (4, 2, 1), "+", young(7, (6, 1)), sixfold_cover=True) == Outcome.OUT_OF_SCOPE
    with pytest.raises(ValueError, match="only at n = 6, 7, not n = 10"):
        _q("S", 10, 3, (4, 3, 2, 1), "+", young(10, (9, 1)), sixfold_cover=True)


def test_every_spelling_of_a_group_gets_one_verdict():
    """An and A(n), Sn, full and S(n) name one subgroup, so every
    classify-sweep label with n = 5..10 at p = 3, 5, 7 gets the same verdict,
    clause included, from each spelling, in both covers."""
    for p in (3, 5, 7):
        for n in range(5, 11):
            spellings = [("An", f"A({n})"), ("Sn", f"S({n})"), ("full", f"S({n})")]
            for lam in restricted_p_strict_partitions(n, p):
                for group in ("S", "A"):
                    for label in labels_for(lam, p, group):
                        for alias, canonical in spellings:
                            verdicts = [
                                classify(RestrictionQuery(group, n, p, label, parse_subgroup(text, n))).to_json()
                                for text in (alias, canonical)
                            ]
                            assert verdicts[0] == verdicts[1], (str(label), alias)


def test_alternating_group_in_the_symmetric_cover_is_maximal():
    """A(10) is A_n, maximal in S_n: a signed label stays irreducible by
    Clifford theory, however A_n is spelled, and a basic label is classified
    rather than refused as non-maximal."""
    for text in ("A(10)", "An"):
        verdict = classify(_q("S", 10, 3, (4, 3, 2, 1), "+", parse_subgroup(text, 10)))
        assert verdict.outcome == Outcome.IRREDUCIBLE
        assert verdict.clause == "index-2 Clifford theory: signed label stays irreducible"
    for label in labels_for(alpha_n(10, 3), 3, "S"):
        verdict = classify(RestrictionQuery("S", 10, 3, label, alt_young(10, (10,))))
        assert verdict.outcome != Outcome.OUT_OF_SCOPE


def test_every_sweep_subgroup_reads_back_from_its_spelling():
    """str(sub) is what the JSON "subgroup" field carries, so parse_subgroup
    reads it back to the same subgroup: every Young, wreath, index-2,
    primitive and Table II subgroup the classification sweep builds.  The
    input alias tab2:rowN reads to the same row as the printed tab2:N."""
    for n in range(5, 15):
        for sub in _sweep_subgroups(n):
            assert parse_subgroup(str(sub), n) == sub, str(sub)
    for row in (1, 2, 3, 4):
        assert parse_subgroup(f"tab2:row{row}", 6) == TableIICase(row)
