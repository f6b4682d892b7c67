"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings as they complete.
"""

import time
from math import comb

from spinrest.gfp import matmul_mod, rank
from spinrest.specht import (
    dual_specht_invariant_dim,
    eta,
    gram_irreducibility,
    orbit_identity_check_inv42,
    wreath,
    z_invariant_dim,
)
from spinrest.suites import run_suite


def _report(number: int, title: str, started: float, violations: list):
    status = "PASS" if not violations else "FAIL"
    print(f"[{status}] criterion {number:2d}: {title} ({time.time() - started:.1f}s)")
    assert not violations, violations[:10]


def test_criterion_01_orbit_counts():
    t = time.time()
    result = run_suite("li")
    _report(1, "dim M_k^W = ceil((k+1)/2) for b in [5,8], both wreath types", t, result["violations"])
    assert result["checks"] == 60


def test_criterion_01_orbit_counts_wide_grid():
    t = time.time()
    result = run_suite("li", wide=True)
    _report(1, "dim M_k^W = ceil((k+1)/2) for b in [5,10], both wreath types", t, result["violations"])
    assert result["checks"] == 102


def test_run_suite_reports_each_failed_check(monkeypatch):
    """With orbit counting broken, every li check fails and run_suite
    reports it with its case, got and want."""
    from spinrest import suites

    monkeypatch.setattr(suites, "orbit_count", lambda spec, basis: 0)
    result = run_suite("li")
    assert result["checks"] == 60 and len(result["violations"]) == 60
    assert result["violations"][0] == {"b": 5, "k": 0, "subgroup": "W(2,5)", "got": 0, "want": 1}


def test_criterion_02_special_shapes():
    t = time.time()
    result = run_suite("special-inv")
    _report(2, "15 special tabloid orbit counts at b = 6 and the b = 5 drops", t, result["violations"])
    assert result["checks"] == 30


def test_criterion_03_dual_specht_vector():
    t = time.time()
    bad = []
    expect = (1, 0, 1, 0, 1)
    for b in (5, 6):
        n = 2 * b
        for p in (3, 5):
            for spec in (wreath(2, b), wreath(b, 2)):
                for k in range(5):
                    got = dual_specht_invariant_dim((n - k, k) if k else (n,), p, spec)
                    if got != expect[k]:
                        bad.append({"b": b, "p": p, "k": k, "spec": str(spec), "got": got})
    _report(3, "dual Specht invariants (1,0,1,0,1) for k <= 4, p in {3,5}, b in {5,6}", t, bad)


def test_criterion_04_sp_star_vanishes():
    t = time.time()
    bad = []
    for spec in (wreath(2, 6), wreath(6, 2)):
        got = dual_specht_invariant_dim((9, 3), 3, spec)
        if got != 0:
            bad.append({"spec": str(spec), "got": got})
    _report(4, "(S_p^*)^W = 0 at p = 3, n = 12, both wreath types", t, bad)


def test_criterion_05_z6_dimension():
    t = time.time()
    bad = []
    for spec in (wreath(2, 6), wreath(6, 2)):
        z, m, gap = z_invariant_dim(6, 12, 3, spec)
        if (z, m, gap) != (3, 4, True):
            bad.append({"spec": str(spec), "got": [z, m, gap]})
    _report(5, "dim Z_6^W = 3 against dim M_6^W = 4 at p = 3, b = 6", t, bad)


def test_criterion_06_wilson_ranks():
    t = time.time()
    result = run_suite("wilson")
    _report(6, "wilson_rank = rank(eta_{k,l}) for k <= l <= 5, 6 <= n <= 12, p in {3,5,7}", t, result["violations"])
    assert result["checks"] == 339


def test_wilson_builds_each_incidence_map_once(monkeypatch):
    """The wilson suite builds eta(k, l, n) once for its three primes,
    with its check count and order unchanged."""
    from spinrest import suites

    built = []
    monkeypatch.setattr(suites, "eta", lambda *args: built.append(args) or args)
    monkeypatch.setattr(suites, "rank", lambda incidence, p: 0)
    cases = [case for _got, _want, case in suites.run_wilson()]
    assert len(cases) == 339 and len(built) == len(set(built)) == 113
    assert [(c["k"], c["l"], c["n"]) for c in cases] == [args for args in built for _p in (3, 5, 7)]


def test_criterion_07_eta_exactness():
    t = time.time()
    bad = []
    e35, e56 = eta(3, 5, 12), eta(5, 6, 12)
    r35, r56 = rank(e35, 3), rank(e56, 3)
    if r35 != 155:
        bad.append({"case": "rank eta_35", "got": r35})
    if matmul_mod(e56, e35, 3).any():
        bad.append({"case": "composition"})
    if r35 + r56 != comb(12, 5):
        bad.append({"case": "rank sum", "got": r35 + r56})
    _report(7, "eta exactness at p = 3, n = 12 (ranks 155 + 637 = dim M_5)", t, bad)


def test_criterion_08_inv42_and_gram():
    t = time.time()
    bad = []
    if orbit_identity_check_inv42(6, 3) != 1:
        bad.append({"case": "p=3 b=6", "got": orbit_identity_check_inv42(6, 3)})
    if orbit_identity_check_inv42(5, 5) != 1:
        bad.append({"case": "p=5 b=5", "got": orbit_identity_check_inv42(5, 5)})
    if not gram_irreducibility((6, 4, 2), 3):
        bad.append({"case": "gram (6,4,2) mod 3"})
    _report(8, "alternating orbit sums = 1 and S^(6,4,2) Gram-irreducible mod 3", t, bad)


def test_criterion_09_branching_combinatorics():
    t = time.time()
    result = run_suite("js")
    parity = run_suite("parity")
    _report(9, "crystal operator sweep (epsilon drop, inversion, monotonicity, JS, parity)", t, result["violations"] + parity["violations"])
    assert (result["checks"], parity["checks"]) == (937, 179)


def test_criterion_10_regularization():
    t = time.time()
    result = run_suite("reg")
    _report(10, "regularization sweep (anchor, idempotence, ladders, closed form, coefficients)", t, result["violations"])
    assert result["checks"] == 7736


def test_criterion_11_tables():
    t = time.time()
    result = run_suite("tables")
    _report(11, "Tables III/IV vs kappa formulas and char-0 dims; Table I column (4, 96, 48)", t, result["violations"])
    assert result["checks"] == 485


def test_criterion_12_two_row_sets():
    t = time.time()
    result = run_suite("trp")
    _report(12, "TR_3(6) = RP_3(6); TR in RP; mu anchors for n <= 20", t, result["violations"])
    assert result["checks"] == 477


def test_criterion_13_classification_sweep():
    t = time.time()
    result = run_suite("classify-sweep")
    _report(13, "classification sweep: exclusivity, JS/second-basic consistency, table rows", t, result["violations"])
    assert result["checks"] == 8281
