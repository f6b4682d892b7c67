"""Tests of the benchmark's own checks, oracles and tracer.

    python3 -m pytest spinbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import metrics
import oracles
import run
import workloads
from spinrest import gfp, labels, partitions, specht
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _rank_mod_p(a, p):
    """Plain Gaussian elimination on Python ints."""
    rows = [[int(x) % p for x in row] for row in a]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- the correctness gate ----------------------------------------------------


def test_planted_wrong_expected_value_is_a_failure():
    good = workloads.equals_task("two", lambda: 2, 2)
    bad = workloads.equals_task("two", lambda: 2, 3)
    results = workloads.run_tasks([good, bad])
    attempted, failed, problems = workloads.check_results([good, bad], results)
    assert (attempted, failed) == (2, 1)
    assert problems and "want 3" in problems[0]
    result, info = run.summarize(
        [{"attempted": attempted, "failed": failed, "problems": problems}], {}, {}
    )
    assert result["correct"] is False and result["failed"] == 1
    assert info["failed_frac"] == 0.5


def test_raising_call_fails_with_its_weight():
    def boom():
        raise RuntimeError("clause overlap: ['a', 'b']")

    task = workloads.Task("boom", boom, lambda out: (1, 0, None), weight=7)
    attempted, failed, problems = workloads.check_results([task], workloads.run_tasks([task]))
    assert (attempted, failed) == (7, 7)
    assert "clause overlap" in problems[0]


@pytest.mark.parametrize(
    "rc, checks, violations, want_failed",
    [(0, 60, 0, 0), (1, 60, 2, 2), (0, 59, 0, 1), (1, 60, 0, 1), (0, 80, 0, 0)],
)
def test_suite_check(rc, checks, violations, want_failed):
    task = workloads.suite_task("li", 60)
    payload = {"suite": "li", "checks": checks, "violations": [{}] * violations}
    attempted, failed, _ = task.check((rc, json.dumps(payload)))
    assert failed == want_failed
    assert attempted == max(checks, 60)


def test_malformed_output_is_a_failure():
    task = workloads.suite_task("li", 60)
    attempted, failed, problems = workloads.check_results([task], [(True, (0, "not json"))])
    assert (attempted, failed) == (60, 60) and problems


def test_dual_check_rejects_a_wrong_paper_value():
    task = workloads.dual_tasks(None)[0]
    good = json.dumps({"dim_M_H": 7, "dim_dualS_H": 0})
    bad = json.dumps({"dim_M_H": 7, "dim_dualS_H": 1})
    assert task.check((0, good))[:2] == (2, 0)
    assert task.check((0, bad))[:2] == (2, 1)


def test_classify_check_rejects_irreducible_without_clause():
    task = workloads._classify_task(["--format", "json", "classify"])
    assert task.check((0, json.dumps({"outcome": "Reducible", "clause": ""})))[1] == 0
    assert task.check((0, json.dumps({"outcome": "Irreducible", "clause": ""})))[1] == 1
    assert task.check((2, ""))[1] == 1


# -- oracles -------------------------------------------------------------------


@pytest.mark.parametrize(
    "lam, mu", [((3, 2), (4, 1)), ((2, 2, 1), (3, 2)), ((3, 2, 1), (2, 2, 2)), ((4, 2), (1, 2, 3))]
)
def test_contingency_count_matches_orbit_count(lam, mu):
    n = sum(lam)
    got = specht.orbit_count(specht.young(n, mu), specht.perm_basis(lam))
    assert oracles.contingency_count(mu, lam) == got


def test_hook_dimension_and_tabloid_count():
    assert oracles.tabloid_count((6, 4, 2)) == 13860
    assert oracles.hook_dimension((6, 4, 2)) == 2673
    assert oracles.tabloid_count((5, 3, 2)) == 2520
    assert oracles.hook_dimension((5, 3, 2)) == 450
    for lam in oracles.partitions(7):
        assert oracles.hook_dimension(lam) == specht.hook_dimension(lam)


@pytest.mark.parametrize("p", [2, 3, 7, 65521])
def test_known_rank_matrix_has_that_rank(p):
    rng = np.random.default_rng(5)
    for rows, cols, r in [(0, 1, 0), (1, 1, 1), (6, 4, 3), (5, 9, 5), (8, 8, 0), (7, 7, 7)]:
        a = oracles.known_rank_matrix(rng, rows, cols, r, p)
        assert a.shape == (rows, cols)
        assert _rank_mod_p(a, p) == r


def test_kernel_ok_rejects_wrong_bases():
    p = 5
    a = np.array([[1, 2, 0, 1], [0, 0, 1, 3]], dtype=np.int64)
    basis = gfp.kernel(a, p).basis
    assert oracles.kernel_ok(a, basis, 2, p)
    assert not oracles.kernel_ok(a, basis[:1], 2, p)  # too few vectors
    assert not oracles.kernel_ok(a, np.vstack([basis[0], basis[0]]), 2, p)  # dependent
    wrong = basis.copy()
    wrong[0, -1] = (wrong[0, -1] + 1) % p
    assert not oracles.kernel_ok(a, wrong, 2, p)  # not in the kernel


def test_label_oracles_agree_with_spinrest():
    for n, p in product(range(1, 11), (3, 5, 7)):
        for lam in oracles.partitions(n):
            ours = oracles.is_restricted_p_strict(lam, p)
            assert ours == partitions.is_restricted_p_strict(lam, p)
            if ours:
                for group in "SA":
                    signs = tuple(label.eps for label in labels.labels_for(lam, p, group))
                    assert oracles.label_signs(lam, p, group) == signs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_inputs_repeat_for_a_seed(seed):
    assert workloads.orbits_setup(seed) == workloads.orbits_setup(seed)
    first, second = workloads.many_small_setup(seed), workloads.many_small_setup(seed)
    assert first["queries"] == second["queries"]
    for (a, p, r), (b, q, s) in zip(first["matrices"], second["matrices"]):
        assert (p, r) == (q, s) and np.array_equal(a, b)


# -- tracer ----------------------------------------------------------------------


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = gfp.rank
    want = specht.gram_irreducibility((2, 1), 3)
    tracer = Tracer()
    tracer.install()
    try:
        assert specht.rank is gfp.rank is not original  # `from .gfp import rank`
        assert specht.gram_irreducibility((2, 1), 3) == want
    finally:
        tracer.uninstall()
    assert gfp.rank is original and specht.rank is original
    assert tracer.calls["gfp.rank"] == 1
    assert tracer.calls["specht.gram_irreducibility"] == 1
    assert tracer.counts["gfp.elim_cells"] == 4  # the 2x2 Gram matrix
    layers = tracer.layer_totals()
    total = sum(s for _, s in layers.values())
    assert 0 <= total <= tracer.top_level_s + 1e-9
    top = [span for span in tracer.spans if span[3] == -1]
    assert [span[0] for span in top] == ["specht.gram_irreducibility"]


def test_suite_registry_is_wrapped():
    from spinrest import suites

    tracer = Tracer()
    tracer.install()
    try:
        suites.run_suite("trp")
    finally:
        tracer.uninstall()
    assert tracer.calls["suites.run_trp"] == 1
    assert tracer.calls["labels.trp_set"] > 0


def test_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(gfp, "fixed_space")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent(metrics.FUNCTIONS) == ["gfp.fixed_space"]


def test_silent_mapped_function_fails_the_traced_run():
    layers = {name: {"calls": 1, "self_s": 0.0} for name in metrics.LAYERS}
    functions = {name: {"calls": 1, "self_s": 0.0} for name in metrics.FUNCTIONS}
    trace = {"layers": layers, "functions": functions, "absent": []}
    assert run.silent_calls("dual", trace) == []
    functions["gfp.kernel"]["calls"] = 0
    assert run.silent_calls("dual", trace) == ["gfp.kernel"]
    trace["absent"] = ["gfp.kernel"]
    assert run.silent_calls("dual", trace) == []


# -- the benchmark contract ---------------------------------------------------------


def test_benchmark_json_matches_the_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    per_layer = metrics.per_layer_metrics()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "spinbench"), tmp_path / "spinbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "spinbench/run.py", "--workload", "gram", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
