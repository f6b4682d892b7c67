"""The four benchmark workloads.

Each workload turns a seed into inputs (`setup`, part of the measured set-up
time), then into a list of tasks.  A task is one call into spinrest's public
API, timed as part of the pass, and a check of its result that runs after
the pass clock has stopped.  Inputs are generated here and checked against
oracles.py, never against spinrest itself.

Why these workloads (see NOTES.md for the layer mapping):
  orbits      orbit counting on tabloids: specht.orbit_count / perm_basis do
              nearly all the work and GF(p) elimination none.
  gram        the paper's largest probe, S^(6,4,2) mod 3: a few huge calls.
  dual        kernel -> rref and dense m x m permutation matrices at m = 2520.
  many-small  thousands of small calls: the < 256-row elimination path and
              the pure-Python combinatorics and classification layers.
"""

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spinrest import cli, gfp, specht

import oracles


@dataclass
class Task:
    """One timed call and the check of its result.

    `check(result)` returns (attempted, failed, problem or None); `weight` is
    the number of checks charged as failed when the call raises."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, int, str | None]]
    weight: int = 1


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the command-line front end in-process, capturing its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def suite_task(name: str, min_checks: int, wide: bool = False) -> Task:
    """`spinrest --format json verify <name>`: zero violations, exit 0, and at
    least the number of checks the suite makes today (a suite that silently
    checks less would otherwise look fast)."""
    argv = ["--format", "json", "verify", name] + (["--grid", "wide"] if wide else [])

    def check(out):
        rc, text = out
        payload = json.loads(text)
        checks, violations = int(payload["checks"]), len(payload["violations"])
        attempted = max(checks, min_checks)
        failed = violations + max(0, min_checks - checks)
        if rc != 0 and failed == 0:
            failed = 1
        problem = None
        if failed:
            problem = f"verify {name}: rc={rc}, {checks} checks (want >= {min_checks}), {violations} violations"
        return attempted, min(failed, attempted), problem

    return Task(f"verify {name}", lambda: cli_call(argv), check, weight=min_checks)


def equals_task(label: str, call: Callable[[], object], want) -> Task:
    def check(got):
        ok = got == want
        return 1, 0 if ok else 1, None if ok else f"{label}: got {got!r}, want {want!r}"

    return Task(label, call, check)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

# Seeded Young-subgroup orbit counts stop once the tabloids times generators
# they touch reach this budget, so every seed does about the same work.
ORBIT_BUDGET = 600_000
ORBIT_MAX_TABLOIDS = 12_000


def orbits_setup(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    pool = [
        (n, lam)
        for n in (10, 11, 12)
        for lam in oracles.partitions(n)
        if len(lam) >= 2 and oracles.tabloid_count(lam) <= ORBIT_MAX_TABLOIDS
    ]
    rng.shuffle(pool)
    cases, spent = [], 0
    for n, lam in pool:
        if spent >= ORBIT_BUDGET:
            break
        parts = rng.randint(2, 4)
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        mu = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        cases.append((n, lam, mu, oracles.contingency_count(mu, lam)))
        spent += oracles.tabloid_count(lam) * (n - len(mu) + 1)
    return cases


def orbits_tasks(cases) -> list[Task]:
    tasks = [suite_task("li", 60), suite_task("special-inv", 30)]
    for n, lam, mu, want in cases:
        tasks.append(
            equals_task(
                f"orbits S{mu} on M{lam}",
                lambda n=n, lam=lam, mu=mu: specht.orbit_count(specht.young(n, mu), specht.perm_basis(lam)),
                want,
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# gram and dual: the paper's fixed probes (the seed does not apply)
# ---------------------------------------------------------------------------

DUAL_ARGV = ["--format", "json", "invariants", "--shape", "(5,3,2)", "--p", "3", "--subgroup", "W(2,5)"]
# dim M^H = 7 orbits and no H-invariants on the dual Specht module.
DUAL_WANT = {"dim_M_H": 7, "dim_dualS_H": 0}


def gram_tasks(_inputs) -> list[Task]:
    return [suite_task("inv42", 3)]


def dual_tasks(_inputs) -> list[Task]:
    def check(out):
        rc, text = out
        payload = json.loads(text)
        got = {key: payload.get(key) for key in DUAL_WANT}
        failed = sum(got[key] != want for key, want in DUAL_WANT.items())
        failed = max(failed, int(rc != 0))
        return 2, failed, None if not failed else f"invariants (5,3,2) W(2,5): rc={rc}, got {got}"

    return [
        Task("invariants (5,3,2) W(2,5)", lambda: cli_call(DUAL_ARGV), check, weight=2),
        suite_task("largeps", 44),
    ]


# ---------------------------------------------------------------------------
# many-small
# ---------------------------------------------------------------------------

MATRIX_PRIMES = (2, 3, 5, 7, 65521)
MATRIX_COUNT = 60
MATRIX_MAX_ROWS = 300
CLASSIFY_QUERIES = 300
_PRIMITIVE = {
    5: ["Z5:4", "Z5:2"],
    6: ["S5", "A5"],
    7: ["L2(7)"],
    8: ["AGL3(2)"],
    9: ["L2(8)", "3^2:Q8"],
    10: ["S6", "M10", "AutA6", "A6"],
    11: ["M11"],
    12: ["M12"],
}


def _subgroups(n: int, group: str) -> list[str]:
    """Subgroup specs the classifier accepts for this n and cover."""
    subs = [f"S({n - k},{k})" for k in range(1, n // 2 + 1)]
    subs += [f"S({n - 2},1,1)", f"A({n - 1},1)", f"A({n - 2},2)"]
    for a in range(2, n):
        if n % a == 0 and n // a >= 2:
            subs += [f"W({a},{n // a})", f"WA({a},{n // a})"]
    if group == "S" and n % 2 == 0 and n >= 6:
        subs += [f"I2(1,{n // 2})", f"I2(2,{n // 2})"]
    subs += [f"prim:{name}" for name in _PRIMITIVE.get(n, [])] + ["prim:other-primitive"]
    return subs


def many_small_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    matrices = []
    for i in range(MATRIX_COUNT):
        # Shapes and primes are the same for every seed, so every seed does
        # about the same elimination work; the seed draws the rank deficiency
        # (up to a quarter of the full rank) and the entries.
        rows = round(MATRIX_MAX_ROWS * (i / (MATRIX_COUNT - 1)) ** 1.5)
        cols = min(max(rows + (rows // 4 if i % 2 else -(rows // 4)), 1), MATRIX_MAX_ROWS)
        full = min(rows, cols)
        r = full - int(rng.integers(0, full // 4 + 1))
        p = int(MATRIX_PRIMES[i % len(MATRIX_PRIMES)])
        matrices.append((oracles.known_rank_matrix(rng, rows, cols, r, p), p, r))
    prng = random.Random(seed)
    restricted = {
        (n, p): [lam for lam in oracles.partitions(n) if oracles.is_restricted_p_strict(lam, p)]
        for n in range(5, 15)
        for p in (3, 5, 7)
    }
    queries = []
    while len(queries) < CLASSIFY_QUERIES:
        n, p, group = prng.randint(5, 14), prng.choice((3, 5, 7)), prng.choice("SA")
        lam = prng.choice(restricted[n, p])
        eps = prng.choice(oracles.label_signs(lam, p, group))
        letter = "D" if group == "S" else "E"
        label = f"{letter}[({','.join(map(str, lam))});{eps}]"
        sub = prng.choice(_subgroups(n, group))
        queries.append(["--format", "json", "classify", "--group", group, "--n", str(n), "--p", str(p),
                        "--label", label, "--subgroup", sub])
    return {"matrices": matrices, "queries": queries}


def _matrix_task(a: np.ndarray, p: int, r: int) -> Task:
    def call():
        return gfp.rank(a, p), gfp.kernel(a, p).basis

    def check(out):
        got_rank, basis = out
        failed = int(got_rank != r) + int(not oracles.kernel_ok(a, basis, r, p))
        return 2, failed, None if not failed else f"{a.shape} mod {p}: rank {got_rank}, want {r}"

    return Task(f"rank/kernel {a.shape} mod {p}", call, check, weight=2)


_OUTCOMES = {"Irreducible", "Reducible", "IrreducibleForOneSignChoice", "OutOfScope"}


def _classify_task(argv: list[str]) -> Task:
    def check(out):
        rc, text = out
        payload = json.loads(text) if rc == 0 else {}
        outcome = payload.get("outcome")
        ok = rc == 0 and outcome in _OUTCOMES and (outcome != "Irreducible" or bool(payload.get("clause")))
        return 1, int(not ok), None if ok else f"classify {' '.join(argv[3:])}: rc={rc}, {outcome}"

    return Task("classify query", lambda: cli_call(argv), check)


def many_small_tasks(inputs) -> list[Task]:
    tasks = [suite_task("wilson", 339), suite_task("etas", 3)]
    for name, checks in (("classify-sweep", 8281), ("js", 1432), ("parity", 352), ("reg", 14640),
                         ("tables", 485), ("trp", 477)):
        tasks.append(suite_task(name, checks, wide=True))
    tasks += [_matrix_task(a, p, r) for a, p, r in inputs["matrices"]]
    tasks += [_classify_task(argv) for argv in inputs["queries"]]
    return tasks


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    tasks: Callable[[object], list[Task]]


WORKLOADS = {
    "orbits": Workload(orbits_setup, orbits_tasks),
    "gram": Workload(lambda seed: None, gram_tasks),
    "dual": Workload(lambda seed: None, dual_tasks),
    "many-small": Workload(many_small_setup, many_small_tasks),
}


def run_tasks(tasks: list[Task]) -> list[tuple[bool, object]]:
    """The timed part of a pass: make every call, keep results for checking."""
    results = []
    for task in tasks:
        try:
            results.append((True, task.call()))
        except Exception:  # a raising call is a failed check, not a crash
            results.append((False, traceback.format_exc(limit=4)))
    return results


def check_results(tasks: list[Task], results) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over a pass."""
    attempted = failed = 0
    problems = []
    for task, (ok, value) in zip(tasks, results):
        if ok:
            try:
                a, f, problem = task.check(value)
            except Exception:  # malformed output counts against the task
                a, f, problem = task.weight, task.weight, f"{task.label}: {traceback.format_exc(limit=2)}"
        else:
            a, f, problem = task.weight, task.weight, f"{task.label}: {value}"
        attempted += a
        failed += f
        if problem:
            problems.append(problem)
    return attempted, failed, problems
