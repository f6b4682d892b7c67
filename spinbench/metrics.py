"""Names shared by run.py, child.py, the tracer and the tests: workloads,
layers, traced functions and the per-layer metric list."""

WORKLOADS = ("orbits", "gram", "dual", "many-small")

# The nine modules of spinrest; each is one layer of the trace.
LAYERS = (
    "partitions",
    "residues",
    "regularization",
    "labels",
    "gfp",
    "specht",
    "classify",
    "suites",
    "cli",
)

# Functions reported on their own, as "<module>.<name>".
FUNCTIONS = (
    "gfp.rank",
    "gfp.rref",
    "gfp.kernel",
    "gfp.matmul_mod",
    "gfp.quotient_action",
    "gfp.fixed_space",
    "specht.perm_basis",
    "specht.orbit_count",
    "specht.orbit_basis",
    "specht.permutation_matrix",
    "specht.polytabloid_matrix",
    "specht.eta",
    "classify.classify",
    "regularization.regularize",
)

# Work counts computed from the arguments of traced calls; they repeat
# exactly for a given workload and seed.
COUNTS = {
    "gfp.elim_cells": ("cells", "lower"),
    "gfp.matmul_mod.flops": ("flop", "lower"),
    "specht.orbit_count.tabloids": ("count", "lower"),
    "specht.permutation_matrix.bytes": ("B", "lower"),
    "specht.perm_basis.hit_ratio": ("ratio", "higher"),
}

TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

# What each workload is meant to exercise.  A traced run fails when one of
# these has zero calls; a function that no longer exists is reported absent.
EXPECTED_CALLS = {
    "orbits": ("specht.orbit_count", "specht.perm_basis"),
    "gram": ("gfp.rank", "gfp.matmul_mod", "specht.polytabloid_matrix"),
    "dual": (
        "gfp.rref",
        "gfp.kernel",
        "gfp.quotient_action",
        "gfp.fixed_space",
        "specht.permutation_matrix",
    ),
    "many-small": (
        "gfp.rank",
        "gfp.kernel",
        "specht.eta",
        "classify.classify",
        "regularization.regularize",
        "classify",
        "residues",
        "regularization",
        "labels",
        "partitions",
    ),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name mapped to (unit, better)."""
    out = {}
    for name in LAYERS + FUNCTIONS:
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.calls"] = ("count", "lower")
    out.update(COUNTS)
    out.update(TRACE_METRICS)
    return out
