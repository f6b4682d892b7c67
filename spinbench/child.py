"""One pass of a benchmark workload, in a fresh interpreter.

    python3 spinbench/child.py --workload NAME --seed N --mode setup|pass|traced

Everything up to the end of input generation is set-up; the child prints the
monotonic clock reading at that point so the parent, which noted the clock
before starting the interpreter, can time interpreter start, `import spinrest`
and input generation together.  `setup` mode stops there.  `pass` runs the
workload's tasks untraced; `traced` wraps spinrest's public functions first
and also reports spans.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spinrest  # noqa: E402,F401  (import time is part of set-up)

import workloads  # noqa: E402
from metrics import FUNCTIONS  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    tasks = workload.tasks(workload.setup(args.seed))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    results = workloads.run_tasks(tasks)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()

    attempted, failed, problems = workloads.check_results(tasks, results)
    out.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
    )
    if tracer is not None:
        out["trace"] = trace_report(tracer, wall)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "t0": t0, "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


def trace_report(tracer, wall: float) -> dict:
    """Per-layer and per-function calls and self time, work counts, the
    largest matrix shapes seen, and the pass time no top-level span covers."""
    layers = {name: {"calls": n, "self_s": s} for name, (n, s) in tracer.layer_totals().items()}
    functions = {
        name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name]}
        for name in FUNCTIONS
        if name in tracer.calls
    }
    counts = dict(tracer.counts)
    hit_ratio = tracer.hit_ratio()
    if hit_ratio is not None:
        counts["specht.perm_basis.hit_ratio"] = hit_ratio
    return {
        "layers": layers,
        "functions": functions,
        "counts": counts,
        "absent": tracer.absent(FUNCTIONS),
        "max_shapes": {name: list(shape) for name, shape in tracer.max_shape.items()},
        "unattributed_s": wall - tracer.top_level_s,
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
