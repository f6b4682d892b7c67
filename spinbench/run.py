"""spinrest benchmark entry point.

    python3 spinbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass runs in a fresh
interpreter (spinbench/child.py), one at a time, because `spinrest verify`
pays its cold caches on every invocation.

--trace 0: passes run back to back until they have measured S seconds;
set-up is also timed alone until there are MIN_SETUPS samples.  Prints the
medians of wall_s, cpu_s, peak_rss_mb and setup_s.

--trace 1: one untraced and one traced pass; prints the per-layer metrics of
the traced pass and the tracing overhead (traced minus untraced wall time).

The last line of standard output is the JSON result; the line before it is
a JSON object with the machine, problem sizes and diagnostics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import EXPECTED_CALLS, FUNCTIONS, LAYERS, WORKLOADS, per_layer_metrics  # noqa: E402
from oracles import probe_sizes  # noqa: E402

MIN_SETUPS = 7
# A run must end within 180 s; children still running after this are killed.
RUN_DEADLINE_S = 175
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child interpreter to completion and return its JSON report,
    with setup_s measured from just before the interpreter was started.  The
    child is killed at `deadline` (a time.monotonic() reading)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run passed its {RUN_DEADLINE_S} s deadline in a {mode} pass") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    passes = []
    while sum(p["wall_s"] for p in passes) < seconds:
        passes.append(spawn(workload, seed, "pass", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
    samples = {name: [p[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    metrics = {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END.items()}
    info = {"passes": len(passes), "samples": samples}
    return summarize(passes, metrics, info)


def silent_calls(workload: str, trace: dict) -> list[str]:
    """Layers and functions the workload is meant to exercise that the traced
    pass never called; functions the program no longer defines are exempt."""
    silent = []
    for name in EXPECTED_CALLS[workload]:
        if name in trace["absent"]:
            continue
        table = trace["layers"] if name in LAYERS else trace["functions"]
        if table.get(name, {}).get("calls", 0) == 0:
            silent.append(name)
    return silent


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    plain = spawn(workload, seed, "pass", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    trace = traced["trace"]
    silent = silent_calls(workload, trace)
    if silent:
        raise BenchError(f"workload {workload} made no calls to {', '.join(silent)}, which it is meant to exercise")

    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = trace["layers"][name]["calls"]
        values[f"{name}.self_s"] = trace["layers"][name]["self_s"]
    for name in FUNCTIONS:
        stats = trace["functions"].get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = stats["calls"]
        values[f"{name}.self_s"] = stats["self_s"]
    values.update(trace["counts"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["trace.unattributed_s"] = trace["unattributed_s"]
    units = per_layer_metrics()
    metrics = {name: (values.get(name, 0), unit) for name, (unit, _) in units.items()}
    top = max(LAYERS, key=lambda layer: trace["layers"][layer]["self_s"])
    info = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "top_self_layer": top,
        "absent": sorted(set(trace["absent"]) | {name for name in units if name not in values}),
        "max_shapes": trace["max_shapes"],
        "spans_recorded": trace["spans"],
    }
    return summarize([plain, traced], metrics, info)


def summarize(passes: list[dict], metrics: dict, info: dict) -> tuple[dict, dict]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info["failed_frac"] = failed / attempted if attempted else 1.0
    info["problems"] = [problem for p in passes for problem in p["problems"]][:20]
    return result, info


def machine() -> dict:
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spinrest", "__init__.py")):
        print(f"error: no spinrest sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            result, info = traced_run(args.workload, args.seed, deadline)
        else:
            result, info = timed_run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **info,
            "machine": machine(), "probe_sizes": probe_sizes().get(args.workload)}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
