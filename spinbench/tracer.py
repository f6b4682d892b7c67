"""Span tracing of spinrest from outside: every public function of the nine
modules is wrapped at every name it is bound to, and each call becomes a span
(name, start, end, parent).

Self time is accumulated online: a span's self time is its duration minus
the durations of its direct children (calls are nested, single-threaded, so
children never overlap).  Only spans down to SPAN_DEPTH are kept as records;
the rest are folded into the per-name totals.
"""

import functools
import importlib
import inspect
import math
import time

import numpy as np

from metrics import LAYERS

SPAN_DEPTH = 3


def _shape(x) -> tuple:
    return tuple(np.shape(x))


def _cells(args) -> int:
    shape = _shape(args[0])
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _flops(args) -> int:
    a, b = _shape(args[0]), _shape(args[1])
    if len(a) != 2 or len(b) != 2:
        return 0
    return 2 * a[0] * a[1] * b[1]


# name -> (count key, function of the call's positional arguments, how many
# positional arguments it reads)
_COUNTERS = {
    "gfp.rank": ("gfp.elim_cells", _cells, 1),
    "gfp.rref": ("gfp.elim_cells", _cells, 1),
    "gfp.matmul_mod": ("gfp.matmul_mod.flops", _flops, 2),
    "specht.orbit_count": ("specht.orbit_count.tabloids", lambda a: len(a[1]), 2),
    "specht.permutation_matrix": ("specht.permutation_matrix.bytes", lambda a: 8 * len(a[1]) ** 2, 2),
}

# Functions whose largest argument shape is recorded as a problem size.
_SHAPED = ("gfp.rank", "gfp.rref", "gfp.kernel", "gfp.matmul_mod", "gfp.fixed_space")


def _is_traceable(mod, name: str, obj) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


class Tracer:
    """Wraps spinrest's public functions and records spans while installed."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"spinrest.{layer}") for layer in LAYERS}
        self.originals: dict[str, object] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {key: 0 for key, _, _ in _COUNTERS.values()}
        self.max_shape: dict[str, tuple] = {}
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [span index or -1, start, child seconds]
        self._patched: list[tuple] = []  # (namespace, key, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if _is_traceable(mod, name, obj):
                    qual = f"{layer}.{name}"
                    self.originals[qual] = obj
                    self.calls[qual] = 0
                    self.self_s[qual] = 0.0
                    wrappers[id(obj)] = self._wrap(qual, obj)
        namespaces = list(self.modules.values()) + [importlib.import_module("spinrest")]
        for mod in namespaces:
            for key, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod.__dict__, key, wrappers[id(obj)])
                elif isinstance(obj, dict):  # registries such as suites.SUITES
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._patch(obj, k, wrappers[id(v)])

    def _patch(self, namespace: dict, key, value) -> None:
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        counter = _COUNTERS.get(qual)
        shaped = qual in _SHAPED
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None and len(args) >= counter[2]:
                self.counts[counter[0]] += counter[1](args)
            if shaped and args:
                shape = _shape(args[0])
                if math.prod(shape) >= math.prod(self.max_shape.get(qual, (0,))):
                    self.max_shape[qual] = shape
            depth = len(stack)
            index = -1
            if depth < SPAN_DEPTH:
                index = len(spans)
                spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[qual] += 1
                self_s[qual] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_level_s += duration
                if index >= 0:
                    parent = stack[-1][0] if stack else -1
                    spans[index] = (qual, frame[1], end, parent)

        return traced

    # -- results ------------------------------------------------------------

    def absent(self, names) -> list[str]:
        """Names of functions in `names` that the program no longer defines."""
        return sorted(n for n in names if n not in self.originals)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for qual, n in self.calls.items():
            layer = qual.split(".", 1)[0]
            out[layer][0] += n
            out[layer][1] += self.self_s[qual]
        return {layer: (n, s) for layer, (n, s) in out.items()}

    def hit_ratio(self) -> float | None:
        fn = self.originals.get("specht.perm_basis")
        if fn is None or not hasattr(fn, "cache_info"):
            return None
        info = fn.cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0
