"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper at
every site that holds it: its defining module, the package namespace and
every module that did ``from .x import f``.  Calls inside a module go
through its globals, so nested calls are seen too.  Nothing in the package
is edited and no private name is read.

Each wrapper opens a span; a span's self time is its duration minus the
time of the traced spans it directly contains.  Spans are aggregated in
memory per ``layer.function``.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# layer (module) -> public functions wrapped in it: every function that a
# reported metric names, plus graph helpers the rewrites call, so that their
# time is not counted as the rewrites' own
TRACED = {
    "graphs": (
        "parse_edge_list",
        "block_cut_tree",
        "is_connected",
        "validate_cactus",
        "cycle_incidence_graph",
        "is_cactus_chain",
    ),
    "counting": ("cactus_path_count",),
    "census": ("enumerate_cacti", "canonical_key"),
    "indices": ("subtree_count", "wiener"),
    "extremal": ("extremal_sweep", "sweep_rows", "verify_theorems"),
    "transforms": (
        "bridge_slide",
        "chain_straighten",
        "shrink_interior_cycle",
        "balance_end_cycles",
        "cycle_to_triangle",
        "split_interior_triangle",
        "maximize_to_fixpoint",
        "minimize_to_fixpoint",
    ),
    "cli": ("main",),
}

RULES = TRACED["transforms"][:6]
# An invariant evaluation, when it runs under an extremal span.
INVARIANT_SPANS = ("counting.cactus_path_count", "indices.wiener", "indices.subtree_count")


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.step_s: list[float] = []  # inclusive time of each rewrite rule call
        self.evals = 0  # invariant evaluations under an extremal span
        self.swept = 0  # census classes over all extremal_sweep calls
        self.classes: dict[tuple, int] = {}  # enumerate_cacti (n, k) -> classes
        self._stack: list[list] = []  # [name, child seconds]

    def _wrap(self, name: str, fn):
        rule = name.split(".")[1] in RULES
        invariant = name in INVARIANT_SPANS

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            if invariant and any(f[0].startswith("extremal.") for f in stack):
                self.evals += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "census.enumerate_cacti":
                    self.classes[tuple(args[:2])] = len(result)
                elif name == "extremal.extremal_sweep":
                    self.swept += result.census_size
                return result
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if rule:
                    self.step_s.append(dur)

        if hasattr(fn, "cache_info"):  # read after the run for key hits and misses
            traced.cache_info = fn.cache_info
        return traced

    def install(self, package: str = "cactuspaths") -> None:
        sites = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue  # gone from the package: its metrics read 0
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapper)
