"""Spans and counters around the program's public functions.

The program has no instrumentation of its own, so the benchmark wraps the
functions named in ``TARGETS`` from outside.  Modules import these names
with ``from .linalg import rref`` and the like, so a wrapper replaces the
function in every ``quiverstab`` module that holds it, not only where it is
defined.

Each call becomes a span (function, parent span, request, start, end), kept
in memory.  A function's inclusive time sums its outermost spans, so a
recursive or re-entrant call is not counted twice; its self time is the
span's duration minus the time covered by its child spans.  Counters that
measure work (matrix cells, Hom unknowns, subspace tuples, rows) are
computed here from the arguments, never read from the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TARGETS = {
    "linalg": ("rref", "kernel_basis", "sparse_kernel_basis"),
    "quiver": ("classify",),
    "reps": ("hom_space", "end_algebra", "radical_dim", "are_isomorphic"),
    "stability": ("subrep_dimvectors", "check_stability", "find_weight"),
    "synthesis": ("validate_sequence", "synthesize_weight", "shift_sigma",
                  "exceptional_order", "validate_catalog"),
    "catalog": ("load",),
    "jsonio": ("parse_bundle",),
    "cli": ("main",),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# counters computed from the arguments of single targets
COUNTERS = ("reps.hom_space_unknowns", "linalg.rref_cells",
            "stability.subrep_dimvectors_refused", "stability.subspace_tuples_bound",
            "stability.subrep_dimvectors_repeats", "stability.find_weight_rows_in")


def _subspace_count(p: int, d: int) -> int:
    """Number of subspaces of F_p^d: the sum of the Gaussian binomials."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name index, parent, request, start, end]
        self.request = -1             # set by the caller before each operation
        self._stack: list[int] = []
        self._depth = [0] * len(NAMES)
        self._outermost: list[bool] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._oracle_seen: set = set()

    def install(self) -> None:
        modules = {mod: importlib.import_module(f"quiverstab.{mod}") for mod in TARGETS}
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "quiverstab" or name.startswith("quiverstab."))]
        refused = modules["stability"].BudgetExceeded
        for mod, fns in TARGETS.items():
            for fn in fns:
                original = getattr(modules[mod], fn)
                wrapper = self._wrap(NAMES.index(f"{mod}.{fn}"), original, refused)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def _count(self, name: str, args) -> None:
        c = self.counters
        if name == "reps.hom_space":
            v, w = args
            c["reps.hom_space_unknowns"] += sum(a * b for a, b in zip(v.dim, w.dim))
        elif name == "linalg.rref":
            c["linalg.rref_cells"] += args[0].rows * args[0].cols
        elif name == "stability.subrep_dimvectors":
            v, p = args[0], args[1]
            bound = 1
            for d in v.dim:
                bound *= _subspace_count(p, d)
            c["stability.subspace_tuples_bound"] += bound
            if (v, p) in self._oracle_seen:
                c["stability.subrep_dimvectors_repeats"] += 1
            self._oracle_seen.add((v, p))
        elif name == "stability.find_weight":
            problem = args[0]
            c["stability.find_weight_rows_in"] += len(problem.equalities) + len(problem.strict)

    def _wrap(self, index: int, fn, refused):
        name = NAMES[index]
        counted = name in ("reps.hom_space", "linalg.rref",
                           "stability.subrep_dimvectors", "stability.find_weight")
        is_oracle = name == "stability.subrep_dimvectors"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                self._count(name, args)
            span = [index, self._stack[-1] if self._stack else -1, self.request, clock(), 0.0]
            self.spans.append(span)
            self._outermost.append(self._depth[index] == 0)
            self._stack.append(len(self.spans) - 1)
            self._depth[index] += 1
            try:
                return fn(*args, **kwargs)
            except refused:
                if is_oracle:
                    self.counters["stability.subrep_dimvectors_refused"] += 1
                raise
            finally:
                span[4] = clock()
                self._depth[index] -= 1
                self._stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Per function: calls, inclusive and self seconds; plus the counters."""
        calls = [0] * len(NAMES)
        inclusive = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        child_time = [0.0] * len(self.spans)
        for i, (_, parent, _, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        for i, (index, _, _, start, end) in enumerate(self.spans):
            calls[index] += 1
            own[index] += end - start - child_time[i]
            if self._outermost[i]:
                inclusive[index] += end - start
        return {"calls": calls, "inclusive_s": inclusive, "self_s": own,
                "counters": dict(self.counters)}

    def record(self) -> dict:
        """Summary plus the raw spans as [name index, parent, request,
        start, duration], times in microseconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return {"summary": self.summary(),
                "spans": [[i, p, r, round((s - t0) * 1e6), round((e - s) * 1e6)]
                          for i, p, r, s, e in self.spans]}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)


def merge(summaries: list[dict]) -> dict:
    """Sum summaries of several processes (one per CLI command)."""
    out = {"calls": [0] * len(NAMES), "inclusive_s": [0.0] * len(NAMES),
           "self_s": [0.0] * len(NAMES), "counters": dict.fromkeys(COUNTERS, 0)}
    for s in summaries:
        for key in ("calls", "inclusive_s", "self_s"):
            out[key] = [a + b for a, b in zip(out[key], s[key])]
        for key in COUNTERS:
            out["counters"][key] += s["counters"][key]
    return out


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for i, name in enumerate(NAMES):
        out[f"{name}_s"] = (summary["inclusive_s"][i], "s")
        out[f"{name}_self_s"] = (summary["self_s"][i], "s")
        out[f"{name}_calls"] = (summary["calls"][i], "count")
    c = summary["counters"]
    oracle_calls = summary["calls"][NAMES.index("stability.subrep_dimvectors")]
    out["reps.hom_space_unknowns"] = (c["reps.hom_space_unknowns"], "count")
    out["linalg.rref_cells"] = (c["linalg.rref_cells"], "count")
    out["stability.subrep_dimvectors_refused"] = (c["stability.subrep_dimvectors_refused"], "count")
    out["stability.subspace_tuples_bound"] = (c["stability.subspace_tuples_bound"], "count")
    out["stability.subrep_dimvectors_repeat_ratio"] = (
        c["stability.subrep_dimvectors_repeats"] / oracle_calls if oracle_calls else 0.0, "ratio")
    out["stability.find_weight_rows_in"] = (c["stability.find_weight_rows_in"], "count")
    return out
