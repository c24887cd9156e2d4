"""Spans around the calls into each rieszbounds layer, for the traced run.

``install`` replaces each traced function, in every rieszbounds module
that holds a reference to it, by a wrapper that records one span per call:
name, layer, start, end, parent span and op id.  The package is patched
from outside; nothing under ``src/`` changes.  Spans stay in memory until
``dump`` writes them out at the end of the run.

``bessel_j`` is the exception.  It calls nothing that is traced and runs up
to 10^6 times in one op (the uncertifiable ``gauss --alpha 1e-6``), so its
calls are folded into the enclosing span as a count and a summed duration
instead of one span each; a span per call wrote 60 MB of spans for that
one op.

``summarize`` turns spans into additive accumulators, so the summaries of
several processes (one per CLI invocation) can be merged with ``merge``
before ``metrics`` derives the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("special", "jacobi", "quadrature", "energy", "lattices", "cli")

# (module, attribute); the span is named "<module>.<attribute>" and belongs
# to that module's layer.  Callers that bound a name at import (energy binds
# bessel_zeros and bessel_j, quadrature binds jacobi_values, cd_kernel and
# _rows, lattices binds mpmath's gammainc, cli binds the commands) are
# patched too, because install() replaces every module-level reference.
TRACED = (
    ("special", "bessel_zeros"), ("special", "bessel_j"), ("special", "hurwitz_zeta"),
    ("jacobi", "largest_zero"), ("jacobi", "jacobi_values"), ("jacobi", "cd_kernel"),
    ("jacobi", "_rows"), ("jacobi", "_deriv_rows"),
    ("quadrature", "build_rule"), ("quadrature", "solve_s_for_n"),
    ("quadrature", "lev_branch"), ("quadrature", "lev_function"),
    ("energy", "ulb_energy"), ("energy", "asd_bound"), ("energy", "gauss_bound"),
    ("lattices", "c_tilde"), ("lattices", "epstein_zeta"), ("lattices", "gammainc"),
    ("lattices", "theta_coefficients"),
    ("cli", "main"),
)

# leaf functions folded into the enclosing span
FOLDED = frozenset({"special.bessel_j"})

# span record: [name, layer, start, end, parent index, op id, detail,
#               {folded name: [calls, seconds]} or None]
NAME, LAYER, START, END, PARENT, OP, DETAIL, LEAVES = range(8)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def leaf(self, name: str, layer: str, start: float, end: float) -> None:
        if not self.stack:
            self.spans.append([name, layer, start, end, -1, self.op, None, None])
            return
        parent = self.spans[self.stack[-1]]
        if parent[LEAVES] is None:
            parent[LEAVES] = {}
        entry = parent[LEAVES].setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _detail(name: str, result):
    # counts read off the result: asd_bound terms, build_rule weight fallback
    if name == "energy.asd_bound":
        return result.terms_used
    if name == "quadrature.build_rule":
        return int(result.weight_fallback)
    return None


def _wrap(rec: Recorder, name: str, layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        span[DETAIL] = _detail(name, result)
        return result
    return traced


def _wrap_leaf(rec: Recorder, name: str, layer: str, fn):
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, layer, start, clock())
    return traced


def _wrap_eigvalsh(rec: Recorder, fn):
    # attributed to the calling layer; the detail is the matrix order
    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        layer = caller.rsplit(".", 1)[-1] if caller.startswith("rieszbounds.") else "other"
        span = rec.open(f"{layer}.eigvalsh", layer)
        try:
            return fn(a, *args, **kwargs)
        finally:
            rec.close(span)
            span[DETAIL] = int(a.shape[-1])
    return traced


def install(rec: Recorder) -> None:
    """Wrap every traced function wherever a rieszbounds module refers to it."""
    import numpy as np
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rieszbounds" or name.startswith("rieszbounds.")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for mod_name, attr in TRACED:
        if mod_name not in by_name:
            continue
        original = getattr(by_name[mod_name], attr)
        name = f"{mod_name}.{attr}"
        wrap = _wrap_leaf if name in FOLDED else _wrap
        wrapper = wrap(rec, name, mod_name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    np.linalg.eigvalsh = _wrap_eigvalsh(rec, np.linalg.eigvalsh)


# ---------------------------------------------------------------------------
# spans -> accumulators -> metrics
# ---------------------------------------------------------------------------


def summarize(spans: list[list], ops: list[dict]) -> dict[str, float]:
    """Additive accumulators from spans; ``ops`` gives each op's kind and
    latency, indexed by op id."""
    acc: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value

    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
        if s[LEAVES]:
            child[i] += sum(seconds for _, seconds in s[LEAVES].values())
    # inclusive time counts only the outermost span of a name, and a
    # bessel_zeros call is a cache hit when no bessel_j ran inside it
    has_bessel_j = [False] * n
    for i, s in enumerate(spans):
        outermost = True
        under_solve = False
        mark = s[NAME] == "special.bessel_j" or bool(s[LEAVES] and "special.bessel_j" in s[LEAVES])
        if mark:
            has_bessel_j[i] = True
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                outermost = False
            if spans[p][NAME] == "quadrature.solve_s_for_n":
                under_solve = True
            if mark:
                has_bessel_j[p] = True
            p = spans[p][PARENT]
        name, layer = s[NAME], s[LAYER]
        kind = ops[s[OP]]["kind"] if s[OP] is not None and s[OP] < len(ops) else "none"
        add(f"calls:{name}", 1)
        if outermost:
            add(f"s:{name}", dur[i])
        self_time = dur[i] - child[i]
        add(f"self:{layer}", self_time)
        add(f"self:{kind}:{layer}", self_time)
        add(f"calls:{kind}:{name}", 1)
        for leaf, (calls, seconds) in (s[LEAVES] or {}).items():
            leaf_layer = leaf.split(".", 1)[0]
            add(f"calls:{leaf}", calls)
            add(f"s:{leaf}", seconds)
            add(f"self:{leaf_layer}", seconds)
            add(f"self:{kind}:{leaf_layer}", seconds)
            add(f"calls:{kind}:{leaf}", calls)
        if s[DETAIL] is not None:
            add(f"detail:{name}", s[DETAIL])
            add(f"detail:{kind}:{name}", s[DETAIL])
        if name == "quadrature.lev_branch" and under_solve:
            add("lev_branch_in_solve", 1)
        if s[PARENT] < 0:
            add("covered", dur[i])
    for i, s in enumerate(spans):
        if s[NAME] == "special.bessel_zeros" and not has_bessel_j[i]:
            add("bessel_zeros_hits", 1)
    for op in ops:
        add("op_time", op["t"])
        add(f"op_time:{op['kind']}", op["t"])
        add(f"ops:{op['kind']}", 1)
    return acc


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(acc: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from merged accumulators."""
    g = acc.get
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (g(f"self:{layer}", 0.0), "s")
    for key in ("special.bessel_zeros", "special.bessel_j", "special.hurwitz_zeta",
                "jacobi.largest_zero", "jacobi.jacobi_values", "jacobi.cd_kernel",
                "jacobi.eigvalsh", "quadrature.build_rule", "quadrature.solve_s_for_n",
                "quadrature.lev_branch", "quadrature.eigvalsh", "energy.asd_bound",
                "lattices.epstein_zeta", "lattices.gammainc", "lattices.theta_coefficients"):
        out[f"{key}.calls"] = (g(f"calls:{key}", 0.0), "count")
    for key in ("special.bessel_zeros", "special.bessel_j", "jacobi.largest_zero",
                "quadrature.build_rule", "quadrature.lev_function", "energy.ulb_energy",
                "energy.asd_bound", "energy.gauss_bound", "lattices.c_tilde",
                "lattices.gammainc", "cli.main"):
        out[f"{key}.s"] = (g(f"s:{key}", 0.0), "s")
    out["special.bessel_zeros.hit_ratio"] = (
        _ratio(g("bessel_zeros_hits", 0.0), g("calls:special.bessel_zeros", 0.0)), "ratio")
    out["jacobi.eigvalsh.rows"] = (g("detail:jacobi.eigvalsh", 0.0), "count")
    out["quadrature.eigvalsh.rows"] = (g("detail:quadrature.eigvalsh", 0.0), "count")
    out["quadrature.lev_branch.per_solve"] = (
        _ratio(g("lev_branch_in_solve", 0.0), g("calls:quadrature.solve_s_for_n", 0.0)),
        "calls/solve")
    out["quadrature.weight_fallback.count"] = (g("detail:quadrature.build_rule", 0.0), "count")
    out["energy.asd_bound.terms"] = (g("detail:energy.asd_bound", 0.0), "count")
    out["cli.import_s"] = (g("s:import.rieszbounds.cli", 0.0), "s")
    out["trace.coverage"] = (_ratio(g("covered", 0.0), g("op_time", 0.0)), "ratio")
    # ulb-sweep by op kind: the two uses of the jacobi layer
    for kind in ("ulb", "lev"):
        out[f"{kind}.ops"] = (g(f"ops:{kind}", 0.0), "count")
        out[f"{kind}.op_mean_ms"] = (
            1e3 * _ratio(g(f"op_time:{kind}", 0.0), g(f"ops:{kind}", 0.0)), "ms")
        out[f"{kind}.jacobi.self_s"] = (g(f"self:{kind}:jacobi", 0.0), "s")
        out[f"{kind}.quadrature.self_s"] = (g(f"self:{kind}:quadrature", 0.0), "s")
        out[f"{kind}.jacobi.largest_zero.calls"] = (
            g(f"calls:{kind}:jacobi.largest_zero", 0.0), "count")
        out[f"{kind}.jacobi.eigvalsh.rows"] = (g(f"detail:{kind}:jacobi.eigvalsh", 0.0), "count")
        out[f"{kind}.quadrature.lev_branch.calls"] = (
            g(f"calls:{kind}:quadrature.lev_branch", 0.0), "count")
    # cli-cold refusals, whose cost op_tail_ms does not reach
    out["refusal.ops"] = (g("ops:refusal", 0.0), "count")
    out["refusal.op_mean_ms"] = (
        1e3 * _ratio(g("op_time:refusal", 0.0), g("ops:refusal", 0.0)), "ms")
    return out
