"""Spans around every public isobound function, and the per-layer metrics
computed from them.

The tracer wraps each public function of each isobound module and rebinds the
wrapper at every import site: `isobound.cli` and `isobound.certify` bind names
such as `profile_bruteforce` at import, so patching `isobound.profiles` alone
would miss their calls.  Nothing in the package is edited.  Spans are kept in
memory (name, start, end, parent, op, error, extra) and written out at the end.
A span's self time is its duration minus the durations of its child spans;
the tracer's own bookkeeping is charged to the caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import statistics
import sys
import time

# Span names are "<module>.<function>"; a layer metric sums over these groups.
PARSE = {"graphs.parse_product_spec", "graphs.parse_graph", "graphs.generate"}
PRODUCT = {"graphs.cartesian_product", "graphs.max_vertex_cap"}
SEARCH = {"profiles.profile_bruteforce", "profiles.min_boundary"}


def _graph_key(g) -> int:
    return hash((g.vertex_count, g.adjacency))


def _extra(name: str, args, result):
    """What a span records beyond its timing, for the count metrics."""
    if name == "profiles.profile_bruteforce":
        g = args[0]
        return _graph_key(g), (1 << g.vertex_count) - 1  # sum of C(m, k), k = 1..m
    if name == "profiles.min_boundary":
        g, k = args[0], args[1]
        return _graph_key(g), math.comb(g.vertex_count, k)
    if name == "graphs.cartesian_product":
        factors = getattr(args[0], "factors", args[0])
        return result.vertex_count if len(tuple(factors)) > 1 else 0
    if name == "minorants.build_minorant":
        return len(result.breakpoints)
    if name == "allocation.theorem_bound":
        return sum(len(psi.breakpoints) - 1 for psi in args[0])
    return None


class Tracer:
    """Construct after isobound is imported; install() and uninstall() swap
    the wrappers in and out at every import site."""

    def __init__(self):
        self.spans: list = []
        self.op = -1  # index of the op being run; spans of one op share it
        self._stack: list[int] = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "isobound"]
        wrappers = {}
        for module in modules:
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__.startswith("isobound.")
                    and fn.__name__ == attr
                ):
                    wrappers.setdefault(fn, self._wrap(fn))
        self._patches = [
            (module, attr, value, wrappers[value])
            for module in modules
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn):
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                extra = None if error else _extra(name, args, result)
                spans[index] = (name, start, end, parent, self.op, error, extra)

        return wrapper

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans, stdout_bytes: int) -> dict[str, float]:
    """Per-layer counts and self times of one pass over a workload."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    q72_failed = 0
    searched, subsets, vertices, breakpoints, pieces = set(), 0, 0, 0, 0
    for i, (name, start, end, parent, op, error, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        # SlabsOptimalError is an answer (no certificate can exist), not a failure
        if name == "certify.q72_certificate" and error not in (None, "SlabsOptimalError"):
            q72_failed += 1
        if extra is None:
            continue
        if name in SEARCH:
            searched.add(extra[0])
            subsets += extra[1]
        elif name == "graphs.cartesian_product":
            vertices += extra
        elif name == "minorants.build_minorant":
            breakpoints += extra
        elif name == "allocation.theorem_bound":
            pieces += extra

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def module(table, prefix):
        return sum(v for n, v in table.items() if n.startswith(prefix))

    search_calls = total(calls, SEARCH)
    return {
        "cli.calls": calls.get("cli.run", 0),
        "cli.self_s": module(self_s, "cli."),
        "cli.stdout_bytes": stdout_bytes,
        "graphs.parse_calls": calls.get("graphs.parse_product_spec", 0),
        "graphs.parse_self_s": total(self_s, PARSE),
        "graphs.product_calls": calls.get("graphs.cartesian_product", 0),
        "graphs.product_self_s": total(self_s, PRODUCT),
        "graphs.product_vertices": vertices,
        "profiles.search_calls": search_calls,
        "profiles.search_self_s": total(self_s, SEARCH),
        "profiles.closed_form_calls": calls.get("profiles.profile_closed_form", 0),
        "profiles.subset_space": subsets,
        "profiles.distinct_ratio": len(searched) / search_calls if search_calls else 0.0,
        "minorants.build_calls": calls.get("minorants.build_minorant", 0),
        "minorants.build_self_s": self_s.get("minorants.build_minorant", 0.0),
        "minorants.breakpoints": breakpoints,
        "minorants.summary_self_s": self_s.get("minorants.regular_summary", 0.0),
        "allocation.theorem_calls": calls.get("allocation.theorem_bound", 0),
        "allocation.theorem_self_s": self_s.get("allocation.theorem_bound", 0.0),
        "allocation.pieces": pieces,
        "closed_forms.calls": module(calls, "closed_forms."),
        "closed_forms.self_s": module(self_s, "closed_forms."),
        "certify.verify_calls": calls.get("certify.verify_theorem", 0),
        "certify.verify_self_s": self_s.get("certify.verify_theorem", 0.0),
        "certify.q71_calls": calls.get("certify.q71_witness", 0),
        "certify.q72_calls": calls.get("certify.q72_certificate", 0),
        "certify.q72_self_s": self_s.get("certify.q72_certificate", 0.0),
        "certify.q72_failed": q72_failed,
    }


def median_metrics(passes: list[dict]) -> dict[str, float]:
    """Per metric, the lower median over passes: an observed value, so counts
    stay whole numbers."""
    return {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}


def write_spans(path, passes: list[list]) -> None:
    """One JSON line per span: pass, index, name, start, end, parent, op, error."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for i, (name, start, end, parent, op, error, _) in enumerate(spans):
                fh.write(json.dumps([number, i, name, start, end, parent, op, error]) + "\n")
