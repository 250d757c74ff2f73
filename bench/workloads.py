"""Seeded benchmark inputs and independent checks of the CLI's outputs.

A workload is a fixed list of CLI invocations ("ops").  The seed chooses the
random graphs, set sizes, log sizes and the order of the ops; the shape of the
list (which commands, how many vertices, which powers) is the same for every
seed, because the cost of an exact search depends on its vertex count far
more than on its edges, and a steady shape keeps timings comparable across
seeds.

Nothing here imports isobound.  Graphs, products, edge boundaries and the
known family profiles are recomputed from their definitions, so a check
catches a wrong answer instead of repeating it.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXHAUSTIVE_LIMIT = 20  # the CLI searches every subset up to here and prunes above
REL_TOL = 1e-9  # two floats computed along different routes
BENCH_RATIO_CAP = 2.0 / (math.e * math.log(2.0))  # power-of-r vs ours, sets up to half


class CheckError(Exception):
    """An op's output disagrees with an independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- graphs


@dataclass(frozen=True)
class Graph:
    """Vertices 0..n-1 and an edge list; `transitive` is known by construction."""

    n: int
    edges: tuple[tuple[int, int], ...]
    transitive: bool = False

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def boundary(self, mask: int) -> int:
        return sum(((mask >> u) ^ (mask >> v)) & 1 for u, v in self.edges)

    def density(self) -> float:
        return 2 * len(self.edges) / (self.n * (self.n - 1))

    def connected(self) -> bool:
        parent = list(range(self.n))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for u, v in self.edges:
            parent[root(u)] = root(v)
        return len({root(v) for v in range(self.n)}) == 1

    def has_triangle(self) -> bool:
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return any(nbrs[u] & nbrs[v] for u, v in self.edges)


def family(name: str, m: int) -> Graph:
    if name == "complete":
        edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    elif name == "path":
        edges = [(v, v + 1) for v in range(m - 1)]
    else:
        edges = [(v, (v + 1) % m) for v in range(m)]
    return Graph(m, tuple(edges), transitive=name != "path" or m <= 2)


def family_ratio(name: str, m: int, k: int) -> Fraction:
    """i_k of the family graph: the paper's closed forms."""
    if k == m:
        return Fraction(0)
    return {"complete": Fraction(m - k), "path": Fraction(1, k), "cycle": Fraction(2, k)}[name]


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5)]
    return Graph(10, tuple(edges), transitive=True)


def product(factors) -> Graph:
    """Cartesian product, mixed-radix vertex order with the first factor most
    significant, as the CLI documents it."""
    sizes = [f.n for f in factors]
    total = math.prod(sizes)
    strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
    edges = []
    for idx in range(total):
        for f, stride in zip(factors, strides):
            coord = idx // stride % f.n
            for a, b in f.edges:
                if a == coord:
                    edges.append((idx, idx + (b - a) * stride))
    return Graph(total, tuple(edges), transitive=all(f.transitive for f in factors))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


def prefix_box(factors, ks) -> Fraction:
    """Boundary per vertex of the box {0..k_1-1} x ... x {0..k_n-1}: an upper
    bound on the true minimum at size prod k_i."""
    return sum(
        (Fraction(f.boundary((1 << k) - 1), k) for f, k in zip(factors, ks)), Fraction(0)
    )


# ---------------------------------------------------------------- ops


@dataclass(frozen=True)
class Search:
    """One exact search the CLI is expected to run for an op."""

    vertices: int
    transitive: bool
    repeated: bool = False  # same graph already searched earlier in the same op


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], None]
    searches: tuple[Search, ...] = ()


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    probes: list[Op]  # known failures, run only by the traced run
    random_graphs: list[Graph]

    def properties(self) -> dict:
        """Input properties the search and allocation costs depend on."""
        searches = [s for op in self.ops for s in op.searches]
        sizes = sorted(s.vertices for s in searches)
        densities = [g.density() for g in self.random_graphs]

        def share(pred) -> float:
            return round(sum(map(pred, searches)) / len(searches), 4)

        return {
            "ops": len(self.ops),
            "commands": dict(Counter(op.argv[0] for op in self.ops)),
            "random_graphs": len(self.random_graphs),
            "random_vertex_counts": sorted({g.n for g in self.random_graphs}),
            "random_density_min_mean_max": [
                round(x, 4) for x in (min(densities), sum(densities) / len(densities), max(densities))
            ],
            "searches": len(searches),
            "search_vertices_min_median_max": [sizes[0], sizes[len(sizes) // 2], sizes[-1]],
            "exhaustive_share": share(lambda s: s.vertices <= EXHAUSTIVE_LIMIT),
            "pruned_share": share(lambda s: s.vertices > EXHAUSTIVE_LIMIT),
            "vertex_transitive_share": share(lambda s: s.transitive),
            "repeat_within_query_share": share(lambda s: s.repeated),
        }


class Files:
    """Writes edge lists into the current directory under stable names, so
    that specs, labels and therefore outputs are the same in every checkout."""

    def __init__(self):
        self.count = 0

    def write(self, g: Graph) -> str:
        name = f"g{self.count:03d}.edges"
        self.count += 1
        lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges]
        Path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return f"file:{name}"


def factor_searches(factors) -> tuple[Search, ...]:
    """One profile search per factor occurrence; the CLI does not reuse them."""
    seen = set()
    out = []
    for f in factors:
        out.append(Search(f.n, f.transitive, repeated=id(f) in seen))
        seen.add(id(f))
    return tuple(out)


# ---------------------------------------------------------------- checks


def check_profile(g: Graph) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        expect(doc["vertex_count"] == g.n, "vertex count")
        entries = doc["profile"]
        expect([e["k"] for e in entries] == list(range(1, g.n + 1)), "sizes 1..m")
        best = {}
        for e in entries:
            k, value, mask = e["k"], e["min_boundary"], int(e["witness"], 16)
            expect(mask.bit_count() == k and mask >> g.n == 0, f"witness size at k={k}")
            expect(g.boundary(mask) == value, f"witness boundary recount at k={k}")
            ratio = Fraction(value, k)
            expect((e["i_k_num"], e["i_k_den"]) == (ratio.numerator, ratio.denominator), "i_k")
            best[k] = value
        expect(best[1] == min(g.degrees()), "boundary(1) is the minimum degree")
        expect(best[g.n] == 0, "boundary(m) = 0")
        expect(all(best[k] == best[g.n - k] for k in range(1, g.n)), "boundary(k) = boundary(m-k)")

    return check


def check_bound(factors, ks, size: int | None, log_size: float) -> Callable[[str], None]:
    """The theorem bound is a lower bound, so it may not exceed the prefix box
    of the same size; no closed form may exceed the theorem bound."""

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        box = float(prefix_box(factors, ks))
        theorem = doc["theorem"]
        per_vertex = theorem["bound_per_vertex"]
        expect(close(doc["log_size"], log_size), "log size")
        alloc = theorem["allocation"]
        expect(len(alloc) == len(factors), "one allocation per factor")
        for h, f in zip(alloc, factors):
            expect(-REL_TOL <= h <= math.log(f.n) + REL_TOL, "allocation inside the factor box")
        expect(close(sum(alloc), log_size), "allocation spends the budget")
        expect(per_vertex >= 0.0, "bound is nonnegative")
        expect(per_vertex <= box + REL_TOL * max(1.0, box), f"bound {per_vertex} above a box of {box}")
        if size is not None:
            expect(close(theorem["bound_total"], size * per_vertex), "bound total")
        for report in doc["closed_forms"]:
            expect(
                report["bound_per_vertex"] <= per_vertex * (1 + REL_TOL) + REL_TOL,
                f"closed form {report['family']} above the theorem bound",
            )

    return check


def check_minorant(g: Graph, known: Callable[[int], Fraction] | None) -> Callable[[str], None]:
    degrees = g.degrees()
    regular = len(set(degrees)) == 1 and g.connected() and g.n >= 2

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        bps = doc["breakpoints"]
        ks = [b["k"] for b in bps]
        expect(ks[0] == 1 and ks[-1] == g.n and ks == sorted(set(ks)), "breakpoint sizes")
        expect(close(doc["domain_end"], math.log(g.n)), "domain end")
        expect(all(close(b["x"], math.log(b["k"])) for b in bps), "x = log k")
        expect(close(bps[0]["y"], min(degrees)) and bps[-1]["y"] == 0.0, "end values")
        slopes = [(b["y"] - a["y"]) / (b["x"] - a["x"]) for a, b in zip(bps, bps[1:])]
        expect(all(s <= t + REL_TOL for s, t in zip(slopes, slopes[1:])), "convex")
        if known is not None:
            expect(all(close(b["y"], float(known(b["k"]))) for b in bps), "y = i_k")
            for k in range(1, g.n + 1):
                x, y = math.log(k), float(known(k))
                j = max(i for i, b in enumerate(bps) if b["x"] <= x + REL_TOL)
                a, b = bps[j], bps[min(j + 1, len(bps) - 1)]
                hull = a["y"] if a is b else a["y"] + (x - a["x"]) * (b["y"] - a["y"]) / (b["x"] - a["x"])
                expect(hull <= y + REL_TOL, f"hull above i_k at k={k}")
        summary = doc["regular_summary"]
        expect((summary is not None) == regular, "regular summary presence")
        if summary is not None:
            expect(summary["degree"] == degrees[0], "summary degree")

    return check


def check_compare(n: int, m: int, samples: int) -> Callable[[str], None]:
    hi = n * math.log(m) - math.log(2)

    def check(stdout: str) -> None:
        rows = json.loads(stdout)["rows"]
        expect(len(rows) == samples, "row count")
        for j, row in enumerate(rows, start=1):
            expect(close(row["log_size"], j * hi / samples), "sample grid")
            expect(close(row["ratio"], row["bl"] / row["ours"]), "ratio = bl / ours")
            expect(1.0 - REL_TOL <= row["ratio"] <= BENCH_RATIO_CAP + REL_TOL, "ratio range")

    return check


def check_q71(name: str, m: int, power: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        ks = doc["ks"]
        expect(doc["power"] == power and 1 <= ks[0] < ks[1] < ks[2] <= m, "sizes")
        expect(doc["sizes"] == [str(k**power) for k in ks], "sizes are k^n")
        exact = [power * float(family_ratio(name, m, k)) for k in ks]
        expect(all(close(a, b) for a, b in zip(doc["exact_per_vertex"], exact)), "exact values")
        expect(all(close(a, b) for a, b in zip(doc["lower_per_vertex"], exact)), "bound meets them")
        xs = [power * math.log(k) for k in ks]
        mid = exact[0] + (xs[1] - xs[0]) / (xs[2] - xs[0]) * (exact[2] - exact[0])
        expect(close(doc["interpolated_mid"], mid), "interpolation")
        expect(close(doc["residual"], exact[1] - mid) and doc["residual"] < 0, "residual < 0")

    return check


def check_q72(name: str, m: int, eps_start: float) -> Callable[[str], None]:
    g = family(name, m)
    d = g.degrees()[0]
    ratios = {k: family_ratio(name, m, k) for k in range(1, m)}
    # shallowest chord through (log m, 0); ties keep the smallest k
    k_star = max(range(1, m), key=lambda k: (-float(ratios[k]) / math.log(m / k), -k))
    y = float(ratios[k_star]) * math.log(m) / math.log(m / k_star)

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        if k_star == 1:
            expect(doc["slabs_optimal"] is True, "slabs are optimal when k* = 1")
            return
        expect(doc["slabs_optimal"] is False, "a certificate exists")
        expect(doc["k_star"] == k_star and close(doc["y_intercept"], y), "shallowest chord")
        expect(doc["vertex_count"] == m and doc["degree"] == d, "base graph")
        s, t, eps = doc["s"], doc["t"], doc["epsilon"]
        expect(s >= 1 and t >= 1 and 0 < eps <= eps_start, "s, t, eps")
        err = abs(s * math.log(m) - t * math.log(m / k_star))
        expect(abs(err - doc["approx_error"]) <= 1e-9 and err <= eps / 2, "approximation error")
        log_ratio = math.log(m / k_star)
        lhs = (1 + eps) * (s * y + eps) + eps * s * d * (1 + (math.log(m) + eps / 2) / log_ratio)
        expect(close(doc["lhs"], lhs) and doc["rhs"] == s * d, "lhs and rhs")
        expect(doc["lhs"] < doc["rhs"], "lhs < rhs")

    return check


def small_truth(factors, k: int) -> int | None:
    """Exact minimum boundary for k <= 3 on a product, from degree counting:
    the minimum degree at k = 1; on a d-regular product, k*d minus twice the
    most edges k vertices can span (an edge; a triangle, else a path when
    d >= 2).  None where this does not apply."""
    d = sum(min(f.degrees()) for f in factors)
    if k == 1:
        return d
    if k > 3 or not all(len(set(f.degrees())) == 1 for f in factors):
        return None
    if k == 2:
        return 2 * d - 2 * min(d, 1)
    if any(f.has_triangle() for f in factors):
        return 3 * d - 6
    return 3 * d - 2 * min(d, 2)


def check_verify(factors, ks) -> Callable[[str], None]:
    """truth >= bound at every size; truths from degree counting where they
    apply; on all-size runs, the complement symmetry and a prefix upper bound.
    The product is built on the first check, so set-up time stays the CLI's."""

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        entries = doc["entries"]
        truth = {e["k"]: e["true_min_boundary"] for e in entries}
        whole = product(factors) if ks is None else None
        expect(doc["ok"] is True, "verification reports ok")
        expect(list(truth) == (list(ks) if whole is None else list(range(1, whole.n + 1))), "sizes")
        for e in entries:
            bound, value = e["bound_total"], e["true_min_boundary"]
            expect(value >= bound - REL_TOL * max(1.0, value), f"truth < bound at k={e['k']}")
            expect(close(e["gap"], value - bound), "gap")
            exact = small_truth(factors, e["k"])
            expect(exact is None or exact == value, f"truth at k={e['k']}")
        if whole is not None:
            m = whole.n
            expect(truth[m] == 0, "truth(m) = 0")
            expect(all(truth[k] == truth[m - k] for k in range(1, m)), "truth(k) = truth(m-k)")
            expect(all(truth[k] <= whole.boundary((1 << k) - 1) for k in truth), "truth above a prefix")

    return check


# ---------------------------------------------------------------- workloads


def _profile_search(rng: random.Random, files: Files) -> Workload:
    """About a hundred exact profiles.  The counts of random graphs per vertex
    count put the median op inside the 14-vertex class and the 90th percentile
    inside the 17-vertex class; five large graphs cover both search regimes."""
    ops, graphs = [], []

    def add_file(g: Graph):
        ops.append(Op(("profile", files.write(g), "--output", "json"), check_profile(g),
                      (Search(g.n, g.transitive),)))

    for n, count in [(10, 10), (11, 10), (12, 10), (13, 12), (14, 14), (15, 14), (16, 16),
                     (17, 8), (18, 2)]:
        for j in range(count):
            g = random_graph(rng, n, 0.25 if j % 2 else 0.6)  # sparse and dense
            graphs.append(g)
            add_file(g)
    dense = random_graph(rng, 20, 0.7)
    graphs.append(dense)
    add_file(dense)
    add_file(product([petersen(), family("complete", 2)]))
    for spec, factors in [
        ("path:4 x path:5", [family("path", 4), family("path", 5)]),
        ("cycle:5^2", [family("cycle", 5)] * 2),
        ("path:5 x path:6", [family("path", 5), family("path", 6)]),
    ]:
        g = product(factors)
        ops.append(Op(("profile", spec, "--output", "json"), check_profile(g),
                      (Search(g.n, g.transitive),)))
    rng.shuffle(ops)
    warm = random_graph(rng, 8, 0.4)
    warmup = Op(("profile", files.write(warm), "--output", "json"), check_profile(warm))
    return Workload(ops, warmup, [], graphs)


FAMILY_SIZES = {"complete": (2, 6), "path": (3, 8), "cycle": (3, 8)}
# their cost grows with m, so the bases are fixed and the seed picks the size
LONG_PRODUCTS = [("cycle", 8), ("path", 5), ("complete", 5), ("cycle", 5),
                 ("path", 8), ("complete", 3), ("cycle", 6), ("path", 3)]


def _family_factors(rng: random.Random):
    """(spec, factor graphs) for a product of one to three family terms."""
    parts, factors = [], []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(sorted(FAMILY_SIZES))
        m = rng.randint(*FAMILY_SIZES[name])
        p = rng.randint(1, 3)
        parts.append(f"{name}:{m}" + (f"^{p}" if p > 1 else ""))
        factors += [family(name, m)] * p
    return " x ".join(parts), factors


def _bound_op(spec: str, factors, ks, use_size: bool, log_text: str | None, searches=()) -> Op:
    size = math.prod(ks)
    log_size = sum(math.log(k) for k in ks)
    if use_size:
        argv = ("bound", spec, "--size", str(size), "--output", "json")
        return Op(argv, check_bound(factors, ks, size, log_size), searches)
    argv = ("bound", spec, "--log-size", log_text or repr(log_size), "--output", "json")
    return Op(argv, check_bound(factors, ks, None, log_size), searches)


def _query_mix(rng: random.Random, files: Files) -> Workload:
    """Bound and certificate queries: half the bounds use family atoms only
    (no search), half carry fresh random factors raised to powers inside the
    query, so only a cache within one query could help."""
    ops, graphs = [], []
    for j in range(50):
        if j < 8:  # 200 factors of one family, at a homogeneous size k^200
            name, m = LONG_PRODUCTS[j]
            # k < m: at k = m the CLI can refuse 200*log(m) as outside
            # [0, log|V|] by a rounding error above its 1e-12 tolerance
            k = rng.randint(1, m - 1)
            spec, factors = f"{name}:{m}^200", [family(name, m)] * 200
            ks = [k] * 200
            ops.append(_bound_op(spec, factors, ks, False, f"200*log({k})"))
            continue
        spec, factors = _family_factors(rng)
        ks = [rng.randint(1, f.n) for f in factors]
        if j < 29:
            ops.append(_bound_op(spec, factors, ks, True, None))
        else:
            text = f"log({math.prod(ks)})" if j % 2 else None
            ops.append(_bound_op(spec, factors, ks, False, text))
    # file factors: a fixed schedule of (vertices, power) shapes, fresh edges
    # per query.  The fourteen 13-vertex fourth powers are the costliest
    # bounds, so the 90th percentile falls inside that class.
    for j in range(50):
        if j < 14:
            shape = [(13, 4)]
        elif j < 34:
            shape = [(8 + j % 5, 1 + j // 5 % 4)]
        else:
            shape = [(8 + j % 5, [1, 2, 1, 2, 3][j % 5]), (8 + (3 * j + 2) % 5, [1, 1, 2, 2, 1][j % 5])]
        parts, factors = [], []
        for n, p in shape:
            g = random_graph(rng, n, rng.choice((0.3, 0.5)))
            graphs.append(g)
            parts.append(files.write(g) + (f"^{p}" if p > 1 else ""))
            factors += [g] * p
        ks = [rng.randint(1, f.n) for f in factors]
        ops.append(_bound_op(" x ".join(parts), factors, ks, j % 2 == 0, None,
                             factor_searches(factors)))
    for j in range(8):
        if j < 4:
            name = ["path", "cycle", "complete", "cycle"][j]
            m = rng.randint(3, 12)
            g = family(name, m)
            known = (lambda k, name=name, m=m: family_ratio(name, m, k))
            ops.append(Op(("minorant", f"{name}:{m}", "--output", "json"), check_minorant(g, known)))
        else:
            g = random_graph(rng, 8 + 2 * (j - 4), 0.4)
            graphs.append(g)
            ops.append(Op(("minorant", files.write(g), "--output", "json"),
                          check_minorant(g, None), (Search(g.n, False),)))
    for j in range(6):
        name = ("path", "cycle")[j % 2]
        m, n = rng.randint(3, 10), rng.randint(2, 6)
        ops.append(Op(("compare", f"{name}:{m}^{n}", "--output", "json"), check_compare(n, m, 100)))
    for j in range(6):
        name = ("path", "cycle")[j % 2]
        m, power = rng.randint(5, 12), rng.randint(2, 5)
        ops.append(Op(("certify-q71", f"{name}:{m}", "--power", str(power), "--output", "json"),
                      check_q71(name, m, power)))
    # --eps-start on the decades 1e-1..1e-6: the scan's cost steps with eps by
    # up to 4x inside a decade, so a fixed ladder keeps timings comparable
    for base in ("cycle:5", "cycle:6", "cycle:7", "cycle:8", "complete:4", "complete:7"):
        name, m = base.split(":")
        for e in range(1, 7) if name == "cycle" else (rng.randint(1, 6),):
            eps = f"1e-{e}"
            ops.append(Op(("certify-q72", base, "--eps-start", eps, "--output", "json"),
                          check_q72(name, int(m), float(eps))))
    rng.shuffle(ops)
    # below 1e-6 the scan gives up after several seconds although a
    # certificate exists: a known defect, measured by the traced run
    eps = f"{rng.uniform(1.0, 9.9):.2f}e-7"
    probe = Op(("certify-q72", "cycle:5", "--eps-start", eps, "--output", "json"),
               check_q72("cycle", 5, float(eps)))
    warm_factors = [family("path", 3)] * 2
    warmup = _bound_op("path:3^2", warm_factors, [2, 2], True, None)
    return Workload(ops, warmup, [probe], graphs)


def _verify_products(rng: random.Random, files: Files) -> Workload:
    """Exhaustive checks: all sizes on products of at most 20 vertices, and a
    few explicit sizes on products materialized at up to 2^15 vertices."""
    ops, graphs = [], []

    def verify(spec: str, factors, ks=None) -> Op:
        argv = ("verify", spec) + (("--sizes", ",".join(map(str, ks))) if ks else ()) + (
            "--output", "json")
        vertices = math.prod(f.n for f in factors)
        transitive = all(f.transitive for f in factors)
        searches = factor_searches(factors) + tuple(
            Search(vertices, transitive) for _ in (ks or range(vertices))
        )
        return Op(argv, check_verify(factors, ks), searches)

    ops += [
        verify("complete:2^15", [family("complete", 2)] * 15, [1]),
        verify("path:13^4", [family("path", 13)] * 4, [1]),
        verify("cycle:8^3", [family("cycle", 8)] * 3, [1, 2]),
        verify("complete:2^8", [family("complete", 2)] * 8, [2, 3]),
        verify("path:4 x path:5", [family("path", 4), family("path", 5)]),
        verify("cycle:4^2", [family("cycle", 4)] * 2),
        verify("complete:2^4", [family("complete", 2)] * 4),
        verify("path:3^2 x complete:2", [family("path", 3)] * 2 + [family("complete", 2)]),
    ]
    # pairs of random factors; the counts per product size put the median op
    # inside the 15-vertex class and the 90th percentile inside the 16-vertex
    # class (with cycle:4^2 and complete:2^4)
    shapes = {12: [(3, 4), (2, 6)], 14: [(2, 7)], 15: [(3, 5)], 16: [(4, 4), (2, 8)]}
    for total, count in [(12, 8), (14, 8), (15, 72), (16, 8)]:
        for j in range(count):
            a, b = shapes[total][j % len(shapes[total])]
            if j % 4 >= 2:
                a, b = b, a
            pair = [random_graph(rng, a, 0.5), random_graph(rng, b, 0.5)]
            graphs += pair
            ops.append(verify(f"{files.write(pair[0])} x {files.write(pair[1])}", pair))
    rng.shuffle(ops)
    warmup = verify("cycle:4 x path:2", [family("cycle", 4), family("path", 2)])
    return Workload(ops, warmup, [], graphs)


GENERATORS = {
    "profile_search": _profile_search,
    "query_mix": _query_mix,
    "verify_products": _verify_products,
}
WORKLOADS = tuple(GENERATORS)


def build(name: str, seed: int) -> Workload:
    """The workload's ops for this seed; writes its edge lists into the
    current directory."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"), Files())
