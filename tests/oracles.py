"""Independent brute-force oracles for the tests.

Nothing here shares logic with the library's algorithms: the allocation
oracles are exhaustive searches (a uniform grid sweep and a knot sweep), the
boundary oracle recounts edges from adjacency lists and a plain set, the
vertex-set builders place members and product coordinates bit by bit, the
minimum-boundary oracle walks every k-subset with itertools.combinations,
the fibre-floor oracle walks every partition in its box, the Dirichlet-pair
oracle scans t = 1, 2, ... one by one, the derivative oracle scans the knots
of a minorant in order, and the shallowest-chord oracle scans every size k of
a profile.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from isobound import VertexSet

GRID_STEP = 1e-4


def boundary_by_recount(g, members) -> int:
    inside = set(members)
    if max(inside, default=0) >= g.vertex_count:
        raise ValueError("vertex set exceeds the graph's vertex range")
    return sum(1 for v in inside for u in g.adjacency[v] if u not in inside)


def vertex_set(members) -> VertexSet:
    """The VertexSet holding exactly these vertices."""
    mask = 0
    for v in members:
        if v < 0:
            raise ValueError(f"negative vertex {v}")
        mask |= 1 << v
    return VertexSet(mask, mask.bit_count())


def product_vertex_set(spec, factor_sets) -> VertexSet:
    """A_1 x ... x A_n as a vertex set of the materialized product, whose
    first factor is the most significant digit."""
    factor_sets = tuple(factor_sets)
    if len(factor_sets) != len(spec.factors):
        raise ValueError("one vertex set per factor required")
    members = []
    for coords in itertools.product(*(s.members() for s in factor_sets)):
        index = 0
        for f, c in zip(spec.factors, coords):
            index = index * f.vertex_count + c
        members.append(index)
    return vertex_set(members)


def min_boundary_by_enumeration(g, k: int) -> tuple[int, tuple[int, ...]]:
    """Minimum boundary over all k-subsets and the first subset attaining it.
    combinations yields sorted tuples in lexicographic order, so keeping the
    first strict minimum gives the lexicographically smallest witness."""
    best, witness = math.inf, ()
    for members in itertools.combinations(range(g.vertex_count), k):
        b = boundary_by_recount(g, members)
        if b < best:
            best, witness = b, members
    return best, witness


def fibre_floor_by_partitions(b_g, b_h, k: int) -> int:
    """The least sum_i b_h[lam_i] + sum_i (lam_i - lam_{i+1}) b_g[i] over every
    non-increasing lam_1, ..., lam_a in 0..b with sum k (lam_{a+1} = 0), each
    listed by itertools.combinations_with_replacement."""
    a, b = len(b_g) - 1, len(b_h) - 1
    best = None
    for parts in itertools.combinations_with_replacement(range(b, -1, -1), a):
        if sum(parts) != k:
            continue
        lam = (*parts, 0)
        value = sum(b_h[lam[i]] + (lam[i] - lam[i + 1]) * b_g[i + 1] for i in range(a))
        best = value if best is None else min(best, value)
    return best


def _tables(minorants, step):
    tables = []
    for psi in minorants:
        count = int(math.floor(psi.domain_end / step + 1e-9)) + 1
        xs = np.arange(count) * step
        bx = np.array([b.x for b in psi.breakpoints])
        by = np.array([b.y for b in psi.breakpoints])
        tables.append(np.interp(xs, bx, by))
    return tables


def grid_reach(minorants, step=GRID_STEP) -> int:
    """Largest budget index any on-grid allocation can sum to."""
    return sum(int(math.floor(psi.domain_end / step + 1e-9)) for psi in minorants)


def allocation_grid_min(minorants, budget_idx: int, step=GRID_STEP) -> float:
    """Exhaustive minimum of sum_i psi_i(h_i) over h_i on the uniform step
    grid of each factor's box, subject to sum h_i = budget_idx * step.
    Supports up to three factors."""
    tables = _tables(minorants, step)
    n = len(tables)
    if budget_idx < 0 or budget_idx > sum(len(t) - 1 for t in tables):
        return math.inf
    if n == 1:
        return float(tables[0][budget_idx])
    if n == 2:
        t0, t1 = tables
        lo = max(0, budget_idx - (len(t1) - 1))
        hi = min(len(t0) - 1, budget_idx)
        if lo > hi:
            return math.inf
        seg0 = t0[lo : hi + 1]
        seg1 = t1[budget_idx - hi : budget_idx - lo + 1][::-1]
        return float(np.min(seg0 + seg1))
    if n == 3:
        t0, t1, t2 = tables
        best = math.inf
        lo0 = max(0, budget_idx - (len(t1) - 1) - (len(t2) - 1))
        hi0 = min(len(t0) - 1, budget_idx)
        for i0 in range(lo0, hi0 + 1):
            rest = budget_idx - i0
            lo1 = max(0, rest - (len(t2) - 1))
            hi1 = min(len(t1) - 1, rest)
            if lo1 > hi1:
                continue
            seg1 = t1[lo1 : hi1 + 1]
            seg2 = t2[rest - hi1 : rest - lo1 + 1][::-1]
            v = float(np.min(seg1 + seg2)) + float(t0[i0])
            if v < best:
                best = v
        return best
    raise ValueError("grid oracle supports at most three factors")


def allocation_knot_min(minorants, budget: float, tol: float = 1e-9) -> float:
    """Exhaustive minimum over allocations where every coordinate but one sits
    at a knot (0, a breakpoint, or the domain end) and the remaining
    coordinate takes the exact budget residual.  Some optimal allocation of
    the piecewise-linear problem has this shape, so this search is exact."""
    minorants = list(minorants)
    n = len(minorants)
    knots = [sorted({0.0, psi.domain_end, *(b.x for b in psi.breakpoints)}) for psi in minorants]
    best = math.inf
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for combo in itertools.product(*(knots[i] for i in others)):
            rest = budget - sum(combo)
            if rest < -tol or rest > minorants[free].domain_end + tol:
                continue
            rest = min(max(rest, 0.0), minorants[free].domain_end)
            value = minorants[free].evaluate(rest)
            for i, h in zip(others, combo):
                value += minorants[i].evaluate(h)
            if value < best:
                best = value
    return best


def first_dirichlet_pair_by_scan(log_m: float, log_ratio: float, eps: float, t_max: int):
    """The least t <= t_max with s = round(t log_ratio / log_m) >= 1 and
    |s log_m - t log_ratio| <= eps/2, as (s, t, err); None if there is none."""
    for t in range(1, t_max + 1):
        s = round(t * log_ratio / log_m)
        if s < 1:
            continue
        err = abs(s * log_m - t * log_ratio)
        if err <= eps / 2.0:
            return s, t, err
    return None


def one_sided_derivatives_by_scan(psi, x: float, tol: float) -> tuple[float, float]:
    """(left, right) derivative of psi at x, clamped into the domain: the first
    breakpoint within tol of x, found by a linear scan, is a knot (-inf left of
    the first, 0 right of the last); elsewhere both are the segment's slope."""
    x = min(max(x, 0.0), psi.domain_end)
    bps = psi.breakpoints
    slopes = [(b.y - a.y) / (b.x - a.x) for a, b in zip(bps, bps[1:])]
    for j, b in enumerate(bps):
        if abs(x - b.x) <= tol:
            return (-math.inf if j == 0 else slopes[j - 1], 0.0 if j == len(bps) - 1 else slopes[j])
    j = max(i for i, b in enumerate(bps) if b.x <= x)
    return slopes[j], slopes[j]


def regular_summary_by_scan(g, profile) -> tuple[int, int, float, float]:
    """(degree, k*, y_intercept, chord_slope) of the shallowest chord through
    (log k, i_k) and (log m, 0), by a scan over k = 1, ..., m - 1.  A slope
    within 1e-12 relative of the best so far is a tie, and ties keep the
    smaller k."""
    log_m = math.log(g.vertex_count)
    best_k, best = None, -math.inf
    for k in range(1, g.vertex_count):
        slope = -float(profile.ratio(k)) / (log_m - math.log(k))
        if best_k is None or slope - best > 1e-12 * max(abs(slope), abs(best)):
            best_k, best = k, slope
    i_k = float(profile.ratio(best_k))
    return g.degrees[0], best_k, i_k * log_m / (log_m - math.log(best_k)), best
