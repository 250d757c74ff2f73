"""Greatest convex minorants of isoperimetric profiles.

psi is the largest convex function on [0, log m] lying below every point
(log k, i_k).  It is piecewise linear; we store its breakpoints, which are a
subset of the profile points and always include k = 1 and k = m.  Natural
logarithms throughout.

Conventions at the boundary: the left derivative at 0 is -infinity and the
right derivative at log m is 0.  Both are returned as sentinels for interval
tests only; nothing here ever does arithmetic with them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .graphs import Graph
from .profiles import IsoProfile

ENDPOINT_TOL = 1e-12
COLLINEAR_TOL = 1e-12

LEFT_INFINITE = float("-inf")  # sentinel: subdifferential is unbounded below at x = 0


@dataclass(frozen=True)
class Breakpoint:
    k: int
    x: float  # log k
    y: float  # i_k at a hull vertex


@dataclass(frozen=True)
class ConvexMinorant:
    domain_end: float  # log m
    breakpoints: tuple[Breakpoint, ...]

    def _clamp(self, x: float) -> float:
        if x < -ENDPOINT_TOL or x > self.domain_end + ENDPOINT_TOL:
            raise ValueError(f"x = {x} outside [0, {self.domain_end}]")
        return min(max(x, 0.0), self.domain_end)

    def evaluate(self, x: float) -> float:
        x = self._clamp(x)
        bps = self.breakpoints
        if len(bps) == 1:
            return bps[0].y
        xs = [b.x for b in bps]
        j = bisect_right(xs, x) - 1
        if j >= len(bps) - 1:
            j = len(bps) - 2
        a, b = bps[j], bps[j + 1]
        t = (x - a.x) / (b.x - a.x)
        return a.y + t * (b.y - a.y)

    def slopes(self) -> tuple[float, ...]:
        bps = self.breakpoints
        return tuple(
            (bps[j + 1].y - bps[j].y) / (bps[j + 1].x - bps[j].x) for j in range(len(bps) - 1)
        )

    def segments(self) -> tuple[tuple[float, float], ...]:
        """(slope, width) per linear piece, left to right."""
        bps = self.breakpoints
        return tuple(zip(self.slopes(), (b.x - a.x for a, b in zip(bps, bps[1:]))))

    def one_sided_derivatives(self, x: float) -> tuple[float, float]:
        """(left, right) derivative; -inf sentinel at 0, right derivative 0 at
        the domain end (constant-zero continuation convention)."""
        x = self._clamp(x)
        slopes = self.slopes()
        bps = self.breakpoints
        for j, b in enumerate(bps):
            if abs(x - b.x) <= ENDPOINT_TOL:
                left = LEFT_INFINITE if j == 0 else slopes[j - 1]
                right = 0.0 if j == len(bps) - 1 else slopes[j]
                return left, right
        xs = [b.x for b in bps]
        j = bisect_right(xs, x) - 1
        return slopes[j], slopes[j]

    def last_segment_start_k(self) -> int:
        """Profile index where the final hull segment begins (m if psi is a
        single point)."""
        if len(self.breakpoints) == 1:
            return self.breakpoints[0].k
        return self.breakpoints[-2].k

    def to_json_dict(self) -> dict:
        return {
            "domain_end": self.domain_end,
            "breakpoints": [{"k": b.k, "x": b.x, "y": b.y} for b in self.breakpoints],
        }


def build_minorant(profile: IsoProfile) -> ConvexMinorant:
    """Monotone-chain lower hull over the points (log k, i_k), k = 1..m.

    Collinear interior points are merged: a candidate is popped when the cross
    product of the last two hull edges is below COLLINEAR_TOL scaled by the
    magnitude of its two terms.
    """
    points = [(e.k, math.log(e.k), float(e.ratio)) for e in profile.entries]
    hull: list[tuple[int, float, float]] = []
    for p in points:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            t1 = (b[1] - a[1]) * (p[2] - a[2])
            t2 = (b[2] - a[2]) * (p[1] - a[1])
            cross = t1 - t2
            if cross <= COLLINEAR_TOL * max(1.0, abs(t1), abs(t2)):
                hull.pop()  # right turn or collinear: b is not a hull vertex
            else:
                break
        hull.append(p)
    return ConvexMinorant(
        domain_end=math.log(profile.graph_size),
        breakpoints=tuple(Breakpoint(k, x, y) for k, x, y in hull),
    )


def build_minorants(profiles) -> tuple[ConvexMinorant, ...]:
    """build_minorant per profile; repeats of one profile object share one
    minorant.  resolve_profiles guarantees such repeats for equal factors."""
    profiles = tuple(profiles)
    built: dict[int, ConvexMinorant] = {}
    for p in profiles:
        if id(p) not in built:
            built[id(p)] = build_minorant(p)
    return tuple(built[id(p)] for p in profiles)


@dataclass(frozen=True)
class RegularSummary:
    """Shallowest chord data for a connected regular graph: among the lines
    through (log k, i_k) and (log m, 0), the one with the least negative slope.
    y_intercept is that line's value at x = 0."""

    degree: int
    k_star: int
    y_intercept: float
    chord_slope: float


def regular_summary(g: Graph, profile: IsoProfile) -> RegularSummary:
    m = g.vertex_count
    if m < 2:
        raise ValueError("regular summary needs at least 2 vertices")
    if not g.is_regular():
        raise ValueError("graph is not regular")
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if profile.graph_size != m:
        raise ValueError("profile does not match the graph")
    log_m = math.log(m)
    best_k = None
    best_slope = -math.inf
    for k in range(1, m):
        slope = -float(profile.ratio(k)) / (log_m - math.log(k))
        if slope > best_slope:  # ties keep the smallest k
            best_slope = slope
            best_k = k
    y = float(profile.ratio(best_k)) * log_m / (log_m - math.log(best_k))
    return RegularSummary(g.degrees[0], best_k, y, best_slope)
