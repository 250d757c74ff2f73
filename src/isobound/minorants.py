"""Greatest convex minorants of isoperimetric profiles.

psi is the largest convex function on [0, log m] lying below every point
(log k, i_k).  It is piecewise linear; we store its breakpoints, which are a
subset of the profile points and always include k = 1 and k = m.  Natural
logarithms throughout.

Conventions at the boundary: the left derivative at 0 is -infinity and the
right derivative at log m is 0.  Both are returned as sentinels for interval
tests only; nothing here ever does arithmetic with them.

resolve_minorants builds the minorant of a graph with no closed form hull-first,
without its full profile.  b(1) is the least degree d and b(m) = 0, so these
points take no search.  Then for each k from 2 to m/2 it runs one decision
search for the pair {k, m - k} (b(k) = b(m - k)), its incumbent fixed at
T = ceil(k H(log k) (1 + DECISION_TOL)), with H the lower hull of the exact
points found so far.  If no k-set has boundary below T, both points lie on or
above H; otherwise the search has found the exact b(k), a new point.  The
point at m - 1, where b = d, needs neither: for m >= 3 the chord from (0, d)
to (log m, 0) is d log(m / (m - 1)) / log m <= d / (m - 1) at log(m - 1), and
every H lies on or below that chord.  The result is the hull of the exact
points.  Four facts make it the hull of the full profile:

- T rounds up.  H is computed in floats, within a few ulps and COLLINEAR_TOL
  of the exact hull, so the margin keeps T at or above j H(log j) exactly.  A
  T too high only runs a search that finds a point not needed, but exact; a T
  too low would miss a point below the hull.
- T serves m - k too.  H is convex and H(log m) = 0, so the chord from
  log k to log m gives H(log(m - k)) <= H(log k) log(m / (m - k)) / log(m / k),
  and with t = k / m <= 1/2, (1 - t) log(1 / (1 - t)) <= t log(1 / t).  So
  (m - k) H(log(m - k)) <= k H(log k).  For k < m/2, where t <= 1/2 - 1/(2m),
  the relative gap 1 - (1 - t) log(1 - t) / (t log t) falls with t and is at
  least 0.78 / m (0.885 / m as m grows: the slope of t log(1 / t) -
  (1 - t) log(1 / (1 - t)) at 1/2 is log 4 - 2).  That is 1.2e-4 at the 6,325
  vertices whose adjacency masks alone fill SEARCH_BUDGET, far above the float
  error, so the rounded bars keep the order.  At k = m/2 the two agree.
- H only falls.  Adding points to a set can only lower its lower hull, so a
  point shown on or above an earlier H lies on or above every later one, the
  last included.
- So every point lies on or above the hull of the exact points, which is then
  the lower hull of all the points.  The chain merges collinear points, so a
  point on it is never a breakpoint, and the breakpoints (k, log k, b(k)/k)
  are those, in the same floats, of build_minorant on the full profile.

One factor's searches share one budget and row table, as a profile's sizes do.
On a random graph the hull has two or three points, so most decisions fail at
once: a random G(40, 0.3), whose profile is over the budget, resolves in
0.63 M units.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph
from .profiles import IsoProfile, _per_distinct, _search, resolve_profile

LOG_TOL = 1e-12
COLLINEAR_TOL = 1e-12
DECISION_TOL = 1e-9  # relative margin of a decision threshold over the float hull

LEFT_INFINITE = float("-inf")  # sentinel: subdifferential is unbounded below at x = 0


def log_domain(x: float, end: float) -> float:
    """x clamped to [0, end], refused when it lies further outside.  The
    tolerance is relative because a sum of n logs rounds by about n ulps."""
    tol = LOG_TOL * max(1.0, end)
    if not -tol <= x <= end + tol:  # NaN fails too
        raise ValueError(f"log size {x} outside [0, {end}]")
    return min(max(x, 0.0), end)


@dataclass(frozen=True)
class Breakpoint:
    k: int
    x: float  # log k
    y: float  # i_k at a hull vertex


@dataclass(frozen=True)
class ConvexMinorant:
    domain_end: float  # log m
    breakpoints: tuple[Breakpoint, ...]

    @cached_property
    def xs(self) -> tuple[float, ...]:
        return tuple(b.x for b in self.breakpoints)

    @cached_property
    def _slopes(self) -> tuple[float, ...]:
        bps = self.breakpoints
        return tuple(
            (bps[j + 1].y - bps[j].y) / (bps[j + 1].x - bps[j].x) for j in range(len(bps) - 1)
        )

    def evaluate(self, x: float) -> float:
        x = log_domain(x, self.domain_end)
        bps = self.breakpoints
        if len(bps) == 1:
            return bps[0].y
        j = bisect_right(self.xs, x) - 1
        if j >= len(bps) - 1:
            j = len(bps) - 2
        a, b = bps[j], bps[j + 1]
        t = (x - a.x) / (b.x - a.x)
        return a.y + t * (b.y - a.y)

    def slopes(self) -> tuple[float, ...]:
        return self._slopes

    def segments(self) -> tuple[tuple[float, float], ...]:
        """(slope, width) per linear piece, left to right."""
        bps = self.breakpoints
        return tuple(zip(self.slopes(), (b.x - a.x for a, b in zip(bps, bps[1:]))))

    def one_sided_derivatives(self, x: float) -> tuple[float, float]:
        """(left, right) derivative; -inf sentinel at 0, right derivative 0 at
        the domain end (constant-zero continuation convention)."""
        x = log_domain(x, self.domain_end)
        slopes = self._slopes
        xs = self.xs
        j = bisect_right(xs, x) - 1
        # knots lie at log k for distinct k, so at most one is within the
        # tolerance, and it is a neighbour of x
        tol = LOG_TOL * max(1.0, self.domain_end)
        for i in (j, j + 1):
            if i < len(xs) and abs(x - xs[i]) <= tol:
                left = LEFT_INFINITE if i == 0 else slopes[i - 1]
                right = 0.0 if i == len(xs) - 1 else slopes[i]
                return left, right
        return slopes[j], slopes[j]


def build_minorant(profile: IsoProfile) -> ConvexMinorant:
    """The lower hull over the points (log k, i_k), k = 1..m."""
    return _hull(profile.graph_size, {e.k: e.min_boundary for e in profile.entries})


def _hull(m: int, boundaries: dict[int, int]) -> ConvexMinorant:
    """Monotone-chain lower hull over the points (log k, b(k)/k), for the sizes
    k in `boundaries`, taken ascending; 1 and m among them.

    Collinear interior points are merged: a candidate is popped when the cross
    product of the last two hull edges is below COLLINEAR_TOL scaled by the
    magnitude of its two terms.
    """
    points = [(k, math.log(k), boundaries[k] / k) for k in sorted(boundaries)]
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
        domain_end=math.log(m),
        breakpoints=tuple(Breakpoint(k, x, y) for k, x, y in hull),
    )


def _threshold(psi: ConvexMinorant, j: int) -> int:
    """The least integer above j psi(log j) by the relative margin DECISION_TOL:
    a j-set with a smaller boundary puts (log j, i_j) below the hull."""
    return math.ceil(j * psi.evaluate(math.log(j)) * (1 + DECISION_TOL))


def _hull_first(g: Graph) -> ConvexMinorant:
    """build_minorant(profile_bruteforce(g)) from the few sizes that decide it
    (module docstring), on one budget."""
    m = g.vertex_count
    exact = {1: min(g.degrees), m: 0}  # size: least boundary
    psi = _hull(m, exact)
    spent, rows = 0, []  # sizes ascending: m // 2 is searched last
    for j in range(2, m // 2 + 1):
        bar = _threshold(psi, j)  # also m - j's bar (module docstring)
        value, mask, spent = _search(g, j, bar, None, spent, rows, j < m // 2, j)
        if mask:  # a j-set below the bar: the search found the exact b(j)
            exact[j] = exact[m - j] = value
            psi = _hull(m, exact)
    return psi


def resolve_minorants(graphs, exhaustive: bool = False) -> tuple[ConvexMinorant, ...]:
    """One minorant per graph, equal graphs sharing one object: the hull of
    resolve_profile(g, exhaustive), but a non-family graph's is built
    hull-first (module docstring) unless exhaustive.  exhaustive: every
    graph's full profile, searched uncompressed, which the closed forms and
    the hull-first minorants can be checked against."""
    def solve(g: Graph) -> ConvexMinorant:
        if g.family is None and not exhaustive:
            return _hull_first(g)
        return build_minorant(resolve_profile(g, exhaustive))

    return _per_distinct(graphs, solve)


@dataclass(frozen=True)
class RegularSummary:
    """Shallowest chord data for a connected regular graph: among the lines
    through (log k, i_k) and (log m, 0), the one with the least negative slope.
    y_intercept is that line's value at x = 0."""

    degree: int
    k_star: int
    y_intercept: float
    chord_slope: float


def regular_summary(g: Graph, psi: ConvexMinorant) -> RegularSummary:
    """Read from the hull's last segment.  Every point (log k, i_k) lies on or
    above it and it ends at (log m, 0), so it is the shallowest chord; the
    hull drops collinear points, so its left breakpoint is the least k on it."""
    m = g.vertex_count
    if m < 2:
        raise ValueError("regular summary needs at least 2 vertices")
    if not g.is_regular():
        raise ValueError("graph is not regular")
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if psi.breakpoints[-1].k != m:
        raise ValueError("minorant does not match the graph")
    log_m = psi.domain_end
    b = psi.breakpoints[-2]
    y = b.y * log_m / (log_m - b.x)
    return RegularSummary(g.degrees[0], b.k, y, -b.y / (log_m - b.x))
