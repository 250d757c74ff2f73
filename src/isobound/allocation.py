"""Lower bounds for Cartesian products via separable convex allocation.

For a product G = G_1 x ... x G_n and a set A, every factor minorant psi_i is
convex and decreasing, and

    e(A, A^c) >= |A| * min { sum_i psi_i(h_i) : 0 <= h_i <= log m_i,
                             sum_i h_i = log |A| }.

The minimum of a separable convex objective under a budget constraint is
attained by spending the budget on linear pieces in order of ascending slope
(steepest descent first).  Ties break by factor index, then segment index, so
the reported allocation is deterministic.

A sharpness certificate picks one breakpoint per factor whose subdifferential
contains a common slope r; the product of the corresponding witness sets then
meets the bound with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import VertexSet
from .minorants import ConvexMinorant
from .profiles import IsoProfile

BUDGET_TOL = 1e-12
CERT_REL_TOL = 1e-9


@dataclass(frozen=True)
class AllocationResult:
    target_log_size: float
    allocation: tuple[float, ...]  # h_i per factor, sums to the target
    bound_per_vertex: float
    bound_total: float | None = None  # only when an exact size was supplied

    def to_json_dict(self) -> dict:
        return {
            "target_log_size": self.target_log_size,
            "allocation": list(self.allocation),
            "bound_per_vertex": self.bound_per_vertex,
            "bound_total": self.bound_total,
        }


def _budget(log_size: float, total: float) -> float:
    """log_size clamped to [0, total].  The tolerance is relative because a
    sum of n logs rounds by about n ulps, either way: within it of total the
    set is the whole product, so the budget snaps to total.  Snapping up is
    sound, since every minorant decreases."""
    tol = BUDGET_TOL * max(1.0, total)
    if log_size < -tol or log_size > total + tol:
        raise ValueError(f"log size {log_size} outside [0, {total}]")
    return total if log_size >= total - tol else max(log_size, 0.0)


def theorem_bound(
    minorants,
    log_size: float | None = None,
    *,
    size: int | None = None,
) -> AllocationResult:
    """Greedy optimum of the allocation problem at the given log size.

    Pass either log_size or size (an exact integer |A|); with size the result
    also carries bound_total = size * bound_per_vertex.
    """
    minorants = tuple(minorants)
    if not minorants:
        raise ValueError("need at least one factor minorant")
    if (log_size is None) == (size is None):
        raise ValueError("pass exactly one of log_size or size")
    if size is not None:
        if size < 1:
            raise ValueError(f"size must be a positive integer, got {size}")
        log_size = math.log(size)
    total = sum(psi.domain_end for psi in minorants)
    budget = _budget(log_size, total)
    if size is not None:
        # every minorant ends at its breakpoint k = m: the exact vertex count
        vertices = math.prod(psi.breakpoints[-1].k for psi in minorants)
        if size > vertices:
            raise ValueError(f"size {size} exceeds the product's {vertices} vertices")
        if size == vertices:
            budget = total
    if budget == total:
        # The whole product has no boundary.  Decided here, not by the greedy
        # loop, whose running budget drifts by rounding and would leave a
        # positive value that size * value turns into a huge unsound total.
        h = tuple(psi.domain_end for psi in minorants)
        return AllocationResult(log_size, h, 0.0, None if size is None else 0.0)

    pieces = []
    for i, psi in enumerate(minorants):
        for j, (slope, width) in enumerate(psi.segments()):
            pieces.append((slope, i, j, width))
    pieces.sort(key=lambda p: (p[0], p[1], p[2]))

    h = [0.0] * len(minorants)
    remaining = budget
    for slope, i, _, width in pieces:
        if remaining <= 0.0:
            break
        take = min(width, remaining)
        h[i] += take
        remaining -= take

    value = 0.0
    for psi, hi in zip(minorants, h):
        value += psi.evaluate(min(hi, psi.domain_end))
    value = max(value, 0.0)
    return AllocationResult(
        target_log_size=log_size,
        allocation=tuple(h),
        bound_per_vertex=value,
        bound_total=None if size is None else size * value,
    )


def homogeneous_bound(psi: ConvexMinorant, n: int, log_size: float) -> float:
    """n identical factors: the optimal allocation is even, so the bound is
    n * psi(log_size / n)."""
    if n < 1:
        raise ValueError(f"need n >= 1 factors, got {n}")
    budget = _budget(log_size, n * psi.domain_end)
    # the whole product exactly: (n * d) / n may round below d
    return 0.0 if budget == n * psi.domain_end else n * psi.evaluate(budget / n)


@dataclass(frozen=True)
class FactorAssignment:
    factor: int
    k: int
    isoper_ratio: float  # i_k of that factor
    witness: VertexSet


@dataclass(frozen=True)
class SharpnessCertificate:
    slope: float  # the common subdifferential slope r
    assignments: tuple[FactorAssignment, ...]
    log_size: float  # sum of log k_i
    construction_per_vertex: float  # sum of i_{k_i}
    bound_per_vertex: float  # greedy bound at the same log size

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "assignments": [
                {
                    "factor": a.factor,
                    "k": a.k,
                    "isoper_ratio": a.isoper_ratio,
                    "witness": a.witness.to_hex(),
                }
                for a in self.assignments
            ],
            "log_size": self.log_size,
            "construction_per_vertex": self.construction_per_vertex,
            "bound_per_vertex": self.bound_per_vertex,
        }


def sharpness_certificate(profiles, minorants, slope: float) -> SharpnessCertificate:
    """Tight product set for a common slope r <= 0.

    Per factor, pick the smallest breakpoint k whose subdifferential
    [left derivative, right derivative] contains r; the product of the factor
    witnesses at those sizes has edge boundary |A| * sum_i i_{k_i}, equal to
    the allocation bound at log|A| = sum_i log k_i.
    """
    profiles = tuple(profiles)
    minorants = tuple(minorants)
    if len(profiles) != len(minorants):
        raise ValueError("one profile per minorant required")
    if not profiles:
        raise ValueError("need at least one factor")
    if slope > 0.0:
        raise ValueError(f"slope must be <= 0, got {slope}")

    tol = 1e-12 * max(1.0, abs(slope))
    assignments = []
    log_size = 0.0
    construction = 0.0
    for idx, (profile, psi) in enumerate(zip(profiles, minorants)):
        chosen = None
        for bp in psi.breakpoints:
            left, right = psi.one_sided_derivatives(bp.x)
            if left <= slope + tol and slope <= right + tol:
                chosen = bp
                break  # breakpoints are in ascending k: first hit is smallest
        if chosen is None:
            raise ValueError(f"no breakpoint of factor {idx} admits slope {slope}")
        entry = profile.entry(chosen.k)
        assignments.append(
            FactorAssignment(idx, chosen.k, float(entry.ratio), entry.witness)
        )
        log_size += chosen.x
        construction += float(entry.ratio)

    bound = theorem_bound(minorants, log_size).bound_per_vertex
    if abs(construction - bound) > CERT_REL_TOL * max(1.0, abs(construction)):
        raise ValueError(
            f"certificate equality failed: construction {construction} vs bound {bound}"
        )
    return SharpnessCertificate(
        slope=slope,
        assignments=tuple(assignments),
        log_size=log_size,
        construction_per_vertex=construction,
        bound_per_vertex=bound,
    )
