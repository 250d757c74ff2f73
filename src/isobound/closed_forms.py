"""Closed-form per-vertex lower bounds for structured products.

Each function returns the boundary-per-vertex bound for a set of log-size x
(natural log), clamped at 0.  All are specializations or relaxations of the
allocation bound, so none may exceed it; the comparison functions against the
power-of-r benchmark live here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .minorants import RegularSummary, log_domain

_LOG_MAX = math.log(sys.float_info.max)  # the largest argument math.exp takes


def hamming_bound(n: int, m: int, log_size: float) -> float:
    """Products of n complete graphs K_m: (m - 1) * (n - log_size / log m)."""
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    x = log_domain(log_size, n * math.log(m))
    return max(0.0, (m - 1) * (n - x / math.log(m)))


def grid_bound(n: int, m: int, log_size: float) -> float:
    """Products of n paths P_m, m >= 3.  Two regimes split at |A| = (m/e)^n:
    n * e^{-x/n} while x <= n(log m - 1), then the line (e/m)(n log m - x)."""
    if n < 1 or m < 3:
        raise ValueError(f"need n >= 1 and m >= 3, got n={n}, m={m}")
    x = log_domain(log_size, n * math.log(m))
    if x <= n * (math.log(m) - 1.0):
        return n * math.exp(-x / n)
    return max(0.0, (math.e / m) * (n * math.log(m) - x))


def torus_bound(n: int, m: int, log_size: float) -> float:
    """Products of n cycles C_m: twice the path-product bound."""
    return 2.0 * grid_bound(n, m, log_size)


def bl_bound(n: int, m: int, log_size: float, torus: bool = False) -> float:
    """Power-of-r benchmark for P_m^n (or C_m^n with the factor 2):
    (1/m) * min_{1 <= r <= n} r * exp((n log m - x) / r).  A term whose exp
    overflows a double is skipped: the r = n term is at most n * m, so such a
    term is never the minimum."""
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    x = log_domain(log_size, n * math.log(m))
    rest = n * math.log(m) - x
    best = min(r * math.exp(rest / r) for r in range(1, n + 1) if rest / r <= _LOG_MAX)
    return (2.0 if torus else 1.0) * best / m


def regular_product_bound(degrees, sizes, log_size: float) -> float:
    """Heterogeneous regular factors, degree d_i on m_i >= d_i + 1 vertices:
    d - D * log_size / log(D + 1) with d = sum d_i and D = max d_i."""
    degrees = tuple(degrees)
    sizes = tuple(sizes)
    if len(degrees) != len(sizes) or not degrees:
        raise ValueError("need matching nonempty degree and size lists")
    for d_i, m_i in zip(degrees, sizes):
        if d_i < 1:
            raise ValueError(f"need degrees >= 1, got {d_i}")
        if m_i < d_i + 1:
            raise ValueError(f"a {d_i}-regular factor needs at least {d_i + 1} vertices")
    x = log_domain(log_size, sum(math.log(m_i) for m_i in sizes))
    d = sum(degrees)
    big = max(degrees)
    return max(0.0, d - big * x / math.log(big + 1))


def connected_regular_bound(sizes, log_size: float) -> float:
    """Connected factors on m_i >= 2 vertices: (e / M) * (log|V| - log_size)
    with M = max m_i."""
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one factor size")
    if min(sizes) < 2:
        raise ValueError("every factor needs at least 2 vertices")
    total = sum(math.log(m_i) for m_i in sizes)
    x = log_domain(log_size, total)
    return max(0.0, (math.e / max(sizes)) * (total - x))


def regular_power_bound(summary: RegularSummary, m: int, n: int, log_size: float) -> float:
    """n-th power of one connected regular graph: the shallowest-chord line
    gives y_intercept * (n - log_size / log m)."""
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    x = log_domain(log_size, n * math.log(m))
    return max(0.0, summary.y_intercept * (n - x / math.log(m)))


@dataclass
class BoundReport:
    """One closed-form evaluation, for report assembly."""

    family: str
    parameters: dict
    bound_per_vertex: float
    bound_total: float | None = None
    comparison: dict | None = None  # e.g. {"bl_per_vertex": ..., "ratio": ...}
