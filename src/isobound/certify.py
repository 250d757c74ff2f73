"""End-to-end verification of the product bound, plus two certificates.

verify_theorem materializes a product, finds the true minimum boundary at each
size by exhaustive search, and compares it against the allocation bound; the
bound must never exceed the truth.

q71_witness certifies that size -> minimum boundary is not linear in log size
on a power G^n whenever psi_G has at least two linear pieces: three sizes of
the form k^n (k a hull breakpoint) have exactly known minima, and the middle
one falls strictly below the line through the outer two.

q72_certificate certifies that slab sets {u}^t x V^{n-t} are *not* always
optimal when the shallowest-chord intercept sits strictly below the degree:
a Dirichlet approximation |s log m - t log(m/k*)| <= eps/2 yields, for large
enough products, a set of size m^t with strictly smaller boundary than the
slab of the same size.  All certificate arithmetic is normalized per m^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .allocation import theorem_bound
from .graphs import Graph, ProductSpec, cartesian_product
from .minorants import ConvexMinorant, RegularSummary, build_minorants
from .profiles import IsoProfile, min_boundary, resolve_profiles

TIGHT_REL_TOL = 1e-9
ALL_K_CAP = 20
EPS_FLOOR = 1e-12
DEFAULT_T_MAX = 10**6


class SlabsOptimalError(ValueError):
    """The shallowest chord already meets the degree: slab sets are
    edge-optimal at every slab size and no counterexample certificate exists."""


@dataclass(frozen=True)
class VerificationEntry:
    k: int
    true_min_boundary: int
    bound_total: float
    gap: float  # truth - bound; negative gaps beyond tolerance are failures
    tight: bool


@dataclass(frozen=True)
class VerificationReport:
    description: str
    entries: tuple[VerificationEntry, ...]

    @property
    def ok(self) -> bool:
        return all(
            e.gap >= -TIGHT_REL_TOL * max(e.true_min_boundary, 1.0) for e in self.entries
        )

    def tight_sizes(self) -> tuple[int, ...]:
        return tuple(e.k for e in self.entries if e.tight)

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "ok": self.ok,
            "entries": [
                {
                    "k": e.k,
                    "true_min_boundary": e.true_min_boundary,
                    "bound_total": e.bound_total,
                    "gap": e.gap,
                    "tight": e.tight,
                }
                for e in self.entries
            ],
        }


def verify_theorem(
    spec: ProductSpec,
    ks=None,
    *,
    max_vertices: int | None = None,
) -> VerificationReport:
    """Exhaustive truth vs allocation bound on a materialized product.

    With ks=None every size is checked, which requires at most ALL_K_CAP
    vertices; an explicit size list only needs the product to materialize.
    Factor profiles come from resolve_profiles, so family factors of any size
    use their closed form.
    """
    product = cartesian_product(spec, max_vertices=max_vertices)
    m = product.vertex_count
    if ks is None:
        if m > ALL_K_CAP:
            raise ValueError(
                f"all-size verification needs at most {ALL_K_CAP} vertices, got {m};"
                f" pass an explicit size list"
            )
        ks = range(1, m + 1)
    else:
        ks = tuple(ks)
        for k in ks:
            if not 1 <= k <= m:
                raise ValueError(f"size {k} outside 1..{m}")
    minorants = build_minorants(resolve_profiles(spec.factors))
    entries = []
    for k in ks:
        truth, _ = min_boundary(product, k, max_vertices=m)
        bound = theorem_bound(minorants, size=k).bound_total
        gap = truth - bound
        tight = abs(gap) <= TIGHT_REL_TOL * max(truth, 1.0)
        entries.append(VerificationEntry(k, truth, bound, gap, tight))
    return VerificationReport(spec.label(), tuple(entries))


@dataclass(frozen=True)
class NonlinearityWitness:
    base_label: str
    power: int
    ks: tuple[int, int, int]  # hull breakpoints k_a < k_b < k_c of the base
    sizes: tuple[int, int, int]  # k^power each
    exact_per_vertex: tuple[float, float, float]  # power * i_k, certified
    lower_per_vertex: tuple[float, float, float]  # allocation bound, matches
    interpolated_mid: float  # line through the outer points at the middle size
    residual: float  # exact middle value minus the interpolation (negative)

    def to_json_dict(self) -> dict:
        return {
            "base_label": self.base_label,
            "power": self.power,
            "ks": list(self.ks),
            "sizes": [str(a) for a in self.sizes],  # may exceed double range
            "exact_per_vertex": list(self.exact_per_vertex),
            "lower_per_vertex": list(self.lower_per_vertex),
            "interpolated_mid": self.interpolated_mid,
            "residual": self.residual,
        }


def q71_witness(g: Graph, profile: IsoProfile, psi: ConvexMinorant, n: int) -> NonlinearityWitness:
    """Three sizes on G^n whose exact minima are not collinear in log size.

    At a hull breakpoint k the bound n * psi(log k) and the product
    construction (witness set)^n both give n * i_k per vertex, so the value is
    exact.  Convexity then forces the middle size below the chord.
    """
    if n < 1:
        raise ValueError(f"need a positive power, got {n}")
    if len(psi.breakpoints) < 3:
        raise ValueError(
            "convex minorant has a single linear piece; every breakpoint size"
            " interpolates linearly and no witness exists"
        )
    bps = psi.breakpoints[:3]
    ks = tuple(b.k for b in bps)
    sizes = tuple(k**n for k in ks)
    exact = tuple(n * float(profile.ratio(k)) for k in ks)
    lower = tuple(n * psi.evaluate(b.x) for b in bps)
    for e, lo in zip(exact, lower):
        if abs(e - lo) > TIGHT_REL_TOL * max(1.0, abs(e)):
            raise ValueError(f"bound {lo} and construction {e} disagree at a breakpoint")
    xs = [n * b.x for b in bps]  # log of each size
    t = (xs[1] - xs[0]) / (xs[2] - xs[0])
    interpolated = exact[0] + t * (exact[2] - exact[0])
    residual = exact[1] - interpolated
    if abs(residual) <= 1e-6:
        raise ValueError("adjacent hull segments are numerically collinear")
    return NonlinearityWitness(
        base_label=g.label,
        power=n,
        ks=ks,
        sizes=sizes,
        exact_per_vertex=exact,
        lower_per_vertex=lower,
        interpolated_mid=interpolated,
        residual=residual,
    )


@dataclass(frozen=True)
class DirichletCertificate:
    vertex_count: int
    degree: int
    k_star: int
    y_intercept: float
    i_k_star: float
    epsilon: float
    s: int
    t: int
    approx_error: float  # |s log m - t log(m/k*)|, at most epsilon/2
    construction_per_block: float  # t * i_{k*}, at most s*y + eps
    lhs: float  # boundary of the adjusted set, normalized per m^t
    rhs: float  # slab boundary s*d, same normalization

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "degree": self.degree,
            "k_star": self.k_star,
            "y_intercept": self.y_intercept,
            "i_k_star": self.i_k_star,
            "epsilon": self.epsilon,
            "s": self.s,
            "t": self.t,
            "approx_error": self.approx_error,
            "construction_per_block": self.construction_per_block,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def q72_certificate(
    g: Graph,
    summary: RegularSummary,
    eps_start: float = 0.1,
    *,
    t_max: int = DEFAULT_T_MAX,
) -> DirichletCertificate:
    """Certificate that slabs are beaten at size m^t for large products.

    Halves eps from eps_start; for each eps scans t = 1.. for the first
    s = round(t log(m/k*) / log m) >= 1 with |s log m - t log(m/k*)| <= eps/2,
    then requires the strict normalized inequality

        (1+eps)(s*y + eps) + eps*s*d*(1 + (log m + eps/2)/log(m/k*)) < s*d.

    The middle term t*i_{k*} <= s*y + eps is re-checked explicitly rather than
    assumed from the approximation inequality.
    """
    m = g.vertex_count
    d = summary.degree
    if not g.is_regular() or not g.is_connected() or g.degrees[0] != d:
        raise ValueError("graph is not connected regular or does not match the summary")
    y = summary.y_intercept
    k_star = summary.k_star
    if k_star == 1 or y >= d - 1e-12:
        raise SlabsOptimalError(
            f"y_intercept = degree = {d}: slab sets are edge-optimal; no certificate"
        )
    if eps_start <= 0:
        raise ValueError(f"eps_start must be positive, got {eps_start}")
    log_m = math.log(m)
    log_ratio = math.log(m / k_star)
    i_k_star = y * (log_ratio / log_m)

    eps = eps_start
    while eps >= EPS_FLOOR:
        found = None
        for t in range(1, t_max + 1):
            s = round(t * log_ratio / log_m)
            if s < 1:
                continue
            err = abs(s * log_m - t * log_ratio)
            if err <= eps / 2.0:
                found = (s, t, err)
                break
        if found is not None:
            s, t, err = found
            construction = t * i_k_star
            lhs = (1.0 + eps) * (s * y + eps) + eps * s * d * (
                1.0 + (log_m + eps / 2.0) / log_ratio
            )
            rhs = float(s * d)
            if construction <= s * y + eps and lhs < rhs:
                return DirichletCertificate(
                    vertex_count=m,
                    degree=d,
                    k_star=k_star,
                    y_intercept=y,
                    i_k_star=i_k_star,
                    epsilon=eps,
                    s=s,
                    t=t,
                    approx_error=err,
                    construction_per_block=construction,
                    lhs=lhs,
                    rhs=rhs,
                )
        eps /= 2.0
    raise ValueError(
        f"certificate search failed: no (s, t) with t <= {t_max} satisfied the"
        f" inequalities for any eps down to {EPS_FLOOR}"
    )


def b_t_boundary(m: int, d: int, n: int, t: int) -> float:
    """Per-vertex boundary of the slab {u}^t x V^{n-t} in an m^n-vertex
    product of d-regular factors: exactly t * d."""
    if m < 2 or d < 1:
        raise ValueError(f"need m >= 2 and d >= 1, got m={m}, d={d}")
    if not 1 <= t <= n:
        raise ValueError(f"slab depth {t} outside 1..{n}")
    return float(t * d)
