"""End-to-end verification of the product bound, plus two certificates.

verify_theorem compares the allocation bound against the true minimum boundary
at each size; the bound must never exceed the truth.  A set and its complement
have the same boundary, so size k is read at j = min(k, m - k).  A truth is
read from the factors where it is known exactly: 0 at j = 0, the sum of the
factors' least degrees at j = 1, on a single factor its own profile, on a
clique product (every factor complete, so Hamming graphs and hypercubes) the
nested lexicographic order's value at every size, and on two nested factors
(families, or factors whose canonical witnesses chain) the fibre floor F at
every size (profiles module docstring).  A family factor gives its
closed-form boundaries, with no witnesses.  Only the other sizes materialize
the product and search it, and only a product that would be built is refused
as one, so one factor of any size, a clique product, a grid or torus of two
factors, and any product at sizes 1, m - 1 and m, are verified without
building it.  Two factors that are not both nested still get F as a floor: a
grown set that meets it needs no search, and a search stops at the first set
that reaches it.

q71_witness certifies that size -> minimum boundary is not linear in log size
on a power G^n whenever psi_G has at least two linear pieces: three sizes of
the form k^n (k a hull breakpoint) have exactly known minima, and the middle
one falls strictly below the line through the outer two.

q72_certificate certifies that slab sets {u}^t x V^{n-t} are *not* always
optimal when the shallowest-chord intercept sits strictly below the degree:
a Dirichlet approximation |s log m - t log(m/k*)| <= eps/2 yields, for large
enough products, a set of size m^t with strictly smaller boundary than the
slab of the same size.  All certificate arithmetic is normalized per m^t.
The pair is found by walking the continued-fraction convergents of
log m / log(m/k*): the first s with a t in the window is a best approximation
of the second kind, hence a convergent denominator (Khinchin, Continued
Fractions, 1964, section 6).
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass, replace

from .allocation import TIGHT_REL_TOL, theorem_bound
from .graphs import (SEARCH_BUDGET, CapExceededError, CertificateSearchError, Graph, ProductSpec,
                     cartesian_product, check_product)
from .minorants import ConvexMinorant, RegularSummary, _hull
from .profiles import (IsoProfile, _per_distinct, _search_sizes, closed_form_boundaries, fibre_floor,
                       nested_boundary, resolve_profile)

SIZE_UNITS = 1000  # budget units per reported size: 60-70 us each, 2-core Xeon, CPython 3.11
EPS_FLOOR = 1e-12
T_MAX = 10**6  # q72_certificate tries t <= T_MAX


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


def _exact_truth(spec: ProductSpec, j: int) -> int | None:
    """The minimum boundary at sizes j and m - j (j <= m/2) from the factors
    alone, or None when it takes a search.  A product vertex's degree is the
    sum of its coordinates' degrees, so j = 1 gives the sum of the factors'
    least degrees."""
    if j == 0:
        return 0
    if j == 1:
        return sum(min(f.degrees) for f in spec.factors)
    if all(f.family == ("complete", f.vertex_count) for f in spec.factors):
        return nested_boundary([f.vertex_count for f in spec.factors], j)
    return None


def _nested(g: Graph, profile: IsoProfile) -> Graph:
    """g relabelled so that its canonical witnesses W_1, W_2, ... become its
    prefixes (W_j minus W_{j-1} gets label j - 1) and marked nested; g itself
    when it is nested already or some W_{j-1} is not inside W_j."""
    if g.nested:
        return g
    order, prev = [], 0  # order[j]: the vertex that gets label j
    for e in profile.entries:
        if prev & ~e.witness.mask:
            return g
        order.append((e.witness.mask ^ prev).bit_length() - 1)
        prev = e.witness.mask
    label = {v: j for j, v in enumerate(order)}
    adjacency = tuple(tuple(sorted(label[u] for u in g.adjacency[v])) for v in order)
    return replace(g, adjacency=adjacency, nested=True, down=())  # g's own masks follow its old labels


def _solve_factor(g: Graph) -> tuple[Graph, dict[int, int], ConvexMinorant]:
    """(g as _nested relabels it, its boundaries b(0..m), its minorant)."""
    if g.family is not None:  # nested already; its closed form builds no witnesses
        b = closed_form_boundaries(*g.family)
    else:
        profile = resolve_profile(g)
        g, b = _nested(g, profile), {e.k: e.min_boundary for e in profile.entries}
    return g, (0, *b.values()), _hull(g.vertex_count, b)


def verify_theorem(spec: ProductSpec, ks=None) -> VerificationReport:
    """Exact truth vs allocation bound at each size of a product.

    With ks=None every size is checked.  Each reported size is charged
    SIZE_UNITS, its cost in budget units, and a report over SEARCH_BUDGET is
    refused before anything runs.  Truths are read as the module docstring
    says.  When some size is left, check_product refuses a product too large
    to search before any factor is solved, whether or not it is built; it
    passes one factor, and two factors nested by construction skip it, as F
    answers them.  _solve_factor relabels a non-family factor as _nested does
    (values do not depend on labels), and equal factors share one solution.
    Two factors give F up to the largest size left, on its own budget; when
    both are nested, F is every truth left.  Otherwise the product is
    materialized once, its nested coordinates compressed (profiles module
    docstring), and _search_sizes finds the values left on one budget, F as
    its floors on two factors; one budget may refuse sizes that each fit
    alone, and a refusal names the size asked.
    """
    m = spec.vertex_count
    ks = None if ks is None else tuple(ks)
    count = m if ks is None else len(ks)
    if count * SIZE_UNITS > SEARCH_BUDGET:
        raise CapExceededError(
            f"verification of {count} sizes charges {count * SIZE_UNITS} units of work"
            f" ({SIZE_UNITS} per size), over the budget of {SEARCH_BUDGET}"
        )
    if ks is None:
        ks = range(1, m + 1)
    elif not ks:
        raise ValueError("no sizes to verify")
    elif (bad := next((k for k in ks if not 1 <= k <= m), None)) is not None:
        raise ValueError(f"size {bad} outside 1..{m}")
    truths = {j: _exact_truth(spec, j) for j in (min(k, m - k) for k in ks)}
    names = {min(k, m - k): k for k in ks if truths[min(k, m - k)] is None}  # j searched: k asked
    if names and not (len(spec.factors) == 2 and all(f.nested for f in spec.factors)):
        check_product(spec)  # a factor's profile may search for seconds: refuse the product first
    factors, boundaries, minorants = zip(*_per_distinct(spec.factors, _solve_factor))
    if names and len(factors) == 1:  # the factor's own boundaries hold every truth
        truths.update((j, boundaries[0][j]) for j in names)
    elif names:
        floors = None if len(factors) > 2 else fibre_floor(*boundaries, max(names))
        if floors and all(f.nested for f in factors):  # F is exact: no product
            truths.update((j, floors[j]) for j in names)
        else:
            product = cartesian_product(ProductSpec(factors))
            found = _search_sizes(product, list(names), names, floors)
            truths.update((j, value) for j, (value, _) in found.items())
    entries = []
    for k in ks:
        truth = truths[min(k, m - k)]
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


def q71_witness(g: Graph, psi: ConvexMinorant, n: int) -> NonlinearityWitness:
    """Three sizes on G^n whose exact minima are not collinear in log size.

    At a hull breakpoint k the bound n * psi(log k) and the product
    construction (witness set)^n both give n * i_k per vertex, so the value is
    exact; i_k is the breakpoint's value.  Convexity then forces the middle
    size below the chord.
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
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, or absent: no limit
    # the largest size ks[2]^n has about n log10 ks[2] digits: far past the limit, refuse unbuilt
    if limit and (n > (limit + 1) / math.log10(ks[2]) or ks[2] ** n >= 10**limit):
        raise ValueError(
            f"witness size {ks[2]}^{n} has more than {limit} digits,"
            f" the interpreter's limit for printing an integer; use a smaller --power"
        )
    sizes = tuple(k**n for k in ks)
    exact = tuple(n * b.y for b in bps)
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


def q72_certificate(
    g: Graph,
    summary: RegularSummary,
    eps_start: float = 0.1,
) -> DirichletCertificate:
    """Certificate that slabs are beaten at size m^t for large products.

    Halves eps from eps_start; for each eps finds the least t <= T_MAX with
    s = round(t log(m/k*) / log m) >= 1 and |s log m - t log(m/k*)| <= eps/2,
    then requires the strict normalized inequality

        (1+eps)(s*y + eps) + eps*s*d*(1 + (log m + eps/2)/log(m/k*)) < s*d.

    The middle term t*i_{k*} <= s*y + eps is re-checked explicitly rather than
    assumed from the approximation inequality.

    The pair comes from _dirichlet_pair, which tries only the convergent
    denominators s of beta = log m / log(m/k*): the first s >= 1 with
    ||s beta|| <= eps/(2 log(m/k*)) is a best approximation of the second
    kind, and every such approximation is a convergent (Khinchin, Continued
    Fractions, 1964, section 6; Hardy and Wright, ch. 10).  Each step is
    decided with the same float expressions as a scan over t = 1, ..., T_MAX,
    so both give the same pair unless a double rounding error crosses eps/2,
    and the walk takes O(log T_MAX) steps per eps.  T_MAX only stops it.
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
    if not (eps_start > 0 and math.isfinite(eps_start)):
        raise ValueError(f"eps_start must be positive and finite, got {eps_start}")
    log_m = math.log(m)
    log_ratio = math.log(m / k_star)
    i_k_star = y * (log_ratio / log_m)
    convergents = _beta_convergents(m, k_star, T_MAX)

    eps = eps_start
    while eps >= EPS_FLOOR:
        found = _dirichlet_pair(log_m, log_ratio, convergents, eps, T_MAX)
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
    raise CertificateSearchError(
        f"certificate search failed: no (s, t) with t <= {T_MAX} satisfied the"
        f" inequalities for any eps down to {EPS_FLOOR}"
    )


def _convergents(num: int, den: int):
    """(p_n, q_n) of the continued fraction of num/den > 0, n = 0, 1, ...,
    by Euclid's algorithm."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    while den:
        a, rest = divmod(num, den)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p, q
        num, den = den, rest


def _beta_convergents(m: int, k_star: int, t_max: int) -> tuple[tuple[int, int], ...]:
    """Convergents p/s of beta = log m / log(m/k*) with s <= t_max.  beta is
    taken in decimal to 2 * digits(t_max) + 30 digits, far finer than
    1/t_max^2, so these convergents are those of the true ratio."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * len(str(t_max)) + 30
        log_m = decimal.Decimal(m).ln()
        beta = log_m / (log_m - decimal.Decimal(k_star).ln())
    convergents = _convergents(*beta.as_integer_ratio())
    return tuple(itertools.takewhile(lambda ps: ps[1] <= t_max, convergents))


def _dirichlet_pair(
    log_m: float, log_ratio: float, convergents, eps: float, t_max: int
) -> tuple[int, int, float] | None:
    """The least t <= t_max with s = round(t log_ratio / log_m) >= 1 and
    err = |s log_m - t log_ratio| <= eps/2, as (s, t, err); None if none.

    Only convergent denominators s are tried, in increasing order.  The t
    with round(t alpha) = s lie within beta/2 of s beta, those in the window
    within eps/(2 log_ratio), and |s beta - p| < 1, so t within `reach` of
    the numerator p covers both.  s is nondecreasing in t, so the first hit
    is the least t.
    """
    half = eps / 2.0
    reach = math.ceil(min(half / log_ratio, log_m / log_ratio / 2.0)) + 1
    for p, s in convergents:
        if p - reach > t_max:
            break
        for t in range(max(1, p - reach), min(t_max, p + reach) + 1):
            if round(t * log_ratio / log_m) == s:
                err = abs(s * log_m - t * log_ratio)
                if err <= half:
                    return s, t, err
    return None
