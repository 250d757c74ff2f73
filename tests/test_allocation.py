import math
import random
from fractions import Fraction

import pytest

from isobound import (
    build_minorant,
    cartesian_product,
    edge_boundary,
    generate,
    homogeneous_bound,
    parse_product_spec,
    petersen,
    product_vertex_set,
    profile_bruteforce,
    profile_closed_form,
    sharpness_certificate,
    theorem_bound,
)

from oracles import GRID_STEP, allocation_grid_min, allocation_knot_min, grid_reach


def family_minorant(family, m):
    return build_minorant(profile_closed_form(family, m))


def random_instance(rng, max_factors=3, max_size=8):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        family = rng.choice(("complete", "path", "cycle"))
        m = rng.randint(3 if family == "cycle" else 2, max_size)
        factors.append((family, m))
    minorants = [family_minorant(f, m) for f, m in factors]
    profiles = [profile_closed_form(f, m) for f, m in factors]
    return factors, profiles, minorants


class TestTheoremBound:
    @pytest.mark.parametrize("t", range(11))
    def test_hypercube_subcube_levels(self, t):
        psi = family_minorant("complete", 2)
        result = theorem_bound([psi] * 10, t * math.log(2))
        assert result.bound_per_vertex == pytest.approx(10 - t, abs=1e-12)

    def test_size_argument_carries_total(self):
        psi = family_minorant("complete", 2)
        result = theorem_bound([psi] * 10, size=16)
        assert result.bound_per_vertex == pytest.approx(6.0, abs=1e-12)
        assert result.bound_total == pytest.approx(96.0, abs=1e-12)

    def test_log_size_leaves_total_unset(self):
        psi = family_minorant("cycle", 5)
        assert theorem_bound([psi], 1.0).bound_total is None

    def test_budget_zero_gives_singleton_sum(self):
        minorants = [family_minorant("cycle", 5), family_minorant("path", 4), family_minorant("complete", 3)]
        result = theorem_bound(minorants, 0.0)
        assert result.bound_per_vertex == pytest.approx(2 + 1 + 2, abs=1e-12)
        assert result.allocation == (0.0, 0.0, 0.0)

    def test_full_budget_gives_zero(self):
        minorants = [family_minorant("cycle", 5), family_minorant("path", 4)]
        total = sum(psi.domain_end for psi in minorants)
        result = theorem_bound(minorants, total)
        assert result.bound_per_vertex == pytest.approx(0.0, abs=1e-12)
        assert sum(result.allocation) == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("family,m,n", [("cycle", 5, 200), ("complete", 2, 80), ("complete", 3, 61)])
    def test_whole_product_is_exactly_zero(self, family, m, n):
        # the greedy loop's running budget drifts by rounding over n factors
        # and log(m^n) differs from the n-term sum either way; any positive
        # residue times m^n vertices would be an unsound total
        minorants = [family_minorant(family, m)] * n
        total = sum(psi.domain_end for psi in minorants)
        by_size = theorem_bound(minorants, size=m**n)
        assert by_size.bound_per_vertex == 0.0 and by_size.bound_total == 0.0
        assert by_size.allocation == (minorants[0].domain_end,) * n
        assert theorem_bound(minorants, total).bound_per_vertex == 0.0
        assert homogeneous_bound(minorants[0], n, total) == 0.0

    def test_size_beyond_product_refused(self):
        minorants = [family_minorant("complete", 2)] * 80
        with pytest.raises(ValueError, match="exceeds the product's"):
            theorem_bound(minorants, size=2**80 + 1)

    def test_mixed_pair_golden(self):
        minorants = [family_minorant("path", 5), family_minorant("cycle", 4)]
        result = theorem_bound(minorants, math.log(4))
        assert result.bound_per_vertex == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_allocation_is_feasible(self, seed):
        rng = random.Random(600 + seed)
        _, _, minorants = random_instance(rng)
        total = sum(psi.domain_end for psi in minorants)
        budget = rng.uniform(0, total)
        result = theorem_bound(minorants, budget)
        assert sum(result.allocation) == pytest.approx(budget, abs=1e-9)
        for h, psi in zip(result.allocation, minorants):
            assert -1e-12 <= h <= psi.domain_end + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_log_size(self, seed):
        rng = random.Random(700 + seed)
        _, _, minorants = random_instance(rng)
        total = sum(psi.domain_end for psi in minorants)
        xs = sorted(rng.uniform(0, total) for _ in range(12))
        values = [theorem_bound(minorants, x).bound_per_vertex for x in xs]
        for v1, v2 in zip(values, values[1:]):
            assert v2 <= v1 + 1e-12

    def test_rejects_bad_arguments(self):
        psi = family_minorant("path", 3)
        with pytest.raises(ValueError, match="exactly one"):
            theorem_bound([psi])
        with pytest.raises(ValueError, match="exactly one"):
            theorem_bound([psi], 0.5, size=2)
        with pytest.raises(ValueError, match="at least one factor"):
            theorem_bound([], 0.0)
        with pytest.raises(ValueError, match="positive integer"):
            theorem_bound([psi], size=0)
        with pytest.raises(ValueError, match="outside"):
            theorem_bound([psi], math.log(3) + 1e-3)
        with pytest.raises(ValueError, match="outside"):
            theorem_bound([psi], -1e-3)


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive_searches(self, seed):
        rng = random.Random(800 + seed)
        _, _, minorants = random_instance(rng)
        budget_idx = rng.randint(0, grid_reach(minorants))
        budget = budget_idx * GRID_STEP
        greedy = theorem_bound(minorants, budget).bound_per_vertex
        grid = allocation_grid_min(minorants, budget_idx)
        knots = allocation_knot_min(minorants, budget)
        assert greedy <= grid + 1e-9
        assert greedy == pytest.approx(knots, abs=1e-6)

    def test_two_factor_golden_against_both(self):
        minorants = [family_minorant("path", 5), family_minorant("cycle", 4)]
        budget = math.log(4)
        greedy = theorem_bound(minorants, budget).bound_per_vertex
        assert greedy == pytest.approx(allocation_knot_min(minorants, budget), abs=1e-9)
        budget_idx = round(budget / GRID_STEP)
        assert greedy <= allocation_grid_min(minorants, budget_idx) + 1e-4


class TestHomogeneousBound:
    def test_hypercube_value(self):
        psi = family_minorant("complete", 2)
        assert homogeneous_bound(psi, 10, 4 * math.log(2)) == pytest.approx(6.0, abs=1e-12)

    def test_two_cycles(self):
        psi = family_minorant("cycle", 5)
        assert homogeneous_bound(psi, 2, math.log(4)) == pytest.approx(2.0, abs=1e-12)

    def test_matches_general_solver_on_copies(self):
        rng = random.Random(900)
        for _ in range(100):
            family = rng.choice(("complete", "path", "cycle"))
            m = rng.randint(3 if family == "cycle" else 2, 9)
            n = rng.randint(1, 5)
            psi = family_minorant(family, m)
            budget = rng.uniform(0, n * psi.domain_end)
            even = homogeneous_bound(psi, n, budget)
            greedy = theorem_bound([psi] * n, budget).bound_per_vertex
            assert even == pytest.approx(greedy, rel=1e-9, abs=1e-9)

    def test_rejects_bad_arguments(self):
        psi = family_minorant("path", 3)
        with pytest.raises(ValueError, match="n >= 1"):
            homogeneous_bound(psi, 0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            homogeneous_bound(psi, 2, 3 * math.log(3))


class TestSharpness:
    def test_hypercube_steepest_slope(self):
        prof = profile_closed_form("complete", 2)
        psi = build_minorant(prof)
        cert = sharpness_certificate([prof] * 4, [psi] * 4, -1.0 / math.log(2))
        assert [a.k for a in cert.assignments] == [1, 1, 1, 1]
        assert cert.log_size == 0.0
        assert cert.construction_per_vertex == pytest.approx(4.0, abs=1e-12)

    def test_zero_slope_takes_whole_factors(self):
        prof_p = profile_closed_form("path", 5)
        prof_c = profile_closed_form("cycle", 4)
        cert = sharpness_certificate(
            [prof_p, prof_c], [build_minorant(prof_p), build_minorant(prof_c)], 0.0
        )
        assert [a.k for a in cert.assignments] == [5, 4]
        assert cert.construction_per_vertex == 0.0
        assert cert.log_size == pytest.approx(math.log(20), rel=1e-12)

    def test_smallest_admissible_breakpoint_wins(self):
        # slope -1/log 2 sits in the subdifferential of both breakpoints of
        # psi for C_5 at k = 1 (left -inf, right (2-2)/... ) --- check k picked
        prof = profile_closed_form("cycle", 5)
        psi = build_minorant(prof)
        first_slope = psi.slopes()[0]
        cert = sharpness_certificate([prof], [psi], first_slope)
        assert cert.assignments[0].k == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_product_set_attains_bound(self, seed):
        rng = random.Random(1000 + seed)
        factors, profiles, minorants = random_instance(rng, max_factors=3, max_size=6)
        # any breakpoint slope of any factor is admissible everywhere: convex
        # minorants on a common domain always offer a containing interval
        donor = rng.randrange(len(minorants))
        slope = rng.choice(minorants[donor].slopes())
        cert = sharpness_certificate(profiles, minorants, slope)

        spec = parse_product_spec(" x ".join(f"{f}:{m}" for f, m in factors))
        product = cartesian_product(spec)
        box = product_vertex_set(spec, [a.witness for a in cert.assignments])
        exact_ratio = sum(
            (Fraction(p.boundary(a.k), a.k) for p, a in zip(profiles, cert.assignments)),
            Fraction(0),
        )
        assert box.size == round(math.exp(cert.log_size))
        assert edge_boundary(product, box) == box.size * exact_ratio
        assert cert.bound_per_vertex == pytest.approx(float(exact_ratio), rel=1e-9, abs=1e-9)

    def test_petersen_pair_midpoint(self):
        g = petersen()
        prof = profile_bruteforce(g)
        psi = build_minorant(prof)
        slope = psi.slopes()[0]
        cert = sharpness_certificate([prof, prof], [psi, psi], slope)
        bound = theorem_bound([psi, psi], cert.log_size).bound_per_vertex
        assert cert.construction_per_vertex == pytest.approx(bound, rel=1e-9)

    def test_rejects_positive_slope(self):
        prof = profile_closed_form("path", 3)
        with pytest.raises(ValueError, match="slope must be <= 0"):
            sharpness_certificate([prof], [build_minorant(prof)], 0.5)

    def test_rejects_mismatched_lists(self):
        prof = profile_closed_form("path", 3)
        with pytest.raises(ValueError, match="one profile per minorant"):
            sharpness_certificate([prof], [], 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one factor"):
            sharpness_certificate([], [], 0.0)
