import json
import math
import random

import pytest

from isobound import (
    bl_bound,
    build_minorant,
    connected_regular_bound,
    generate,
    grid_bound,
    hamming_bound,
    petersen,
    profile_bruteforce,
    profile_closed_form,
    regular_power_bound,
    regular_product_bound,
    regular_summary,
    theorem_bound,
    torus_bound,
)
from isobound.cli import run
from isobound.minorants import LOG_TOL


def family_minorant(family, m):
    return build_minorant(profile_closed_form(family, m))


def _c5_summary():
    g = generate("cycle", 5)
    return regular_summary(g, build_minorant(profile_bruteforce(g)))


# (name, domain end, the log size -> value call); every end is above 1, so
# the tolerance LOG_TOL * end is relative
DOMAIN_CASES = [
    ("theorem_bound", math.log(5) + math.log(3),
     lambda x: theorem_bound([family_minorant("path", 5), family_minorant("complete", 3)], x)),
    ("hamming", 3 * math.log(4), lambda x: hamming_bound(3, 4, x)),
    ("grid", 2 * math.log(5), lambda x: grid_bound(2, 5, x)),
    ("torus", 2 * math.log(5), lambda x: torus_bound(2, 5, x)),
    ("bl", 2 * math.log(5), lambda x: bl_bound(2, 5, x)),
    ("regular_product", math.log(5) + math.log(4),
     lambda x: regular_product_bound([2, 3], [5, 4], x)),
    ("connected_regular", math.log(5) + math.log(4),
     lambda x: connected_regular_bound([5, 4], x)),
    ("regular_power", 3 * math.log(5), lambda x: regular_power_bound(_c5_summary(), 5, 3, x)),
    ("evaluate", math.log(5), lambda x: family_minorant("path", 5).evaluate(x)),
    ("one_sided_derivatives", math.log(5),
     lambda x: family_minorant("path", 5).one_sided_derivatives(x)),
]


@pytest.mark.parametrize("end,call", [c[1:] for c in DOMAIN_CASES], ids=[c[0] for c in DOMAIN_CASES])
def test_one_log_domain_rule(end, call):
    tol = LOG_TOL * max(1.0, end)
    assert end > 1.0
    for inside in (-tol / 2, end + tol / 2):
        call(inside)
    for outside in (math.nan, -2 * tol, end + 2 * tol):
        with pytest.raises(ValueError, match="outside"):
            call(outside)


class TestHamming:
    def test_hypercube_half(self):
        assert hamming_bound(10, 2, math.log(16)) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 5), (3, 4), (5, 3)])
    def test_equals_allocation_bound(self, m, n):
        psi = family_minorant("complete", m)
        for t in range(n + 1):
            x = t * math.log(m)
            ours = theorem_bound([psi] * n, x).bound_per_vertex
            assert hamming_bound(n, m, x) == pytest.approx(ours, abs=1e-9)
        rng = random.Random(m * 100 + n)
        for _ in range(20):
            x = rng.uniform(0, n * math.log(m))
            ours = theorem_bound([psi] * n, x).bound_per_vertex
            assert hamming_bound(n, m, x) == pytest.approx(ours, abs=1e-9)

    def test_clamps_to_zero(self):
        assert hamming_bound(3, 4, 3 * math.log(4)) == 0.0

    def test_rejects(self):
        with pytest.raises(ValueError, match="n >= 1 and m >= 2"):
            hamming_bound(0, 2, 0.0)
        with pytest.raises(ValueError, match="outside"):
            hamming_bound(2, 2, 3 * math.log(2))
        with pytest.raises(ValueError, match="outside"):
            hamming_bound(2, 2, math.nan)


class TestGridAndTorus:
    def test_zero_budget(self):
        assert grid_bound(4, 5, 0.0) == pytest.approx(4.0, abs=1e-12)
        assert torus_bound(4, 5, 0.0) == pytest.approx(8.0, abs=1e-12)

    def test_small_regime_value(self):
        # one path factor, sets of two vertices: the exponential regime
        # applies only below log m - 1, so log 2 of a P_5 is already linear
        x = math.log(2)
        assert grid_bound(1, 5, x) == pytest.approx((math.e / 5) * (math.log(5) - x), rel=1e-12)

    def test_regimes_meet_continuously(self):
        for n, m in [(2, 4), (3, 5), (5, 9)]:
            split = n * (math.log(m) - 1.0)
            lo = grid_bound(n, m, split - 1e-9)
            hi = grid_bound(n, m, split + 1e-9)
            assert lo == pytest.approx(hi, rel=1e-6)
            assert grid_bound(n, m, split) == pytest.approx(n * math.e / m, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (4, 7)])
    def test_never_exceeds_allocation_bound(self, n, m):
        psi_p = family_minorant("path", m)
        psi_c = family_minorant("cycle", m)
        rng = random.Random(n * 10 + m)
        for _ in range(25):
            x = rng.uniform(0, n * math.log(m))
            ours_p = theorem_bound([psi_p] * n, x).bound_per_vertex
            ours_c = theorem_bound([psi_c] * n, x).bound_per_vertex
            assert grid_bound(n, m, x) <= ours_p + 1e-9
            assert torus_bound(n, m, x) <= ours_c + 1e-9

    def test_torus_doubles_grid(self):
        rng = random.Random(42)
        for _ in range(10):
            n, m = rng.randint(1, 5), rng.randint(3, 9)
            x = rng.uniform(0, n * math.log(m))
            assert torus_bound(n, m, x) == 2.0 * grid_bound(n, m, x)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError, match="m >= 3"):
            grid_bound(2, 2, 0.0)


class TestBenchmarkComparison:
    @pytest.mark.parametrize("n,m", [(3, 5), (4, 7)])
    def test_small_regime_equality(self, n, m):
        for frac in (0.1, 0.4, 0.8):
            x = frac * n * (math.log(m) - 1.0)
            ours = grid_bound(n, m, x)
            bench = bl_bound(n, m, x)
            assert bench == pytest.approx(ours, abs=1e-12)
            assert bl_bound(n, m, x, torus=True) == pytest.approx(torus_bound(n, m, x), abs=1e-12)

    @pytest.mark.parametrize("n,m", [(3, 5), (4, 7)])
    def test_large_regime_ratio(self, n, m):
        # the ratio guarantee covers sets up to half the product
        split = n * (math.log(m) - 1.0)
        hi = n * math.log(m) - math.log(2.0)
        for frac in (0.2, 0.5, 1.0):
            x = split + frac * (hi - split)
            ours = grid_bound(n, m, x)
            bench = bl_bound(n, m, x)
            ratio = bench / ours
            assert 1.0 - 1e-12 <= ratio <= 2.0 / (math.e * math.log(2)) + 1e-12

    def test_ratio_cap_attained_at_half(self):
        # at |A| = m^n / 2 the ratio equals 2 / (e log 2) exactly
        n, m = 3, 5
        x = n * math.log(m) - math.log(2.0)
        ratio = bl_bound(n, m, x) / grid_bound(n, m, x)
        assert ratio == pytest.approx(2.0 / (math.e * math.log(2)), rel=1e-12)

    def test_torus_flag_doubles(self):
        assert bl_bound(3, 5, 1.0, torus=True) == 2.0 * bl_bound(3, 5, 1.0)

    @pytest.mark.parametrize("n,m,x", [(441, 5, 0.0), (100, 7, 3.0), (60, 30, 100.0), (5, 4, 2.0)])
    def test_unchanged_where_every_term_is_finite(self, n, m, x):
        rest = n * math.log(m) - x
        assert bl_bound(n, m, x) == min(r * math.exp(rest / r) for r in range(1, n + 1)) / m

    @pytest.mark.parametrize("n,m,x", [(450, 5, 0.0), (450, 5, 10.0), (1000, 3, 50.0), (300, 50, 0.0)])
    def test_terms_past_double_range_are_skipped(self, n, m, x):
        # n log m - x > 709.78: the r = 1 term's exp overflows a double, yet the
        # small-regime equality with the grid bound still holds
        assert n * math.log(m) - x > 709.79
        assert bl_bound(n, m, x) == pytest.approx(grid_bound(n, m, x), rel=1e-12)
        assert bl_bound(n, m, x, torus=True) == 2.0 * bl_bound(n, m, x)


class TestRegularProduct:
    def test_hypercube(self):
        assert regular_product_bound([1] * 10, [2] * 10, math.log(16)) == pytest.approx(6.0, abs=1e-12)

    def test_mixed_factors_dominated_by_allocation(self):
        # C_5 x C_5 x K_4: degrees (2, 2, 3)
        minorants = [family_minorant("cycle", 5)] * 2 + [family_minorant("complete", 4)]
        rng = random.Random(3)
        total = sum(p.domain_end for p in minorants)
        for _ in range(25):
            x = rng.uniform(0, total)
            ours = theorem_bound(minorants, x).bound_per_vertex
            quick = regular_product_bound([2, 2, 3], [5, 5, 4], x)
            assert quick <= ours + 1e-9

    def test_rejects(self):
        with pytest.raises(ValueError, match="matching nonempty"):
            regular_product_bound([2], [5, 5], 0.0)
        with pytest.raises(ValueError, match="degrees >= 1"):
            regular_product_bound([0], [2], 0.0)
        with pytest.raises(ValueError, match="at least 3 vertices"):
            regular_product_bound([2], [2], 0.0)


class TestConnectedRegular:
    def test_value(self):
        sizes = (2,) * 10
        x = math.log(16)
        expected = (math.e / 2) * (10 * math.log(2) - x)
        assert connected_regular_bound(sizes, x) == pytest.approx(expected, rel=1e-12)

    def test_dominated_by_allocation(self):
        cases = [
            (("path", 4), ("cycle", 6)),
            (("complete", 3), ("path", 5), ("cycle", 4)),
        ]
        rng = random.Random(4)
        for factors in cases:
            minorants = [family_minorant(f, m) for f, m in factors]
            sizes = [m for _, m in factors]
            total = sum(p.domain_end for p in minorants)
            for _ in range(25):
                x = rng.uniform(0, total)
                ours = theorem_bound(minorants, x).bound_per_vertex
                assert connected_regular_bound(sizes, x) <= ours + 1e-9

    def test_rejects(self):
        with pytest.raises(ValueError, match="at least one"):
            connected_regular_bound([], 0.0)
        with pytest.raises(ValueError, match="at least 2 vertices"):
            connected_regular_bound([1, 3], 0.0)


class TestRegularPower:
    def test_equals_homogeneous_on_last_segment(self):
        g = generate("cycle", 5)
        psi = build_minorant(profile_bruteforce(g))
        summary = regular_summary(g, psi)
        n = 3
        x_lo = n * math.log(summary.k_star)
        x_hi = n * math.log(5)
        for frac in (0.0, 0.3, 0.7, 1.0):
            x = x_lo + frac * (x_hi - x_lo)
            line = regular_power_bound(summary, 5, n, x)
            even = n * psi.evaluate(x / n)  # the even split of n identical factors
            greedy = theorem_bound([psi] * n, x).bound_per_vertex
            assert even == pytest.approx(greedy, rel=1e-9, abs=1e-12)
            assert line == pytest.approx(even, rel=1e-9, abs=1e-12)

    def test_below_homogeneous_everywhere(self):
        g = petersen()
        psi = build_minorant(profile_bruteforce(g))
        summary = regular_summary(g, psi)
        rng = random.Random(5)
        n = 2
        for _ in range(30):
            x = rng.uniform(0, n * math.log(10))
            line = regular_power_bound(summary, 10, n, x)
            even = n * psi.evaluate(x / n)  # the even split of n identical factors
            greedy = theorem_bound([psi] * n, x).bound_per_vertex
            assert even == pytest.approx(greedy, rel=1e-9, abs=1e-12)
            assert line <= even + 1e-9

    def test_degree_line_for_complete(self):
        g = generate("complete", 4)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        x = math.log(4)
        assert regular_power_bound(summary, 4, 3, x) == pytest.approx(3.0 * 2.0, abs=1e-12)

    def test_rejects(self):
        g = generate("cycle", 5)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        with pytest.raises(ValueError, match="n >= 1"):
            regular_power_bound(summary, 5, 0, 0.0)


class TestBoundReport:
    def test_json_shape(self, capsys):
        assert run(["bound", "complete:2^3", "--size", "4", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)["closed_forms"][0]
        assert doc["family"] == "hamming"
        assert doc["parameters"] == {"n": 3, "m": 2}
        assert doc["comparison"] is None
