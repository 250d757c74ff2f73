"""Acceptance suite: one test per agreed criterion, each printing a single
pass/fail line.  Tolerances and time budgets are part of the criteria and are
asserted, not advisory."""

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from isobound import (
    CapExceededError,
    SlabsOptimalError,
    bl_bound,
    build_minorant,
    cartesian_product,
    generate,
    grid_bound,
    min_boundary,
    parse_product_spec,
    profile_bruteforce,
    profile_closed_form,
    q71_witness,
    q72_certificate,
    regular_summary,
    theorem_bound,
    torus_bound,
    verify_theorem,
)

from oracles import (
    GRID_STEP,
    allocation_grid_min,
    allocation_knot_min,
    grid_reach,
    min_boundary_by_enumeration,
)

BENCH_RATIO_CAP = 2.0 / (math.e * math.log(2.0))


@contextlib.contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} PASS - {description}")


def test_criterion_01_closed_forms_match_brute_force(capsys):
    with criterion(capsys, 1, "family profiles match exhaustive search exactly (m = 2..10)"):
        start = time.monotonic()
        for family in ("complete", "path", "cycle"):
            for m in range(2, 11):
                if family == "cycle" and m < 3:
                    continue
                g = generate(family, m)
                brute = profile_bruteforce(g)
                closed = profile_closed_form(family, m)
                for k in range(1, m + 1):
                    truth, witness = min_boundary_by_enumeration(g, k)
                    assert brute.ratio(k) == closed.ratio(k) == Fraction(truth, k)  # exact
                    assert brute.boundary(k) == closed.boundary(k) == truth
                    assert closed.entry(k).witness.members() == witness
        assert time.monotonic() - start < 10.0


def test_criterion_02_hypercube_q4_exhaustive(capsys):
    with criterion(capsys, 2, "Q_4 exhaustive: subcube minima 2^t (4 - t), bound tight there"):
        start = time.monotonic()
        q4 = cartesian_product(parse_product_spec("complete:2^4"))
        prof = profile_bruteforce(q4)
        psi = build_minorant(profile_closed_form("complete", 2))
        for t in range(5):
            k = 2**t
            truth, _ = min_boundary_by_enumeration(q4, k)  # every k-subset
            assert prof.boundary(k) == truth == k * (4 - t)
            bound = k * theorem_bound([psi] * 4, math.log(k)).bound_per_vertex
            assert abs(truth - bound) <= 1e-9 * max(truth, 1.0)
        assert time.monotonic() - start < 30.0


def test_criterion_03_bound_never_exceeds_truth(capsys):
    products = ("path:3^2", "path:3 x cycle:4", "complete:2^4", "cycle:4^2", "complete:3^2")
    with criterion(capsys, 3, "bound <= true minimum at every size on five products"):
        start = time.monotonic()
        for text in products:
            report = verify_theorem(parse_product_spec(text))
            assert report.ok
            for e in report.entries:
                assert e.gap >= -1e-9 * max(e.true_min_boundary, 1.0)
        assert time.monotonic() - start < 120.0


def test_criterion_04_allocation_against_exhaustive_oracles(capsys):
    with criterion(
        capsys, 4, "greedy allocation matches exhaustive grid and knot searches (50 instances)"
    ):
        start = time.monotonic()
        rng = random.Random(20260818)
        for _ in range(50):
            minorants = []
            for _ in range(rng.randint(1, 3)):
                family = rng.choice(("complete", "path", "cycle"))
                m = rng.randint(3 if family == "cycle" else 2, 8)
                minorants.append(build_minorant(profile_closed_form(family, m)))
            budget_idx = rng.randint(0, grid_reach(minorants))
            budget = budget_idx * GRID_STEP
            greedy = theorem_bound(minorants, budget).bound_per_vertex
            assert greedy <= allocation_grid_min(minorants, budget_idx) + 1e-9
            assert abs(greedy - allocation_knot_min(minorants, budget)) <= 1e-6
        assert time.monotonic() - start < 60.0


def test_criterion_05_path_knee_tracks_m_over_e(capsys):
    with criterion(capsys, 5, "last hull segment of P_m starts at floor or ceil of m/e"):
        for m in range(3, 51):
            psi = build_minorant(profile_closed_form("path", m))
            knee = psi.breakpoints[-2].k
            assert knee in (math.floor(m / math.e), math.ceil(m / math.e))
        assert build_minorant(profile_closed_form("path", 3)).breakpoints[-2].k == 1
        assert build_minorant(profile_closed_form("path", 5)).breakpoints[-2].k == 2


def test_criterion_06_benchmark_comparison(capsys):
    cases = [(3, 5), (4, 7), (5, 10)]
    with criterion(
        capsys, 6, "power-of-r benchmark: equal in the small regime, ratio <= 1.0615 after"
    ):
        for n, m in cases:
            split = n * (math.log(m) - 1.0)
            # the ratio bound concerns sets up to half the product, so the
            # sampled log sizes stop at log(m^n / 2)
            hi = n * math.log(m) - math.log(2.0)
            for j in range(1, 101):
                x = j * hi / 100.0
                for torus in (False, True):
                    ours = torus_bound(n, m, x) if torus else grid_bound(n, m, x)
                    bench = bl_bound(n, m, x, torus=torus)
                    if x <= split:
                        assert abs(bench - ours) <= 1e-12 * max(1.0, ours)
                    elif ours > 1e-12:
                        ratio = bench / ours
                        assert 1.0 - 1e-12 <= ratio <= BENCH_RATIO_CAP + 1e-12


def test_criterion_07_cycle_minorant_doubles_path(capsys):
    with criterion(capsys, 7, "cycle minorants are exactly twice path minorants (m = 3..20)"):
        for m in range(3, 21):
            pp = build_minorant(profile_closed_form("path", m))
            cc = build_minorant(profile_closed_form("cycle", m))
            assert cc.domain_end == pp.domain_end
            assert [b.k for b in cc.breakpoints] == [b.k for b in pp.breakpoints]
            for bc, bp in zip(cc.breakpoints, pp.breakpoints):
                assert abs(bc.y - 2.0 * bp.y) <= 1e-12


def test_criterion_08_nonlinearity_witness_c5_squared(capsys):
    with criterion(capsys, 8, "C_5^2 nonlinearity: certified residual -0.2773 below the chord"):
        g = generate("cycle", 5)
        prof = profile_bruteforce(g)
        w = q71_witness(g, build_minorant(prof), 2)
        assert w.sizes == (1, 4, 25)
        for exact, lower in zip(w.exact_per_vertex, w.lower_per_vertex):
            assert abs(exact - lower) <= 1e-9 * max(1.0, exact)  # certified both sides
        assert w.residual < 0
        assert abs(w.residual) > 0.2
        assert abs(w.residual - (-0.27729376770642755)) <= 1e-9


def test_criterion_09_slab_counterexample_and_optimal_cases(capsys):
    with criterion(
        capsys, 9, "C_5 slab counterexample re-verified; complete graphs report optimal slabs"
    ):
        g = generate("cycle", 5)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        cert = q72_certificate(g, summary)
        log_m = math.log(5)
        log_ratio = math.log(5 / cert.k_star)
        # the three inequalities, re-derived from scratch
        assert abs(cert.s * log_m - cert.t * log_ratio) <= cert.epsilon / 2.0
        assert cert.t * (cert.y_intercept * log_ratio / log_m) <= cert.s * cert.y_intercept + cert.epsilon
        lhs = (1.0 + cert.epsilon) * (cert.s * cert.y_intercept + cert.epsilon)
        lhs += cert.epsilon * cert.s * cert.degree * (1.0 + (log_m + cert.epsilon / 2.0) / log_ratio)
        assert lhs < cert.s * cert.degree
        assert cert.lhs == pytest.approx(lhs, rel=1e-12)
        for m in range(3, 9):
            k = generate("complete", m)
            with pytest.raises(SlabsOptimalError):
                q72_certificate(k, regular_summary(k, build_minorant(profile_bruteforce(k))))


def test_criterion_10_oversized_products_are_refused(capsys):
    with criterion(
        capsys,
        10,
        "oversized products refuse to materialize; formula-level checks (criteria 4-7)"
        " cover that scale",
    ):
        spec = parse_product_spec("cycle:10^20")
        assert spec.vertex_count == 10**20
        with pytest.raises(CapExceededError, match=f"product of {10**20} vertices charges"):
            cartesian_product(spec)
        grid = cartesian_product(parse_product_spec("path:70^2"))
        with pytest.raises(CapExceededError, match="over the budget"):
            min_boundary(grid, 3)
