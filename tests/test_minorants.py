import itertools
import math
import random
from dataclasses import astuple, fields
from pathlib import Path

import pytest

from isobound import (
    CapExceededError,
    Graph,
    build_minorant,
    cartesian_product,
    generate,
    parse_graph,
    parse_product_spec,
    petersen,
    profile_bruteforce,
    profile_closed_form,
    regular_summary,
)
from isobound import minorants, profiles
from isobound.minorants import LEFT_INFINITE, LOG_TOL, resolve_minorants
from isobound.profiles import resolve_profile

from oracles import one_sided_derivatives_by_scan, regular_summary_by_scan
from test_profiles import seed_products

GOLDEN = Path(__file__).parent / "golden"

# Frozen golden values, derived independently before the library existed.
K3_AT_LOG2 = 0.7381404928570852
P5_SLOPES = (-0.7213475204444817, -0.5456783339686457)
C5_Y_INTERCEPT = 1.75647079736603
C5_CHORD_SLOPE = -1.0913566679372915
PETERSEN_Y_INTERCEPT = 2.8613531161467862


def path_minorant(m):
    return build_minorant(profile_closed_form("path", m))


class TestHullShapes:
    @pytest.mark.parametrize("m", range(3, 11))
    def test_complete_graph_is_one_chord(self, m):
        psi = build_minorant(profile_closed_form("complete", m))
        assert [b.k for b in psi.breakpoints] == [1, m]
        assert psi.breakpoints[0].y == float(m - 1)
        assert psi.breakpoints[-1].y == 0.0
        rng = random.Random(m)
        for _ in range(10):
            x = rng.uniform(0, psi.domain_end)
            expected = (m - 1) * (1 - x / math.log(m))
            assert psi.evaluate(x) == pytest.approx(expected, abs=1e-12)

    def test_path3(self):
        psi = path_minorant(3)
        assert [(b.k, b.y) for b in psi.breakpoints] == [(1, 1.0), (3, 0.0)]
        assert psi.domain_end == math.log(3)

    def test_path5(self):
        psi = path_minorant(5)
        assert [(b.k, b.y) for b in psi.breakpoints] == [(1, 1.0), (2, 0.5), (5, 0.0)]
        assert psi.slopes() == pytest.approx(P5_SLOPES, rel=1e-15)

    def test_k3_evaluate_golden(self):
        psi = build_minorant(profile_closed_form("complete", 3))
        assert psi.evaluate(math.log(2)) == pytest.approx(K3_AT_LOG2, rel=1e-14)

    @pytest.mark.parametrize("m", range(3, 12))
    def test_cycle_doubles_path(self, m):
        pp = path_minorant(m)
        cc = build_minorant(profile_closed_form("cycle", m))
        assert [b.k for b in cc.breakpoints] == [b.k for b in pp.breakpoints]
        for bc, bp in zip(cc.breakpoints, pp.breakpoints):
            assert bc.y == pytest.approx(2 * bp.y, abs=1e-15)

    def test_collinear_points_merge(self):
        # The 4-cube's hull points (log 2^t, 4 - t) are all collinear with
        # slope -1/log 2, so the hull must collapse to a single chord.
        q4 = cartesian_product(parse_product_spec("complete:2^4"))
        psi = build_minorant(profile_bruteforce(q4))
        assert [b.k for b in psi.breakpoints] == [1, 16]
        assert psi.evaluate(math.log(8)) == pytest.approx(1.0, abs=1e-9)


class TestEvaluate:
    def test_breakpoint_values(self):
        psi = path_minorant(5)
        for b in psi.breakpoints:
            assert psi.evaluate(b.x) == pytest.approx(b.y, abs=1e-15)

    def test_domain_endpoints_with_tolerance(self):
        psi = path_minorant(5)
        assert psi.evaluate(0.0) == 1.0
        assert psi.evaluate(-1e-13) == 1.0
        assert psi.evaluate(psi.domain_end + 1e-13) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x", [-1e-3, math.log(5) + 1e-3])
    def test_out_of_domain(self, x):
        with pytest.raises(ValueError, match="outside"):
            path_minorant(5).evaluate(x)


class TestHullInvariants:
    def graphs(self):
        yield petersen()
        yield Graph.from_edges(1, [])  # a one-point minorant
        for fam, m in [("path", 7), ("cycle", 9), ("complete", 6)]:
            yield generate(fam, m)
        rng = random.Random(7)
        for _ in range(3):
            m = rng.randint(4, 9)
            edges = [(v, rng.randrange(v)) for v in range(1, m)]
            edges += [(0, m - 1)]
            yield Graph.from_edges(m, edges)

    def test_minorant_and_convexity(self):
        for g in self.graphs():
            prof = profile_bruteforce(g)
            psi = build_minorant(prof)
            # below every profile point
            for e in prof.entries:
                assert psi.evaluate(math.log(e.k)) <= float(e.ratio) + 1e-12
            # convex: slopes strictly increase across breakpoints
            slopes = psi.slopes()
            assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))
            # maximal: every breakpoint touches its profile point
            for b in psi.breakpoints:
                assert b.y == float(prof.ratio(b.k))
            # pinned endpoints
            assert psi.breakpoints[0].k == 1
            assert psi.breakpoints[-1].k == g.vertex_count
            assert psi.breakpoints[-1].y == 0.0
            # the derivatives equal a linear scan over the knots at every
            # breakpoint, half a tolerance either side of it, and at midpoints
            xs = [b.x for b in psi.breakpoints]
            tol = LOG_TOL * max(1.0, psi.domain_end)
            points = [x + d for x in xs for d in (-tol / 2, 0.0, tol / 2)]
            for x in points + [(a + b) / 2 for a, b in zip(xs, xs[1:])]:
                expected = one_sided_derivatives_by_scan(psi, x, tol)
                assert psi.one_sided_derivatives(x) == expected, (g, x)

    def test_raising_any_vertex_breaks_minorance(self):
        prof = profile_bruteforce(petersen())
        psi = build_minorant(prof)
        for b in psi.breakpoints:
            assert b.y + 1e-6 > float(prof.ratio(b.k))


class TestDerivatives:
    def test_path5_all_knots(self):
        psi = path_minorant(5)
        s1, s2 = P5_SLOPES
        left, right = psi.one_sided_derivatives(0.0)
        assert left == LEFT_INFINITE
        assert right == pytest.approx(s1, rel=1e-15)
        left, right = psi.one_sided_derivatives(math.log(2))
        assert (left, right) == pytest.approx((s1, s2), rel=1e-15)
        left, right = psi.one_sided_derivatives(psi.domain_end)
        assert left == pytest.approx(s2, rel=1e-15)
        assert right == 0.0

    def test_interior_point(self):
        psi = path_minorant(5)
        left, right = psi.one_sided_derivatives(1.0)
        assert left == right == pytest.approx(P5_SLOPES[1], rel=1e-15)

    def test_segments_widths_cover_domain(self):
        psi = build_minorant(profile_bruteforce(petersen()))
        assert sum(w for _, w in psi.segments()) == pytest.approx(psi.domain_end, rel=1e-15)

    def test_xs_and_slopes_are_cached(self):
        psi = build_minorant(profile_bruteforce(petersen()))
        fresh = build_minorant(profile_bruteforce(petersen()))
        assert psi.xs == tuple(b.x for b in psi.breakpoints)
        psi.evaluate(1.0)
        psi.one_sided_derivatives(1.0)
        assert psi.xs is psi.xs
        assert psi.slopes() is psi.slopes()
        # the caches are not fields: equality, hashing and the CLI's records ignore them
        assert psi == fresh and hash(psi) == hash(fresh)
        assert {f.name for f in fields(psi)} == {"domain_end", "breakpoints"}


class TestRegularSummary:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_complete(self, m):
        g = generate("complete", m)
        s = regular_summary(g, build_minorant(profile_bruteforce(g)))
        assert s.degree == m - 1
        assert s.k_star == 1
        assert s.y_intercept == pytest.approx(float(m - 1), rel=1e-15)
        assert s.chord_slope == pytest.approx(-(m - 1) / math.log(m), rel=1e-15)

    def test_cycle5_golden(self):
        g = generate("cycle", 5)
        s = regular_summary(g, build_minorant(profile_bruteforce(g)))
        assert s.k_star == 2
        assert s.y_intercept == pytest.approx(C5_Y_INTERCEPT, rel=1e-12)
        assert s.chord_slope == pytest.approx(C5_CHORD_SLOPE, rel=1e-12)

    def test_cycle6(self):
        g = generate("cycle", 6)
        s = regular_summary(g, build_minorant(profile_bruteforce(g)))
        assert s.k_star == 2
        assert s.y_intercept == pytest.approx(math.log(6) / math.log(3), rel=1e-12)

    def test_petersen_beats_degree(self):
        g = petersen()
        s = regular_summary(g, build_minorant(profile_bruteforce(g)))
        assert s.k_star == 2
        assert s.y_intercept == pytest.approx(PETERSEN_Y_INTERCEPT, rel=1e-12)
        assert s.y_intercept < s.degree

    def test_shallowest_chord_property(self):
        # the chord through (log k*, i_{k*}) must dominate every other chord
        g = petersen()
        prof = profile_bruteforce(g)
        s = regular_summary(g, build_minorant(prof))
        log_m = math.log(10)
        for k in range(1, 10):
            slope_k = -float(prof.ratio(k)) / (log_m - math.log(k))
            assert slope_k <= s.chord_slope + 1e-15

    def test_rejects_irregular(self):
        g = generate("path", 4)
        with pytest.raises(ValueError, match="not regular"):
            regular_summary(g, build_minorant(profile_bruteforce(g)))

    def test_rejects_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            regular_summary(g, build_minorant(profile_bruteforce(g)))

    def test_rejects_mismatched_profile(self):
        g = generate("cycle", 5)
        with pytest.raises(ValueError, match="does not match"):
            regular_summary(g, build_minorant(profile_closed_form("cycle", 6)))

    def test_rejects_single_vertex(self):
        g = Graph.from_edges(1, [])
        with pytest.raises(ValueError, match="at least 2"):
            regular_summary(g, build_minorant(profile_bruteforce(g)))


def circulant(m, steps):
    edges = {tuple(sorted((v, (v + s) % m))) for v in range(m) for s in steps}
    return Graph.from_edges(m, sorted(edges), label=f"circulant:{m}:{steps}")


def regular_connected_sweep():
    """Families up to m = 60, Petersen, the prism, C4^2 as a product and as a
    file, and seeded connected circulants on 6 to 18 vertices."""
    for m in range(2, 61):
        yield generate("complete", m)
        if m >= 3:
            yield generate("cycle", m)
    yield generate("path", 2)
    yield petersen()
    yield parse_graph((GOLDEN / "prism.txt").read_text())
    c4_sq = cartesian_product(parse_product_spec("cycle:4^2"))
    yield c4_sq
    edges = [(v, u) for v in range(16) for u in c4_sq.adjacency[v] if v < u]
    yield parse_graph("16\n" + "".join(f"{v} {u}\n" for v, u in edges))
    rng = random.Random(17)
    for m in range(6, 19):
        for _ in range(20):
            steps = tuple(sorted(rng.sample(range(1, m // 2 + 1), rng.randint(1, 3))))
            if math.gcd(m, *steps) == 1:
                yield circulant(m, steps)


class TestShallowestChord:
    def test_matches_scan_over_every_k(self):
        graphs = 0
        for g in regular_connected_sweep():
            assert g.is_regular() and g.is_connected()
            prof = resolve_profile(g)
            psi = build_minorant(prof)
            s = regular_summary(g, psi)
            assert astuple(s) == regular_summary_by_scan(g, prof), g.label
            assert resolve_minorants([g]) == (psi,), g.label  # hull-first, when not a family
            graphs += 1
        assert graphs > 300

    def test_c4_squared_tie_keeps_smallest_k(self):
        # Q4 = C4^2: every (log 2^t, 4 - t) lies on one chord, so the hull is
        # one segment and the least k on the shallowest chord is 1
        g = cartesian_product(parse_product_spec("cycle:4^2"))
        psi = build_minorant(profile_bruteforce(g))
        s = regular_summary(g, psi)
        assert [b.k for b in psi.breakpoints] == [1, 16]
        assert (s.k_star, s.y_intercept) == (1, 4.0)
        assert s.chord_slope == -4.0 / math.log(16)


def random_graph(seed, m, density):
    rng = random.Random(seed)
    edges = [p for p in itertools.combinations(range(m), 2) if rng.random() < density]
    return Graph.from_edges(m, edges, label=f"random:{m}:{density}")


def hull_first_randoms():
    """24 seeded random graphs of 8-26 vertices at densities 0.1-0.7."""
    for i in range(24):
        m, density = 8 + 18 * i // 23, (0.1, 0.25, 0.4, 0.55, 0.7)[i % 5]
        yield pytest.param(random_graph(2300 + i, m, density), id=f"random:{m}:{density}")


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(offset + u, offset + v) for u in range(g.vertex_count) for v in g.adjacency[u] if u < v]
        offset += g.vertex_count
    return Graph.from_edges(offset, edges, label=" + ".join(g.label for g in graphs))


def disconnected_graphs():
    """An isolated vertex makes b(1) = b(m - 1) = 0; a component of k vertices
    makes b(k) = 0 with b(1) > 0."""
    k1 = Graph.from_edges(1, [], label="K1")
    yield disjoint_union(random_graph(11, 11, 0.4), k1)
    yield disjoint_union(k1, generate("path", 2), k1)
    yield disjoint_union(random_graph(12, 9, 0.5), random_graph(13, 6, 0.7))
    yield disjoint_union(generate("cycle", 5), generate("complete", 4))
    yield Graph.from_edges(6, [], label="empty:6")


class TestHullFirst:
    """resolve_minorants proves the hull of the exact points it found instead
    of computing every size, and gets build_minorant's minorant of the full
    profile: the same breakpoints, in the same floats."""

    @pytest.mark.parametrize("g", [*seed_products(), *hull_first_randoms()])
    def test_matches_full_profile(self, g):
        assert resolve_minorants([g]) == (build_minorant(profile_bruteforce(g)),)

    @pytest.mark.parametrize("j,points", [
        (4, {1: 3, 4: 4, 10: 0}),  # 4 psi(log 4) = 4.0, at a breakpoint
        (3, {1: 2, 9: 0}),  # 3 psi(log 3) = 3.0, mid-chord
        (5, {1: 3, 10: 0}),  # 4.515...
        (6, {1: 4, 2: 3, 12: 0}),  # 3.481...
    ])
    def test_threshold_is_above_the_float_hull(self, j, points):
        # a decision proves i_j >= psi(log j) exactly only if its bar exceeds
        # j psi(log j) by more than the float hull's rounding: ceil alone ties
        # at an integer, and floor falls below
        psi = minorants._hull(max(points), points)
        value = j * psi.evaluate(math.log(j))
        bar = minorants._threshold(psi, j)
        assert value < bar <= math.ceil(value * (1 + 1e-9))
        assert bar > value * (1 + 1e-10)

    def test_bar_serves_the_complement(self):
        # on random hulls, (m - j) H(log(m - j)) <= j H(log j) for j <= m/2,
        # with a relative gap of at least 0.78 / m below m/2: j's bar is m - j's
        rng = random.Random(2500)
        for _ in range(300):
            m = rng.randint(3, 300)
            points = {1: rng.randint(0, 40), m: 0}
            for k in rng.sample(range(2, m), min(m - 2, rng.randint(0, 8))):
                points[k] = rng.randint(0, 40 * k)
            psi = minorants._hull(m, points)
            for j in range(1, m // 2 + 1):
                near = j * psi.evaluate(math.log(j))
                far = (m - j) * psi.evaluate(math.log(m - j))
                assert minorants._threshold(psi, m - j) <= minorants._threshold(psi, j)
                if 2 * j < m:
                    assert far <= near * (1 - 0.78 / m)

    def test_equal_factors_share_one_object(self):
        g = random_graph(7, 12, 0.4)
        same = Graph.from_edges(12, [(u, v) for u in range(12) for v in g.adjacency[u] if u < v], g.label)
        assert same is not g
        first, second, family, again = resolve_minorants([g, same, generate("cycle", 5), generate("cycle", 5)])
        assert first is second and family is again
        assert family == build_minorant(profile_closed_form("cycle", 5))

    def test_exhaustive_is_the_full_profiles_hull(self):
        g = random_graph(8, 14, 0.3)
        assert resolve_minorants([g], exhaustive=True) == (build_minorant(profile_bruteforce(g)),)
        assert resolve_minorants([generate("path", 6)], exhaustive=True) == (
            build_minorant(profile_bruteforce(generate("path", 6))),
        )

    def test_one_budget_per_factor_names_the_size(self, monkeypatch):
        # the decisions of one factor share one budget: sizes 1-11 charge
        # 82,053 units together, so size 12 runs out, though it fits alone
        g = random_graph(40, 40, 0.3)
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 10**5)
        with pytest.raises(CapExceededError, match="search for size 12 on 40 vertices charged 100255 units"):
            resolve_minorants([g])

    @pytest.mark.parametrize("g", disconnected_graphs(), ids=lambda g: g.label)
    def test_disconnected_graphs(self, g):
        assert resolve_minorants([g]) == (build_minorant(profile_bruteforce(g)),)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8])
    def test_small_graphs(self, m):
        # b(1) = b(m - 1) is the least degree, so a graph of at most 3
        # vertices takes no search; from 4 on, the decisions start
        g = random_graph(m, m, 0.5)
        assert resolve_minorants([g]) == (build_minorant(profile_bruteforce(g)),)
