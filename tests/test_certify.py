import functools
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    boundary_by_recount,
    fibre_floor_by_partitions,
    first_dirichlet_pair_by_scan,
    min_boundary_by_enumeration,
    product_vertex_set,
)

from isobound import (
    CapExceededError,
    Graph,
    ProductSpec,
    SlabsOptimalError,
    VerificationEntry,
    VerificationReport,
    build_minorant,
    cartesian_product,
    generate,
    min_boundary,
    parse_product_spec,
    petersen,
    profile_bruteforce,
    profile_closed_form,
    q71_witness,
    q72_certificate,
    regular_summary,
    verify_theorem,
)
from isobound import certify, profiles
from isobound.certify import _beta_convergents, _convergents, _dirichlet_pair, _nested
from isobound.cli import run
from isobound.profiles import fibre_floor, resolve_profile

GOLDEN = Path(__file__).parent / "golden"
C5_INTERPOLATED_MID = 2.2772937677064276
C5_RESIDUAL = -0.27729376770642755
K2_K1 = Graph.from_edges(3, [(0, 1)], label="K2+K1")  # W_1 = {2} is not inside W_2 = {0, 1}
# canonical witnesses {0}, {0, 3}, {0, 1, 3}, {0, 1, 2, 3}: a chain, not of prefixes
CHAIN = Graph.from_edges(5, [(0, 3), (1, 2), (1, 3), (2, 3), (2, 4)], label="chain")


@st.composite
def file_factor_specs(draw):
    """2-3 factors without a family, at most 200 product vertices."""
    factors, vertices = [], 1
    for i in range(draw(st.integers(2, 3))):
        m = draw(st.integers(1, min(8, 200 // vertices)))
        edges = [p for p in itertools.combinations(range(m), 2) if draw(st.booleans())]
        factors.append(Graph.from_edges(m, edges, label=f"file{i}"))
        vertices *= m
    return ProductSpec(tuple(factors))


class TestVerifyTheorem:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(file_factor_specs())
    def test_size_one_is_least_degree_sum(self, spec):
        truth = sum(min(f.degrees) for f in spec.factors)
        assert min_boundary(cartesian_product(spec), 1)[0] == truth
        (entry,) = verify_theorem(spec, [1]).entries
        assert entry.true_min_boundary == truth

    def test_grid_3x3(self):
        report = verify_theorem(parse_product_spec("path:3^2"))
        assert report.ok
        truths = tuple(e.true_min_boundary for e in report.entries)
        assert truths == (2, 3, 3, 4, 4, 3, 3, 2, 0)
        assert {1, 3, 9} <= set(report.tight_sizes())

    def test_torus_4x4(self):
        report = verify_theorem(parse_product_spec("cycle:4^2"))
        assert report.ok
        truths = tuple(e.true_min_boundary for e in report.entries)
        assert truths == (4, 6, 8, 8, 10, 10, 10, 8, 10, 10, 10, 8, 8, 6, 4, 0)
        assert {1, 2, 4, 8, 16} <= set(report.tight_sizes())

    def test_bound_never_exceeds_truth(self):
        for spec_text in ("path:3 x cycle:4", "complete:3^2", "complete:2^4"):
            report = verify_theorem(parse_product_spec(spec_text))
            for e in report.entries:
                assert e.bound_total <= e.true_min_boundary + 1e-9 * max(e.true_min_boundary, 1)
                assert e.gap == pytest.approx(e.true_min_boundary - e.bound_total, abs=1e-12)

    def test_sampled_sizes_on_larger_product(self):
        spec = parse_product_spec("cycle:3^3")
        report = verify_theorem(spec, ks=[1, 3, 9, 27])
        assert report.ok
        assert len(report.entries) == 4
        assert report.entries[3].true_min_boundary == 0

    def test_all_sizes_needs_small_product(self):
        # 1000 units per size: 21 sizes fit the budget, 2^15 are refused before anything runs
        report = verify_theorem(parse_product_spec("cycle:21"))
        assert report.ok and [e.k for e in report.entries] == list(range(1, 22))
        with pytest.raises(CapExceededError, match=f"verification of {2**15} sizes charges {2**15 * 1000} units"):
            verify_theorem(parse_product_spec("complete:2^15"))

    def test_one_factor_read_from_its_profile(self, monkeypatch):
        # a single factor's truths are its profile's: one size loop, not a
        # second search of the same graph at sizes 2..m/2
        calls = []
        original = profiles._search_sizes

        def counting(g, ks, *rest):
            calls.append(list(ks))
            return original(g, ks, *rest)

        monkeypatch.setattr(profiles, "_search_sizes", counting)
        monkeypatch.setattr(certify, "_search_sizes", counting)
        spec = parse_product_spec(f"file:{GOLDEN / 'g13.txt'}")
        report = verify_theorem(spec)
        assert calls == [list(range(1, 14))]
        g = spec.factors[0]
        assert [e.true_min_boundary for e in report.entries] == [
            min_boundary_by_enumeration(g, k)[0] for k in range(1, 14)
        ]
        assert report.ok and [e.k for e in report.entries] == list(range(1, 14))

    def test_oversized_product_refused_before_profiles(self, monkeypatch):
        # a factor's profile may search for seconds; the product's masks are
        # refused first.  Three factors are searched, so the check runs.
        monkeypatch.setattr(certify, "_solve_factor", lambda g: pytest.fail("factors profiled"))
        with pytest.raises(CapExceededError, match="product of 20000 vertices charges"):
            verify_theorem(parse_product_spec("path:20 x path:10 x path:100"), [3])

    def test_sampled_size_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            verify_theorem(parse_product_spec("path:3^2"), ks=[10])

    def test_empty_size_list(self):
        with pytest.raises(ValueError, match="no sizes"):
            verify_theorem(parse_product_spec("path:3^2"), ks=[])

    def test_description_is_label(self):
        report = verify_theorem(parse_product_spec("complete:2^3"))
        assert report.description == "complete:2^3"

    def test_ok_tolerance(self):
        good = VerificationEntry(k=2, true_min_boundary=3, bound_total=3 + 1e-12, gap=-1e-12, tight=True)
        bad = VerificationEntry(k=2, true_min_boundary=3, bound_total=3 + 1e-6, gap=-1e-6, tight=False)
        assert VerificationReport("x", (good,)).ok
        assert not VerificationReport("x", (good, bad)).ok

    def test_json_shape(self, capsys):
        assert run(["verify", "complete:2^2", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [e["k"] for e in doc["entries"]] == [1, 2, 3, 4]
        assert all(set(e) == {"k", "true_min_boundary", "bound_total", "gap", "tight"} for e in doc["entries"])


def random_products():
    """48 seeded products of 2-3 random file factors of 2-7 vertices, 12-42
    vertices in all (two factors stop at 36: the search of a dense 6 x 7 pair
    can exceed the budget).  Every third has a family factor and every
    fourth, from the second on, a K2 + K1 factor."""
    out = []
    for seed in range(48):
        rng = random.Random(2200 + seed)
        while True:
            factors = []
            for i in range(rng.choice((2, 2, 3))):
                m = rng.randint(2, 7)
                edges = [p for p in itertools.combinations(range(m), 2) if rng.random() < rng.choice((0.3, 0.6))]
                factors.append(Graph.from_edges(m, edges, label=f"file{i}:{m}"))
            if seed % 3 == 0:
                family = ("path", "cycle", "complete")[seed // 3 % 3]
                factors[rng.randrange(len(factors))] = generate(family, rng.randint(3, 4))
            if seed % 4 == 1:
                factors[rng.randrange(len(factors))] = K2_K1
            if 12 <= math.prod(f.vertex_count for f in factors) <= (42 if len(factors) == 3 else 36):
                break
        spec = ProductSpec(tuple(factors))
        out.append(pytest.param(spec, id=f"{seed}:{spec.label()}"))
    return out


class TestNestedFactors:
    """verify relabels each factor whose canonical witnesses form a chain, so
    that the chain is its prefixes, and compresses its coordinate."""

    def test_chain_factor_is_relabelled(self):
        profile = resolve_profile(CHAIN)
        g = _nested(CHAIN, profile)
        assert g.nested and not CHAIN.nested
        order = (0, 3, 1, 2, 4)  # old vertex order[j] is new vertex j
        edges = {frozenset((order.index(u), order.index(v))) for u in range(5) for v in CHAIN.adjacency[u]}
        assert edges == {frozenset((u, v)) for u in range(5) for v in g.adjacency[u]}
        for j in range(1, 6):
            assert boundary_by_recount(g, range(j)) == min_boundary_by_enumeration(CHAIN, j)[0]

    @pytest.mark.parametrize("g", [K2_K1, petersen(), generate("cycle", 5)], ids=lambda g: g.label)
    def test_returned_as_is(self, g):
        # K2 + K1 and Petersen (W_7 is not inside W_8) have no chain; a family is nested already
        profile = resolve_profile(g)
        assert _nested(g, profile) is g
        assert g.nested == (g.family is not None)

    def test_nested_coordinate_gets_down_bits(self):
        marked = replace(CHAIN, nested=True)
        assert cartesian_product(ProductSpec((CHAIN, marked))).down == tuple(
            1 << v - 1 if v % 5 else 0 for v in range(25)
        )
        assert cartesian_product(ProductSpec((marked, CHAIN))).down == tuple(
            1 << v - 5 if v >= 5 else 0 for v in range(25)
        )
        assert cartesian_product(ProductSpec((CHAIN, CHAIN))).down == ()

    @pytest.mark.parametrize("spec", random_products())
    def test_truths_match_plain_search(self, spec):
        m = spec.vertex_count
        plain = profiles._search_sizes(replace(cartesian_product(spec), down=()), range(1, m // 2 + 1))
        truths = [e.true_min_boundary for e in verify_theorem(spec).entries]
        assert truths == [plain[min(k, m - k)][0] if k < m else 0 for k in range(1, m + 1)]


def boundaries(g):
    """(0, b(1), ..., b(m)) of a factor, from its profile."""
    return (0, *(e.min_boundary for e in resolve_profile(g).entries))


def fibre_pairs():
    """Every two-factor product of random_products(), five named pairs, and
    three with the relabelled factor CHAIN."""
    out = [p for p in random_products() if len(p.values[0].factors) == 2]
    named = [
        (generate("cycle", 5), generate("cycle", 7)),
        (generate("path", 5), generate("path", 6)),
        (generate("complete", 3), generate("path", 7)),
        (generate("cycle", 4), generate("cycle", 8)),
        (petersen(), generate("cycle", 3)),
        (CHAIN, generate("path", 4)),
        (CHAIN, CHAIN),
        (generate("complete", 3), CHAIN),
    ]
    out += [pytest.param(ProductSpec(pair), id=ProductSpec(pair).label()) for pair in named]
    return out


@functools.cache
def plain_truths(spec):
    """b(0..m/2) of the product from a search without compression."""
    m = spec.vertex_count
    found = profiles._search_sizes(replace(cartesian_product(spec), down=()), range(1, m // 2 + 1))
    return (0, *(found[k][0] for k in range(1, m // 2 + 1)))


def nested_pair(spec):
    return all(_nested(g, resolve_profile(g)).nested for g in spec.factors)


class TestFibreFloor:
    """profiles.fibre_floor: the integer floor F of a two-factor product from
    its factors' profiles, exact when both are nested (profiles module
    docstring), and verify's use of it."""

    @pytest.mark.parametrize("spec", fibre_pairs())
    def test_below_a_plain_search(self, spec):
        m = spec.vertex_count
        floors = fibre_floor(*map(boundaries, spec.factors), m // 2)
        truths = plain_truths(spec)
        assert len(floors) == m // 2 + 1
        assert all(f <= t for f, t in zip(floors, truths))

    @pytest.mark.parametrize("spec", [p for p in fibre_pairs() if nested_pair(p.values[0])])
    def test_exact_on_nested_pairs(self, spec):
        m = spec.vertex_count
        assert fibre_floor(*map(boundaries, spec.factors), m // 2) == plain_truths(spec)

    def test_nested_pairs_are_covered(self):
        # families, CHAIN relabelled and two random pairs
        assert sum(nested_pair(p.values[0]) for p in fibre_pairs()) == 9

    @pytest.mark.parametrize("spec", fibre_pairs())
    def test_symmetric(self, spec):
        g, h = map(boundaries, spec.factors)
        m = spec.vertex_count
        assert fibre_floor(g, h, m) == fibre_floor(h, g, m)

    def test_matches_the_partition_oracle(self):
        # arbitrary integer floors, not only profiles: F is the least over partitions
        rng = random.Random(2600)
        for _ in range(60):
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            b_g = [0] + [rng.randint(0, 9) for _ in range(a)]
            b_h = [0] + [rng.randint(0, 9) for _ in range(b)]
            floors = fibre_floor(b_g, b_h, a * b)
            assert floors == tuple(fibre_floor_by_partitions(b_g, b_h, k) for k in range(a * b + 1))

    @pytest.mark.parametrize("top", [-1, 21])
    def test_size_out_of_range(self, top):
        with pytest.raises(ValueError, match="outside 0..20"):
            fibre_floor(boundaries(generate("path", 4)), boundaries(generate("path", 5)), top)

    def test_refused_before_allocation(self, monkeypatch):
        # P4 has fewer rows, so the DP swaps the factors: 4 rows of 50 + 1 states
        # at each size 0..200
        b_g, b_h = boundaries(generate("path", 4)), boundaries(generate("path", 50))
        units = 4 * 51 * 201
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", units)
        assert len(fibre_floor(b_h, b_g, 200)) == 201
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", units - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=f"fibre floor of 4 x 50 vertices up to size 200 charges {units} units"):
                fibre_floor(b_h, b_g, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000  # the DP's first table alone holds 201 lists of 51 entries

    def test_keeps_one_table(self):
        # 291 rows of 301 entries: about 1.4 MiB of list slots and new ints
        # per table, so a second or third table alive at once goes over
        b_g, b_h = boundaries(generate("path", 2)), boundaries(generate("path", 300))
        tracemalloc.start()
        try:
            floors = fibre_floor(b_g, b_h, 290)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floors[290] == 2
        assert peak < 2.5 * 2**20

    def test_verify_refuses_before_building(self, monkeypatch):
        # F up to size 9 of P4 x P5 charges 4 * 6 * 10 = 240 units, before any product
        monkeypatch.setattr(certify, "cartesian_product", lambda spec: pytest.fail("product built"))
        spec = parse_product_spec("path:4 x path:5")
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 239)
        with pytest.raises(CapExceededError, match="fibre floor of 4 x 5 vertices up to size 9 charges 240"):
            verify_theorem(spec, [9, 11])
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 240)
        assert [e.true_min_boundary for e in verify_theorem(spec, [9, 11]).entries] == [5, 5]

    def test_nested_pair_builds_no_product(self, monkeypatch):
        # 4,900 vertices: a search at size 3 is over the budget, F is not
        monkeypatch.setattr(certify, "cartesian_product", lambda spec: pytest.fail("product built"))
        report = verify_theorem(parse_product_spec("path:70^2"), [3, 50, 4897])
        assert [e.true_min_boundary for e in report.entries] == [4, 15, 4]
        assert report.ok

    def test_nested_pair_past_the_product_check(self, monkeypatch):
        # 20,000 vertices: the product's masks alone are over the budget, but
        # two families are nested by construction and F answers with no product
        monkeypatch.setattr(certify, "cartesian_product", lambda spec: pytest.fail("product built"))
        monkeypatch.setattr(certify, "check_product", lambda spec: pytest.fail("product checked"))
        report = verify_theorem(parse_product_spec("path:20 x path:1000"), [3, 19997])
        assert [e.true_min_boundary for e in report.entries] == [4, 4]
        assert report.ok

    def test_floors_cut_the_search(self, monkeypatch):
        # Petersen has no chain of witnesses, so Petersen x P4 is built; the
        # grown seed meets F at every size, and no product size is searched
        searched = []
        original = profiles._search

        def recording(g, k, *rest):
            searched.append((g.vertex_count, k))
            return original(g, k, *rest)

        monkeypatch.setattr(profiles, "_search", recording)
        spec = ProductSpec((petersen(), generate("path", 4)))
        truths = [e.true_min_boundary for e in verify_theorem(spec, range(2, 21)).entries]
        assert searched and all(m == 10 for m, _ in searched)  # Petersen's own profile
        compressed = profiles._search_sizes(cartesian_product(spec), range(2, 21))  # P4's coordinate
        assert truths == [compressed[k][0] for k in range(2, 21)]

    @pytest.mark.parametrize("spec", [p for p in fibre_pairs() if not nested_pair(p.values[0])])
    def test_floor_runs_match_plain_values(self, spec):
        # a floors run takes grown seeds and stops early: its values are still b(k)
        m = spec.vertex_count
        floors = fibre_floor(*map(boundaries, spec.factors), m // 2)
        found = profiles._search_sizes(cartesian_product(spec), range(1, m // 2 + 1), None, floors)
        assert (0, *(found[k][0] for k in range(1, m // 2 + 1))) == plain_truths(spec)


class TestNonlinearityWitness:
    def c5_parts(self):
        g = generate("cycle", 5)
        prof = profile_closed_form("cycle", 5)
        return g, prof, build_minorant(prof)

    def test_c5_squared_golden(self):
        g, prof, psi = self.c5_parts()
        w = q71_witness(g, psi, 2)
        assert w.ks == (1, 2, 5)
        assert w.sizes == (1, 4, 25)
        assert w.exact_per_vertex == pytest.approx((4.0, 2.0, 0.0), abs=1e-12)
        assert w.lower_per_vertex == pytest.approx(w.exact_per_vertex, rel=1e-9, abs=1e-12)
        assert w.interpolated_mid == pytest.approx(C5_INTERPOLATED_MID, rel=1e-12)
        assert w.residual == pytest.approx(C5_RESIDUAL, rel=1e-12)
        assert w.residual < 0
        assert abs(w.residual) > 0.2

    def test_middle_size_truth_matches(self):
        # the certified middle value is the true minimum on the square
        g, prof, psi = self.c5_parts()
        w = q71_witness(g, psi, 2)
        spec = parse_product_spec("cycle:5^2")
        product = cartesian_product(spec)
        truth, _ = min_boundary(product, w.sizes[1])
        assert truth == w.sizes[1] * w.exact_per_vertex[1]
        box = product_vertex_set(spec, [prof.entry(2).witness] * 2)
        assert boundary_by_recount(product, box.members()) == truth

    def test_huge_power_stays_symbolic(self, capsys):
        g, prof, psi = self.c5_parts()
        w = q71_witness(g, psi, 40)
        assert w.sizes == (1, 2**40, 5**40)
        assert w.residual < -1e-6
        assert run(["certify-q71", "cycle:5", "--power", "40", "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["sizes"][2] == str(5**40)

    def test_huge_power_refused_unbuilt(self):
        # 5^(10^7) has about 7 million digits and takes seconds to build; its
        # logarithm refuses it at once
        g, prof, psi = self.c5_parts()
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"5\\^10000000 has more than {sys.get_int_max_str_digits()}"):
            q71_witness(g, psi, 10**7)
        assert time.monotonic() - start < 1.0

    def test_path_cube(self):
        prof = profile_closed_form("path", 5)
        w = q71_witness(generate("path", 5), build_minorant(prof), 3)
        assert w.ks == (1, 2, 5)
        assert w.exact_per_vertex == pytest.approx((3.0, 1.5, 0.0), abs=1e-12)
        assert w.residual < -0.1

    @pytest.mark.parametrize("m", range(3, 9))
    def test_residual_always_negative_for_cycles(self, m):
        prof = profile_closed_form("cycle", m)
        psi = build_minorant(prof)
        if len(psi.breakpoints) < 3:
            pytest.skip("single-chord hull")
        w = q71_witness(generate("cycle", m), psi, 2)
        assert w.residual < -1e-6

    def test_single_chord_refused(self):
        prof = profile_closed_form("complete", 4)
        with pytest.raises(ValueError, match="single linear piece"):
            q71_witness(generate("complete", 4), build_minorant(prof), 2)

    def test_bad_power(self):
        g, prof, psi = self.c5_parts()
        with pytest.raises(ValueError, match="positive power"):
            q71_witness(g, psi, 0)


def recheck_certificate(cert, m):
    """Re-derive all three certified inequalities from scratch."""
    log_m = math.log(m)
    log_ratio = math.log(m / cert.k_star)
    eps = cert.epsilon
    assert eps > 0
    assert abs(cert.s * log_m - cert.t * log_ratio) <= eps / 2.0
    assert cert.approx_error == pytest.approx(abs(cert.s * log_m - cert.t * log_ratio), abs=1e-15)
    assert cert.construction_per_block <= cert.s * cert.y_intercept + eps
    lhs = (1.0 + eps) * (cert.s * cert.y_intercept + eps) + eps * cert.s * cert.degree * (
        1.0 + (log_m + eps / 2.0) / log_ratio
    )
    assert cert.lhs == pytest.approx(lhs, rel=1e-12)
    assert cert.lhs < cert.rhs
    assert cert.rhs == cert.s * cert.degree


class TestDirichletCertificate:
    def test_c5(self):
        g = generate("cycle", 5)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        cert = q72_certificate(g, summary)
        assert cert.k_star == 2
        assert cert.i_k_star == pytest.approx(1.0, rel=1e-12)
        assert cert.epsilon <= 0.1
        assert cert.s >= 1 and cert.t >= 1
        assert cert.construction_per_block == pytest.approx(cert.t * cert.i_k_star, rel=1e-12)
        recheck_certificate(cert, 5)

    def test_petersen(self):
        g = petersen()
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        cert = q72_certificate(g, summary)
        assert cert.degree == 3
        assert cert.y_intercept < 3
        recheck_certificate(cert, 10)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_complete_graphs_have_optimal_slabs(self, m):
        g = generate("complete", m)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        with pytest.raises(SlabsOptimalError):
            q72_certificate(g, summary)

    def test_search_failure_with_tiny_t_cap(self, monkeypatch):
        g = generate("cycle", 5)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        monkeypatch.setattr(certify, "T_MAX", 1)
        with pytest.raises(ValueError, match="t <= 1 satisfied"):
            q72_certificate(g, summary)

    def test_mismatched_summary(self):
        g = generate("cycle", 5)
        p = petersen()
        wrong = regular_summary(p, build_minorant(profile_bruteforce(p)))
        with pytest.raises(ValueError, match="does not match"):
            q72_certificate(g, wrong)

    def test_bad_eps_start(self):
        g = generate("cycle", 5)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        with pytest.raises(ValueError, match="eps_start"):
            q72_certificate(g, summary, eps_start=0.0)

    @pytest.mark.parametrize("eps_start", [-1.0, math.inf, -math.inf, math.nan])
    def test_eps_start_must_be_positive_and_finite(self, eps_start):
        # halving inf stays inf, and nan skips the eps loop
        g = generate("cycle", 5)
        summary = regular_summary(g, build_minorant(profile_bruteforce(g)))
        with pytest.raises(ValueError, match="eps_start must be positive and finite"):
            q72_certificate(g, summary, eps_start=eps_start)

    def test_json_fields(self, capsys):
        assert run(["certify-q72", "cycle:5", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertex_count"] == 5
        assert doc["lhs"] < doc["rhs"]


class TestDirichletPair:
    """The convergent walk against a scan over every t."""

    T_MAX = 10**4
    EPS = (10.0, 1.0, 0.5, 0.2, 0.1, 0.05, 1e-2, 1e-3)

    def walk(self, m, k, eps, t_max):
        convergents = _beta_convergents(m, k, t_max)
        return _dirichlet_pair(math.log(m), math.log(m / k), convergents, eps, t_max)

    def test_matches_scan(self):
        cases = 0
        for m in range(3, 31):
            for k in range(2, m):
                log_m, log_ratio = math.log(m), math.log(m / k)
                convergents = _beta_convergents(m, k, self.T_MAX)
                for eps in self.EPS:
                    expected = first_dirichlet_pair_by_scan(log_m, log_ratio, eps, self.T_MAX)
                    got = _dirichlet_pair(log_m, log_ratio, convergents, eps, self.T_MAX)
                    assert got == expected, (m, k, eps)
                    cases += 1
        assert cases == 3248

    def test_first_t_is_not_a_convergent_of_alpha(self):
        # round(t alpha) = 0 below t = 42, so the first admissible t is not a
        # convergent denominator of alpha = log(26/25) / log 26; the walk over
        # beta = 1 / alpha still finds it
        got = self.walk(26, 25, 0.1, self.T_MAX)
        assert got == first_dirichlet_pair_by_scan(math.log(26), math.log(26 / 25), 0.1, self.T_MAX)
        assert got[:2] == (1, 82)

    def test_pair_off_the_first_numerator(self):
        # beta = log 40 / log(40/39) = 145.70..., so the first convergent is
        # 145/1 while the pair is t = 146: the walk must look past p itself
        got = self.walk(40, 39, 0.03, self.T_MAX)
        assert got == first_dirichlet_pair_by_scan(math.log(40), math.log(40 / 39), 0.03, self.T_MAX)
        assert got[:2] == (1, 146)

    def test_t_max_stops_the_walk(self):
        expected = first_dirichlet_pair_by_scan(math.log(7), math.log(7 / 3), 1e-3, self.T_MAX)
        assert expected is not None
        _, t, _ = expected
        assert self.walk(7, 3, 1e-3, t) == expected
        assert self.walk(7, 3, 1e-3, t - 1) is None

    def test_convergents(self):
        assert list(_convergents(355, 113)) == [(3, 1), (22, 7), (355, 113)]
        assert list(_convergents(3, 2)) == [(1, 1), (3, 2)]
        assert list(_convergents(4, 1)) == [(4, 1)]

    def test_beta_convergents(self):
        # log 5 / log(5/2) = [1; 1, 3, 9, 2, ...]
        assert _beta_convergents(5, 2, 50)[:4] == ((1, 1), (2, 1), (7, 4), (65, 37))
        assert all(s <= 50 for _, s in _beta_convergents(5, 2, 50))


class TestSlabBoundary:
    """The slab {u}^t x V^(n-t) in a product of d-regular factors has
    boundary |slab| * t * d."""

    def test_value(self):
        spec = parse_product_spec("cycle:4^3")
        single = profile_closed_form("cycle", 4).entry(1).witness
        full = profile_closed_form("cycle", 4).entry(4).witness
        slab = product_vertex_set(spec, [single, single, full])
        assert slab.size == 4
        assert boundary_by_recount(cartesian_product(spec), slab.members()) == slab.size * 2 * 2

    def test_matches_materialized_slab(self):
        spec = parse_product_spec("cycle:4^2")
        product = cartesian_product(spec)
        full = profile_closed_form("cycle", 4).entry(4).witness
        single = profile_closed_form("cycle", 4).entry(1).witness
        slab = product_vertex_set(spec, [single, full])
        assert slab.size == 4
        assert boundary_by_recount(product, slab.members()) == slab.size * 1 * 2
