import math

import pytest

from isobound import (
    SlabsOptimalError,
    VerificationEntry,
    VerificationReport,
    b_t_boundary,
    build_minorant,
    cartesian_product,
    edge_boundary,
    generate,
    min_boundary,
    parse_product_spec,
    petersen,
    product_vertex_set,
    profile_bruteforce,
    profile_closed_form,
    q71_witness,
    q72_certificate,
    regular_summary,
    verify_theorem,
)

C5_INTERPOLATED_MID = 2.2772937677064276
C5_RESIDUAL = -0.27729376770642755


class TestVerifyTheorem:
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
        with pytest.raises(ValueError, match="at most 20"):
            verify_theorem(parse_product_spec("cycle:21"))

    def test_sampled_size_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            verify_theorem(parse_product_spec("path:3^2"), ks=[10])

    def test_description_is_label(self):
        report = verify_theorem(parse_product_spec("complete:2^3"))
        assert report.description == "complete:2^3"

    def test_ok_tolerance(self):
        good = VerificationEntry(k=2, true_min_boundary=3, bound_total=3 + 1e-12, gap=-1e-12, tight=True)
        bad = VerificationEntry(k=2, true_min_boundary=3, bound_total=3 + 1e-6, gap=-1e-6, tight=False)
        assert VerificationReport("x", (good,)).ok
        assert not VerificationReport("x", (good, bad)).ok

    def test_json_shape(self):
        report = verify_theorem(parse_product_spec("complete:2^2"))
        doc = report.to_json_dict()
        assert doc["ok"] is True
        assert [e["k"] for e in doc["entries"]] == [1, 2, 3, 4]
        assert all(set(e) == {"k", "true_min_boundary", "bound_total", "gap", "tight"} for e in doc["entries"])


class TestNonlinearityWitness:
    def c5_parts(self):
        g = generate("cycle", 5)
        prof = profile_closed_form("cycle", 5)
        return g, prof, build_minorant(prof)

    def test_c5_squared_golden(self):
        g, prof, psi = self.c5_parts()
        w = q71_witness(g, prof, psi, 2)
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
        w = q71_witness(g, prof, psi, 2)
        spec = parse_product_spec("cycle:5^2")
        product = cartesian_product(spec)
        truth, _ = min_boundary(product, w.sizes[1])
        assert truth == w.sizes[1] * w.exact_per_vertex[1]
        box = product_vertex_set(spec, [prof.entry(2).witness] * 2)
        assert edge_boundary(product, box) == truth

    def test_huge_power_stays_symbolic(self):
        g, prof, psi = self.c5_parts()
        w = q71_witness(g, prof, psi, 40)
        assert w.sizes == (1, 2**40, 5**40)
        assert w.residual < -1e-6
        assert w.to_json_dict()["sizes"][2] == str(5**40)

    def test_path_cube(self):
        prof = profile_closed_form("path", 5)
        w = q71_witness(generate("path", 5), prof, build_minorant(prof), 3)
        assert w.ks == (1, 2, 5)
        assert w.exact_per_vertex == pytest.approx((3.0, 1.5, 0.0), abs=1e-12)
        assert w.residual < -0.1

    @pytest.mark.parametrize("m", range(3, 9))
    def test_residual_always_negative_for_cycles(self, m):
        prof = profile_closed_form("cycle", m)
        psi = build_minorant(prof)
        if len(psi.breakpoints) < 3:
            pytest.skip("single-chord hull")
        w = q71_witness(generate("cycle", m), prof, psi, 2)
        assert w.residual < -1e-6

    def test_single_chord_refused(self):
        prof = profile_closed_form("complete", 4)
        with pytest.raises(ValueError, match="single linear piece"):
            q71_witness(generate("complete", 4), prof, build_minorant(prof), 2)

    def test_bad_power(self):
        g, prof, psi = self.c5_parts()
        with pytest.raises(ValueError, match="positive power"):
            q71_witness(g, prof, psi, 0)


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
        summary = regular_summary(g, profile_bruteforce(g))
        cert = q72_certificate(g, summary)
        assert cert.k_star == 2
        assert cert.i_k_star == pytest.approx(1.0, rel=1e-12)
        assert cert.epsilon <= 0.1
        assert cert.s >= 1 and cert.t >= 1
        assert cert.construction_per_block == pytest.approx(cert.t * cert.i_k_star, rel=1e-12)
        recheck_certificate(cert, 5)

    def test_petersen(self):
        g = petersen()
        summary = regular_summary(g, profile_bruteforce(g))
        cert = q72_certificate(g, summary)
        assert cert.degree == 3
        assert cert.y_intercept < 3
        recheck_certificate(cert, 10)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_complete_graphs_have_optimal_slabs(self, m):
        g = generate("complete", m)
        summary = regular_summary(g, profile_bruteforce(g))
        with pytest.raises(SlabsOptimalError):
            q72_certificate(g, summary)

    def test_search_failure_with_tiny_t_cap(self):
        g = generate("cycle", 5)
        summary = regular_summary(g, profile_bruteforce(g))
        with pytest.raises(ValueError, match="search failed"):
            q72_certificate(g, summary, t_max=1)

    def test_mismatched_summary(self):
        g = generate("cycle", 5)
        p = petersen()
        wrong = regular_summary(p, profile_bruteforce(p))
        with pytest.raises(ValueError, match="does not match"):
            q72_certificate(g, wrong)

    def test_bad_eps_start(self):
        g = generate("cycle", 5)
        summary = regular_summary(g, profile_bruteforce(g))
        with pytest.raises(ValueError, match="eps_start"):
            q72_certificate(g, summary, eps_start=0.0)

    def test_json_fields(self):
        g = generate("cycle", 5)
        summary = regular_summary(g, profile_bruteforce(g))
        doc = q72_certificate(g, summary).to_json_dict()
        assert doc["vertex_count"] == 5
        assert doc["lhs"] < doc["rhs"]


class TestSlabBoundary:
    def test_value(self):
        assert b_t_boundary(4, 2, 5, 3) == 6.0

    def test_matches_materialized_slab(self):
        spec = parse_product_spec("cycle:4^2")
        product = cartesian_product(spec)
        full = profile_closed_form("cycle", 4).entry(4).witness
        single = profile_closed_form("cycle", 4).entry(1).witness
        slab = product_vertex_set(spec, [single, full])
        assert slab.size == 4
        assert edge_boundary(product, slab) == slab.size * b_t_boundary(4, 2, 2, 1)

    def test_rejects(self):
        with pytest.raises(ValueError, match="slab depth"):
            b_t_boundary(4, 2, 3, 0)
        with pytest.raises(ValueError, match="slab depth"):
            b_t_boundary(4, 2, 3, 4)
        with pytest.raises(ValueError, match="m >= 2"):
            b_t_boundary(1, 1, 3, 1)
