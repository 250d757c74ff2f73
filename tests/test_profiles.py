import random
from fractions import Fraction

import pytest

from isobound import (
    CapExceededError,
    Graph,
    VertexSet,
    cartesian_product,
    edge_boundary,
    generate,
    min_boundary,
    parse_product_spec,
    petersen,
    profile_bruteforce,
    profile_closed_form,
)
from isobound.profiles import resolve_profiles

PETERSEN_BOUNDARIES = (3, 4, 5, 6, 5, 6, 5, 4, 3, 0)


def random_connected_graph(rng, m):
    """Random spanning tree plus a few extra edges."""
    edges = [(v, rng.randrange(v)) for v in range(1, m)]
    for _ in range(m // 2):
        u, v = rng.randrange(m), rng.randrange(m)
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(m, edges, label=f"random:{m}")


class TestClosedFormAgainstBruteForce:
    @pytest.mark.parametrize("family,m", [
        (f, m)
        for f in ("complete", "path", "cycle")
        for m in range(2, 11)
        if not (f == "cycle" and m < 3)
    ])
    def test_matches(self, family, m):
        g = generate(family, m)
        brute = profile_bruteforce(g)
        closed = profile_closed_form(family, m)
        for k in range(1, m + 1):
            assert brute.boundary(k) == closed.boundary(k)
            assert brute.ratio(k) == closed.ratio(k)
            # prefixes are the canonical minimizers for all three families
            assert brute.entry(k).witness == closed.entry(k).witness

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="closed-form"):
            profile_closed_form("star", 5)
        # validated up front, not per size, so empty size ranges are refused too
        with pytest.raises(ValueError, match="closed-form"):
            profile_closed_form("star", 0)
        with pytest.raises(ValueError, match="complete graph needs m >= 1"):
            profile_closed_form("complete", 0)
        with pytest.raises(ValueError, match="path needs m >= 1"):
            profile_closed_form("path", 0)
        with pytest.raises(ValueError, match="cycle needs m >= 3"):
            profile_closed_form("cycle", 2)


class TestResolveProfiles:
    def test_equal_graphs_share_one_profile_object(self):
        # the contract build_minorants relies on to build one minorant per
        # distinct factor: equal graphs (Graph equality, label included), even
        # as separate objects, map to the identical IsoProfile
        ring = [(v, (v + 1) % 7) for v in range(7)]
        graphs = [
            generate("cycle", 8),
            Graph.from_edges(7, ring, label="ring"),
            generate("cycle", 8),
            Graph.from_edges(7, ring, label="ring"),
            generate("path", 8),
        ]
        out = resolve_profiles(graphs)
        assert out[0] is out[2]
        assert out[1] is out[3]
        assert len({id(p) for p in out}) == 3

    def test_family_takes_closed_form_beyond_search_cap(self):
        (prof,) = resolve_profiles([generate("path", 40)])
        assert prof == profile_closed_form("path", 40)
        with pytest.raises(CapExceededError):
            resolve_profiles([generate("path", 40)], exhaustive=True)


class TestMinBoundary:
    def test_path_pair(self):
        value, witness = min_boundary(generate("path", 4), 2)
        assert value == 1
        assert witness.members() == (0, 1)

    def test_cube_half(self):
        q3 = cartesian_product(parse_product_spec("complete:2^3"))
        value, witness = min_boundary(q3, 4)
        assert value == 4
        assert witness.members() == (0, 1, 2, 3)

    def test_petersen_half(self):
        value, witness = min_boundary(petersen(), 5)
        assert value == 5
        assert witness.members() == (0, 1, 2, 3, 4)

    def test_full_set_is_free(self):
        value, witness = min_boundary(petersen(), 10)
        assert value == 0
        assert witness.size == 10

    @pytest.mark.parametrize("k", [0, 11])
    def test_size_out_of_range(self, k):
        with pytest.raises(ValueError, match="outside"):
            min_boundary(petersen(), k)

    @pytest.mark.parametrize("seed", range(5))
    def test_witness_achieves_value(self, seed):
        rng = random.Random(200 + seed)
        g = random_connected_graph(rng, rng.randint(3, 9))
        for k in range(1, g.vertex_count + 1):
            value, witness = min_boundary(g, k)
            assert witness.size == k
            assert edge_boundary(g, witness) == value

    @pytest.mark.parametrize("seed", range(5))
    def test_singleton_is_min_degree(self, seed):
        rng = random.Random(300 + seed)
        g = random_connected_graph(rng, rng.randint(3, 9))
        value, _ = min_boundary(g, 1)
        assert value == min(g.degrees)

    @pytest.mark.parametrize("seed", range(5))
    def test_connected_proper_subsets_cost(self, seed):
        rng = random.Random(400 + seed)
        g = random_connected_graph(rng, rng.randint(3, 9))
        for k in range(1, g.vertex_count):
            value, _ = min_boundary(g, k)
            assert value >= 1


class TestPruning:
    @pytest.mark.parametrize("seed", range(4))
    def test_prune_matches_exhaustive(self, seed):
        rng = random.Random(500 + seed)
        g = random_connected_graph(rng, rng.randint(6, 12))
        plain = profile_bruteforce(g, prune=False)
        pruned = profile_bruteforce(g, prune=True)
        assert plain == pruned

    def test_pruned_path_beyond_exhaustive_cap(self):
        m = 24
        prof = profile_bruteforce(generate("path", m))  # auto-prunes above 20
        closed = profile_closed_form("path", m)
        assert prof == closed

    def test_pruned_cycle(self):
        m = 22
        prof = profile_bruteforce(generate("cycle", m))
        closed = profile_closed_form("cycle", m)
        for k in range(1, m + 1):
            assert prof.boundary(k) == closed.boundary(k)
            assert prof.entry(k).witness == closed.entry(k).witness


class TestCaps:
    def test_exhaustive_cap(self):
        with pytest.raises(CapExceededError, match="cap is 20"):
            profile_bruteforce(generate("path", 21), prune=False)

    def test_pruned_cap(self):
        with pytest.raises(CapExceededError, match="cap is 30"):
            min_boundary(generate("path", 31), 2)

    def test_override(self):
        value, _ = min_boundary(generate("path", 31), 2, max_vertices=40)
        assert value == 1


class TestProfileContainer:
    def test_petersen_profile(self):
        prof = profile_bruteforce(petersen())
        assert tuple(e.min_boundary for e in prof.entries) == PETERSEN_BOUNDARIES
        assert prof.ratio(2) == Fraction(2)
        assert prof.ratio(4) == Fraction(3, 2)

    def test_ratios_are_exact(self):
        prof = profile_bruteforce(generate("complete", 7))
        assert prof.ratio(3) == Fraction(12, 3) == Fraction(4)
        assert prof.ratio(5) == Fraction(2)

    def test_entry_range_check(self):
        prof = profile_closed_form("path", 4)
        with pytest.raises(ValueError, match="outside"):
            prof.entry(5)

    def test_csv_round_trip(self):
        prof = profile_bruteforce(generate("cycle", 5))
        lines = prof.to_csv().splitlines()
        assert lines[0] == "k,min_boundary,i_k_num,i_k_den,witness"
        assert len(lines) == 6
        k, b, num, den, wit = lines[1].split(",")
        assert (k, b, num, den) == ("1", "2", "2", "1")
        assert VertexSet.from_hex(wit).members() == (0,)
        k, b, num, den, wit = lines[3].split(",")
        assert (k, b, num, den) == ("3", "2", "2", "3")


class TestHypercube:
    def test_q4_profile(self):
        q4 = cartesian_product(parse_product_spec("complete:2^4"))
        prof = profile_bruteforce(q4, prune=False)
        expected = (4, 6, 8, 8, 10, 10, 10, 8, 10, 10, 10, 8, 8, 6, 4, 0)
        assert tuple(e.min_boundary for e in prof.entries) == expected

    def test_subcube_witnesses(self):
        q4 = cartesian_product(parse_product_spec("complete:2^4"))
        for t in range(5):
            k = 1 << t
            value, witness = min_boundary(q4, k)
            assert value == k * (4 - t)
            assert witness.members() == tuple(range(k))
