import random

import pytest

from isobound import (
    CapExceededError,
    Graph,
    ParseError,
    ProductSpec,
    VertexSet,
    cartesian_product,
    generate,
    parse_graph,
    parse_product_spec,
    petersen,
)

from oracles import boundary_by_recount, product_vertex_set, vertex_set


def random_graph(rng, m, p=0.5):
    edges = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < p]
    return Graph.from_edges(m, edges, label=f"random:{m}")


class TestGenerate:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_complete(self, m):
        g = generate("complete", m)
        assert g.vertex_count == m
        assert g.edge_count == m * (m - 1) // 2
        assert g.degrees == (m - 1,) * m
        assert g.is_regular() and g.is_connected()

    @pytest.mark.parametrize("m", range(2, 9))
    def test_path(self, m):
        g = generate("path", m)
        assert g.edge_count == m - 1
        assert g.adjacency[0] == (1,)
        assert g.adjacency[m - 1] == (m - 2,)
        assert g.is_connected()

    @pytest.mark.parametrize("m", range(3, 9))
    def test_cycle(self, m):
        g = generate("cycle", m)
        assert g.edge_count == m
        assert g.degrees == (2,) * m
        assert g.adjacency[0] == tuple(sorted((1, m - 1)))

    def test_cycle_too_small(self):
        with pytest.raises(ValueError, match="cycle needs m >= 3"):
            generate("cycle", 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("star", 5)

    def test_labels_round_trip(self):
        g = generate("path", 7)
        assert g.label == "path:7"
        assert g.family == ("path", 7)
        assert petersen().family is None
        assert parse_graph("2\n0 1\n").family is None
        assert cartesian_product(parse_product_spec("path:2^2")).family is None


class TestVertexTransitive:
    """The flag is set by construction and inherited by products."""

    @pytest.mark.parametrize("family,m,expected", [
        ("complete", 1, True), ("complete", 5, True), ("cycle", 3, True), ("cycle", 7, True),
        ("path", 1, True), ("path", 2, True), ("path", 3, False), ("path", 6, False),
    ])
    def test_generate(self, family, m, expected):
        assert generate(family, m).vertex_transitive is expected

    def test_petersen(self):
        assert petersen().vertex_transitive

    def test_products_inherit(self):
        assert cartesian_product(parse_product_spec("path:2^4")).vertex_transitive
        assert cartesian_product(parse_product_spec("cycle:4 x complete:3")).vertex_transitive
        assert not cartesian_product(parse_product_spec("cycle:4 x path:3")).vertex_transitive
        assert not cartesian_product(parse_product_spec("path:3 x complete:2^2")).vertex_transitive

    def test_files_are_not_transitive(self, tmp_path):
        cycle = "4\n0 1\n1 2\n2 3\n3 0\n"
        assert not parse_graph(cycle).vertex_transitive
        path = tmp_path / "c4.txt"
        path.write_text(cycle)
        spec = parse_product_spec(f"file:{path} x complete:2")
        assert not spec.factors[0].vertex_transitive
        assert not cartesian_product(spec).vertex_transitive


class TestPetersen:
    def test_shape(self):
        g = petersen()
        assert g.vertex_count == 10
        assert g.edge_count == 15
        assert g.degrees == (3,) * 10
        assert g.is_connected()
        assert g.adjacency[0] == (1, 4, 5)
        assert g.adjacency[5] == (0, 7, 8)

    def test_triangle_free(self):
        g = petersen()
        for v in range(10):
            for u in g.adjacency[v]:
                assert not set(g.adjacency[v]) & set(g.adjacency[u])


class TestFromEdges:
    def test_duplicates_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.edge_count == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_empty_graph_ok(self):
        g = Graph.from_edges(4, [])
        assert g.edge_count == 0
        assert not g.is_connected()


class TestParseGraph:
    def test_basic_with_comments(self):
        text = "# a triangle plus a pendant\n\n4\n0 1\n1 2\n# middle comment\n2 0\n2 3\n"
        g = parse_graph(text)
        assert g.vertex_count == 4
        assert g.edge_count == 4
        assert g.adjacency[2] == (0, 1, 3)

    def test_duplicate_edges_collapse(self):
        g = parse_graph("3\n0 1\n1 0\n")
        assert g.edge_count == 1

    def test_error_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("not-a-count\n0 1\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("3\n0 1\n0 1 2\n")
        with pytest.raises(ParseError, match="line 4: self-loop"):
            parse_graph("# c\n3\n0 1\n2 2\n")
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_graph("3\n0 9\n")

    def test_missing_count(self):
        with pytest.raises(ParseError, match="no vertex count"):
            parse_graph("# only comments\n")


class TestParseProductSpec:
    def test_power(self):
        spec = parse_product_spec("complete:2^4")
        assert len(spec.factors) == 4
        assert all(f.vertex_count == 2 for f in spec.factors)
        assert spec.vertex_count == 16

    def test_mixed(self):
        spec = parse_product_spec("path:3 x cycle:4 x complete:2")
        assert [f.label for f in spec.factors] == ["path:3", "cycle:4", "complete:2"]

    def test_power_inside_mixed(self):
        spec = parse_product_spec("cycle:5^2 x path:2")
        assert [f.label for f in spec.factors] == ["cycle:5", "cycle:5", "path:2"]
        assert spec.label() == "cycle:5^2 x path:2"

    def test_file_atom(self, tmp_path):
        p = tmp_path / "tri.txt"
        p.write_text("3\n0 1\n1 2\n2 0\n")
        spec = parse_product_spec(f"file:{p} x path:2")
        assert spec.factors[0].vertex_count == 3
        assert spec.factors[0].edge_count == 3

    def test_missing_file(self):
        with pytest.raises(ParseError, match="cannot read"):
            parse_product_spec("file:/nonexistent/g.txt")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "path",
            "path:",
            "path:three",
            "path:3 x",
            "x path:3",
            "path:3 y cycle:4",
            "path:3^0",
            "path:3^",
            "^3",
            "star:5",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_product_spec(text)

    def test_empty_factor_list(self):
        with pytest.raises(ValueError, match="at least one factor"):
            ProductSpec(())


class TestCartesianProduct:
    def test_k2_square_is_four_cycle(self):
        spec = parse_product_spec("complete:2^2")
        g = cartesian_product(spec)
        assert g.adjacency == ((1, 2), (0, 3), (0, 3), (1, 2))

    def test_single_factor_identity(self):
        g = generate("cycle", 5)
        assert cartesian_product(ProductSpec((g,))) is g

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_count_formula(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 6))
        h = random_graph(rng, rng.randint(2, 6))
        prod = cartesian_product(ProductSpec((g, h)))
        assert prod.vertex_count == g.vertex_count * h.vertex_count
        assert prod.edge_count == g.vertex_count * h.edge_count + h.vertex_count * g.edge_count

    def test_associativity_flat(self):
        g1, g2, g3 = generate("path", 2), generate("path", 3), generate("cycle", 4)
        flat = cartesian_product(ProductSpec((g1, g2, g3)))
        left = cartesian_product(ProductSpec((cartesian_product(ProductSpec((g1, g2))), g3)))
        assert flat.adjacency == left.adjacency

    def test_first_factor_most_significant(self):
        spec = parse_product_spec("path:2 x path:3")
        g = cartesian_product(spec)
        # vertex (1, 0) has index 3; its path:2 neighbour is (0, 0) = 0
        assert 0 in g.adjacency[3]
        assert 4 in g.adjacency[3]

    def test_cap_refusal(self):
        # the adjacency masks of any search would charge about 5 * 10^39 units
        spec = parse_product_spec("cycle:10^20")
        with pytest.raises(CapExceededError, match=f"product of {10**20} vertices charges"):
            cartesian_product(spec)


class TestVertexSet:
    def test_members_round_trip(self):
        s = vertex_set([5, 0, 3])
        assert s.size == 3
        assert s.members() == (0, 3, 5)
        assert s.mask == 0b101001

    def test_hex_round_trip(self):
        s = vertex_set(range(7))
        assert VertexSet.from_hex(s.to_hex()) == s

    def test_negative_member_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            vertex_set([-1])


class TestEdgeBoundary:
    """The recount oracle that the boundary checks of the other tests use."""

    def test_trivial_sets(self):
        g = generate("cycle", 6)
        assert boundary_by_recount(g, []) == 0
        assert boundary_by_recount(g, range(6)) == 0
        assert boundary_by_recount(g, [2]) == 2

    def test_out_of_range(self):
        g = generate("path", 3)
        with pytest.raises(ValueError, match="vertex range"):
            boundary_by_recount(g, [3])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_recount_and_complement(self, seed):
        rng = random.Random(100 + seed)
        g = random_graph(rng, rng.randint(3, 10))
        members = [v for v in range(g.vertex_count) if rng.random() < 0.5]
        b = boundary_by_recount(g, members)
        crossing = [(u, v) for u in range(g.vertex_count) for v in g.adjacency[u]
                    if u < v and (u in members) != (v in members)]
        assert b == len(crossing)
        assert b == boundary_by_recount(g, [v for v in range(g.vertex_count) if v not in members])


class TestProductVertexSet:
    def test_membership(self):
        spec = parse_product_spec("path:2 x path:3")
        s = product_vertex_set(spec, [vertex_set([1]), vertex_set([0, 2])])
        assert s.size == 2
        assert s.members() == (3, 5)

    def test_boundary_of_box(self):
        # For A = A_1 x A_2 the boundary splits per factor:
        # e(A) = |A_2| * e(A_1) + |A_1| * e(A_2).
        spec = parse_product_spec("cycle:4 x path:3")
        g = cartesian_product(spec)
        a1 = vertex_set([0, 1])
        a2 = vertex_set([0])
        box = product_vertex_set(spec, [a1, a2])
        assert box.size == 2
        per_factor = (
            a2.size * boundary_by_recount(spec.factors[0], a1.members())
            + a1.size * boundary_by_recount(spec.factors[1], a2.members())
        )
        assert boundary_by_recount(g, box.members()) == per_factor == 1 * 2 + 2 * 1

    def test_wrong_arity(self):
        spec = parse_product_spec("path:2^2")
        with pytest.raises(ValueError, match="one vertex set per factor"):
            product_vertex_set(spec, [vertex_set([0])])
