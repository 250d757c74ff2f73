import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobound import (
    CapExceededError,
    Graph,
    ProductSpec,
    VertexSet,
    cartesian_product,
    generate,
    min_boundary,
    parse_graph,
    parse_product_spec,
    petersen,
    profile_bruteforce,
    profile_closed_form,
    verify_theorem,
)
from isobound import profiles
from isobound.cli import run
from isobound.profiles import _per_distinct, nested_boundary, resolve_profile

from oracles import boundary_by_recount, min_boundary_by_enumeration

PETERSEN_BOUNDARIES = (3, 4, 5, 6, 5, 6, 5, 4, 3, 0)


def by_enumeration(g):
    """The oracle's (boundary, witness members) for every size k = 1..m."""
    return [min_boundary_by_enumeration(g, k) for k in range(1, g.vertex_count + 1)]


def searched(g):
    return [(e.min_boundary, e.witness.members()) for e in profile_bruteforce(g).entries]


@st.composite
def random_graphs(draw):
    """1-11 vertices, each pair an edge with a sparse, a dense or a near-complete
    probability (the floor's cap on edges inside the completion binds most there)."""
    m = draw(st.integers(1, 11))
    density = draw(st.sampled_from([0.2, 0.7, 0.9]))
    edges = [p for p in itertools.combinations(range(m), 2) if draw(st.floats(0, 1)) < density]
    return Graph.from_edges(m, edges, label=f"random:{m}")


def clique_products(limit):
    """Ascending sizes m_1 <= ... <= m_n, n >= 2 and every m_i >= 2, whose
    product has at most limit vertices."""
    out = []

    def extend(sizes, product):
        if len(sizes) >= 2:
            out.append(tuple(sizes))
        for m in range(sizes[-1] if sizes else 2, limit // product + 1):
            extend(sizes + [m], product * m)

    extend([], 1)
    return out


def random_connected_graph(rng, m):
    """Random spanning tree plus a few extra edges."""
    edges = [(v, rng.randrange(v)) for v in range(1, m)]
    for _ in range(m // 2):
        u, v = rng.randrange(m), rng.randrange(m)
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(m, edges, label=f"random:{m}")


def seed_products():
    """The thirteen products of the compressed-search study, as pytest params:
    family products, and products with Petersen or a file factor."""
    golden = Path(__file__).parent / "golden"
    prism, g13 = (parse_graph((golden / f"{n}.txt").read_text(), n) for n in ("prism", "g13"))
    families = ["cycle:5^2", "path:5 x path:6", "cycle:4 x cycle:8", "cycle:3^3", "complete:2^5",
                "path:3 x cycle:5 x complete:2", "complete:3 x path:7", "cycle:6^2"]
    pairs = {
        "petersen x path:3": (petersen(), generate("path", 3)),
        "cycle:3 x petersen": (generate("cycle", 3), petersen()),
        "prism x cycle:4": (prism, generate("cycle", 4)),
        "complete:2 x g13": (generate("complete", 2), g13),
        "prism x path:5": (prism, generate("path", 5)),
    }
    return [pytest.param(cartesian_product(parse_product_spec(s)), id=s) for s in families] + [
        pytest.param(cartesian_product(ProductSpec(factors)), id=name) for name, factors in pairs.items()
    ]


def unseeded(monkeypatch):
    """Every later search in the test starts from an infinite incumbent."""
    monkeypatch.setattr(profiles, "_grow", lambda g, cross, mask, k: (math.inf, mask))


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
        # the contract verify_theorem relies on to build one profile and one
        # minorant per distinct factor: through _per_distinct, equal graphs
        # (Graph equality, label included), even as separate objects, map to
        # the identical IsoProfile
        ring = [(v, (v + 1) % 7) for v in range(7)]
        graphs = [
            generate("cycle", 8),
            Graph.from_edges(7, ring, label="ring"),
            generate("cycle", 8),
            Graph.from_edges(7, ring, label="ring"),
            generate("path", 8),
        ]
        out = _per_distinct(graphs, resolve_profile)
        assert out[0] is out[2]
        assert out[1] is out[3]
        assert len({id(p) for p in out}) == 3

    def test_family_closed_form_equals_exhaustive_search(self):
        prof = resolve_profile(generate("path", 40))
        assert prof == profile_closed_form("path", 40)
        searched = resolve_profile(generate("path", 40), exhaustive=True)
        assert searched == prof


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
            assert boundary_by_recount(g, witness.members()) == value

    @pytest.mark.parametrize("g", [
        petersen(),
        cartesian_product(parse_product_spec("cycle:3^2")),
        random_connected_graph(random.Random(600), 9),
    ], ids=["petersen", "C3^2", "random"])
    def test_matches_enumeration_at_every_size(self, g):
        # above m/2: a value search at m - k, then the complement search
        got = [min_boundary(g, k) for k in range(1, g.vertex_count + 1)]
        assert [(value, w.members()) for value, w in got] == by_enumeration(g)

    def test_large_size_takes_its_complement(self, monkeypatch):
        # uncompressed, a forward search at 22 on Q5 charges 6.9 million
        # units; the value search at 10 and the complement search, 0.88
        # million together (compressed: 81 thousand against 32 thousand)
        q5 = replace(cartesian_product(parse_product_spec("complete:2^5")), down=())
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 10**6)
        value, witness = min_boundary(q5, 22)
        assert value == nested_boundary([2] * 5, 22) == 20
        assert witness.members() == tuple(range(22))

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
        assert searched(g) == by_enumeration(g)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(random_graphs())
    def test_matches_enumeration_on_random_graphs(self, g):
        assert searched(g) == by_enumeration(g)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_matches_enumeration_on_cliques(self, m):
        # every k-set of K_m has the same boundary, so the floor never prunes
        g = generate("complete", m)
        assert searched(g) == by_enumeration(g)

    def test_pruned_path_beyond_exhaustive_cap(self):
        m = 24
        prof = profile_bruteforce(generate("path", m))
        closed = profile_closed_form("path", m)
        assert prof == closed

    def test_pruned_cycle(self):
        m = 22
        prof = profile_bruteforce(generate("cycle", m))
        closed = profile_closed_form("cycle", m)
        for k in range(1, m + 1):
            assert prof.boundary(k) == closed.boundary(k)
            assert prof.entry(k).witness == closed.entry(k).witness


class TestSymmetryCuts:
    """The vertex-transitive stop and the complement searches keep the values
    and the canonical witnesses of the independent enumeration."""

    @pytest.mark.parametrize("spec", [
        "cycle:3^2", "cycle:4^2", "complete:2^4", "cycle:5 x complete:3", "petersen",
    ])
    def test_transitive_graphs(self, spec):
        g = petersen() if spec == "petersen" else cartesian_product(parse_product_spec(spec))
        assert g.vertex_transitive
        expected = by_enumeration(g)
        assert searched(g) == expected
        singles = [min_boundary(g, k) for k in range(1, g.vertex_count + 1)]
        assert [(v, w.members()) for v, w in singles] == expected

    def test_petersen_prism(self):
        # the oracle takes seconds at the middle sizes of 20 vertices, so check
        # the outer ones: k <= 5 and the complement-searched sizes k >= 15
        g = cartesian_product(ProductSpec((petersen(), generate("complete", 2))))
        assert g.vertex_transitive
        ks = [*range(1, 6), *range(15, 21)]
        profile = searched(g)
        assert [profile[k - 1] for k in ks] == [min_boundary_by_enumeration(g, k) for k in ks]

    @pytest.mark.parametrize("name", [
        *(f"random:{m}:{d}" for m in (15, 16, 17, 18) for d in (0.25, 0.6)),
        "path:4 x path:5", "cycle:5^2", "petersen-prism-file", "petersen-prism",
    ])
    def test_profile_matches_single_sizes(self, name):
        # beyond the enumeration oracle: the profile's shared rows and its
        # complement searches above m/2 against one forward search per size
        prism = cartesian_product(ProductSpec((petersen(), generate("complete", 2))))
        if name.startswith("random"):
            _, m, density = name.split(":")
            rng = random.Random(name)
            pairs = itertools.combinations(range(int(m)), 2)
            g = Graph.from_edges(int(m), [p for p in pairs if rng.random() < float(density)])
        elif name == "petersen-prism":
            g = prism
        elif name == "petersen-prism-file":  # the same graph, not known to be transitive
            g = Graph.from_edges(20, [(u, v) for u in range(20) for v in prism.adjacency[u] if u < v])
        else:
            g = cartesian_product(parse_product_spec(name))
        singles = [min_boundary(g, k) for k in range(1, g.vertex_count + 1)]
        assert searched(g) == [(value, w.members()) for value, w in singles]

    def test_singleton_builds_no_masks(self):
        g = cartesian_product(parse_product_spec("path:3 x cycle:4"))
        assert min_boundary(g, 1) == (3, VertexSet(1, 1))  # deg 1 + 2
        assert "adjacency_masks" not in g.__dict__


class TestSeed:
    """Each size up to m/2 starts its incumbent one above the boundary of the
    last witness grown to k; values and witnesses are those of an unseeded
    search."""

    @pytest.mark.parametrize("g", seed_products())
    def test_matches_unseeded_search(self, g, monkeypatch):
        # every size up to m/2, which compression makes cheap (at most 0.3 s
        # a product); the sizes above m/2 are their complements'
        ks = range(1, g.vertex_count // 2 + 1)
        seeded = profiles._search_sizes(g, ks)
        unseeded(monkeypatch)
        assert profiles._search_sizes(g, ks) == seeded

    @pytest.mark.parametrize("g", [
        pytest.param(petersen(), id="petersen"),
        *(pytest.param(random_connected_graph(random.Random(700 + m), m), id=f"random:{m}") for m in range(8, 17, 2)),
    ])
    def test_matches_enumeration(self, g, monkeypatch):
        expected = by_enumeration(g)
        assert searched(g) == expected
        unseeded(monkeypatch)
        assert searched(g) == expected

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(random_graphs(), st.data())
    def test_grown_set_is_real(self, g, data):
        # U is the recounted boundary of the grown set, and each step takes the
        # least (boundary after the step, vertex), recounted
        m = g.vertex_count
        seed = data.draw(st.integers(0, (1 << m) - 1))
        k = data.draw(st.integers(seed.bit_count(), m))
        inside = set(VertexSet(seed, seed.bit_count()).members())
        value, mask = profiles._grow(g, boundary_by_recount(g, inside), seed, k)
        members = VertexSet(mask, k).members()
        assert mask & seed == seed and mask.bit_count() == k
        assert boundary_by_recount(g, members) == value
        while len(inside) < k:
            _, v = min((boundary_by_recount(g, inside | {u}), u) for u in range(m) if u not in inside)
            inside.add(v)
        assert tuple(sorted(inside)) == members


def plain_answers(g):
    """{k: (boundary, witness mask)} at every size the uncompressed search of g
    answers before its one budget runs out."""
    answered = {}
    original = profiles._search

    def recording(g, k, *rest):
        value, mask, spent = original(g, k, *rest)
        answered[k] = value, mask
        return value, mask, spent

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiles, "_search", recording)
        try:
            return profiles._search_sizes(replace(g, down=()), range(1, g.vertex_count + 1))
        except CapExceededError:
            return answered


def file_x_family_products():
    """Seeded random file factors of 3-7 vertices times a family factor, in
    both orders, and one with a family factor on each side."""
    out = []
    for seed in range(8):
        rng = random.Random(900 + seed)
        file = random_connected_graph(rng, rng.randint(3, 7))
        name = ("path", "cycle", "complete")[seed % 3]
        fam = generate(name, rng.randint(3, 4))
        factors = (file, fam) if seed % 2 else (fam, file)
        if seed == 7:
            factors = (generate("path", 2), file, generate("cycle", 3))
        label = " x ".join(f.label for f in factors)
        out.append(pytest.param(cartesian_product(ProductSpec(factors)), id=f"{seed}:{label}"))
    return out


class TestCompression:
    """Product searches keep to down-sets along family coordinates and still
    give the values and canonical witnesses of the plain search."""

    def test_down_masks(self):
        # prism x path:3: only the path coordinate, stride 1, adds bits
        prism = parse_graph((Path(__file__).parent / "golden" / "prism.txt").read_text(), "prism")
        g = cartesian_product(ProductSpec((prism, generate("path", 3))))
        assert g.down == tuple(1 << v - 1 if v % 3 else 0 for v in range(18))
        # path:2 x petersen x cycle:3: strides 30 and 1; Petersen adds none
        g = cartesian_product(ProductSpec((generate("path", 2), petersen(), generate("cycle", 3))))
        assert g.down == tuple((1 << v - 30 if v >= 30 else 0) | (1 << v - 1 if v % 3 else 0) for v in range(60))
        assert cartesian_product(ProductSpec((prism, petersen()))).down == ()
        assert generate("path", 5).down == () and petersen().down == ()
        assert cartesian_product(parse_product_spec("cycle:4")).down == ()

    @pytest.mark.parametrize("g", seed_products())
    def test_matches_plain_search(self, g):
        # the plain search of cycle:6^2 runs out at size 15, so it answers 1-14
        plain = plain_answers(g)
        compressed = profiles._search_sizes(g, range(1, g.vertex_count + 1))
        assert {k: compressed[k] for k in plain} == plain
        assert len(plain) >= min(g.vertex_count, 14)

    @pytest.mark.parametrize("g", file_x_family_products())
    def test_matches_plain_on_file_factors(self, g):
        plain = plain_answers(g)
        assert len(plain) == g.vertex_count
        assert profiles._search_sizes(g, range(1, g.vertex_count + 1)) == plain

    def test_exhaustive_searches_uncompressed(self, monkeypatch, capsys):
        downs = []
        original = profiles._search

        def recording(g, *rest):
            downs.append(g.down)
            return original(g, *rest)

        monkeypatch.setattr(profiles, "_search", recording)
        assert run(["profile", "path:3 x cycle:4", "--exhaustive", "--output", "json"]) == 0
        exhaustive = capsys.readouterr().out
        assert downs and not any(downs)
        downs.clear()
        assert run(["profile", "path:3 x cycle:4", "--output", "json"]) == 0
        assert capsys.readouterr().out == exhaustive
        assert downs and all(downs)

    @pytest.mark.parametrize("spec,m,half", [("cycle:6^2", 36, 12), ("cycle:6 x cycle:7", 42, 14)])
    def test_refused_profiles_answer(self, spec, m, half, capsys):
        # refused by the budget before compression; half the torus is a band
        # of three rows, whose two cuts each cross every column
        assert run(["profile", spec, "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["profile"]
        assert [r["k"] for r in rows] == list(range(1, m + 1))
        assert rows[m // 2 - 1]["min_boundary"] == half
        g = cartesian_product(parse_product_spec(spec))
        for r in rows:
            members = VertexSet.from_hex(r["witness"]).members()
            assert len(members) == r["k"]
            assert boundary_by_recount(g, members) == r["min_boundary"]


class TestCaps:
    """The search budget counts work, not vertices."""

    def test_pruned_cap(self):
        # the masks and the root's call charge about 12 million units each:
        # refused before the root does any work
        g = cartesian_product(parse_product_spec("path:70^2"))
        with pytest.raises(CapExceededError, match="size 3 on 4900 vertices"):
            min_boundary(g, 3)

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_large_graph_builds_no_masks(self, family, capsys):
        # the masks alone would charge 5 * 10^7 units, so they are never built
        g = generate(family, 10000)
        with pytest.raises(CapExceededError, match="size 2 on 10000 vertices"):
            profile_bruteforce(g)
        assert "adjacency_masks" not in g.__dict__
        assert run(["profile", f"{family}:10000", "--exhaustive"]) == 2
        assert "over the budget" in capsys.readouterr().err

    def test_product_refused_before_it_is_built(self, capsys):
        # a search of 10^6 vertices would charge its masks first
        assert run(["profile", "path:1000^2"]) == 2
        units = 10**6 * (10**6 - 1) // 2
        assert capsys.readouterr().err == (
            f"error: product of 1000000 vertices charges {units} units of work for"
            f" its adjacency masks alone, over the budget of 20000000\n"
        )

    def test_path31_answers(self):
        value, _ = min_boundary(generate("path", 31), 2)
        assert value == 1

    def test_budget_shared_across_sizes(self, monkeypatch):
        # each size alone fits in 400 units; the profile spends 542 over all
        # nine and runs out in size 6, whose search runs at size 3: the message
        # names the size asked for
        g = cartesian_product(parse_product_spec("cycle:3^2"))
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 400)
        for k in range(1, 10):
            min_boundary(g, k)
        with pytest.raises(CapExceededError, match="size 6 on 9 vertices charged 423") as refusal:
            profile_bruteforce(g)
        assert "size 3" not in str(refusal.value)

    def test_verify_spends_one_budget(self, monkeypatch):
        # sizes 3, 4 and 5 each fit in 900 units alone (233, 297 and 475);
        # together they run out in size 5, searched last although listed first.
        # Three factors are searched: two nested ones take the fibre floor
        spec = parse_product_spec("path:3 x complete:2^2")
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 900)
        for k in (3, 4, 5):
            verify_theorem(spec, [k])
        with pytest.raises(CapExceededError, match="size 5 on 12 vertices charged 906 units"):
            verify_theorem(spec, [5, 3, 4])

    def test_verify_refusal_names_the_size_asked(self, monkeypatch):
        # size 15 is read at 5 = 20 - 15; the refusal names 15 unless 5 is asked too
        spec = parse_product_spec("path:2^2 x path:5")
        monkeypatch.setattr(profiles, "SEARCH_BUDGET", 1000)
        with pytest.raises(CapExceededError, match="size 15 on 20 vertices charged 1085 units") as refusal:
            verify_theorem(spec, [15])
        assert "size 5 " not in str(refusal.value)
        with pytest.raises(CapExceededError, match="size 5 on 20 vertices"):
            verify_theorem(spec, [15, 5])


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

    def test_csv_round_trip(self, capsys):
        assert run(["profile", "cycle:5", "--exhaustive", "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
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
        prof = profile_bruteforce(q4)
        expected = (4, 6, 8, 8, 10, 10, 10, 8, 10, 10, 10, 8, 8, 6, 4, 0)
        assert tuple(e.min_boundary for e in prof.entries) == expected

    def test_subcube_witnesses(self):
        q4 = cartesian_product(parse_product_spec("complete:2^4"))
        for t in range(5):
            k = 1 << t
            value, witness = min_boundary(q4, k)
            assert value == k * (4 - t)
            assert witness.members() == tuple(range(k))


class TestNestedBoundary:
    """The lexicographic order's value on clique products against the
    enumeration oracle, and the subcube statement far beyond any search."""

    # largest-first specs and single cliques ride along: the order of the
    # sizes must not matter
    @pytest.mark.parametrize("sizes", [*clique_products(20), (5, 4), (3, 2, 2), (7,), (1, 3)])
    def test_matches_enumeration(self, sizes):
        g = cartesian_product(ProductSpec(tuple(generate("complete", m) for m in sizes)))
        m = g.vertex_count
        values = [nested_boundary(sizes, k) for k in range(1, m + 1)]
        # the oracle takes seconds at the middle sizes of 18-20 vertices, where
        # the search stands in for it
        ks = range(1, m + 1) if m <= 16 else [*range(1, 5), *range(m - 4, m + 1)]
        assert [values[k - 1] for k in ks] == [min_boundary_by_enumeration(g, k)[0] for k in ks]
        assert values == [e.min_boundary for e in profile_bruteforce(g).entries]

    @pytest.mark.parametrize("m,n", [(2, 60), (3, 40), (5, 25), (10, 12)])
    def test_subcubes(self, m, n):
        # a subcube K_m^d x {0}^(n-d) has m^d vertices of degree n(m-1), and
        # each keeps its d(m-1) edges inside
        for d in range(n + 1):
            assert nested_boundary([m] * n, m**d) == m**d * (n - d) * (m - 1)

    def test_thousands_of_factors(self):
        sizes = [3] * 1000 + [2] * 1000
        assert nested_boundary(sizes, 1) == 3000
        # the segment of size 3^1000 is the subcube on the K3 coordinates
        assert nested_boundary(sizes, 3**1000) == 3**1000 * 1000
        # a K3 coordinate keeps 2 edges per log 3, a K2 one 1 per log 2, so the
        # segment beats the subcube on the K2 coordinates
        assert nested_boundary(sizes, 2**1000) < 2**1000 * 2000

    @pytest.mark.parametrize("k", [0, 5])
    def test_size_out_of_range(self, k):
        with pytest.raises(ValueError, match="outside 1..4"):
            nested_boundary([2, 2], k)
