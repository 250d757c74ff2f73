"""Finite simple graphs, vertex subsets, and Cartesian products.

Vertices are always 0..m-1.  Product graphs use mixed-radix vertex encoding
with the first factor most significant, so the index of (v_1, ..., v_n) is
((v_1 * m_2 + v_2) * m_3 + v_3) * ... .

Graph.family is (name, m) for a graph built by generate(name, m) and None for
everything else (products, files, petersen).  It is the only way the rest of
the package recognizes a named family: labels are for display.  FAMILIES is
the one table of named families, their minimum sizes, edges, known minimum
edge boundaries and vertex-transitivity (set at construction, never detected).

SEARCH_BUDGET, counted in the list elements a profile search builds, is the
one size limit: a product is refused here, unbuilt, when a search of it could
not even pay for its adjacency masks.  This module alone decides what is a
product: a spec of one factor never is, whatever its size.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

SEARCH_BUDGET = 2 * 10**7  # list elements: about 5 s of search at 0.25 us each


class ParseError(ValueError):
    """A graph file or graph spec string is malformed."""


class CapExceededError(ValueError):
    """A product or a profile search over the search budget."""


class CertificateSearchError(ValueError):
    """A certificate search ended without a certificate, though one may exist."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph; adjacency[v] is sorted."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    label: str = "graph"
    family: tuple[str, int] | None = None  # (name, m) when built by generate
    vertex_transitive: bool = False  # set at construction, never detected
    # prefixes {0..j-1} are minimizers at every size j: set by generate, and by
    # verify for a factor it relabels (certify._nested); never detected
    nested: bool = False
    # down[v]: the bit of v - stride_i for each nested coordinate i of a product
    # where v's coordinate is positive; () otherwise (profiles: compression)
    down: tuple[int, ...] = ()

    @classmethod
    def from_edges(cls, vertex_count: int, edges, label: str = "graph") -> "Graph":
        if vertex_count < 1:
            raise ValueError(f"vertex count must be positive, got {vertex_count}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))  # duplicates collapse
        neighbours: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in seen:
            neighbours[u].append(v)
            neighbours[v].append(u)
        return cls(vertex_count, tuple(tuple(sorted(ns)) for ns in neighbours), label)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ns) for ns in self.adjacency)

    @cached_property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = []
        for ns in self.adjacency:
            m = 0
            for u in ns:
                m |= 1 << u
            masks.append(m)
        return tuple(masks)

    def is_regular(self) -> bool:
        return len(set(self.degrees)) <= 1

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.vertex_count


@dataclass(frozen=True)
class VertexSet:
    """Vertex subset as a dense bitmask (bit v set iff v is a member)."""

    mask: int
    size: int

    @classmethod
    def from_hex(cls, text: str) -> "VertexSet":
        mask = int(text, 16)
        return cls(mask, mask.bit_count())

    def to_hex(self) -> str:
        return format(self.mask, "x")

    def members(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)


@dataclass(frozen=True)
class ProductSpec:
    """Factor list of a Cartesian product, not necessarily materializable."""

    factors: tuple[Graph, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product spec needs at least one factor")

    @property
    def vertex_count(self) -> int:
        return math.prod(f.vertex_count for f in self.factors)

    def label(self) -> str:
        parts = []
        for lab, group in itertools.groupby(f.label for f in self.factors):
            n = len(list(group))
            parts.append(lab if n == 1 else f"{lab}^{n}")
        return " x ".join(parts)


@dataclass(frozen=True)
class Family:
    noun: str  # for error messages
    min_size: int
    edges: Callable[[int], list[tuple[int, int]]]
    boundary: Callable[[int, int], int]  # (m, k) -> minimum boundary of a k-set
    vertex_transitive: Callable[[int], bool]


FAMILIES = {
    "complete": Family(
        "complete graph", 1, lambda m: [(u, v) for u in range(m) for v in range(u + 1, m)],
        lambda m, k: k * (m - k), lambda m: True,
    ),
    "path": Family(
        "path", 1, lambda m: [(v, v + 1) for v in range(m - 1)], lambda m, k: 1 if k < m else 0,
        lambda m: m <= 2,
    ),
    "cycle": Family(
        "cycle", 3, lambda m: [(v, (v + 1) % m) for v in range(m)], lambda m, k: 2 if k < m else 0,
        lambda m: True,
    ),
}


def family_entry(name: str, m: int) -> Family:
    """The table entry for name, checked against its minimum size."""
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(
            f"unknown family {name!r} (no graph or closed-form profile);"
            f" expected one of {tuple(FAMILIES)}"
        )
    if m < family.min_size:
        raise ValueError(f"{family.noun} needs m >= {family.min_size}, got {m}")
    return family


def generate(family: str, m: int) -> Graph:
    """One of the named families on m vertices."""
    entry = family_entry(family, m)
    g = Graph.from_edges(m, entry.edges(m), label=f"{family}:{m}")
    return replace(g, family=(family, m), vertex_transitive=entry.vertex_transitive(m), nested=True)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return replace(Graph.from_edges(10, edges, label="petersen"), vertex_transitive=True)


def parse_graph(text: str, label: str = "file") -> Graph:
    """Edge-list format: first nonblank line is the vertex count, the rest are
    "u v" pairs (0-based).  Lines starting with '#' are comments."""
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if vertex_count is None:
            if len(parts) != 1:
                raise ParseError(f"line {lineno}: expected a single vertex count, got {line!r}")
            try:
                vertex_count = int(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer: {line!r}") from None
            if vertex_count < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive, got {vertex_count}")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: endpoints are not integers: {line!r}") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ParseError(
                f"line {lineno}: edge ({u}, {v}) out of range for {vertex_count} vertices"
            )
        edges.append((u, v))
    if vertex_count is None:
        raise ParseError("no vertex count line found")
    return Graph.from_edges(vertex_count, edges, label=label)


def _parse_atom(token: str) -> Graph:
    name, sep, arg = token.partition(":")
    if not sep or not arg:
        raise ParseError(f"bad graph spec {token!r}; expected family:M or file:PATH")
    if name == "file":
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read graph file {arg!r}: {exc}") from None
        return parse_graph(text, label=token)
    if name not in FAMILIES:
        raise ParseError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)} or file")
    if not arg.isdigit():
        raise ParseError(f"bad size {arg!r} in {token!r}")
    return generate(name, int(arg))


def parse_product_spec(text: str) -> ProductSpec:
    """Grammar: TERM (x TERM)*, TERM = ATOM or ATOM^K,
    ATOM = complete:M | path:M | cycle:M | file:PATH."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty graph spec")
    factors: list[Graph] = []
    expect_term = True
    for token in tokens:
        if expect_term:
            atom_text, caret, power_text = token.partition("^")
            atom = _parse_atom(atom_text)
            if caret:
                if not power_text.isdigit() or int(power_text) < 1:
                    raise ParseError(f"bad power {power_text!r} in {token!r}")
                factors.extend([atom] * int(power_text))
            else:
                factors.append(atom)
        elif token != "x":
            raise ParseError(f"expected 'x' between factors, got {token!r}")
        expect_term = not expect_term
    if expect_term:
        raise ParseError("graph spec ends with a dangling 'x'")
    return ProductSpec(tuple(factors))


def check_product(spec: ProductSpec) -> None:
    """Refuse a product that is built only to be searched at a size of at
    least 2: such a search first charges m(m - 1)/2 units for its adjacency
    masks, so a product whose masks alone exceed SEARCH_BUDGET is refused
    before anything is allocated.  A lone factor is no product and passes."""
    total = spec.vertex_count
    if len(spec.factors) > 1 and (units := total * (total - 1) // 2) > SEARCH_BUDGET:
        raise CapExceededError(
            f"product of {total} vertices charges {units} units of work for its"
            f" adjacency masks alone, over the budget of {SEARCH_BUDGET}"
        )


def cartesian_product(spec: ProductSpec) -> Graph:
    """spec's lone factor as it is, before any check, or the product once check_product admits it."""
    factors = spec.factors
    if len(factors) == 1:
        return factors[0]
    check_product(spec)
    total = spec.vertex_count
    sizes = [f.vertex_count for f in factors]
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]  # index = sum c_i * strides[i]
    adjacency, down = [], []
    for idx, coords in enumerate(itertools.product(*(range(m) for m in sizes))):
        ns, below = [], 0
        for g, stride, c in zip(factors, strides, coords):
            base = idx - c * stride
            for u in g.adjacency[c]:
                ns.append(base + u * stride)
            if c and g.nested:
                below |= 1 << idx - stride
        adjacency.append(tuple(sorted(ns)))
        down.append(below)
    transitive = all(f.vertex_transitive for f in factors)  # Aut(G) x Aut(H) acts transitively
    down = tuple(down) if any(f.nested for f in factors) else ()  # () when no factor adds a bit
    return Graph(total, tuple(adjacency), spec.label(), vertex_transitive=transitive, down=down)
