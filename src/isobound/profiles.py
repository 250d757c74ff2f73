"""Exact edge-isoperimetric profiles of small graphs.

i_k(G) = min { e(A, A^c) / |A| : A subset of V, |A| = k }, stored as an exact
rational.  Searches enumerate k-subsets in lexicographic order of the sorted
member tuple and keep the first minimizer found, so the reported witness is
always the lexicographically smallest one and repeated runs are identical.

Pure enumeration is the default up to EXHAUSTIVE_CAP vertices.  Above that a
branch-and-bound variant prunes partial sets whose crossing count minus the
best possible future cancellation (from residual degrees within the candidate
pool) cannot beat the incumbent; it visits subsets in the same order, so the
canonical witness is unchanged.

resolve_profiles is the one place that chooses between the two: family graphs
(Graph.family set) take the closed form, everything else is searched, and
each distinct graph is solved once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .graphs import CapExceededError, Graph, VertexSet, family_entry

EXHAUSTIVE_CAP = 20
PRUNED_CAP = 30


@dataclass(frozen=True)
class ProfileEntry:
    k: int
    min_boundary: int
    ratio: Fraction  # i_k, exact
    witness: VertexSet


@dataclass(frozen=True)
class IsoProfile:
    graph_size: int
    entries: tuple[ProfileEntry, ...]  # entries[k - 1] is size k

    def entry(self, k: int) -> ProfileEntry:
        if not 1 <= k <= self.graph_size:
            raise ValueError(f"size {k} outside 1..{self.graph_size}")
        return self.entries[k - 1]

    def boundary(self, k: int) -> int:
        return self.entry(k).min_boundary

    def ratio(self, k: int) -> Fraction:
        return self.entry(k).ratio

    def to_csv(self) -> str:
        lines = ["k,min_boundary,i_k_num,i_k_den,witness"]
        for e in self.entries:
            lines.append(
                f"{e.k},{e.min_boundary},{e.ratio.numerator},{e.ratio.denominator},"
                f"{e.witness.to_hex()}"
            )
        return "\n".join(lines) + "\n"


def _check_cap(m: int, prune: bool | None, max_vertices: int | None) -> bool:
    """Resolve the prune flag and enforce the search cap.  Returns prune."""
    if prune is None:
        prune = m > EXHAUSTIVE_CAP
    if max_vertices is None:
        max_vertices = PRUNED_CAP if prune else EXHAUSTIVE_CAP
    if m > max_vertices:
        raise CapExceededError(
            f"graph has {m} vertices but the search cap is {max_vertices}"
            f" (pass max_vertices to override)"
        )
    return prune


def _search(g: Graph, k: int, prune: bool) -> tuple[int, int]:
    """(min boundary, witness mask) over k-subsets, lexicographic DFS."""
    m = g.vertex_count
    if k == m:
        return 0, (1 << m) - 1
    adj = g.adjacency_masks
    deg = g.degrees
    best_val = inf
    best_mask = 0
    # pool_masks[v] = vertices v..m-1, the candidates after picking up to v-1
    pool_masks = [((1 << m) - 1) ^ ((1 << v) - 1) for v in range(m + 1)]

    def future_floor(mask: int, lo: int, need: int) -> float:
        # Sound lower bound on the boundary change of any completion: each
        # candidate u can cancel at most its edges into mask plus its edges
        # into the pool (the latter double-counted across picks, hence once
        # per endpoint here).
        pool = pool_masks[lo]
        weights = []
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            pool ^= low
            w = deg[u] - 2 * (adj[u] & mask).bit_count() - (adj[u] & pool_masks[lo]).bit_count()
            weights.append(w)
        weights.sort()
        return sum(weights[:need])

    def extend(lo: int, mask: int, cross: int, need: int) -> None:
        nonlocal best_val, best_mask
        for v in range(lo, m - need + 1):
            delta = deg[v] - 2 * (adj[v] & mask).bit_count()
            new_cross = cross + delta
            new_mask = mask | (1 << v)
            if need == 1:
                if new_cross < best_val:
                    best_val = new_cross
                    best_mask = new_mask
            else:
                if prune and new_cross + future_floor(new_mask, v + 1, need - 1) >= best_val:
                    continue
                extend(v + 1, new_mask, new_cross, need - 1)

    extend(0, 0, 0, k)
    return int(best_val), best_mask


def min_boundary(
    g: Graph,
    k: int,
    *,
    prune: bool | None = None,
    max_vertices: int | None = None,
) -> tuple[int, VertexSet]:
    """Exact minimum edge boundary over all k-subsets, with canonical witness."""
    m = g.vertex_count
    if not 1 <= k <= m:
        raise ValueError(f"size {k} outside 1..{m}")
    use_prune = _check_cap(m, prune, max_vertices)
    value, mask = _search(g, k, use_prune)
    return value, VertexSet(mask, k)


def profile_bruteforce(
    g: Graph,
    *,
    prune: bool | None = None,
    max_vertices: int | None = None,
) -> IsoProfile:
    """Full profile k = 1..m; each size is an independent search."""
    m = g.vertex_count
    use_prune = _check_cap(m, prune, max_vertices)
    entries = []
    for k in range(1, m + 1):
        value, mask = _search(g, k, use_prune)
        entries.append(ProfileEntry(k, value, Fraction(value, k), VertexSet(mask, k)))
    return IsoProfile(m, tuple(entries))


def profile_closed_form(family: str, m: int) -> IsoProfile:
    """Known families without search: i_k(K_m) = m - k, i_k(P_m) = 1/k,
    i_k(C_m) = 2/k (all for k < m; i_m = 0).  Witnesses are prefixes, which
    are also the lexicographically smallest minimizers."""
    boundary = family_entry(family, m).boundary
    entries = []
    for k in range(1, m + 1):
        b = boundary(m, k)
        entries.append(ProfileEntry(k, b, Fraction(b, k), VertexSet((1 << k) - 1, k)))
    return IsoProfile(m, tuple(entries))


def resolve_profiles(graphs, exhaustive: bool = False) -> tuple[IsoProfile, ...]:
    """One profile per graph, each distinct graph solved once: the closed form
    for family graphs unless exhaustive, otherwise profile_bruteforce.

    Contract: equal graphs map to the identical IsoProfile object, so callers
    (build_minorants) can deduplicate by identity without hashing profiles."""
    graphs = tuple(graphs)
    keys = [g.family or g for g in graphs]  # family graphs key by (name, m): no adjacency hash
    solved: dict = {}
    for g, key in zip(graphs, keys):
        if key not in solved:
            if g.family is not None and not exhaustive:
                solved[key] = profile_closed_form(*g.family)
            else:
                solved[key] = profile_bruteforce(g)
    return tuple(solved[key] for key in keys)
