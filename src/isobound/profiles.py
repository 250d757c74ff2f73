"""Exact edge-isoperimetric profiles of small graphs.

i_k(G) = min { e(A, A^c) / |A| : A subset of V, |A| = k }, stored as an exact
rational.  The search is a branch-and-bound over k-subsets: it enumerates them
in lexicographic order of the sorted member tuple, keeps the first minimizer
found, and prunes a partial set S when its crossing count plus a floor on the
change of any completion cannot beat the incumbent.  A completion T of size n
from the candidate pool changes the boundary by exactly the sum over u in T of
deg u - 2 |adj u & S| - |adj u & T|; each internal edge of T is counted once
per endpoint, and u has at most min(|adj u & pool|, n - 1) neighbours in T.
The floor is the sum of the n smallest of these per-vertex bounds, so it never
exceeds the true change, and at n = 1 it is the exact best last step.  Pruning
only skips sets that cannot win, so the reported witness is always the
lexicographically smallest one and repeated runs are identical.

A child v's per-vertex bounds are a row that depends only on v and n, less
the parent set's terms 2 |adj u & S|.  Rows are built on first use and kept
in one table per call, a root's for later searches.  Each row is stored with
the sum of its n smallest entries; as the parent's terms are never negative,
that sum less the parent's terms summed over the whole pool is a lower bound
on the floor.  This O(1) pre-check skips most children before their floor is
built, and since it never exceeds the floor, the search tree is unchanged.

One loop, _search_sizes, serves profile_bruteforce, min_boundary and
verify_theorem.  It searches the sizes up to m/2 in ascending order, each with
its incumbent one above the boundary of a real set: the last witness, grown
by the vertex of least boundary increase (the least on a tie) to k vertices.
The first minimizer in lexicographic order still beats every set before it,
so values and witnesses are those of an unseeded search.  The incumbent is a
parameter of _search: the hull-first minorants (minorants module) fix it at
a decision threshold.

Work is counted in list elements, not nodes: an element costs 0.03-0.25 us
(one core of a 2-core Xeon, CPython 3.11) across searches whose node counts
differ a hundredfold.  Each call of the search charges on entry, in closed
form, one entry per remaining vertex plus one floor weight per later vertex
for each child, an upper bound on what it builds; the adjacency masks and row
tables are charged before they are built.  Past SEARCH_BUDGET the search stops
with CapExceededError; one call of the loop spends one budget over all its
sizes.  The count depends only on the graph and the sizes, which fix the
seeds, and it also bounds the rows kept.

Two symmetry cuts keep that witness.  On a vertex-transitive graph some
minimizer holds vertex 0, and sets holding 0 come first, so only the v = 0
top-level branch is searched.  Sizes above m/2 are found by complement:
boundary(k) = boundary(m - k), and for two sets of equal size A precedes B
exactly when B^c precedes A^c, since the least element of their symmetric
difference lies in the smaller set.  So the canonical witness at a size
k > m/2 is the complement of the lexicographically last minimizer of size
m - k.  The loop finds it by a search at size m - k that takes children in
descending order, stops at the first leaf reaching the boundary already found
for m - k, and on a vertex-transitive graph leaves vertex 0 out, as the
canonical k-witness holds it.

Compression (Bollobas and Leader, Combinatorica 11, 1991) cuts the search of
a product.  A nested factor's first j vertices are optimal at every j (every
family, and each factor that verify_theorem relabels so that its chain of
canonical witnesses W_1, W_2, ... becomes its prefixes), so replacing each
fibre of a set along a nested coordinate by the prefix of its size leaves the
boundary no larger (edges inside a fibre fall to the factor's minimum, those
between two fibres to the difference of their sizes).  It moves each member to
one no larger, one to one, so the new set comes no later in lexicographic
order, and the canonical witness is a down-set along every nested coordinate.
Relabelling changes witnesses, not values, and verify reports values only.
With g.down (graphs.cartesian_product), a forward search takes a child v only
when down[v] lies inside the set; a complement search, whose set is the
witness's complement, takes no child past the first w whose down[w] meets the
set (w is the last), as leaving w out would keep w - stride_i in.  A prefix of
a down-set is a down-set, so the canonical witness is still met, and nodes are
charged as before.

The fibre floor F bounds b(k) on a product G x H of a and b vertices with no
search.  Let A have fibres A_g = A & ({g} x H) of sizes a_g, and lam those
sizes sorted decreasingly.  The edges inside fibres number at least
sum_i b_H(lam_i).  An edge g ~ g' of G carries |A_g ^ A_g'| >= |a_g - a_g'|
edges between two fibres, and summed over G's edges that is
sum_t e_G(L_t, L_t^c), L_t = {g : a_g >= t} (each edge counts the t between
its two sizes), at least sum_t b_G(|L_t|) = sum_i (lam_i - lam_{i+1}) b_G(i).
So b(k) >= F(k), the least of

    sum_i b_H(lam_i) + sum_i (lam_i - lam_{i+1}) b_G(i)

over partitions lam of k into at most a parts of at most b (lam_{a+1} = 0).
Reading lam by columns swaps the two sums, so F is symmetric in G and H, and
any integer floors on b_G and b_H keep it sound.  On two nested factors F is
exact: the down-set whose row i (in G's order) is H's prefix of lam_i vertices
has prefixes for fibres and for levels L_t, so every inequality above is an
equality (the compression of the previous paragraph).  verify_theorem reads
such a pair's truths from F and builds no product.  On other pairs
_search_sizes takes F(k) as a floor: a grown seed whose boundary meets it is a
minimizer, taken with no search, and a forward search stops at the first leaf
reaching it.  Both give values, not canonical witnesses, so only
verify_theorem, which reports values, passes floors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import comb, prod

from .graphs import SEARCH_BUDGET, CapExceededError, Graph, VertexSet, family_entry


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


def _over_budget(spent: int, k: int, m: int) -> CapExceededError:
    return CapExceededError(
        f"search for size {k} on {m} vertices charged {spent} units of work,"
        f" over the budget of {SEARCH_BUDGET}"
    )


def _grow(g: Graph, cross: int, mask: int, k: int) -> tuple[int, int]:
    """(boundary, mask) of the set mask, of boundary cross, grown to k vertices,
    each step adding the v of least cross + deg v - 2 |adj v & A|, then least v.
    It reads adjacency lists, not masks, so it runs before a search charges
    for the masks (O(m^2) bits on a large product)."""
    adjacency = g.adjacency
    delta = list(g.degrees)  # deg u - 2 |adj u & A|: the step that adds u
    rest = mask
    while rest:
        v = rest.bit_length() - 1
        rest ^= 1 << v
        for u in adjacency[v]:
            delta[u] -= 2
    for _ in range(mask.bit_count(), k):
        step, v = min((d, u) for u, d in enumerate(delta) if not mask >> u & 1)
        cross, mask = cross + step, mask | 1 << v
        for u in adjacency[v]:
            delta[u] -= 2
    return cross, mask


def _search(g: Graph, k: int, incumbent: int, target: int | None, spent: int, rows: list,
             more: bool, asked: int) -> tuple[int, int, int]:
    """(least boundary below incumbent, its first witness mask, units spent)
    over k-subsets, k < m, from `spent` units on; a forward search below which
    no set lies returns (incumbent, 0, spent), and size 1 is answered exactly.
    A size above m/2 is searched by complement.  The search stops at the first
    leaf reaching target: b(m - k) for a complement search, a floor on b(k)
    (or None) for a forward one.  more: a search follows; a refusal names the
    size asked."""
    m = g.vertex_count
    deg = g.degrees
    full = (1 << m) - 1
    flip = 2 * k > m
    size = m - k if flip else k  # the size searched
    if size == 1:  # no adjacency masks: they cost O(m^2) bits on a large product
        best = min(deg)
        v = m - 1 - deg[::-1].index(best) if flip else deg.index(best)
        return best, full ^ 1 << v if flip else 1 << v, spent
    # on a vertex-transitive graph the canonical witness holds vertex 0: a
    # forward search starts with it, a complement search leaves it out
    lo = 1 if g.vertex_transitive else 0
    held = 1 if lo and not flip else 0
    root = size - held  # need at the root
    # masks (about m^2 / 2 bits) and row tables, charged before they are built
    spent += m * (m - 1) // 2 + m * (root - 1)
    if spent > SEARCH_BUDGET:
        raise _over_budget(spent, asked, m)
    adj, down = g.adjacency_masks, g.down
    best_val, best_mask = incumbent, 0
    # rows[cap][v] = (r, sum of the cap + 1 smallest of r), r[u - v - 1] =
    # deg u - 2 [u ~ v] - min(|adj u & {v+1..m-1}|, cap) for u > v: the part of
    # a floor weight that no mask changes, built on first use.  The root takes
    # each v once: it keeps its rows only for a later search, never at cap 0
    # (cheap to rebuild), so a last search or a need-2 root holds O(m) of them.
    rows.extend([None] * m for _ in range(len(rows), root - 1))

    def row(v: int, cap: int) -> tuple[list[int], int]:
        if cap:
            a = adj[v]
            r = [deg[u] - 2 * (a >> u & 1) - (p if (p := (adj[u] >> v + 1).bit_count()) < cap else cap)
                 for u in range(v + 1, m)]
        else:  # no pool count: deg u, less 2 at the later neighbours of v
            r = list(deg[v + 1:])
            for u in g.adjacency[v]:
                if u > v:
                    r[u - v - 1] -= 2
        entry = r, sum(sorted(r)[:cap + 1]) if cap else 0  # need 2 makes no pre-check
        if cap < root - 2 or more and cap:
            rows[cap][v] = entry
        return entry

    def last(lo: int, mask: int, cross: int, deltas: list[int]) -> bool:
        # the first (a complement search: the last) vertex of least delta from
        # lo on makes the best leaf here
        nonlocal best_val, best_mask
        best = min(deltas)
        if cross + best < best_val:
            best_val = cross + best
            i = len(deltas) - 1 - deltas[::-1].index(best) if flip else deltas.index(best)
            best_mask = mask | 1 << lo + i
        return best_val == target

    def extend(lo: int, mask: int, cross: int, need: int) -> bool:
        nonlocal spent
        # units: into's m - lo entries, then m - v - 1 floor weights (or, at need
        # 1, last-step deltas) for each child v; charged up front, as one sum
        rest = m - lo
        spent += 2 * rest if need == 1 else rest + (rest * (rest - 1) - (need - 1) * (need - 2)) // 2
        if spent > SEARCH_BUDGET:
            raise _over_budget(spent, asked, m)
        into = [2 * (a & mask).bit_count() for a in adj[lo:]]  # 2 |adj u & mask| at u - lo
        if need == 1:
            return last(lo, mask, cross, [d - i for d, i in zip(deg[lo:], into)])
        # child v's floor (module docstring): a completion of need - 1 vertices
        # from the pool v+1..m-1, each with at most need - 2 neighbours inside it
        cap = need - 2
        table = rows[cap]
        if need > 2:  # into_head[i] - into_all = -(into summed over u > lo + i)
            into_head = list(accumulate(into))
            into_all = into_head[-1]
        children = range(lo, m - need + 1)
        if down:  # compression (module docstring): one test per node, none on a plain graph
            if flip:  # a skipped w above a chosen w - stride_i ends the children
                children = range(lo, next((w for w in children if down[w] & mask), children[-1]) + 1)
            else:
                children = [v for v in children if not down[v] & ~mask]
        for v in reversed(children) if flip else children:
            new_cross = cross + deg[v] - into[v - lo]
            r, least = table[v] or row(v, cap)
            if need == 2:  # the floor is exact: these are the last step's deltas
                if last(v + 1, mask | 1 << v, new_cross, [x - i for x, i in zip(r, into[v + 1 - lo:])]):
                    return True
            elif new_cross + least + into_head[v - lo] - into_all < best_val:  # the pre-check
                w = [x - i for x, i in zip(r, into[v + 1 - lo:])]
                if new_cross + sum(sorted(w)[:need - 1]) < best_val:
                    if extend(v + 1, mask | 1 << v, new_cross, need - 1):
                        return True
        return False

    extend(lo, held, deg[0] if held else 0, root)
    del extend  # ends the closure's cycle, so the rows go now, not at the next gc pass
    return best_val, full ^ best_mask if flip else best_mask, spent


def _search_sizes(g: Graph, ks, names=None, floors=None) -> dict[int, tuple[int, int]]:
    """(min boundary, witness mask) at each size in ks, on one budget and row
    table; a refusal at size k names names[k] if given (verify_theorem's size
    m - k), else k.  floors[j] <= b(j) at each j = min(k, m - k), k in ks, if
    given: a grown seed that meets it is taken, a search stops at it, and the
    masks are minimizers, not canonical witnesses (module docstring)."""
    m = g.vertex_count
    found, spent, rows, seed = {m: (0, (1 << m) - 1)}, 0, [], (0, 0)
    names = names or {}
    # the sizes up to m/2 ascending, each seeded by the last witness; then those above by complement
    order = sorted({min(k, m - k) for k in ks} - {0}) + sorted({k for k in ks if m - k < k < m})
    for k in order:
        if 2 * k > m:
            target = found[m - k][0]
            incumbent = target + 1
        else:
            grown = _grow(g, *seed, k)
            target = floors[k] if floors else None
            if grown[0] == target:  # a real set at the floor: b(k), with no search
                found[k] = seed = grown
                continue
            incumbent = grown[0] + 1  # ties are found
        value, mask, spent = _search(g, k, incumbent, target, spent, rows, k != order[-1], names.get(k, k))
        found[k] = seed = value, mask
    return {k: found[k] for k in ks}


def min_boundary(g: Graph, k: int) -> tuple[int, VertexSet]:
    """Exact minimum edge boundary over all k-subsets, with canonical witness."""
    if not 1 <= k <= g.vertex_count:
        raise ValueError(f"size {k} outside 1..{g.vertex_count}")
    value, mask = _search_sizes(g, [k])[k]
    return value, VertexSet(mask, k)


def profile_bruteforce(g: Graph) -> IsoProfile:
    """Full profile k = 1..m from one search loop over all sizes."""
    found = _search_sizes(g, range(1, g.vertex_count + 1))
    entries = (ProfileEntry(k, v, Fraction(v, k), VertexSet(mask, k)) for k, (v, mask) in found.items())
    return IsoProfile(g.vertex_count, tuple(entries))


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


def nested_boundary(sizes, k: int) -> int:
    """Exact minimum edge boundary of a k-set in K_{m_1} x ... x K_{m_n}.

    Initial segments of lexicographic order are optimal at every size when the
    smallest clique is the most significant digit (Lindsey, Amer. Math. Monthly
    71, 1964; Harper 1964 for the hypercube), so the order of `sizes` does not
    matter.  The product is regular of degree D = sum(m_i - 1), and the value
    is k D - 2 E(k), E(k) the edges inside the segment.  With the sizes
    ascending, P the product of all but the first and k = qP + r, the segment
    is q full slabs plus the first r vertices of the next one, so

        E(k) = q E'(P) + E'(r) + r C(q+1, 2) + (P - r) C(q, 2),

    E' the same count on the remaining factors, E'(P) = P D' / 2 for their
    degree D'.  The loop unrolls this over the digits: O(n) big-int steps."""
    sizes = sorted(sizes)
    total = prod(sizes)
    if not 1 <= k <= total:
        raise ValueError(f"size {k} outside 1..{total}")
    degree = sum(m - 1 for m in sizes)
    place, rest_degree, r, inner = total, degree, k, 0
    for m in sizes:
        place //= m  # P: vertices in one slab of this digit
        rest_degree -= m - 1  # D': degree inside a slab
        q, r = divmod(r, place)
        inner += q * (place * rest_degree // 2) + r * comb(q + 1, 2) + (place - r) * comb(q, 2)
    return k * degree - 2 * inner


def fibre_floor(b_g, b_h, top: int) -> tuple[int, ...]:
    """F(0..top) on G x H (module docstring) from b_g[i] <= b_G(i), i = 0..a,
    and b_h[j] <= b_H(j), j = 0..b, with b_g[0] = b_h[0] = 0 and top <= ab.

    A DP over rows i = a..1 keeps, for each value v of lam_i and sum s of
    lam_i..lam_a, the least cost of those rows: row i adds b_h[v] + v b_g[i]
    to the least cost of rows i+1..a with sum s - v and lam_{i+1} = u <= v,
    less u b_g[i], which a prefix minimum over u gives.  That is a (b + 1)
    (top + 1) steps, G and H swapped when that is cheaper (F is symmetric).
    The count is charged in closed form: over SEARCH_BUDGET, it is refused
    before anything is allocated."""
    a, b = len(b_g) - 1, len(b_h) - 1
    if not 0 <= top <= a * b:
        raise ValueError(f"size {top} outside 0..{a * b}")
    if b < a:  # fewer rows, fewer steps
        a, b, b_g, b_h = b, a, b_h, b_g
    if (units := a * (b + 1) * (top + 1)) > SEARCH_BUDGET:
        raise CapExceededError(
            f"fibre floor of {a} x {b} vertices up to size {top} charges {units} units of work,"
            f" over the budget of {SEARCH_BUDGET}"
        )
    inf = float("inf")
    # cost[s][v]: the least cost of the rows below with lam = v at the top and sum s
    cost = [[0] + [inf] * b] + [[inf] * (b + 1) for _ in range(top)]
    for i in range(a, 0, -1):
        g = b_g[i]
        below = [list(accumulate((c - u * g for u, c in enumerate(r)), min)) for r in cost]
        cost = [[b_h[v] + v * g + below[s - v][v] for v in range(min(s, b) + 1)] + [inf] * (b - min(s, b))
                for s in range(top + 1)]
    return tuple(min(r) for r in cost)


def _per_distinct(graphs, solve) -> tuple:
    """solve(g) per graph, each distinct graph solved once: equal graphs map to
    the identical result object."""
    graphs = tuple(graphs)
    keys = [g.family or g for g in graphs]  # family graphs key by (name, m): no adjacency hash
    solved: dict = {}
    for g, key in zip(graphs, keys):
        if key not in solved:
            solved[key] = solve(g)
    return tuple(solved[key] for key in keys)


def resolve_profile(g: Graph, exhaustive: bool = False) -> IsoProfile:
    """The one choice between closed form and search: a family graph's closed
    form unless exhaustive, otherwise profile_bruteforce, uncompressed when
    exhaustive.  Callers that take many graphs pass it to _per_distinct."""
    if exhaustive:
        return profile_bruteforce(replace(g, down=()))
    return profile_bruteforce(g) if g.family is None else profile_closed_form(*g.family)
