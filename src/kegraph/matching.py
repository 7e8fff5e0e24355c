"""Maximum matchings in general and bipartite graphs, deficiency, and
saturation certificates.

The general solver is augmenting-path search with blossom contraction;
determinism is fixed by scanning vertices and neighbors in ascending index
order, so repeated runs on the same graph return the identical matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotBipartiteError
from .graph import Graph, bits

__all__ = [
    "Matching",
    "HallViolation",
    "maximum_matching",
    "maximum_bipartite_matching",
    "deficiency",
    "has_perfect_matching",
    "saturating_matching",
]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise non-incident edges, normalized to sorted (u, v) pairs."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def saturated(self) -> int:
        """Bitmask of matched vertices."""
        m = 0
        for u, v in self.edges:
            m |= (1 << u) | (1 << v)
        return m

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless this is a valid matching of *g*."""
        seen = 0
        for u, v in self.edges:
            if not (0 <= u < v < g.n):
                raise ValueError(f"edge ({u}, {v}) is not normalized or in range")
            if not g.has_edge(u, v):
                raise ValueError(f"({u}, {v}) is not an edge of the graph")
            e = (1 << u) | (1 << v)
            if seen & e:
                raise ValueError(f"edge ({u}, {v}) shares a vertex with another")
            seen |= e
        if self.saturated.bit_count() != 2 * len(self.edges):
            raise ValueError("saturated-vertex count disagrees with edge count")

    @classmethod
    def from_mates(cls, mate: dict[int, int]) -> Matching:
        """The matching of a mate map; either direction of a pair will do."""
        return cls(tuple(sorted({(min(u, v), max(u, v)) for u, v in mate.items()})))


@dataclass(frozen=True)
class HallViolation:
    """Witness that no saturating matching exists: a set W on the from-side
    with fewer than |W| neighbors on the into-side."""

    violator: int
    neighborhood: int

    @property
    def deficit(self) -> int:
        return self.violator.bit_count() - self.neighborhood.bit_count()


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching of an arbitrary graph."""
    n = g.n
    adj = g.adj
    mate = [-1] * n
    # Greedy seed keeps the number of augmenting searches small: each free
    # vertex takes its lowest free neighbour.
    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1:
            m = adj[v] & free
            if m:
                u = (m & -m).bit_length() - 1
                mate[v] = u
                mate[u] = v
                free ^= 1 << v | 1 << u

    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_blossom(v: int, stem: int, child: int, blossom: set[int]) -> None:
        while base[v] != stem:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    def augment_from(root: int) -> bool:
        nonlocal parent, base
        parent = [-1] * n
        base = list(range(n))
        in_tree = [False] * n
        in_tree[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            m = adj[v]
            while m:
                low = m & -m
                to = low.bit_length() - 1
                m ^= low
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Odd cycle: contract the blossom down to its stem.
                    stem = lca(v, to)
                    blossom: set[int] = set()
                    mark_blossom(v, stem, to, blossom)
                    mark_blossom(to, stem, v, blossom)
                    for i in range(n):
                        if base[i] in blossom:
                            base[i] = stem
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        # Exposed vertex reached: flip the alternating path.
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = nxt
                        return True
                    in_tree[mate[to]] = True
                    queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] == -1:
            augment_from(v)
    return Matching.from_mates({v: u for v, u in enumerate(mate) if u > v})


def _kuhn(
    adj: tuple[int, ...] | list[int],
    left: int,
    right: int,
) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum matching of the bipartite graph induced by masks left/right,
    using only left-right edges of *adj*. Returns (mate of left, mate of right).
    """
    mate_l: dict[int, int] = {}
    mate_r: dict[int, int] = {}
    _grow(adj, left, right, mate_l, mate_r)
    return mate_l, mate_r


def _grow(
    adj: tuple[int, ...] | list[int],
    roots: int,
    right: int,
    mate_l: dict[int, int],
    mate_r: dict[int, int],
) -> None:
    """Kuhn's method from a given matching, updated in place: a greedy pass,
    then one augmenting search per root still exposed.

    The result is maximum once *roots* holds every exposed left vertex:
    each exposed root either gains a mate or has no augmenting path, and
    augmenting elsewhere never creates one for it. Ascending index order
    throughout keeps results deterministic.
    """
    m = roots
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if u in mate_l:
            continue
        cand = adj[u] & right
        while cand:
            lo = cand & -cand
            w = lo.bit_length() - 1
            if w not in mate_r:
                mate_r[w] = u
                mate_l[u] = w
                break
            cand ^= lo
    dead = 0
    m = roots
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if u not in mate_l:
            dead = _augment(adj, u, right, mate_l, mate_r, dead)


def _augment(
    adj: tuple[int, ...] | list[int],
    root: int,
    right: int,
    mate_l: dict[int, int],
    mate_r: dict[int, int],
    dead: int,
) -> int:
    """Alternating DFS from the exposed left vertex *root* to an exposed
    vertex of *right*, never entering a right vertex of *dead*; flips the
    path if one is found.

    Returns the dead mask for the next search: 0 after a flip, else *dead*
    plus every right vertex this search reached. A failed search leaves the
    matching as it was, so nothing it reached can lead to an exposed vertex
    until the next flip; skipping those vertices changes no path found.
    """
    visited = dead
    stack = [(root, adj[root] & right)]
    while stack:
        cur, cand = stack[-1]
        cand &= ~visited
        if not cand:
            stack.pop()
            continue
        lo = cand & -cand
        w = lo.bit_length() - 1
        stack[-1] = (cur, cand ^ lo)
        visited |= lo
        nxt = mate_r.get(w)
        if nxt is None:
            # The stack holds the path's left vertices, root first.
            for u, _ in reversed(stack):
                prev = mate_l.get(u)
                mate_r[w] = u
                mate_l[u] = w
                w = prev
            return 0
        stack.append((nxt, adj[nxt] & right))
    return visited


def maximum_bipartite_matching(g: Graph, sides: int) -> Matching:
    """Maximum matching of a bipartite graph given one side as a bitmask.

    Raises NotBipartiteError when some edge fails to cross the coloring.
    """
    left = sides & g.full_mask
    right = g.full_mask & ~left
    for v in bits(left):
        if g.adj[v] & left:
            raise NotBipartiteError(f"edge inside the left side at vertex {v}")
    return Matching.from_mates(_kuhn(g.adj, left, right)[0])


def deficiency(g: Graph) -> int:
    """Number of vertices left exposed by any maximum matching: n - 2*mu."""
    return g.n - 2 * maximum_matching(g).size


def has_perfect_matching(g: Graph) -> bool:
    return deficiency(g) == 0


def saturating_matching(
    g: Graph, from_set: int, into_set: int
) -> Matching | HallViolation:
    """Matching on from-into edges saturating every from-side vertex, or a
    HallViolation exhibiting W with |N(W) & into| < |W|.

    The violator is read off the final alternating-reachability cut: the
    exposed from-side vertices plus everything reachable from them.
    """
    if from_set & into_set:
        raise ValueError("from_set and into_set must be disjoint")
    mate_l, mate_r = _kuhn(g.adj, from_set, into_set)
    exposed = [u for u in bits(from_set) if u not in mate_l]
    if not exposed:
        return Matching.from_mates(mate_l)

    reach_l = 0
    for u in exposed:
        reach_l |= 1 << u
    reach_r = 0
    queue = deque(exposed)
    while queue:
        u = queue.popleft()
        fresh = g.adj[u] & into_set & ~reach_r
        reach_r |= fresh
        for w in bits(fresh):
            u2 = mate_r.get(w)
            if u2 is not None and not (reach_l >> u2) & 1:
                reach_l |= 1 << u2
                queue.append(u2)
    return HallViolation(violator=reach_l, neighborhood=reach_r)
