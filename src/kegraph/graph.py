"""Immutable bitset-backed simple graphs and vertex-set primitives.

Vertices are dense 0-based indices; a vertex set is a plain ``int`` used as a
bitmask over ``0..n-1``. Display labels, when present, are metadata only and
never affect algorithms.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import SelfLoopError, UnknownVertexError

__all__ = [
    "Graph",
    "vset",
    "bits",
    "lex_less",
    "neighborhood",
    "induced_subgraph",
    "delete_closed_neighborhood",
    "is_independent",
    "two_coloring",
]


def vset(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lex_less(a: int, b: int) -> bool:
    """Compare vertex sets by their sorted member lists ({0,5} < {1,2}).

    The lexicographically smaller set owns the lowest bit where the two differ.
    """
    diff = a ^ b
    if not diff:
        return False
    return bool(a & (diff & -diff))


class Graph:
    """Simple, loopless, undirected graph with per-vertex neighbor bitmasks.

    Instances are immutable after construction and safe for concurrent reads.
    """

    __slots__ = ("n", "adj", "labels", "_label_index")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: tuple[str, ...] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must have one entry per vertex")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise UnknownVertexError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set(adj, labels)

    def _set(self, adj: list[int] | tuple[int, ...], labels: tuple[str, ...] | None) -> None:
        self.n = len(adj)
        self.adj = tuple(adj)
        self.labels = labels
        self._label_index = {name: i for i, name in enumerate(labels)} if labels else None

    @classmethod
    def from_adjacency(
        cls, adj: list[int] | tuple[int, ...], labels: tuple[str, ...] | None = None
    ) -> Graph:
        """Wrap neighbor masks from outside the library, checking range,
        looplessness and, edge by edge, symmetry (naming the first bad pair).
        Masks built correct by construction go through `_trusted` instead."""
        n = len(adj)
        for v, m in enumerate(adj):
            if m >> n:
                raise UnknownVertexError(f"adjacency of {v} exceeds 0..{n - 1}")
            if (m >> v) & 1:
                raise SelfLoopError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in bits(adj[v]):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return cls._trusted(adj, labels)

    @classmethod
    def _trusted(
        cls, adj: list[int] | tuple[int, ...], labels: tuple[str, ...] | None = None
    ) -> Graph:
        """Wrap masks that are symmetric, loopless and within 0..n-1 by
        construction, unchecked."""
        g = cls.__new__(cls)
        g._set(adj, labels)
        return g

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def full_mask(self) -> int:
        """Bitmask of the whole vertex set."""
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            while m:
                low = m & -m
                yield u, u + 1 + low.bit_length() - 1
                m ^= low

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)

    def labels_of(self, mask: int) -> list[str]:
        return [self.label_of(v) for v in bits(mask)]

    def index_of(self, label: str) -> int:
        """Vertex index for a display label (labels required)."""
        if self._label_index is None:
            raise KeyError(f"graph carries no labels (looked up {label!r})")
        return self._label_index[label]

    def vset_of(self, names: Iterable[str]) -> int:
        """Bitmask for a collection of display labels."""
        return vset(self.index_of(s) for s in names)

    def __eq__(self, other: object) -> bool:
        """Adjacency-exact equality; labels are metadata and do not count."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def neighborhood(g: Graph, s: int, *, closed: bool = False) -> int:
    """N(s) over the vertices of *s*; with ``closed=True``, N(s) | s.

    The open neighborhood may intersect *s* when *s* is not independent.
    """
    _check_subset(g, s)
    nb = 0
    m = s
    while m:
        low = m & -m
        nb |= g.adj[low.bit_length() - 1]
        m ^= low
    return nb | s if closed else nb


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, dict[int, int]]:
    """Subgraph spanned by *s*, densely re-indexed; returns (graph, old->new map)."""
    _check_subset(g, s)
    old = list(bits(s))
    remap = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        m = g.adj[v] & s
        packed = 0
        while m:
            low = m & -m
            packed |= 1 << remap[low.bit_length() - 1]
            m ^= low
        adj.append(packed)
    labels = tuple(g.label_of(v) for v in old) if g.labels else None
    return Graph._trusted(adj, labels), remap


def delete_closed_neighborhood(g: Graph, s: int) -> Graph:
    """Subgraph spanned by V - N[s]."""
    keep = g.full_mask & ~neighborhood(g, s, closed=True)
    return induced_subgraph(g, keep)[0]


def is_independent(g: Graph, s: int) -> bool:
    """True iff *s* spans no edge of *g*."""
    _check_subset(g, s)
    m = s
    while m:
        low = m & -m
        if g.adj[low.bit_length() - 1] & s:
            return False
        m ^= low
    return True


def two_coloring(g: Graph) -> int | None:
    """One side of a proper 2-coloring, or None if the graph is not bipartite.

    Deterministic: BFS from the lowest unvisited vertex, which always joins
    the returned side.
    """
    side = 0
    seen = 0
    for root in range(g.n):
        if (seen >> root) & 1:
            continue
        seen |= 1 << root
        side |= 1 << root
        frontier = [root]
        in_side = True
        while frontier:
            in_side = not in_side
            nxt = []
            for v in frontier:
                fresh = g.adj[v] & ~seen
                seen |= fresh
                if in_side:
                    side |= fresh
                nxt.extend(bits(fresh))
            frontier = nxt
    comp = ((1 << g.n) - 1) & ~side
    for v in range(g.n):
        own = side if (side >> v) & 1 else comp
        if g.adj[v] & own:
            return None
    return side


def _check_subset(g: Graph, s: int) -> None:
    if s < 0 or s >> g.n:
        raise UnknownVertexError(f"vertex set {bin(s)} not within 0..{g.n - 1}")
