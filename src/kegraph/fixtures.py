"""Named fixture graphs, parametric families, and seeded random generators.

The fixture corpus consists of six small labeled graphs that exercise every
interesting combination of the package's invariants (Konig-Egervary and not,
equal and unequal core surplus vs. alpha - mu, and so on).
"""

from __future__ import annotations

import random

from .errors import BadParamsError, UnknownNameError
from .graph import Graph

__all__ = [
    "FIXTURE_NAMES",
    "FAMILIES",
    "fixture",
    "generate",
    "random_graph",
    "random_bipartite_graph",
]

_FIXTURES: dict[str, tuple[tuple[str, ...], list[tuple[str, str]]]] = {
    # Triangle {2,3,4} with a pendant vertex 1 attached at 2.
    "H1": (
        ("1", "2", "3", "4"),
        [("1", "2"), ("2", "3"), ("2", "4"), ("3", "4")],
    ),
    "H2": (
        ("a1", "a2", "a3", "a4", "b1", "b2", "b3"),
        [
            ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
            ("b1", "b2"), ("a1", "b1"), ("a3", "b2"), ("a3", "b3"),
        ],
    ),
    "H3": (
        ("c1", "c2", "c3", "d1", "d2"),
        [("c1", "c2"), ("c2", "c3"), ("c1", "d1"), ("c2", "d2"), ("c3", "d2")],
    ),
    "G1": (
        ("a", "b", "c", "d", "e", "f", "g", "h", "u"),
        [
            ("a", "c"), ("c", "b"), ("c", "d"), ("c", "u"),
            ("d", "e"), ("e", "f"), ("e", "g"), ("e", "h"), ("u", "h"),
        ],
    ),
    # Clique {p,q1..q4,v} with three pendant vertices x,y,z on v.
    "G2": (
        ("p", "q1", "q2", "q3", "q4", "v", "x", "y", "z"),
        [
            (a, b)
            for i, a in enumerate(("p", "q1", "q2", "q3", "q4", "v"))
            for b in ("p", "q1", "q2", "q3", "q4", "v")[i + 1:]
        ]
        + [("v", "x"), ("v", "y"), ("v", "z")],
    ),
    "GF10": (
        ("a", "b", "c", "d", "e", "f", "g", "h"),
        [
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "g"),
            ("b", "h"), ("c", "e"), ("e", "f"), ("f", "g"),
        ],
    ),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str) -> Graph:
    """Return a named fixture graph with its display labels."""
    try:
        labels, edges = _FIXTURES[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    index = {s: i for i, s in enumerate(labels)}
    return Graph(len(labels), [(index[u], index[v]) for u, v in edges], labels)


def generate(family: str, *params: int) -> Graph:
    """Build a member of a parametric family, e.g. generate("cycle", 4)."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise UnknownNameError(
            f"unknown family {family!r}; available: {', '.join(FAMILIES)}"
        ) from None
    return builder(*params)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise BadParamsError(msg)


def _path(n: int) -> Graph:
    _need(n >= 0, "path needs n >= 0")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    _need(n >= 3, "cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n: int) -> Graph:
    _need(n >= 0, "complete needs n >= 0")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _complete_minus_edge(n: int) -> Graph:
    _need(n >= 2, "complete_minus_edge needs n >= 2")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
    return Graph(n, edges)


def _star(n: int) -> Graph:
    _need(n >= 1, "star needs n >= 1")
    return Graph(n, [(0, v) for v in range(1, n)])


def _complete_bipartite(n1: int, n2: int) -> Graph:
    _need(n1 >= 0 and n2 >= 0, "complete_bipartite needs n1, n2 >= 0")
    return Graph(n1 + n2, [(u, n1 + v) for u in range(n1) for v in range(n2)])


def _empty(n: int) -> Graph:
    _need(n >= 0, "empty needs n >= 0")
    return Graph(n)


_BUILDERS = {
    "path": _path,
    "cycle": _cycle,
    "complete": _complete,
    "complete_minus_edge": _complete_minus_edge,
    "star": _star,
    "complete_bipartite": _complete_bipartite,
    "empty": _empty,
}

FAMILIES = tuple(_BUILDERS)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): each pair is an edge independently with probability p."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._trusted(adj)


def random_bipartite_graph(
    rng: random.Random, n: int, p: float
) -> tuple[Graph, int]:
    """Random bipartite graph on n vertices; returns (graph, left-side mask)."""
    n1 = rng.randint(0, n)
    adj = [0] * n
    for u in range(n1):
        for v in range(n1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._trusted(adj), (1 << n1) - 1
