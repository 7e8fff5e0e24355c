"""Brute-force reference implementations backing the acceptance tests.

Everything here is plain subset enumeration over bitmasks with early
pruning, deliberately sharing no machinery with the main-path algorithms so
the two cannot fail the same way. Usable to about n = 20 (mu: m <= 24).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import TooLargeError
from .graph import Graph, lex_less

__all__ = [
    "ORACLE_VERTEX_LIMIT",
    "ORACLE_EDGE_LIMIT",
    "brute_alpha",
    "brute_mu",
    "brute_critical_difference",
    "brute_alpha_c",
    "brute_core",
    "brute_maximum_independent_sets",
    "disagreements",
]

ORACLE_VERTEX_LIMIT = 20
ORACLE_EDGE_LIMIT = 24


def _gate_n(g: Graph) -> None:
    if g.n > ORACLE_VERTEX_LIMIT:
        raise TooLargeError(f"oracle handles n <= {ORACLE_VERTEX_LIMIT}, got {g.n}")


@lru_cache(maxsize=32)
def _independence_table(g: Graph) -> bytearray:
    """ind[s] = 1 iff the subset s spans no edge."""
    n = g.n
    adj = g.adj
    ind = bytearray(1 << n)
    ind[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        ind[s] = ind[rest] and not (adj[low.bit_length() - 1] & rest)
    return ind


@lru_cache(maxsize=32)
def _neighborhood_table(g: Graph) -> list[int]:
    """nbh[s] = union of adjacencies over the members of s."""
    n = g.n
    adj = g.adj
    nbh = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        nbh[s] = nbh[s ^ low] | adj[low.bit_length() - 1]
    return nbh


def brute_alpha(g: Graph) -> int:
    """Maximum size of an independent subset, by exhausting all 2^n subsets."""
    _gate_n(g)
    ind = _independence_table(g)
    best = 0
    for s in range(1 << g.n):
        if ind[s]:
            size = s.bit_count()
            if size > best:
                best = size
    return best


def brute_mu(g: Graph) -> int:
    """Maximum matching size by recursive edge enumeration with pruning."""
    if g.m > ORACLE_EDGE_LIMIT:
        raise TooLargeError(f"oracle handles m <= {ORACLE_EDGE_LIMIT}, got {g.m}")
    edges = list(g.edges())
    m = len(edges)
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if i == m or size + (m - i) <= best:
            return
        u, v = edges[i]
        e = (1 << u) | (1 << v)
        if not used & e:
            rec(i + 1, used | e, size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best


def brute_critical_difference(g: Graph, mode: str = "independent_only") -> int:
    """Exact max of |S| - |N(S)| over independent subsets or over all subsets."""
    _gate_n(g)
    if mode not in ("independent_only", "all_subsets"):
        raise ValueError(f"unknown mode {mode!r}")
    nbh = _neighborhood_table(g)
    best = 0  # the empty set always competes
    if mode == "independent_only":
        ind = _independence_table(g)
        for s in range(1 << g.n):
            if ind[s]:
                d = s.bit_count() - nbh[s].bit_count()
                if d > best:
                    best = d
    else:
        # N(S) here is the raw union of adjacencies; it may intersect S.
        for s in range(1 << g.n):
            d = s.bit_count() - nbh[s].bit_count()
            if d > best:
                best = d
    return best


def brute_alpha_c(g: Graph) -> tuple[int, int]:
    """Largest critical independent set: (cardinality, lexicographically
    least witness of that cardinality)."""
    _gate_n(g)
    ind = _independence_table(g)
    nbh = _neighborhood_table(g)
    d = brute_critical_difference(g)
    best_size = -1
    witness = 0
    for s in range(1 << g.n):
        if ind[s] and s.bit_count() - nbh[s].bit_count() == d:
            size = s.bit_count()
            if size > best_size or (size == best_size and lex_less(s, witness)):
                best_size = size
                witness = s
    return best_size, witness


def brute_core(g: Graph) -> int:
    """Intersection of all maximum independent sets, found exhaustively."""
    sets = brute_maximum_independent_sets(g)
    inter = g.full_mask
    for s in sets:
        inter &= s
    return inter


def brute_maximum_independent_sets(g: Graph) -> list[int]:
    """All maximum independent sets as masks, in ascending mask order."""
    _gate_n(g)
    ind = _independence_table(g)
    a = brute_alpha(g)
    return [s for s in range(1 << g.n) if ind[s] and s.bit_count() == a]


def disagreements(
    g: Graph,
    *,
    mu: int | None = None,
    d: int | None = None,
    alpha_c: int | None = None,
    alpha: int | None = None,
    core: int | None = None,
) -> list[str]:
    """Names of the given main-path values (None: unchecked; core: a mask) that
    brute force contradicts, within the gates m <= ORACLE_EDGE_LIMIT for mu and
    n <= ORACLE_VERTEX_LIMIT for the rest; d is checked in both modes."""
    problems: list[str] = []
    if mu is not None and g.m <= ORACLE_EDGE_LIMIT and brute_mu(g) != mu:
        problems.append("mu")
    if g.n > ORACLE_VERTEX_LIMIT:
        return problems
    if d is not None:
        for mode in ("independent_only", "all_subsets"):
            if brute_critical_difference(g, mode) != d:
                problems.append(f"d[{mode}]")
    if alpha_c is not None and brute_alpha_c(g)[0] != alpha_c:
        problems.append("alpha_c")
    if alpha is not None and brute_alpha(g) != alpha:
        problems.append("alpha")
    if core is not None and brute_core(g) != core:
        problems.append("core")
    return problems
