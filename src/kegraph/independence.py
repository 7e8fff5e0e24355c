"""Exact maximum independent sets at desk scale.

The solver is branch-and-bound over bitmasks: branch on a highest-degree
vertex (ties to the lowest index), prune with a greedy clique-cover upper
bound, and absorb isolated and degree-one vertices between branchings.
Exact answers are practical to roughly n = 60; everything here sits behind
a size gate that callers may raise explicitly.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import NotIndependentError, TooLargeError, TruncatedOmegaError
from .graph import Graph, bits, is_independent, neighborhood

__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "DEFAULT_OMEGA_CAP",
    "AlphaResult",
    "OmegaStream",
    "alpha",
    "enumerate_maximum_independent_sets",
    "core",
    "is_local_max_independent_set",
    "extends_to_maximum",
]

DEFAULT_EXACT_LIMIT = 64
DEFAULT_OMEGA_CAP = 10**6


class AlphaResult(NamedTuple):
    value: int
    witness: int  # lexicographically smallest maximum independent set


def _gate(n: int, limit: int | None) -> None:
    if limit is not None and n > limit:
        raise TooLargeError(
            f"n={n} exceeds the exact-solver limit {limit}; pass a larger limit to override"
        )


def _clique_cover_bound(adj: tuple[int, ...], mask: int) -> int:
    """Greedy clique cover of *mask*; its size bounds the independence number."""
    bound = 0
    rem = mask
    while rem:
        low = rem & -rem
        u = low.bit_length() - 1
        clique = low
        cand = adj[u] & rem
        while cand:
            lo = cand & -cand
            w = lo.bit_length() - 1
            clique |= lo
            cand = cand & adj[w] & ~lo
        rem &= ~clique
        bound += 1
    return bound


def _alpha_value(adj: tuple[int, ...], mask: int, stop_at: int | None = None) -> int:
    """Maximum independent set size within *mask*.

    When *stop_at* is given the search returns early with any value >= stop_at;
    useful for decision questions like "does alpha stay at k after deletion?".
    """
    best = 0

    def dfs(m: int, size: int) -> None:
        nonlocal best
        if stop_at is not None and best >= stop_at:
            return
        if size + m.bit_count() <= best:
            return
        # Absorb isolated vertices; a degree-one vertex dominates its neighbor.
        scan = m
        while scan:
            low = scan & -scan
            scan ^= low
            if not m & low:
                continue
            nb = adj[low.bit_length() - 1] & m
            if not nb:
                m ^= low
                size += 1
            elif not (nb & (nb - 1)):
                m &= ~(nb | low)
                size += 1
                scan &= m
        if not m:
            if size > best:
                best = size
            return
        if size + m.bit_count() <= best:
            return
        if size + _clique_cover_bound(adj, m) <= best:
            return
        # Branch on a highest-degree vertex, ties to the lowest index.
        pivot, pdeg = -1, -1
        mm = m
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            dv = (adj[v] & m).bit_count()
            if dv > pdeg:
                pivot, pdeg = v, dv
        dfs(m & ~(adj[pivot] | (1 << pivot)), size + 1)
        dfs(m & ~(1 << pivot), size)

    dfs(mask, 0)
    return best


def alpha(g: Graph, limit: int | None = DEFAULT_EXACT_LIMIT) -> AlphaResult:
    """Independence number with its lexicographically smallest witness: the
    first set of the Omega stream."""
    stream = enumerate_maximum_independent_sets(g, 1, limit)
    return AlphaResult(stream.alpha, next(iter(stream)))


class OmegaStream:
    """Lazy lexicographic enumeration of all maximum independent sets.

    Iteration stops after *cap* sets; ``truncated`` reports whether more
    remained. ``collect()`` exhausts the stream into a list.
    """

    def __init__(self, g: Graph, cap: int, value: int):
        self.alpha = value
        self.cap = cap
        self.truncated = False
        self.count = 0
        self._g = g

    def __iter__(self) -> Iterator[int]:
        adj = self._g.adj
        target = self.alpha
        stack = [(self._g.full_mask, 0, 0, False)]
        while stack:
            m, chosen, size, expanded = stack.pop()
            if size == target:
                if self.count >= self.cap:
                    self.truncated = True
                    return
                self.count += 1
                yield chosen
                continue
            if size + m.bit_count() < target:
                continue
            if size + _clique_cover_bound(adj, m) < target:
                continue
            low = m & -m
            v = low.bit_length() - 1
            # Exclude-branch pushed first so the include-branch pops first.
            stack.append((m ^ low, chosen, size, False))
            stack.append((m & ~(adj[v] | low), chosen | low, size + 1, False))

    def collect(self) -> list[int]:
        return list(self)


def enumerate_maximum_independent_sets(
    g: Graph,
    cap: int = DEFAULT_OMEGA_CAP,
    limit: int | None = DEFAULT_EXACT_LIMIT,
) -> OmegaStream:
    """All maximum independent sets, lexicographic, capped at *cap* items."""
    _gate(g.n, limit)
    value = _alpha_value(g.adj, g.full_mask)
    return OmegaStream(g, cap, value)


def collect_omega(
    g: Graph,
    cap: int = DEFAULT_OMEGA_CAP,
    limit: int | None = DEFAULT_EXACT_LIMIT,
) -> list[int]:
    """Exhaustive list of maximum independent sets; raises if capped."""
    stream = enumerate_maximum_independent_sets(g, cap, limit)
    sets = stream.collect()
    if stream.truncated:
        raise TruncatedOmegaError(
            f"more than {cap} maximum independent sets; raise the cap"
        )
    return sets


def core(g: Graph, limit: int | None = DEFAULT_EXACT_LIMIT) -> int:
    """Intersection of all maximum independent sets.

    Computed as {v : alpha(g - v) < alpha(g)}, probing only the members of one
    maximum independent set (the core lies inside every one of them), so it
    works even when the number of maximum independent sets is huge.
    """
    value, witness = alpha(g, limit)
    full = g.full_mask
    result = 0
    for v in bits(witness):
        if _alpha_value(g.adj, full & ~(1 << v), stop_at=value) < value:
            result |= 1 << v
    return result


def is_local_max_independent_set(g: Graph, a: int) -> bool:
    """True iff *a* is a maximum independent set of the subgraph on N[a]."""
    if not is_independent(g, a):
        raise NotIndependentError("set is not independent")
    closed = neighborhood(g, a, closed=True)
    size = a.bit_count()
    return _alpha_value(g.adj, closed, stop_at=size + 1) == size


def extends_to_maximum(
    g: Graph, s: int, limit: int | None = DEFAULT_EXACT_LIMIT
) -> bool:
    """True iff *s* is contained in some maximum independent set.

    Uses the deletion identity: s extends iff alpha(g - N[s]) + |s| = alpha(g).
    """
    if not is_independent(g, s):
        raise NotIndependentError("set is not independent")
    _gate(g.n, limit)
    value = _alpha_value(g.adj, g.full_mask)
    rest = g.full_mask & ~neighborhood(g, s, closed=True)
    return _alpha_value(g.adj, rest) + s.bit_count() == value
