"""Exact maximum independent sets at desk scale.

The one search is branch-and-bound over bitmasks: branch on a
highest-degree vertex (ties to the lowest index), prune with a greedy
clique-cover upper bound, and absorb isolated and degree-one vertices
between branchings. It keeps an explicit stack, and it takes a known lower
bound (a floor) and an early stop, so one routine serves the alpha value and
every decision probe. The lexicographic enumeration of all maximum
independent sets is a walk over such probes: each node carries an
independent set that completes it, the branch that set covers inherits it,
and the other branch is kept only if a probe finds a completion of its own.
Its first set is the lex-least alpha witness. The core is found by probes
too: each asks for a maximum independent set that avoids one candidate,
starting from the floor alpha - 1, and each set found rules out every
candidate outside it.
Exact answers are practical to roughly n = 60; everything here sits behind
a size gate that callers may raise explicitly. Reports on Konig-Egervary
graphs need none of this: their alpha, witness and core come from the
critical witness and ``critical.ke_core``, and only graphs that are not KE
reach the search.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import NotIndependentError, TooLargeError, TruncatedOmegaError
from .graph import Graph, is_independent, neighborhood

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


def _alpha_value(
    adj: tuple[int, ...], mask: int, floor: int = 0, stop_at: int | None = None
) -> tuple[int, int]:
    """Largest independent set within *mask* that beats *floor*, as
    ``(size, set)``; ``(floor, 0)`` when no set is larger than *floor*.

    When *stop_at* is given the search returns the first set it finds of
    size >= stop_at, which answers decision questions like "does alpha stay
    at k after deletion?". The search keeps an explicit stack, so its depth
    is not bounded by Python's recursion limit.
    """
    best, best_set = floor, 0
    stack = [(mask, 0, 0)]
    while stack:
        if stop_at is not None and best >= stop_at:
            break
        m, chosen, size = stack.pop()
        if size + m.bit_count() <= best:
            continue
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
                chosen |= low
                size += 1
            elif not (nb & (nb - 1)):
                m &= ~(nb | low)
                chosen |= low
                size += 1
                scan &= m
        if not m:
            if size > best:
                best, best_set = size, chosen
            continue
        if size + m.bit_count() <= best:
            continue
        if size + _clique_cover_bound(adj, m) <= best:
            continue
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
        bit = 1 << pivot
        # Exclude-branch pushed first so the include-branch pops first.
        stack.append((m & ~bit, chosen, size))
        stack.append((m & ~(adj[pivot] | bit), chosen | bit, size + 1))
    return best, best_set


def alpha(g: Graph, limit: int | None = DEFAULT_EXACT_LIMIT) -> AlphaResult:
    """Independence number with its lexicographically smallest witness: the
    first set of the Omega stream."""
    stream = enumerate_maximum_independent_sets(g, 1, limit)
    return AlphaResult(stream.alpha, next(iter(stream)))


class OmegaStream:
    """Lazy lexicographic enumeration of all maximum independent sets.

    Iteration stops after *cap* sets; ``truncated`` reports whether more
    remained.
    """

    def __init__(self, g: Graph, cap: int, value: int, witness: int):
        self.alpha = value
        self.cap = cap
        self.truncated = False
        self.count = 0
        self._g = g
        self._witness = witness

    def __iter__(self) -> Iterator[int]:
        adj = self._g.adj
        # A node still needs *need* more members from *m*; *t* is an
        # independent set of that size inside *m*, or None until a probe
        # finds one. A node whose probe falls short holds no maximum set.
        stack = [(self._g.full_mask, 0, self.alpha, self._witness)]
        while stack:
            m, chosen, need, t = stack.pop()
            if not need:
                if self.count >= self.cap:
                    self.truncated = True
                    return
                self.count += 1
                yield chosen
                continue
            if t is None:
                size, t = _alpha_value(adj, m, need - 1, stop_at=need)
                if size < need:
                    continue
            low = m & -m
            inside = t & low
            # Exclude-branch pushed first so the include-branch pops first;
            # the branch that t covers inherits it.
            stack.append((m ^ low, chosen, need, None if inside else t))
            stack.append((
                m & ~(adj[low.bit_length() - 1] | low), chosen | low, need - 1,
                t ^ low if inside else None,
            ))


def enumerate_maximum_independent_sets(
    g: Graph,
    cap: int = DEFAULT_OMEGA_CAP,
    limit: int | None = DEFAULT_EXACT_LIMIT,
) -> OmegaStream:
    """All maximum independent sets, lexicographic, capped at *cap* items."""
    _gate(g.n, limit)
    value, witness = _alpha_value(g.adj, g.full_mask)
    return OmegaStream(g, cap, value, witness)


def collect_omega(g: Graph, cap: int = DEFAULT_OMEGA_CAP) -> list[int]:
    """Exhaustive list of maximum independent sets; raises if capped or gated."""
    stream = enumerate_maximum_independent_sets(g, cap)
    sets = list(stream)
    if stream.truncated:
        raise TruncatedOmegaError(
            f"more than {cap} maximum independent sets; raise the cap"
        )
    return sets


def _swappable(adj: tuple[int, ...], mask: int, t: int) -> int:
    """Members u of the maximum independent set *t* that some w in *mask*
    outside t has as its only neighbour in t: t - u + w is maximum too, so
    u lies outside the core."""
    out = 0
    rest = mask & ~t
    while rest:
        low = rest & -rest
        rest ^= low
        nb = adj[low.bit_length() - 1] & t
        if not nb & (nb - 1):
            out |= nb
    return out


def core(
    g: Graph,
    limit: int | None = DEFAULT_EXACT_LIMIT,
    *,
    alpha_result: AlphaResult | None = None,
) -> int:
    """Intersection of all maximum independent sets.

    The core lies inside every maximum independent set, so only the members
    of one (the alpha witness) are candidates, less those a one-vertex swap
    removes. A probe of candidate v asks for a maximum independent set that
    avoids v, seeded with the floor alpha - 1 so it stops at the first one.
    Every maximum independent set holds the core members found so far, so
    the probe searches only g - v - N[those members]. A set T found there
    removes every candidate outside T; finding none puts v in the core. This
    works even when the number of maximum independent sets is huge. Pass
    *alpha_result* when ``alpha(g)`` is already known, to skip its search.
    """
    if alpha_result is None:
        alpha_result = alpha(g, limit)
    else:
        _gate(g.n, limit)
    need, candidates = alpha_result
    adj, full = g.adj, g.full_mask
    mask = full
    result = 0
    candidates &= ~_swappable(adj, full, candidates)
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        size, found = _alpha_value(adj, mask & ~low, need - 1, stop_at=need)
        if size == need:
            candidates &= found & ~_swappable(adj, full, found | result)
        else:
            result |= low
            mask &= ~(adj[low.bit_length() - 1] | low)
            need -= 1
    return result


def is_local_max_independent_set(g: Graph, a: int) -> bool:
    """True iff *a* is a maximum independent set of the subgraph on N[a]."""
    if not is_independent(g, a):
        raise NotIndependentError("set is not independent")
    closed = neighborhood(g, a, closed=True)
    size = a.bit_count()
    return _alpha_value(g.adj, closed, size, stop_at=size + 1)[0] == size


def extends_to_maximum(
    g: Graph, s: int, limit: int | None = DEFAULT_EXACT_LIMIT
) -> bool:
    """True iff *s* is contained in some maximum independent set.

    Uses the deletion identity: s extends iff alpha(g - N[s]) + |s| = alpha(g).
    """
    if not is_independent(g, s):
        raise NotIndependentError("set is not independent")
    _gate(g.n, limit)
    need = _alpha_value(g.adj, g.full_mask)[0] - s.bit_count()
    rest = g.full_mask & ~neighborhood(g, s, closed=True)
    return _alpha_value(g.adj, rest, need - 1, stop_at=need)[0] == need
