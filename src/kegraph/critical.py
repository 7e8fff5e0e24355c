"""Critical difference, critical independent sets, and their certificates.

The critical difference d(G) = max{|S| - |N(S)| : S independent} is computed
in polynomial time through the bipartite double cover: d(G) = n - mu(cover).
The suite cross-checks this identity against brute force, over independent
sets and over all subsets alike.

A maximum-cardinality critical independent set is built greedily: a vertex v
belongs to some critical independent set of H iff

    1 - deg_H(v) + d(H - N_H[v]) = d(H),

and committing such a v reduces the problem to H - N_H[v]. Scanning vertices
in ascending order makes the output deterministic. Every returned witness is
re-checked at runtime: independent, attains d(G), and carries a matching of
N(S) into S saturating N(S).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionFailedError, NotCriticalError
from .graph import Graph, bits, is_independent, neighborhood, vset
from .matching import HallViolation, Matching, _grow, _kuhn, saturating_matching

__all__ = [
    "CriticalWitness",
    "bipartite_double_cover",
    "critical_difference",
    "is_critical",
    "max_critical_independent_set",
    "hall_certificate",
]


def bipartite_double_cover(g: Graph) -> Graph:
    """Bipartite double cover: left copy of v is v, right copy is n + v,
    and u is adjacent to n + v exactly when uv is an edge of *g*."""
    n = g.n
    adj = [0] * (2 * n)
    for v in range(n):
        adj[v] = g.adj[v] << n
        adj[n + v] = g.adj[v]
    labels = None
    if g.labels:
        labels = tuple(f"{s}'" for s in g.labels) + tuple(f"{s}''" for s in g.labels)
    return Graph.from_adjacency(adj, labels)


def _cover_mu(adj: tuple[int, ...], active: int) -> int:
    """Matching number of the double cover restricted to *active* vertices.

    The cover's left adjacency equals the source adjacency, so the matching
    runs directly on the source masks with both sides drawn from *active*.
    """
    mate_l, _ = _kuhn(adj, active, active)
    return len(mate_l)


def critical_difference(g: Graph) -> int:
    """d(g) = max{|S| - |N(S)| : S independent} = n - mu(double cover)."""
    return g.n - _cover_mu(g.adj, g.full_mask)


def is_critical(g: Graph, s: int) -> bool:
    """True iff *s* is independent and |s| - |N(s)| attains d(g)."""
    if not is_independent(g, s):
        return False
    surplus = s.bit_count() - neighborhood(g, s).bit_count()
    return surplus == critical_difference(g)


@dataclass(frozen=True)
class CriticalWitness:
    """A critical independent set with its value and Hall-style certificate."""

    set: int
    value: int
    hall_matching: Matching


def max_critical_independent_set(g: Graph) -> CriticalWitness:
    """A maximum-cardinality critical independent set, deterministically.

    The empty set is a legal witness (graphs with d = 0 and no positive
    attainer). The runtime contract check cannot be disabled.

    One matching of the double cover is kept across the scan: each probe
    repairs it on the rest of the graph instead of matching from scratch,
    and a committed probe keeps the repaired matching.
    """
    adj = g.adj
    active = g.full_mask
    mate_l, mate_r = _kuhn(adj, active, active)
    loose = _loose(adj, active, active, mate_l)
    d = d_whole = g.n - len(mate_l)
    chosen = 0
    for v in range(g.n):
        if not (active >> v) & 1:
            continue
        bit = 1 << v
        nb = adj[v] & active
        deg = nb.bit_count()
        rest = active & ~nb & ~bit
        target = d + deg - 1
        n_rest = rest.bit_count()
        if target > n_rest:
            continue
        probe = _repaired(adj, rest, nb | bit, mate_l, mate_r, loose)
        d_rest = n_rest - len(probe[0])
        if d_rest == target:
            chosen |= bit
            active = rest
            d = d_rest
            mate_l, mate_r, loose = probe
    return _checked_witness(g, chosen, d_whole)


def _repaired(
    adj: tuple[int, ...],
    rest: int,
    gone: int,
    mate_l: dict[int, int],
    mate_r: dict[int, int],
    loose: int,
) -> tuple[dict[int, int], dict[int, int], int]:
    """Maximum cover matching on *rest*, from a maximum one on rest | gone
    whose exposed left vertices with a neighbour are *loose*.

    The pairs that touch *gone* are dropped, and Kuhn's method runs from
    the left vertices they free, then from the loose ones; the inputs are
    not modified. Roots on the left suffice: every augmenting path has an
    exposed left end, and an isolated vertex ends none. Returns (mate of
    left, mate of right, loose left vertices).
    """
    mate_l = mate_l.copy()
    mate_r = mate_r.copy()
    freed = 0
    for x in bits(gone):
        w = mate_l.pop(x, None)
        if w is not None:
            del mate_r[w]
        u = mate_r.pop(x, None)
        if u is not None:
            del mate_l[u]
            freed |= (1 << u) & rest
    # Freed roots first: their searches mostly succeed, and the loose
    # roots' searches, which mostly fail, then share one dead mask.
    loose &= rest
    _grow(adj, freed, rest, mate_l, mate_r)
    _grow(adj, loose, rest, mate_l, mate_r)
    return mate_l, mate_r, _loose(adj, freed | loose, rest, mate_l)


def _loose(adj: tuple[int, ...], roots: int, rest: int, mate_l: dict[int, int]) -> int:
    """The vertices of *roots* that *mate_l* leaves exposed and that keep a
    neighbour in *rest*."""
    return vset(u for u in bits(roots) if u not in mate_l and adj[u] & rest)


def _checked_witness(g: Graph, chosen: int, d: int) -> CriticalWitness:
    if not is_independent(g, chosen):
        raise ConstructionFailedError("constructed set is not independent")
    nb = neighborhood(g, chosen)
    value = chosen.bit_count() - nb.bit_count()
    if value != d:
        raise ConstructionFailedError(
            "constructed set does not attain the critical difference"
        )
    cert = saturating_matching(g, nb, chosen)
    if isinstance(cert, HallViolation):
        raise ConstructionFailedError(
            "no matching of N(S) into S for the constructed critical set"
        )
    return CriticalWitness(set=chosen, value=value, hall_matching=cert)


def hall_certificate(g: Graph, s: int) -> Matching:
    """Matching from N(s) into s saturating N(s), for a critical set *s*.

    Such a matching always exists when *s* is critical; failure to find one
    is therefore an internal defect, never a property of the input.
    """
    if not is_critical(g, s):
        raise NotCriticalError(
            f"set {sorted(bits(s))} does not attain the critical difference"
        )
    cert = saturating_matching(g, neighborhood(g, s), s)
    if isinstance(cert, HallViolation):
        raise ConstructionFailedError(
            "critical set unexpectedly fails Hall's condition"
        )
    return cert
