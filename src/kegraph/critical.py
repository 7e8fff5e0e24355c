"""Critical difference, critical independent sets, and their certificates.

The critical difference d(G) = max{|S| - |N(S)| : S independent} is computed
in polynomial time through the bipartite double cover: d(G) = n - mu(cover).
The suite cross-checks this identity against brute force, over independent
sets and over all subsets alike.

A maximum-cardinality critical independent set is built greedily over one
maximum matching of the double cover: a set lies in some critical independent
set iff some minimum vertex cover of the cover avoids both copies of each of
its members, and the minimum covers are the solutions of a 2-SAT read off
that matching. Each vertex is decided by unit propagation, in ascending
order, which makes the output deterministic; no matching is recomputed.
When the cover matching is perfect and one reachability test shows that
every probe would conflict (the positive-surplus case, alpha_c = 0), the
empty set is returned without the scan. Every returned witness is
re-checked at runtime: independent, attains d(G), and carries a matching of
N(S) into S saturating N(S), read off the same cover matching.

On a Konig-Egervary graph the same propagator, run on G itself with its
maximum matching, solves the 2-SAT of G's minimum vertex covers, whose
complements are the maximum independent sets. Every maximum independent
set of a KE graph is critical (item (ii) of the paper), so the witness is
then the lex-least maximum independent set, and ``ke_core`` reads the core
off that 2-SAT as its backbone; no branch-and-bound runs on KE graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionFailedError
from .graph import Graph, bits, is_independent, neighborhood, vset
from .independence import _swappable
from .matching import Matching, _grow
from .matching import saturating_matching  # noqa: F401 (unused; perfbench/tracer.py wraps it)

__all__ = [
    "CriticalWitness",
    "bipartite_double_cover",
    "critical_difference",
    "ke_core",
    "max_critical_independent_set",
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
    return Graph._trusted(adj, labels)


def critical_difference(g: Graph) -> int:
    """d(g) = max{|S| - |N(S)| : S independent} = n - mu(double cover)."""
    return g.n - len(_cover_matching(g, None)[0])


@dataclass(frozen=True)
class CriticalWitness:
    """A critical independent set with its value and Hall-style certificate."""

    set: int
    value: int
    hall_matching: Matching


def max_critical_independent_set(
    g: Graph, matching: Matching | None = None
) -> CriticalWitness:
    """A maximum-cardinality critical independent set, deterministically.

    The empty set is a legal witness (graphs with d = 0 and no positive
    attainer). The runtime contract check cannot be disabled.

    Why it is exact: a set S lies in some critical independent set iff some
    minimum vertex cover of the double cover B avoids both copies of every
    member of S. (For a critical I, the complement of I' + I'' + (V - N[I])'
    is such a cover; conversely J' & J'' is critical for every maximum
    independent set J of B.) Given a maximum matching M of B, the minimum
    covers are the solutions of a 2-SAT: no M-exposed vertex is in, exactly
    one end of each M-edge is in, and every edge is covered. So "x out"
    forces N(x) in, and "y in" forces mate(y) out. Vertices are scanned in
    ascending order; v joins when propagating "v' out, v'' out" from the
    current state meets no conflict. A conflict-free propagation on a
    satisfiable 2-SAT leaves a satisfiable rest, so no decision is undone,
    and the result is the lex-least critical independent set, which is
    also of maximum size.

    *matching*, a matching of *g* (usually its maximum matching), is
    doubled into B as (u', v'') and (v', u'') and augmented to a maximum
    one. On a KE graph nothing is left to augment: mu(B) = n - d, and
    d = n - 2 mu(g) on KE graphs (item (i) of the paper), so mu(B) = 2 mu(g),
    and the Hall matching read off B is *matching* itself when it is maximum.
    """
    mate_l, mate_r = _cover_matching(g, matching)
    if _alpha_c_zero(g.adj, mate_l, mate_r):
        return _checked_witness(g, 0, 0, mate_l)
    return _checked_witness(g, _scan(g.adj, mate_l, mate_r), g.n - len(mate_l), mate_l)


def _cover_matching(
    g: Graph, matching: Matching | None
) -> tuple[dict[int, int], dict[int, int]]:
    """A maximum matching of the double cover, as (left, right) mate maps over
    the source vertices: *matching* doubled, then completed by one _grow."""
    mate_l = {} if matching is None else _mates(matching)
    mate_r = dict(mate_l)
    _grow(g.adj, g.full_mask, g.full_mask, mate_l, mate_r)
    return mate_l, mate_r


def _mates(matching: Matching) -> dict[int, int]:
    return dict(matching.edges) | {v: u for u, v in matching.edges}


def _alpha_c_zero(
    adj: tuple[int, ...], mate_l: dict[int, int], mate_r: dict[int, int]
) -> bool:
    """True when every probe of the scan conflicts, so its set is empty.

    That holds if the cover matching is perfect and the digraph
    x -> mate_r(y), y in N(x), on the left copies is strongly connected. No
    vertex is then exposed, every probe starts from the empty state, and
    "v' out" puts every left copy out, so every right copy in, v'' too.
    Reachability from 0 is walked as the same digraph on the right copies,
    y -> N(mate_r(y)), from mate_l(0); reachability to 0 steps x <- N(mate_l(x)).
    """
    n = len(adj)
    if not n or len(mate_l) < n:
        return False
    for start, mate in ((mate_l[0], mate_r), (0, mate_l)):
        seen = new = 1 << start
        while new:
            step = 0
            while new:
                low = new & -new
                step |= adj[mate[low.bit_length() - 1]]
                new ^= low
            new = step & ~seen
            seen |= new
        if seen != (1 << n) - 1:
            return False
    return True


def _scan(adj: tuple[int, ...], mate_l: dict[int, int], mate_r: dict[int, int]) -> int:
    """The greedy: every exposed cover vertex out, then each vertex in
    ascending order joins when "v' out, v'' out" propagates without conflict."""
    full = (1 << len(adj)) - 1
    state = _propagate(
        adj, mate_l, mate_r, (0, 0, 0, 0),
        full & ~vset(mate_l), full & ~vset(mate_r),
    )
    if state is None:
        raise ConstructionFailedError("the exposed cover vertices do not propagate")
    chosen = 0
    for v in range(len(adj)):
        bit = 1 << v
        in_l, in_r, out_l, out_r = state
        if (in_l | in_r) & bit:
            continue
        if out_l & out_r & bit:
            chosen |= bit
            continue
        probe = _propagate(adj, mate_l, mate_r, state, bit & ~out_l, bit & ~out_r)
        if probe is not None:
            chosen |= bit
            state = probe
    return chosen


def ke_core(g: Graph, matching: Matching, witness: int) -> int:
    """Core of a KE graph: the intersection of its maximum independent sets.

    *matching* is a maximum matching of *g* and *witness* one maximum
    independent set (the critical witness). On a KE graph tau = mu, so the
    minimum vertex covers are the complements of the maximum independent
    sets, and they are the solutions of a 2-SAT: exposed vertices out, one
    end of each matching edge in, every edge covered. ``_propagate`` solves
    it when given the matching as the mate map of both sides and the same
    mask for both: a symmetric start stays symmetric under every rule. The
    core is its backbone, the vertices out of every solution.

    Only members of *witness* can be in the core, less those a one-vertex
    swap removes. An exposed candidate is in it. For a matched candidate v,
    "v in" is "mate(v) out": a conflict puts v in the core, and "v out" is
    committed; a conflict-free probe extends to a minimum cover, so every
    candidate it forces in lies outside some maximum independent set and
    is dropped. *g* must be KE: on other graphs the minimum covers are
    larger than mu, and the result need not be the core.
    """
    adj = g.adj
    mate = _mates(matching)
    exposed = g.full_mask & ~vset(mate)
    state = _propagate(adj, mate, mate, (0, 0, 0, 0), exposed, exposed)
    if state is None:
        raise ConstructionFailedError("the exposed vertices do not propagate: not KE")
    candidates = witness & ~_swappable(adj, g.full_mask, witness)
    result = candidates & exposed
    candidates &= ~exposed
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        out = state[2]
        partner = 1 << mate[low.bit_length() - 1] & ~out
        probe = _propagate(adj, mate, mate, state, partner, partner)
        if probe is None:
            result |= low
            state = _propagate(adj, mate, mate, state, low & ~out, low & ~out)
        else:
            candidates &= ~probe[0]
    return result


def _propagate(
    adj: tuple[int, ...],
    mate_l: dict[int, int],
    mate_r: dict[int, int],
    state: tuple[int, int, int, int],
    new_l: int,
    new_r: int,
) -> tuple[int, int, int, int] | None:
    """Unit propagation in the 2-SAT of the double cover's minimum covers.

    *state* is (in left, in right, out left, out right) as masks over the
    source vertices; *new_l* and *new_r* are set out. Returns the extended
    state, or None on a conflict. Every exposed vertex must already be out,
    so a vertex forced in always has a mate.
    """
    in_l, in_r, out_l, out_r = state
    while new_l or new_r:
        if new_l & in_l or new_r & in_r:
            return None
        out_l |= new_l
        out_r |= new_r
        # Out on one side forces its neighbours on the other side in.
        force_r = 0
        while new_l:
            low = new_l & -new_l
            force_r |= adj[low.bit_length() - 1]
            new_l ^= low
        force_l = 0
        while new_r:
            low = new_r & -new_r
            force_l |= adj[low.bit_length() - 1]
            new_r ^= low
        force_r &= ~in_r
        force_l &= ~in_l
        if force_r & out_r or force_l & out_l:
            return None
        in_r |= force_r
        in_l |= force_l
        # In forces its mate out.
        while force_r:
            low = force_r & -force_r
            new_l |= 1 << mate_r[low.bit_length() - 1]
            force_r ^= low
        while force_l:
            low = force_l & -force_l
            new_r |= 1 << mate_l[low.bit_length() - 1]
            force_l ^= low
        new_l &= ~out_l
        new_r &= ~out_r
    return in_l, in_r, out_l, out_r


def _checked_witness(
    g: Graph, chosen: int, d: int, mate_l: dict[int, int]
) -> CriticalWitness:
    """Check S = *chosen*, and pair each y in N(S) with mate_l[y], its mate in
    a maximum matching of the double cover B, as S's Hall matching.

    Why the mate lies in S: a minimum vertex cover C of B that extends the
    greedy's final 2-SAT state avoids S' and S'', so it holds N(S)' and
    N(S)''. |C| = mu(B) = n - d = |T| + 2|N(S)| for T = V - S - N(S), so C
    holds |T| copies of T. T has no neighbour in S, so these are matched to
    the |T| copies of T outside C. Every vertex of C is matched (Konig), so
    y' is matched to some x'' with x in S.
    """
    if not is_independent(g, chosen):
        raise ConstructionFailedError("constructed set is not independent")
    nb = neighborhood(g, chosen)
    value = chosen.bit_count() - nb.bit_count()
    if value != d:
        raise ConstructionFailedError(
            "constructed set does not attain the critical difference"
        )
    hall = {y: mate_l.get(y, -1) for y in bits(nb)}
    if any(x < 0 or not chosen >> x & 1 for x in hall.values()):
        raise ConstructionFailedError("the cover matching does not match N(S) into S")
    return CriticalWitness(set=chosen, value=value, hall_matching=Matching.from_mates(hall))
