"""Self-check suites behind the `verify` CLI command.

``quick`` replays the fixture corpus facts; ``full`` additionally runs the
seeded random suites that cross-check every main-path quantity against the
brute-force oracle and exercise the structural guarantees on Konig-Egervary
inputs. Every check is one row of a table: a seeded pool of samples and the
labelled predicates each sample must not violate. The runner stops at the
first violation and reports a minimized reproducing graph as graph6.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from typing import Callable, Iterator, NamedTuple

from . import koenig, oracle
from .critical import (
    _alpha_c_zero,
    _cover_matching,
    _scan,
    bipartite_double_cover,
    critical_difference,
    max_critical_independent_set,
)
from .errors import KegraphError, TruncatedOmegaError
from .fixtures import FIXTURE_NAMES, fixture, generate, random_bipartite_graph, random_graph
from .formats import emit_graph6, parse_graph6
from .graph import (
    Graph,
    bits,
    induced_subgraph,
    is_independent,
    neighborhood,
    two_coloring,
    vset,
)
from .independence import (
    alpha,
    core,
    enumerate_maximum_independent_sets,
    extends_to_maximum,
    is_local_max_independent_set,
)
from .matching import (
    HallViolation,
    deficiency,
    has_perfect_matching,
    maximum_bipartite_matching,
    maximum_matching,
    saturating_matching,
)
from .report import analyze_graph, chain_from_parts, equality_chain_report

__all__ = [
    "Violation", "Check", "Probe", "run_suite", "run_check", "minimize",
    "CHECKS", "DEFAULT_SEED",
]

DEFAULT_SEED = 20090001

Predicate = Callable[[Graph], bool]


@dataclass
class Violation:
    check: str
    detail: str
    graph: Graph | None = None
    predicate: Predicate | None = None


def _safe(pred: Predicate) -> Predicate:
    def wrapped(g: Graph) -> bool:
        try:
            return pred(g)
        except KegraphError:
            return False

    return wrapped


def minimize(g: Graph, predicate: Predicate) -> Graph:
    """Greedily delete vertices while the violation persists."""
    pred = _safe(predicate)
    shrinking = True
    while shrinking:
        shrinking = False
        for v in range(g.n):
            h, _ = induced_subgraph(g, g.full_mask & ~(1 << v))
            if pred(h):
                g = h
                shrinking = True
                break
    return g


# ---------------------------------------------------------------------------
# Violation predicates: each takes a sample's graph (and the sample's extra
# values, if its pool draws any) and returns True when the sample violates.


FIXTURE_FACTS = {
    # name: (n, m, alpha, mu, d, alpha_c, is_ke, core labels, N(core) labels)
    "H1": (4, 4, 2, 2, 0, 2, True, {"1"}, {"2"}),
    "H2": (7, 7, 4, 3, 1, 4, True, None, None),
    "H3": (5, 5, 2, 2, 0, 1, False, None, None),
    # G1: the source's own numbers give alpha + mu = n, so KE is derived.
    "G1": (9, 9, 6, 3, 3, 6, True, {"a", "b", "d", "f", "g"}, {"c", "e"}),
    "G2": (9, 18, 4, 3, 2, 3, False, {"x", "y", "z"}, {"v"}),
    "GF10": (8, 8, 4, 3, 1, 2, False, {"a", "h"}, {"b"}),
}


def _fixture_facts_wrong(g: Graph, facts: tuple) -> bool:
    a = alpha(g)
    c = core(g, alpha_result=a)
    got = (
        g.n, g.m, a.value, maximum_matching(g).size, critical_difference(g),
        max_critical_independent_set(g).set.bit_count(), koenig.recognize_ke(g).is_ke,
        set(g.labels_of(c)), set(g.labels_of(neighborhood(g, c))),
    )
    return any(want is not None and want != have for want, have in zip(facts, got))


def _kn_minus_e_broken(g: Graph, half: int) -> bool:
    """K_2n minus an edge: alpha - mu = 2 - n, core surplus 4 - 2n, d = 0, not KE."""
    a = alpha(g)
    c = core(g, alpha_result=a)
    return not (
        a.value - maximum_matching(g).size == 2 - half
        and c.bit_count() - neighborhood(g, c).bit_count() == 4 - 2 * half
        and critical_difference(g) == 0
        and not koenig.recognize_ke(g).is_ke
    )


def _roundtrip_broken(g: Graph) -> bool:
    return parse_graph6(emit_graph6(g)) != g


def _mu_oracle_broken(g: Graph) -> bool:
    return bool(oracle.disagreements(g, mu=maximum_matching(g).size))


def _alpha_oracle_broken(g: Graph) -> bool:
    return bool(oracle.disagreements(g, alpha=alpha(g).value))


def _d_oracle_broken(g: Graph) -> bool:
    return bool(oracle.disagreements(g, d=critical_difference(g)))


def _alpha_c_oracle_broken(g: Graph) -> bool:
    """Size and set: the witness must be the oracle's lex-least one, which
    pins the ascending greedy's determinism contract."""
    if g.n > oracle.ORACLE_VERTEX_LIMIT:
        return False
    w = max_critical_independent_set(g)
    return (w.set.bit_count(), w.set) != oracle.brute_alpha_c(g)


def _core_oracle_broken(g: Graph) -> bool:
    return bool(oracle.disagreements(g, core=core(g)))


def _matching_invalid(g: Graph) -> bool:
    try:
        maximum_matching(g).validate(g)
    except ValueError:
        return True
    return False


def _bipartite_matchings_disagree(g: Graph) -> bool:
    sides = two_coloring(g)
    if sides is None:
        return False
    return maximum_bipartite_matching(g, sides).size != maximum_matching(g).size


def _double_cover_broken(g: Graph) -> bool:
    cover = bipartite_double_cover(g)
    if cover.m != 2 * g.m:
        return True
    mu_cover = maximum_bipartite_matching(cover, (1 << g.n) - 1).size
    return critical_difference(g) != g.n - mu_cover


def _recognition_inconsistent(g: Graph) -> bool:
    a = alpha(g).value
    mu = maximum_matching(g).size
    by_definition = a + mu == g.n
    by_matching = koenig.recognize_ke(g).is_ke
    by_alpha_c = max_critical_independent_set(g).set.bit_count() == a
    record = koenig.characterization_check(g)
    return not (
        by_definition
        == by_matching
        == by_alpha_c
        == record.all_mis_critical
        == record.exists_critical_mis
        == record.is_ke
    )


def _ke_chain_broken(g: Graph) -> bool:
    """A KE graph whose equality chain fails, or on which the chain or the
    report's alpha, alpha witness or core differ from branch-and-bound's.
    The chain and the report take the critical witness and the cover 2-SAT;
    branch-and-bound is the reference for that route."""
    if not koenig.recognize_ke(g).is_ke:
        return False
    try:
        chain = equality_chain_report(g, None)
        r = analyze_graph(g, force=True)
        a = alpha(g, None)
        c = core(g, None, alpha_result=a)
        reference = chain_from_parts(
            g, critical_difference(g), c, a.value, maximum_matching(g).size, True
        )
    except KegraphError:
        return True
    return (
        not chain.chain_holds
        or chain != reference
        or not r.is_ke
        or (r.alpha, r.certificates["ke_witness"]["independent_set"], r.core)
        != (a.value, g.labels_of(a.witness), g.labels_of(c))
    )


def _ke_structure_broken(g: Graph, cap: int) -> bool:
    if not koenig.recognize_ke(g).is_ke:
        return False
    try:
        return not koenig.structure_checks_ke(g, cap=cap).all_hold
    except TruncatedOmegaError:
        return False
    except KegraphError:
        return True


def _ke_perfect_matching_link_broken(g: Graph) -> bool:
    if not koenig.recognize_ke(g).is_ke:
        return False
    return (critical_difference(g) == 0) != has_perfect_matching(g)


def _bipartite_not_ke(g: Graph) -> bool:
    return two_coloring(g) is not None and not koenig.recognize_ke(g).is_ke


def _ke_certificate_invalid(g: Graph) -> bool:
    cert = koenig.recognize_ke(g)
    if not cert.is_ke:
        return False
    s = cert.ke_witness.independent_set
    m = cert.ke_witness.matching
    try:
        m.validate(g)
    except ValueError:
        return True
    rest = g.full_mask & ~s
    return (
        not is_independent(g, s)
        or s.bit_count() != g.n - maximum_matching(g).size
        or m.saturated & rest != rest
    )


def _omega_properties_broken(g: Graph) -> bool:
    """The Omega stream yields distinct maximum independent sets; when it
    is not truncated, it yields every one in lexicographic order (checked
    against brute force within the oracle's gate) and they meet in the core."""
    stream = enumerate_maximum_independent_sets(g, cap=100000)
    a = stream.alpha
    sets = []
    for s in stream:
        if s.bit_count() != a or not is_independent(g, s):
            return True
        sets.append(s)
    if len(set(sets)) != len(sets):
        return True
    if stream.truncated:
        return False
    if g.n <= oracle.ORACLE_VERTEX_LIMIT:
        expected = sorted(oracle.brute_maximum_independent_sets(g), key=lambda s: list(bits(s)))
        if sets != expected:
            return True
    inter = g.full_mask
    for s in sets:
        inter &= s
    return core(g) != inter


def _critical_family_broken(g: Graph) -> bool:
    """Every critical independent set is a local maximum independent set,
    extends to a maximum independent set, and admits the Hall certificate."""
    if g.n > 12:
        return False
    d = critical_difference(g)
    for size in range(g.n + 1):
        for comb in combinations(range(g.n), size):
            s = vset(comb)
            if not is_independent(g, s):
                continue
            nb = neighborhood(g, s)
            if s.bit_count() - nb.bit_count() != d:
                continue
            if not is_local_max_independent_set(g, s) or not extends_to_maximum(g, s):
                return True
            cert = saturating_matching(g, nb, s)
            if isinstance(cert, HallViolation) or cert.saturated & nb != nb:
                return True
    return False


def _critical_shortcut_broken(g: Graph) -> bool:
    """The one-shot alpha_c = 0 test fires, but the full scan from the same
    cover matching takes a vertex."""
    mate_l, mate_r = _cover_matching(g, maximum_matching(g))
    return _alpha_c_zero(g.adj, mate_l, mate_r) and _scan(g.adj, mate_l, mate_r) != 0


def _local_max_not_extending(g: Graph, s: int) -> bool:
    """A local maximum independent set *s* that extends to no maximum one."""
    return is_local_max_independent_set(g, s) and not extends_to_maximum(g, s)


def _hall_crosscheck_broken(g: Graph, from_set: int, into_set: int) -> bool:
    result = saturating_matching(g, from_set, into_set)
    members = list(bits(from_set))
    holds = all(
        (neighborhood(g, vset(comb)) & into_set).bit_count() >= r
        for r in range(1, len(members) + 1)
        for comb in combinations(members, r)
    )
    if isinstance(result, HallViolation):
        viol = result.violator
        return holds or (neighborhood(g, viol) & into_set).bit_count() >= viol.bit_count()
    if not holds:
        return True
    try:
        result.validate(g)
    except ValueError:
        return True
    return result.saturated & from_set != from_set or not all(
        ((from_set >> u) & (into_set >> v) | (from_set >> v) & (into_set >> u)) & 1
        for u, v in result.edges
    )


def _deficiency_broken(g: Graph) -> bool:
    exposed = g.n - maximum_matching(g).saturated.bit_count()
    return deficiency(g) != exposed or deficiency(g) < 0


def _inequality_chain_broken(g: Graph) -> bool:
    a = alpha(g)
    mu = maximum_matching(g).size
    d = critical_difference(g)
    ac = max_critical_independent_set(g).set.bit_count()
    c = core(g, alpha_result=a)
    surplus = c.bit_count() - neighborhood(g, c).bit_count()
    return not (0 <= d <= ac <= a.value <= g.n - mu) or d < surplus


# ---------------------------------------------------------------------------
# Pools: each yields samples (tag, graph, *extra). The tag names the sample
# in a violation's detail; the extra values are passed on to the predicates.

Pool = Callable[[random.Random], Iterator[tuple]]


def _fixtures(names: tuple[str, ...] = FIXTURE_NAMES) -> Pool:
    def pool(_rng: random.Random) -> Iterator[tuple]:
        for name in names:
            yield name, fixture(name)

    return pool


def _fixture_facts_pool(_rng: random.Random) -> Iterator[tuple]:
    for name, facts in FIXTURE_FACTS.items():
        yield name, fixture(name), facts


def _kn_minus_e_pool(_rng: random.Random) -> Iterator[tuple]:
    for half in (3, 4, 5):
        yield f"2n={2 * half}", generate("complete_minus_edge", 2 * half), half


def _random_graphs(count: int, max_n: int, bipartite: bool = False) -> Pool:
    """*count* random graphs, n uniform in 0..max_n, edge chance uniform in [0, 1)."""

    def pool(rng: random.Random) -> Iterator[tuple]:
        for _ in range(count):
            if bipartite:
                yield "", random_bipartite_graph(rng, rng.randint(0, max_n), rng.random())[0]
            else:
                yield "", random_graph(rng, rng.randint(0, max_n), rng.random())

    return pool


def _matching_pool(rng: random.Random) -> Iterator[tuple]:
    """500 graphs within the mu oracle's edge limit."""
    done = 0
    while done < 500:
        g = random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.2, 0.3, 0.5]))
        if g.m > oracle.ORACLE_EDGE_LIMIT:
            continue
        done += 1
        yield "", g


def _ke_pool(rng: random.Random) -> Iterator[tuple]:
    return chain(
        _fixtures(("H1", "H2", "G1"))(rng),
        _random_graphs(300, 24, bipartite=True)(rng),
        _random_graphs(500, 10)(rng),
    )


def _shortcut_pool(rng: random.Random) -> Iterator[tuple]:
    """300 samples from G(n, p), n in 2..50, p in {0.3, 0.5, 0.8}: in turn one
    graph alone ("dense"), one with isolated vertices added, and two side by side."""

    def draw() -> Graph:
        return random_graph(rng, rng.randint(2, 50), rng.choice((0.3, 0.5, 0.8)))

    for i in range(300):
        g = draw()
        if i % 3 == 0:
            yield "dense", g
        elif i % 3 == 1:
            yield "isolated", Graph.from_adjacency(g.adj + (0,) * rng.randint(1, 3))
        else:
            h = draw()
            yield "union", Graph.from_adjacency(g.adj + tuple(m << g.n for m in h.adj))


def _local_max_pool(rng: random.Random) -> Iterator[tuple]:
    """Up to 200 local maximum independent sets out of 4000 draws."""
    found = 0
    attempts = 0
    while found < 200 and attempts < 4000:
        attempts += 1
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        # Greedy local search stopped early at a random size, then filtered,
        # so the sample includes plenty of non-maximal independent sets.
        target = rng.randint(1, g.n)
        order = list(range(g.n))
        rng.shuffle(order)
        s = 0
        candidates = g.full_mask
        for v in order:
            if (candidates >> v) & 1:
                s |= 1 << v
                candidates &= ~(g.adj[v] | (1 << v))
                if s.bit_count() >= target:
                    break
        if not is_local_max_independent_set(g, s):
            continue
        found += 1
        yield f"set={sorted(bits(s))}", g, s


def _hall_pool(rng: random.Random) -> Iterator[tuple]:
    """200 graphs with disjoint random sets to match from and into."""
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        k = rng.randint(1, min(8, g.n - 1))
        from_set = vset(shuffled[:k])
        into_size = rng.randint(1, g.n - k)
        into_set = vset(shuffled[k:k + into_size])
        yield (
            f"from={sorted(bits(from_set))} into={sorted(bits(into_set))}",
            g, from_set, into_set,
        )


# ---------------------------------------------------------------------------
# The check table and its runner.


class Probe(NamedTuple):
    """A labelled predicate. ``shrink``: a violating graph is minimized by
    vertex deletion. ``takes_cap``: the predicate gets the run's Omega cap."""

    label: str
    broken: Callable[..., bool]
    shrink: bool = True
    takes_cap: bool = False


class Check(NamedTuple):
    name: str  # also seeds the check's RNG
    scope: str  # "quick" checks run in both scopes, "full" ones in full only
    pool: Pool
    probes: tuple[Probe, ...]


ORACLE_PROBES = (
    Probe("mu", _mu_oracle_broken),
    Probe("alpha", _alpha_oracle_broken),
    Probe("d", _d_oracle_broken),
    Probe("alpha_c", _alpha_c_oracle_broken),
    Probe("core", _core_oracle_broken),
)

_TABLE = (
    Check("fixture_facts", "quick", _fixture_facts_pool, (
        Probe("differs from the published values", _fixture_facts_wrong, shrink=False),
    )),
    Check("fixture_roundtrip", "quick", _fixtures(), (
        Probe("graph6 round trip", _roundtrip_broken),
    )),
    Check("fixture_oracle", "quick", _fixtures(), ORACLE_PROBES),
    Check("complete_minus_edge_family", "quick", _kn_minus_e_pool, (
        Probe("family formulas", _kn_minus_e_broken, shrink=False),
    )),
    Check("graph6_roundtrip", "full", _random_graphs(1000, 60), (
        Probe("random graph", _roundtrip_broken),
    )),
    Check("matching_oracle", "full", _matching_pool, (
        Probe("mu mismatch", _mu_oracle_broken),
        Probe("invalid matching", _matching_invalid, shrink=False),
    )),
    Check("bipartite_agreement", "full", _random_graphs(200, 40, bipartite=True), (
        Probe("cardinality mismatch", _bipartite_matchings_disagree),
    )),
    Check("double_cover", "full", _random_graphs(200, 16), (
        Probe("cover identity broken", _double_cover_broken),
    )),
    Check("independence_oracle", "full", _random_graphs(500, 16), ORACLE_PROBES[1:]),
    Check("omega_properties", "full", _random_graphs(200, 12), (
        Probe("stream not Omega in lex order, or core mismatch", _omega_properties_broken),
    )),
    Check("recognition_consistency", "full", _random_graphs(2000, 10), (
        Probe("predicates disagree", _recognition_inconsistent),
    )),
    Check("ke_guarantees", "full", _ke_pool, (
        Probe("equality chain, or KE path differs from branch-and-bound", _ke_chain_broken),
        Probe("d=0 vs perfect matching", _ke_perfect_matching_link_broken),
        Probe("certificate", _ke_certificate_invalid),
        Probe("bipartite verdict", _bipartite_not_ke),
        Probe("structure checks", _ke_structure_broken, takes_cap=True),
    )),
    Check("critical_family", "full", _random_graphs(150, 10), (
        Probe("critical set fails local-max/extension/Hall", _critical_family_broken),
    )),
    Check("critical_shortcut", "full", _shortcut_pool, (
        Probe("alpha_c = 0 test fires on a nonempty scan", _critical_shortcut_broken),
    )),
    Check("local_max_extension", "full", _local_max_pool, (
        Probe("local maximum fails to extend", _local_max_not_extending, shrink=False),
    )),
    Check("hall_crosscheck", "full", _hall_pool, (
        Probe("Hall condition vs matching", _hall_crosscheck_broken, shrink=False),
    )),
    Check("deficiency", "full", _random_graphs(200, 20), (
        Probe("exposed-count mismatch", _deficiency_broken),
    )),
    Check("inequality_chain", "full", _random_graphs(300, 14), (
        Probe("0<=d<=alpha_c<=alpha<=n-mu", _inequality_chain_broken),
    )),
)

CHECKS = {
    "quick": tuple(c for c in _TABLE if c.scope == "quick"),
    "full": _TABLE,
}


def run_check(check: Check, seed: int = DEFAULT_SEED, cap: int = 200000) -> Violation | None:
    """Run every sample of the check's pool through its probes in order;
    return the first violation (minimized where the probe shrinks) or None."""
    probes = [
        (p.label, partial(p.broken, cap=cap) if p.takes_cap else p.broken, p.shrink)
        for p in check.probes
    ]
    rng = random.Random(f"{seed}:{check.name}")
    for tag, g, *extra in check.pool(rng):
        for label, broken, shrink in probes:
            if broken(g, *extra):
                detail = f"{tag}: {label}" if tag else label
                if shrink:
                    return Violation(check.name, detail, minimize(g, broken), broken)
                return Violation(check.name, detail, g)
    return None


def run_suite(
    scope: str = "quick",
    seed: int = DEFAULT_SEED,
    log: Callable[[str], None] | None = None,
    cap: int = 200000,
) -> Violation | None:
    """Run the named scope; return the first violation (minimized) or None."""
    for check in CHECKS[scope]:
        t0 = time.perf_counter()
        violation = run_check(check, seed, cap)
        if violation is not None:
            return violation
        if log:
            log(f"ok: {check.name} ({time.perf_counter() - t0:.2f} s)")
    return None
