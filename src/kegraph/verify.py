"""Self-check suites behind the `verify` CLI command.

``quick`` replays the fixture corpus facts; ``full`` additionally runs the
seeded random suites that cross-check every main-path quantity against the
brute-force oracle and exercise the structural guarantees on Konig-Egervary
inputs. The runner stops at the first violation and reports a minimized
reproducing graph as graph6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterator

from . import koenig, oracle
from .critical import (
    bipartite_double_cover,
    critical_difference,
    hall_certificate,
    max_critical_independent_set,
)
from .errors import KegraphError, TruncatedOmegaError
from .fixtures import fixture, generate, random_bipartite_graph, random_graph
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
    Matching,
    deficiency,
    has_perfect_matching,
    maximum_bipartite_matching,
    maximum_matching,
    saturating_matching,
)

__all__ = ["Violation", "run_suite", "minimize", "CHECKS", "DEFAULT_SEED"]

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
# Reusable violation predicates (each: True means "this graph violates").


def _roundtrip_broken(g: Graph) -> bool:
    return parse_graph6(emit_graph6(g)) != g


def _mu_oracle_broken(g: Graph) -> bool:
    if g.m > oracle.ORACLE_EDGE_LIMIT:
        return False
    return maximum_matching(g).size != oracle.brute_mu(g)


def _alpha_oracle_broken(g: Graph) -> bool:
    if g.n > oracle.ORACLE_VERTEX_LIMIT:
        return False
    return alpha(g).value != oracle.brute_alpha(g)


def _d_oracle_broken(g: Graph) -> bool:
    if g.n > oracle.ORACLE_VERTEX_LIMIT:
        return False
    d = critical_difference(g)
    return d != oracle.brute_critical_difference(
        g, "independent_only"
    ) or d != oracle.brute_critical_difference(g, "all_subsets")


def _alpha_c_oracle_broken(g: Graph) -> bool:
    if g.n > oracle.ORACLE_VERTEX_LIMIT:
        return False
    return max_critical_independent_set(g).set.bit_count() != oracle.brute_alpha_c(g)[0]


def _core_oracle_broken(g: Graph) -> bool:
    if g.n > oracle.ORACLE_VERTEX_LIMIT:
        return False
    return core(g) != oracle.brute_core(g)


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
    if not koenig.recognize_ke(g).is_ke:
        return False
    try:
        return not koenig.equality_chain_report(g).chain_holds
    except KegraphError:
        return True


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
    stream = enumerate_maximum_independent_sets(g, cap=100000)
    a = stream.alpha
    seen = set()
    for s in stream:
        if s in seen or s.bit_count() != a or not is_independent(g, s):
            return True
        seen.add(s)
    if stream.truncated:
        return False
    inter = g.full_mask
    for s in seen:
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
            if s.bit_count() - neighborhood(g, s).bit_count() != d:
                continue
            if not is_local_max_independent_set(g, s):
                return True
            if not extends_to_maximum(g, s):
                return True
            cert = hall_certificate(g, s)
            nb = neighborhood(g, s)
            if cert.saturated & nb != nb:
                return True
    return False


def _hall_crosscheck_broken(g: Graph, from_set: int, into_set: int) -> bool:
    result = saturating_matching(g, from_set, into_set)
    holds = True
    members = list(bits(from_set))
    for r in range(1, len(members) + 1):
        for comb in combinations(members, r):
            w = vset(comb)
            if (neighborhood(g, w) & into_set).bit_count() < w.bit_count():
                holds = False
                break
        if not holds:
            break
    if isinstance(result, Matching):
        if not holds:
            return True
        result.validate(g)
        for u, v in result.edges:
            crosses = ((from_set >> u) & (into_set >> v) & 1) or (
                (from_set >> v) & (into_set >> u) & 1
            )
            if not crosses:
                return True
        return result.saturated & from_set != from_set
    viol = result.violator
    return holds or (
        (neighborhood(g, viol) & into_set).bit_count() >= viol.bit_count()
    )


# ---------------------------------------------------------------------------
# Checks: name, scope, runner. Runners yield Violations.


def _check_fixture_facts(_rng: random.Random, _cap: int) -> Iterator[Violation]:
    expectations = {
        # name: (n, m, alpha, mu, d, alpha_c, core labels, ncore labels, is_ke)
        "H1": (4, 4, 2, 2, 0, 2, {"1"}, {"2"}, True),
        "H2": (7, 7, 4, 3, 1, 4, None, None, True),
        "H3": (5, 5, 2, 2, 0, 1, None, None, False),
        "G1": (9, 9, 6, 3, 3, 6, {"a", "b", "d", "f", "g"}, {"c", "e"}, True),
        "G2": (9, 18, 4, 3, 2, 3, {"x", "y", "z"}, {"v"}, False),
        "GF10": (8, 8, 4, 3, 1, 2, {"a", "h"}, {"b"}, False),
    }
    for name, exp in expectations.items():
        g = fixture(name)
        n, m, a, mu, d, ac, core_labels, ncore_labels, ke = exp
        got = (
            g.n,
            g.m,
            alpha(g).value,
            maximum_matching(g).size,
            critical_difference(g),
            max_critical_independent_set(g).set.bit_count(),
        )
        if got != (n, m, a, mu, d, ac):
            yield Violation(
                "fixture_facts", f"{name}: (n,m,alpha,mu,d,alpha_c)={got}", g
            )
            continue
        if koenig.recognize_ke(g).is_ke != ke:
            yield Violation("fixture_facts", f"{name}: KE verdict flipped", g)
            continue
        if core_labels is not None:
            c = core(g)
            if set(g.labels_of(c)) != core_labels or set(
                g.labels_of(neighborhood(g, c))
            ) != ncore_labels:
                yield Violation("fixture_facts", f"{name}: core/N(core) wrong", g)


def _check_fixture_roundtrip(_rng: random.Random, _cap: int) -> Iterator[Violation]:
    for name in ("H1", "H2", "H3", "G1", "G2", "GF10"):
        g = fixture(name)
        if _roundtrip_broken(g):
            yield Violation(
                "graph6_roundtrip", f"fixture {name}", g, _roundtrip_broken
            )


def _check_fixture_oracle(_rng: random.Random, _cap: int) -> Iterator[Violation]:
    for name in ("H1", "H2", "H3", "G1", "G2", "GF10"):
        g = fixture(name)
        for pred, label in (
            (_mu_oracle_broken, "mu"),
            (_alpha_oracle_broken, "alpha"),
            (_d_oracle_broken, "d"),
            (_alpha_c_oracle_broken, "alpha_c"),
            (_core_oracle_broken, "core"),
        ):
            if pred(g):
                yield Violation("fixture_oracle", f"{name}: {label}", g, pred)


def _check_kn_minus_e(_rng: random.Random, _cap: int) -> Iterator[Violation]:
    for half in (3, 4, 5):
        g = generate("complete_minus_edge", 2 * half)
        a = alpha(g).value
        mu = maximum_matching(g).size
        c = core(g)
        surplus = c.bit_count() - neighborhood(g, c).bit_count()
        ok = (
            a - mu == 2 - half
            and surplus == 4 - 2 * half
            and critical_difference(g) == 0
            and not koenig.recognize_ke(g).is_ke
        )
        if not ok:
            yield Violation("complete_minus_edge_family", f"2n={2 * half}", g)


def _check_roundtrip_random(rng: random.Random, _cap: int) -> Iterator[Violation]:
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 60), rng.random())
        if _roundtrip_broken(g):
            yield Violation("graph6_roundtrip", "random graph", g, _roundtrip_broken)
            return


def _check_matching_oracle(rng: random.Random, _cap: int) -> Iterator[Violation]:
    done = 0
    while done < 500:
        g = random_graph(rng, rng.randint(0, 14), rng.choice([0.1, 0.2, 0.3, 0.5]))
        if g.m > oracle.ORACLE_EDGE_LIMIT:
            continue
        done += 1
        if _mu_oracle_broken(g):
            yield Violation("matching_oracle", "mu mismatch", g, _mu_oracle_broken)
            return
        matching = maximum_matching(g)
        try:
            matching.validate(g)
        except ValueError as exc:
            yield Violation("matching_oracle", f"invalid matching: {exc}", g)
            return


def _check_bipartite_agreement(rng: random.Random, _cap: int) -> Iterator[Violation]:
    def broken(g: Graph) -> bool:
        sides = two_coloring(g)
        if sides is None:
            return False
        return (
            maximum_bipartite_matching(g, sides).size != maximum_matching(g).size
        )

    for _ in range(200):
        g, _sides = random_bipartite_graph(rng, rng.randint(0, 40), rng.random())
        if broken(g):
            yield Violation("bipartite_agreement", "cardinality mismatch", g, broken)
            return


def _check_double_cover(rng: random.Random, _cap: int) -> Iterator[Violation]:
    def broken(g: Graph) -> bool:
        cover = bipartite_double_cover(g)
        if cover.graph.m != 2 * g.m:
            return True
        mu_cover = maximum_bipartite_matching(cover.graph, cover.left_mask).size
        return critical_difference(g) != g.n - mu_cover

    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        if broken(g):
            yield Violation("double_cover", "cover identity broken", g, broken)
            return


def _check_independence_oracle(rng: random.Random, _cap: int) -> Iterator[Violation]:
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        for pred, label in (
            (_alpha_oracle_broken, "alpha"),
            (_d_oracle_broken, "d"),
            (_alpha_c_oracle_broken, "alpha_c"),
            (_core_oracle_broken, "core"),
        ):
            if pred(g):
                yield Violation("independence_oracle", label, g, pred)
                return


def _check_omega_properties(rng: random.Random, _cap: int) -> Iterator[Violation]:
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        if _omega_properties_broken(g):
            yield Violation(
                "omega_properties", "bad stream element or core mismatch",
                g, _omega_properties_broken,
            )
            return


def _check_recognition_consistency(rng: random.Random, _cap: int) -> Iterator[Violation]:
    for _ in range(2000):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        if _recognition_inconsistent(g):
            yield Violation(
                "recognition_consistency", "predicates disagree",
                g, _recognition_inconsistent,
            )
            return


def _check_ke_guarantees(rng: random.Random, cap: int) -> Iterator[Violation]:
    pools: list[Graph] = [fixture(name) for name in ("H1", "H2", "G1")]
    for _ in range(300):
        g, _sides = random_bipartite_graph(rng, rng.randint(0, 24), rng.random())
        pools.append(g)
    for _ in range(500):
        pools.append(random_graph(rng, rng.randint(0, 10), rng.random()))
    for g in pools:
        for pred, label in (
            (_ke_chain_broken, "equality chain"),
            (_ke_perfect_matching_link_broken, "d=0 vs perfect matching"),
            (_ke_certificate_invalid, "certificate"),
            (_bipartite_not_ke, "bipartite verdict"),
            (partial(_ke_structure_broken, cap=cap), "structure checks"),
        ):
            if pred(g):
                yield Violation("ke_guarantees", label, g, pred)
                return


def _check_critical_family(rng: random.Random, _cap: int) -> Iterator[Violation]:
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        if _critical_family_broken(g):
            yield Violation(
                "critical_family",
                "critical set fails local-max/extension/Hall",
                g, _critical_family_broken,
            )
            return


def _check_local_max_extension(rng: random.Random, _cap: int) -> Iterator[Violation]:
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
        if not extends_to_maximum(g, s):
            yield Violation(
                "local_max_extension", "local maximum fails to extend", g
            )
            return


def _check_hall_crosscheck(rng: random.Random, _cap: int) -> Iterator[Violation]:
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        k = rng.randint(1, min(8, g.n - 1))
        from_set = vset(shuffled[:k])
        into_size = rng.randint(1, g.n - k)
        into_set = vset(shuffled[k:k + into_size])
        if _hall_crosscheck_broken(g, from_set, into_set):
            yield Violation(
                "hall_crosscheck",
                f"from={sorted(bits(from_set))} into={sorted(bits(into_set))}",
                g,
            )
            return


def _check_deficiency(rng: random.Random, _cap: int) -> Iterator[Violation]:
    def broken(g: Graph) -> bool:
        matching = maximum_matching(g)
        exposed = g.n - matching.saturated.bit_count()
        return deficiency(g) != exposed or deficiency(g) < 0

    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        if broken(g):
            yield Violation("deficiency", "exposed-count mismatch", g, broken)
            return


def _check_inequality_chain(rng: random.Random, _cap: int) -> Iterator[Violation]:
    def broken(g: Graph) -> bool:
        a = alpha(g).value
        mu = maximum_matching(g).size
        d = critical_difference(g)
        ac = max_critical_independent_set(g).set.bit_count()
        c = core(g)
        surplus = c.bit_count() - neighborhood(g, c).bit_count()
        return not (0 <= d <= ac <= a <= g.n - mu) or d < surplus

    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        if broken(g):
            yield Violation("inequality_chain", "0<=d<=alpha_c<=alpha<=n-mu", g, broken)
            return


QUICK_CHECKS: tuple[
    tuple[str, Callable[[random.Random, int], Iterator[Violation]]], ...
] = (
    ("fixture_facts", _check_fixture_facts),
    ("fixture_roundtrip", _check_fixture_roundtrip),
    ("fixture_oracle", _check_fixture_oracle),
    ("complete_minus_edge_family", _check_kn_minus_e),
)

FULL_CHECKS = QUICK_CHECKS + (
    ("graph6_roundtrip", _check_roundtrip_random),
    ("matching_oracle", _check_matching_oracle),
    ("bipartite_agreement", _check_bipartite_agreement),
    ("double_cover", _check_double_cover),
    ("independence_oracle", _check_independence_oracle),
    ("omega_properties", _check_omega_properties),
    ("recognition_consistency", _check_recognition_consistency),
    ("ke_guarantees", _check_ke_guarantees),
    ("critical_family", _check_critical_family),
    ("local_max_extension", _check_local_max_extension),
    ("hall_crosscheck", _check_hall_crosscheck),
    ("deficiency", _check_deficiency),
    ("inequality_chain", _check_inequality_chain),
)

CHECKS = {"quick": QUICK_CHECKS, "full": FULL_CHECKS}


def run_suite(
    scope: str = "quick",
    seed: int = DEFAULT_SEED,
    log: Callable[[str], None] | None = None,
    cap: int = 200000,
) -> Violation | None:
    """Run the named scope; return the first violation (minimized) or None."""
    checks = CHECKS[scope]
    for name, check in checks:
        rng = random.Random(f"{seed}:{name}")
        for violation in check(rng, cap):
            if violation.graph is not None and violation.predicate is not None:
                violation.graph = minimize(violation.graph, violation.predicate)
            return violation
        if log:
            log(f"ok: {name}")
    return None
