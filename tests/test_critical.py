import random

import pytest

from kegraph import (
    Matching,
    NotCriticalError,
    bipartite_double_cover,
    critical_difference,
    extends_to_maximum,
    generate,
    hall_certificate,
    is_critical,
    is_independent,
    is_local_max_independent_set,
    max_critical_independent_set,
    maximum_bipartite_matching,
    neighborhood,
    random_graph,
    two_coloring,
    vset,
)
from kegraph import critical
from kegraph.graph import bits
from kegraph.matching import _grow
from kegraph.oracle import brute_alpha_c, brute_critical_difference

from conftest import critical_sets_of, surplus


def test_double_cover_of_k2():
    n = 2
    g = bipartite_double_cover(generate("complete", n))
    assert g.n == 4 and g.m == 2
    # left copy of v is v, right copy is n + v
    assert g.has_edge(0, n + 1)
    assert g.has_edge(1, n + 0)
    assert maximum_bipartite_matching(g, (1 << n) - 1).size == 2


def test_double_cover_of_triangle_is_six_cycle():
    g = bipartite_double_cover(generate("complete", 3))
    assert g.n == 6 and g.m == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert two_coloring(g) is not None
    # connected 2-regular bipartite on 6 vertices: a single 6-cycle
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in range(6):
                if g.has_edge(v, u) and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    assert seen == set(range(6))


def test_double_cover_edge_count_random():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 15), rng.random())
        assert bipartite_double_cover(g).m == 2 * g.m


def test_critical_difference_values(gf10, h3, g2):
    assert critical_difference(gf10) == 1
    assert critical_difference(generate("star", 4)) == 2
    assert critical_difference(generate("complete_minus_edge", 6)) == 0
    assert critical_difference(h3) == 0
    assert critical_difference(g2) == 2
    assert critical_difference(generate("empty", 4)) == 4
    assert critical_difference(generate("empty", 0)) == 0


def test_is_critical_examples(gf10, g1):
    assert is_critical(gf10, gf10.vset_of(["a", "h"]))
    assert not is_critical(g1, g1.vset_of(["d", "h"]))
    assert is_critical(generate("complete_minus_edge", 6), 0)
    # non-independent sets are never critical
    assert not is_critical(generate("complete", 2), vset([0, 1]))


def test_max_critical_set_h3(h3):
    w = max_critical_independent_set(h3)
    assert w.set == h3.vset_of(["d1"])
    assert w.value == 0


def test_max_critical_set_gf10(gf10):
    w = max_critical_independent_set(gf10)
    assert gf10.labels_of(w.set) == ["a", "h"]
    assert w.value == 1
    nb = neighborhood(gf10, w.set)
    assert w.hall_matching.saturated & nb == nb


def test_max_critical_set_complete_minus_edge():
    w = max_critical_independent_set(generate("complete_minus_edge", 6))
    assert w.set == 0 and w.value == 0
    assert w.hall_matching.size == 0


def test_max_critical_set_deterministic(g2):
    assert (
        max_critical_independent_set(g2).set
        == max_critical_independent_set(g2).set
    )


def test_max_critical_set_contract():
    rng = random.Random(19)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 13), rng.random())
        w = max_critical_independent_set(g)
        assert is_independent(g, w.set)
        assert surplus(g, w.set) == w.value == critical_difference(g)
        w.hall_matching.validate(g)
        nb = neighborhood(g, w.set)
        assert w.hall_matching.saturated & nb == nb


def _from_scratch_witness(g):
    """Reference greedy: the same scan and decisions, but mu(cover) of the
    rest is matched from scratch for every probe."""
    adj = g.adj
    active = g.full_mask
    d = d_whole = g.n - critical._cover_mu(adj, active)
    chosen = 0
    for v in range(g.n):
        if not (active >> v) & 1:
            continue
        nb = adj[v] & active
        rest = active & ~nb & ~(1 << v)
        target = d + nb.bit_count() - 1
        if target > rest.bit_count():
            continue
        d_rest = rest.bit_count() - critical._cover_mu(adj, rest)
        if d_rest == target:
            chosen |= 1 << v
            active = rest
            d = d_rest
    return critical._checked_witness(g, chosen, d_whole)


def test_repaired_greedy_equals_from_scratch_greedy_small():
    rng = random.Random(41)
    for _ in range(2000):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        assert max_critical_independent_set(g) == _from_scratch_witness(g)


def test_repaired_greedy_equals_from_scratch_greedy_sparse_n200():
    rng = random.Random(43)
    for _ in range(4):
        g = random_graph(rng, 200, rng.uniform(2.0, 5.0) / 199)
        assert max_critical_independent_set(g) == _from_scratch_witness(g)


def _random_maximum_cover_matching(rng, adj, active):
    """A maximum matching of the double cover on *active*, seeded by a
    random greedy pass so it is rarely the one Kuhn's order would give."""
    mate_l, mate_r = {}, {}
    order = list(bits(active))
    rng.shuffle(order)
    for u in order:
        free = [w for w in bits(adj[u] & active) if w not in mate_r]
        if free:
            w = rng.choice(free)
            mate_l[u], mate_r[w] = w, u
    _grow(adj, active, active, mate_l, mate_r)
    return mate_l, mate_r


def _check_repair(adj, active, mate_l, mate_r):
    loose = critical._loose(adj, active, active, mate_l)
    for v in bits(active):
        nb = adj[v] & active
        rest = active & ~nb & ~(1 << v)
        new_l, new_r, new_loose = critical._repaired(
            adj, rest, nb | (1 << v), mate_l, mate_r, loose
        )
        assert len(new_l) == critical._cover_mu(adj, rest)
        assert all(
            new_r[w] == u and (adj[u] >> w) & 1 and (rest >> u) & (rest >> w) & 1
            for u, w in new_l.items()
        ) and len(new_r) == len(new_l)
        assert new_loose == critical._loose(adj, rest, rest, new_l)


def test_repair_from_any_maximum_cover_matching():
    # Re-augmenting only from the vertices the deletion frees is not enough:
    # here it ends one pair short of maximum on the probe of vertex 1.
    adj = (116, 20, 299, 308, 299, 477, 289, 32, 124)
    mate_l = {7: 5, 1: 2, 4: 0, 5: 4, 0: 6, 2: 1}
    _check_repair(adj, 0b11110111, mate_l, {w: u for u, w in mate_l.items()})
    rng = random.Random(47)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 13), rng.random())
        active = rng.getrandbits(g.n) | 1 if rng.random() < 0.5 else g.full_mask
        _check_repair(
            g.adj, active, *_random_maximum_cover_matching(rng, g.adj, active)
        )


def test_alpha_c_matches_oracle():
    rng = random.Random(29)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 13), rng.random())
        assert (
            max_critical_independent_set(g).set.bit_count()
            == brute_alpha_c(g)[0]
        )


def test_critical_difference_matches_oracle_both_modes():
    rng = random.Random(37)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 13), rng.random())
        d = critical_difference(g)
        assert d == brute_critical_difference(g, "independent_only")
        assert d == brute_critical_difference(g, "all_subsets")


def test_core_surplus_never_exceeds_d():
    from kegraph import core

    rng = random.Random(43)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        c = core(g)
        assert critical_difference(g) >= c.bit_count() - neighborhood(g, c).bit_count()


def test_hall_certificate_gf10(gf10):
    m = hall_certificate(gf10, gf10.vset_of(["a", "h"]))
    assert m.edges == ((gf10.index_of("a"), gf10.index_of("b")),)


def test_hall_certificate_g2_core(g2):
    m = hall_certificate(g2, g2.vset_of(["x", "y", "z"]))
    assert m.edges == ((g2.index_of("v"), g2.index_of("x")),)


def test_hall_certificate_empty_set_when_d_zero(c4):
    m = hall_certificate(c4, 0)
    assert isinstance(m, Matching) and m.size == 0


def test_hall_certificate_rejects_non_critical(gf10):
    with pytest.raises(NotCriticalError):
        hall_certificate(gf10, gf10.vset_of(["e"]))


def test_every_critical_set_is_local_max_extends_and_has_certificate():
    rng = random.Random(53)
    sampled = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for s in critical_sets_of(g):
            sampled += 1
            assert is_local_max_independent_set(g, s)
            assert extends_to_maximum(g, s)
            cert = hall_certificate(g, s)
            nb = neighborhood(g, s)
            assert cert.saturated & nb == nb
    assert sampled >= 40
