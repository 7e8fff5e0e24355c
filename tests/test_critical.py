import random

from kegraph import (
    Graph,
    Matching,
    bipartite_double_cover,
    core,
    critical_difference,
    extends_to_maximum,
    generate,
    is_independent,
    is_local_max_independent_set,
    max_critical_independent_set,
    maximum_bipartite_matching,
    maximum_matching,
    neighborhood,
    random_bipartite_graph,
    random_graph,
    recognize_ke,
    saturating_matching,
    two_coloring,
    vset,
)
from kegraph import critical
from kegraph.matching import _kuhn
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
    # An independent set is critical when its surplus attains d.
    assert surplus(gf10, gf10.vset_of(["a", "h"])) == critical_difference(gf10)
    assert surplus(g1, g1.vset_of(["d", "h"])) != critical_difference(g1)
    k6e = generate("complete_minus_edge", 6)
    assert surplus(k6e, 0) == critical_difference(k6e)


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


def _cover_mu(adj, active):
    """mu of the double cover restricted to *active*, by Kuhn's method on
    the source masks (the cover's left adjacency is the source adjacency)."""
    return len(_kuhn(adj, active, active)[0])


def _from_scratch_witness(g):
    """Reference greedy: the same scan and decisions, but mu(cover) of the
    rest is matched from scratch for every probe."""
    adj = g.adj
    active = g.full_mask
    d = d_whole = g.n - _cover_mu(adj, active)
    chosen = 0
    for v in range(g.n):
        if not (active >> v) & 1:
            continue
        nb = adj[v] & active
        rest = active & ~nb & ~(1 << v)
        target = d + nb.bit_count() - 1
        if target > rest.bit_count():
            continue
        d_rest = rest.bit_count() - _cover_mu(adj, rest)
        if d_rest == target:
            chosen |= 1 << v
            active = rest
            d = d_rest
    return critical._checked_witness(g, chosen, d_whole, critical._cover_matching(g, None)[0])


def test_greedy_equals_from_scratch_greedy_small():
    rng = random.Random(41)
    for _ in range(2000):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        assert max_critical_independent_set(g) == _from_scratch_witness(g)


def test_greedy_equals_from_scratch_greedy_sparse_n200():
    rng = random.Random(43)
    for _ in range(4):
        g = random_graph(rng, 200, rng.uniform(2.0, 5.0) / 199)
        assert max_critical_independent_set(g) == _from_scratch_witness(g)


def _greedy_matching(g):
    """A maximal matching from one ascending pass: rarely maximum."""
    used = 0
    edges = []
    for u, v in g.edges():
        if not (used >> u) & 1 and not (used >> v) & 1:
            used |= (1 << u) | (1 << v)
            edges.append((u, v))
    return Matching(tuple(edges))


def test_witness_independent_of_seed_matching():
    rng = random.Random(59)
    partial = 0
    for i in range(500):
        if i % 2:
            g = random_bipartite_graph(rng, rng.randint(0, 16), rng.random())[0]
        else:
            g = random_graph(rng, rng.randint(0, 16), rng.random())
        w = max_critical_independent_set(g)
        seeds = [maximum_matching(g), _greedy_matching(g)]
        partial += seeds[1].size < seeds[0].size
        sides = two_coloring(g)
        if sides is not None:
            seeds.append(maximum_bipartite_matching(g, sides))
        nb = neighborhood(g, w.set)
        for m in seeds:
            seeded = max_critical_independent_set(g, m)
            assert (seeded.set, seeded.value) == (w.set, w.value)
            # The Hall matching follows the cover matching, so only its
            # validity is seed-independent.
            seeded.hall_matching.validate(g)
            assert seeded.hall_matching.saturated & nb == nb
    assert partial >= 20


def test_hall_matching_is_read_off_the_cover_matching():
    # Every Hall pair joins N(S) to S; on KE graphs the doubled blossom
    # matching is the whole cover matching, so the Hall matching, the KE
    # matching and the blossom matching coincide.
    rng = random.Random(67)
    ke = 0
    for i in range(600):
        if i % 2:
            g = random_bipartite_graph(rng, rng.randint(0, 16), rng.random())[0]
        else:
            g = random_graph(rng, rng.randint(0, 14), rng.random())
        m = maximum_matching(g)
        w = max_critical_independent_set(g, m)
        nb = neighborhood(g, w.set)
        w.hall_matching.validate(g)
        for u, v in w.hall_matching.edges:
            y, x = (u, v) if nb >> u & 1 else (v, u)
            assert nb >> y & 1 and w.set >> x & 1
        assert w.hall_matching.saturated & nb == nb
        cert = recognize_ke(g)
        if cert.is_ke:
            ke += 1
            assert w.hall_matching == m == cert.ke_witness.matching
    assert ke >= 250


def test_doubled_matching_is_maximum_on_ke_graphs():
    # Paper item (i): d = n - 2 mu on KE graphs, and d = n - mu(cover), so
    # the blossom matching doubled into the cover is already maximum.
    rng = random.Random(61)
    ke = 0
    for i in range(600):
        if i % 2:
            g = random_bipartite_graph(rng, rng.randint(0, 16), rng.random())[0]
        else:
            g = random_graph(rng, rng.randint(0, 12), rng.random())
        if recognize_ke(g).is_ke:
            ke += 1
            assert _cover_mu(g.adj, g.full_mask) == 2 * maximum_matching(g).size
    assert ke >= 300


def test_ke_core_needs_in_forces_mate_out():
    # A KE graph on which ke_core goes wrong (it returns the empty set) when
    # _propagate lacks "in forces its mate out".
    g = Graph(8, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 6), (1, 7), (2, 3), (2, 5), (4, 7)])
    m = maximum_matching(g)
    w = max_critical_independent_set(g, m)
    assert recognize_ke(g).is_ke
    assert critical.ke_core(g, m, w.set) == core(g) == vset([3, 6])


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


def _hall_matching(g, s):
    """The matching of N(s) into s that certifies a critical set s."""
    return saturating_matching(g, neighborhood(g, s), s)


def test_hall_certificate_gf10(gf10):
    m = _hall_matching(gf10, gf10.vset_of(["a", "h"]))
    assert m.edges == ((gf10.index_of("a"), gf10.index_of("b")),)


def test_hall_certificate_g2_core(g2):
    m = _hall_matching(g2, g2.vset_of(["x", "y", "z"]))
    assert m.edges == ((g2.index_of("v"), g2.index_of("x")),)


def test_hall_certificate_empty_set_when_d_zero(c4):
    m = _hall_matching(c4, 0)
    assert isinstance(m, Matching) and m.size == 0


def test_every_critical_set_is_local_max_extends_and_has_certificate():
    rng = random.Random(53)
    sampled = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for s in critical_sets_of(g):
            sampled += 1
            assert is_local_max_independent_set(g, s)
            assert extends_to_maximum(g, s)
            cert = _hall_matching(g, s)
            nb = neighborhood(g, s)
            assert cert.saturated & nb == nb
    assert sampled >= 40
