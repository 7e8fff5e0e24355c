import random

import pytest

from kegraph import (
    HallViolation,
    Matching,
    NotBipartiteError,
    bipartite_double_cover,
    deficiency,
    fixture,
    generate,
    has_perfect_matching,
    maximum_bipartite_matching,
    maximum_matching,
    neighborhood,
    random_bipartite_graph,
    random_graph,
    saturating_matching,
    two_coloring,
    vset,
)
from kegraph.oracle import ORACLE_EDGE_LIMIT, brute_mu


def test_mu_fixture_values(g2, gf10):
    assert maximum_matching(g2).size == 3
    assert maximum_matching(gf10).size == 3


def test_mu_complete_minus_edge_has_perfect_matching():
    g = generate("complete_minus_edge", 6)
    m = maximum_matching(g)
    assert m.size == 3
    assert (0, 1) not in m.edges
    assert has_perfect_matching(g)


def test_matching_validity_on_fixtures():
    for name in ("H1", "H2", "H3", "G1", "G2", "GF10"):
        g = fixture(name)
        m = maximum_matching(g)
        m.validate(g)
        assert m.saturated.bit_count() == 2 * m.size


def test_matching_deterministic(g1):
    assert maximum_matching(g1).edges == maximum_matching(g1).edges


def test_deficiency_examples(gf10, c4, k13):
    assert deficiency(gf10) == 2
    assert deficiency(c4) == 0
    assert deficiency(k13) == 2


def test_perfect_matching_examples(h1, h3):
    assert has_perfect_matching(h1)
    assert not has_perfect_matching(h3)  # odd order
    assert has_perfect_matching(generate("empty", 0))


def test_bipartite_matching_c4(c4):
    side = two_coloring(c4)
    m = maximum_bipartite_matching(c4, side)
    assert m.size == 2
    m.validate(c4)


def test_bipartite_matching_star(k13):
    assert maximum_bipartite_matching(k13, vset([0])).size == 1


def test_bipartite_matching_double_cover_of_triangle():
    cover = bipartite_double_cover(generate("complete", 3))
    m = maximum_bipartite_matching(cover, (1 << 3) - 1)
    assert m.size == 3


def test_bipartite_matching_rejects_bad_coloring():
    k3 = generate("complete", 3)
    with pytest.raises(NotBipartiteError):
        maximum_bipartite_matching(k3, vset([0, 1]))


def test_bipartite_agrees_with_blossom():
    rng = random.Random(11)
    for _ in range(60):
        g, _ = random_bipartite_graph(rng, rng.randint(0, 24), rng.random())
        side = two_coloring(g)
        assert maximum_bipartite_matching(g, side).size == maximum_matching(g).size


def test_mu_against_oracle():
    rng = random.Random(5)
    checked = 0
    while checked < 120:
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        if g.m > ORACLE_EDGE_LIMIT:
            continue
        checked += 1
        assert maximum_matching(g).size == brute_mu(g)


def test_saturating_matching_gf10(gf10):
    frm = gf10.vset_of(["b"])
    into = gf10.vset_of(["a", "h"])
    m = saturating_matching(gf10, frm, into)
    assert isinstance(m, Matching)
    # deterministic: b pairs with the lower-indexed endpoint a
    assert m.edges == ((gf10.index_of("a"), gf10.index_of("b")),)


def test_saturating_matching_empty_from(gf10):
    m = saturating_matching(gf10, 0, gf10.full_mask)
    assert isinstance(m, Matching) and m.size == 0


def test_saturating_matching_hall_violation(k13):
    leaves = vset([1, 2, 3])
    result = saturating_matching(k13, leaves, vset([0]))
    assert isinstance(result, HallViolation)
    assert result.violator == leaves
    assert result.neighborhood == vset([0])
    assert result.deficit == 2


def test_saturating_matching_uses_only_cross_edges(c4):
    # from {0}, into {2}: adjacent only through 1 and 3, no direct edge
    result = saturating_matching(c4, vset([0]), vset([2]))
    assert isinstance(result, HallViolation)


def test_saturating_matching_overlap_rejected(c4):
    with pytest.raises(ValueError):
        saturating_matching(c4, vset([0]), vset([0, 2]))


def test_hall_condition_iff_saturating():
    rng = random.Random(17)
    from itertools import combinations

    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        idx = list(range(g.n))
        rng.shuffle(idx)
        k = rng.randint(1, g.n - 1)
        frm = vset(idx[:k])
        into = vset(idx[k:])
        result = saturating_matching(g, frm, into)
        hall = all(
            (neighborhood(g, vset(ws)) & into).bit_count() >= len(ws)
            for r in range(1, k + 1)
            for ws in combinations(idx[:k], r)
        )
        assert isinstance(result, Matching) == hall
        if isinstance(result, Matching):
            assert result.saturated & frm == frm
            result.validate(g)
        else:
            w = result.violator
            assert w and w & frm == w
            assert (neighborhood(g, w) & into).bit_count() < w.bit_count()


def test_matching_validate_rejects_garbage(c4):
    with pytest.raises(ValueError):
        Matching(((0, 2),)).validate(c4)  # not an edge
    with pytest.raises(ValueError):
        Matching(((0, 1), (1, 2))).validate(c4)  # shares vertex 1
    with pytest.raises(ValueError):
        Matching(((1, 0),)).validate(c4)  # not normalized
