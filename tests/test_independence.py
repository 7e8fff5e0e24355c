import random
import sys

import pytest

from kegraph import (
    Graph,
    NotIndependentError,
    TooLargeError,
    TruncatedOmegaError,
    alpha,
    collect_omega,
    core,
    enumerate_maximum_independent_sets,
    extends_to_maximum,
    generate,
    induced_subgraph,
    is_independent,
    is_local_max_independent_set,
    random_bipartite_graph,
    random_graph,
    vset,
)
from kegraph.independence import _alpha_value
from kegraph.oracle import brute_alpha


def test_alpha_fixture_values(g2, gf10):
    assert alpha(g2).value == 4
    assert alpha(gf10).value == 4


def test_alpha_single_vertex():
    assert alpha(generate("empty", 1)) == (1, vset([0]))


def test_alpha_witness_is_lex_min(h1):
    value, witness = alpha(h1)
    assert value == 2
    assert h1.labels_of(witness) == ["1", "3"]


def test_alpha_gate():
    g = generate("empty", 65)
    with pytest.raises(TooLargeError):
        alpha(g)
    assert alpha(g, limit=None).value == 65
    assert alpha(g, limit=65).value == 65


def test_alpha_long_path_witness_without_recursion():
    # Deep enough to exhaust Python's recursion limit in a recursive search.
    value, witness = alpha(generate("path", 2100), limit=None)
    assert value == 1050
    assert witness == vset(range(0, 2100, 2))


def test_alpha_against_oracle_random():
    rng = random.Random(23)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 13), rng.random())
        value, witness = alpha(g)
        assert value == brute_alpha(g)
        assert is_independent(g, witness)
        assert witness.bit_count() == value


def test_alpha_sparse_200_vertices_returns_the_first_omega_set():
    # The stream reaches its first set by decision probes of the one search;
    # an exhaustive walk of its own would not finish on a sparse n = 200.
    g = random_graph(random.Random(2009), 200, 4 / 199)
    value, witness = alpha(g, limit=None)
    assert value == 94
    assert is_independent(g, witness) and witness.bit_count() == 94
    assert witness == next(iter(enumerate_maximum_independent_sets(g, limit=None)))


def test_omega_h1(h1):
    sets = collect_omega(h1)
    assert [h1.labels_of(s) for s in sets] == [["1", "3"], ["1", "4"]]


def test_omega_triangle():
    k3 = generate("complete", 3)
    assert collect_omega(k3) == [vset([0]), vset([1]), vset([2])]


def test_omega_gf10_all_contain_core(gf10):
    sets = collect_omega(gf10)
    assert len(sets) == 5
    ah = gf10.vset_of(["a", "h"])
    assert all(s & ah == ah for s in sets)


def test_omega_empty_graph():
    assert collect_omega(generate("empty", 0)) == [0]


def test_omega_lexicographic_order():
    g = generate("empty", 3)  # unique MIS: everything
    assert collect_omega(g) == [vset([0, 1, 2])]
    c4 = generate("cycle", 4)
    assert collect_omega(c4) == [vset([0, 2]), vset([1, 3])]


def test_omega_truncation_flag(c4):
    stream = enumerate_maximum_independent_sets(c4, cap=1)
    got = list(stream)
    assert len(got) == 1 and stream.truncated
    with pytest.raises(TruncatedOmegaError):
        collect_omega(c4, cap=1)


def test_omega_members_are_maximum(gf10):
    stream = enumerate_maximum_independent_sets(gf10)
    a = stream.alpha
    for s in stream:
        assert s.bit_count() == a
        assert is_independent(gf10, s)


def test_core_values(g2, gf10, h1):
    assert gf10.labels_of(core(gf10)) == ["a", "h"]
    assert g2.labels_of(core(g2)) == ["x", "y", "z"]
    assert core(generate("complete", 3)) == 0
    assert h1.labels_of(core(h1)) == ["1"]


def test_core_is_intersection_of_omega():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 11), rng.random())
        inter = g.full_mask
        for s in collect_omega(g):
            inter &= s
        assert core(g) == inter


def test_core_is_independent(g1):
    assert is_independent(g1, core(g1))


def test_is_local_max_g1(g1):
    assert is_local_max_independent_set(g1, g1.vset_of(["d", "h"]))


def test_is_local_max_triangle_vertex():
    assert is_local_max_independent_set(generate("complete", 3), vset([0]))


def test_is_local_max_gf10_counterexample(gf10):
    assert not is_local_max_independent_set(gf10, gf10.vset_of(["e"]))


def test_is_local_max_rejects_dependent_set():
    k2 = generate("complete", 2)
    with pytest.raises(NotIndependentError):
        is_local_max_independent_set(k2, vset([0, 1]))


def test_extends_to_maximum_examples(g1, gf10):
    assert extends_to_maximum(g1, g1.vset_of(["d", "h"]))
    assert extends_to_maximum(gf10, gf10.vset_of(["a", "h"]))


def test_extends_to_maximum_complete_minus_edge():
    g = generate("complete_minus_edge", 6)
    assert not extends_to_maximum(g, vset([2]))
    assert extends_to_maximum(g, vset([0]))


def test_extends_rejects_dependent_set(c4):
    with pytest.raises(NotIndependentError):
        extends_to_maximum(c4, vset([0, 1]))


def test_single_deletion_bounds():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        a = alpha(g).value
        for v in range(g.n):
            sub = g.full_mask & ~(1 << v)
            av, _ = _alpha_value(g.adj, sub)
            assert a - 1 <= av <= a


def _small_graphs(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 16)
        if i % 2:
            yield random_bipartite_graph(rng, n, rng.random())[0]
        else:
            yield random_graph(rng, n, rng.random())


def test_core_from_given_alpha_equals_omega_intersection():
    empty_cores = 0
    for g in _small_graphs(53, 80):
        inter = g.full_mask
        for s in collect_omega(g):
            inter &= s
        assert core(g, alpha_result=alpha(g)) == core(g) == inter
        empty_cores += inter == 0
    assert 0 < empty_cores < 80


def test_search_returns_an_independent_set_of_its_size_inside_the_mask():
    rng = random.Random(59)
    for g in _small_graphs(61, 60):
        mask = g.full_mask & rng.getrandbits(max(g.n, 1))
        size, found = _alpha_value(g.adj, mask)
        assert is_independent(g, found)
        assert found & ~mask == 0
        assert found.bit_count() == size == brute_alpha(induced_subgraph(g, mask)[0])


def test_search_floor_at_or_above_alpha_returns_the_floor():
    for g in _small_graphs(67, 40):
        a = alpha(g).value
        assert _alpha_value(g.adj, g.full_mask, a) == (a, 0)
        assert _alpha_value(g.adj, g.full_mask, a + 2, stop_at=a + 1) == (a + 2, 0)
        if a:
            size, found = _alpha_value(g.adj, g.full_mask, a - 1, stop_at=a)
            assert size == a == found.bit_count() and is_independent(g, found)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_search_needs_no_recursion():
    # 300 disjoint triangles: a recursive search would nest about 300 calls.
    k = 300
    triangle = ((0, 1), (1, 2), (0, 2))
    g = Graph(3 * k, [(3 * t + i, 3 * t + j) for t in range(k) for i, j in triangle])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        a = alpha(g, limit=None)
        c = core(g, limit=None, alpha_result=a)
        local = is_local_max_independent_set(g, a.witness)
        extends = extends_to_maximum(g, vset([1, 4]), limit=None)
    finally:
        sys.setrecursionlimit(old)
    assert a == (k, vset(range(0, 3 * k, 3)))
    assert c == 0 and local and extends
