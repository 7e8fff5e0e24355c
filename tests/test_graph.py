import random

import pytest

from kegraph import (
    Graph,
    SelfLoopError,
    UnknownVertexError,
    bipartite_double_cover,
    bits,
    delete_closed_neighborhood,
    fixture,
    generate,
    induced_subgraph,
    is_independent,
    lex_less,
    neighborhood,
    parse_graph6,
    random_bipartite_graph,
    random_graph,
    two_coloring,
    vset,
)
from kegraph import formats


def test_vset_bits_roundtrip():
    assert vset([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_lex_less_orders_by_sorted_members():
    assert lex_less(vset([0, 5]), vset([1, 2]))
    assert not lex_less(vset([1, 2]), vset([0, 5]))
    assert lex_less(vset([0, 2]), vset([0, 3]))
    assert not lex_less(vset([1]), vset([1]))


def test_constructor_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        Graph(3, [(1, 1)])


def test_constructor_rejects_out_of_range():
    with pytest.raises(UnknownVertexError):
        Graph(2, [(0, 2)])


def test_from_adjacency_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph.from_adjacency([0b010, 0b000, 0b000])


@pytest.mark.parametrize("n, p", [(50, 0.5), (50, 0.04)])
def test_from_adjacency_names_the_asymmetric_pair(n, p):
    # Dense and sparse input are both checked edge by edge, in vertex order,
    # so both name the first pair that loop meets.
    g = random_graph(random.Random(11), n, p)
    u, v = next(g.edges())
    adj = list(g.adj)
    adj[u] ^= 1 << v
    with pytest.raises(ValueError, match=f"^asymmetric adjacency between {u} and {v}$"):
        Graph.from_adjacency(adj)
    adj = list(g.adj)
    adj[v] ^= 1 << u
    with pytest.raises(ValueError, match=f"^asymmetric adjacency between {v} and {u}$"):
        Graph.from_adjacency(adj)
    assert Graph.from_adjacency(g.adj) == g


def _graph6_body(rng: random.Random) -> tuple[bytes, int, int]:
    """A random graph6 body for n in 0..130, sparse (most bytes "?") or dense,
    with random padding bits; returns (body, n, number of edge bits)."""
    n = rng.randint(0, 130)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    share = rng.choice((0.1, 1.0))  # of the bytes that carry bits
    data = [rng.getrandbits(6) if rng.random() < share else 0 for _ in range(nbytes)]
    if nbytes:
        data[-1] |= rng.getrandbits(6 * nbytes - nbits)
    return bytes(63 + x for x in data), n, nbits


def _parsed(rng: random.Random) -> Graph:
    body, n, _ = _graph6_body(rng)
    counts = [bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])]
    if n <= 62:
        counts.append(bytes([63 + n]))
    return parse_graph6(rng.choice(counts) + body)


def _maybe_labeled(rng: random.Random) -> Graph:
    g = random_graph(rng, rng.randint(0, 30), rng.random())
    labels = tuple(f"v{v}" for v in range(g.n)) if rng.random() < 0.5 else None
    return Graph.from_adjacency(g.adj, labels)


def _induced(rng: random.Random) -> Graph:
    g = _maybe_labeled(rng)
    return induced_subgraph(g, rng.getrandbits(g.n))[0]


UNCHECKED_BUILDERS = {
    "parse_graph6": _parsed,
    "dense_masks": lambda rng: Graph._trusted(formats._dense_masks(*_graph6_body(rng)[:2])),
    "sparse_masks": lambda rng: Graph._trusted(formats._sparse_masks(*_graph6_body(rng))),
    "random_graph": lambda rng: random_graph(rng, rng.randint(0, 40), rng.random()),
    "random_bipartite_graph": lambda rng: random_bipartite_graph(
        rng, rng.randint(0, 40), rng.random()
    )[0],
    "bipartite_double_cover": lambda rng: bipartite_double_cover(_maybe_labeled(rng)),
    "induced_subgraph": _induced,
}


@pytest.mark.parametrize("build", UNCHECKED_BUILDERS.values(), ids=UNCHECKED_BUILDERS)
def test_unchecked_builders_pass_from_adjacency(build):
    # These builders skip from_adjacency's checks because their masks are
    # symmetric, loopless and in range by construction; this pins that.
    rng = random.Random(28)
    for _ in range(200):
        g = build(rng)
        checked = Graph.from_adjacency(g.adj, g.labels)
        assert checked == g and checked.labels == g.labels


def test_double_cover_of_a_dense_graph():
    g = random_graph(random.Random(7), 50, 0.5)
    n = g.n
    edges = [e for u, v in g.edges() for e in ((u, n + v), (v, n + u))]
    assert bipartite_double_cover(g) == Graph(2 * n, edges)


def test_adjacency_is_symmetric_and_loopless():
    g = fixture("G2")
    for v in range(g.n):
        assert not (g.adj[v] >> v) & 1
        for u in bits(g.adj[v]):
            assert (g.adj[u] >> v) & 1
    assert g.m == sum(a.bit_count() for a in g.adj) // 2


def test_edges_iteration_sorted():
    g = Graph(4, [(2, 3), (0, 1), (0, 3)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


def test_neighborhood_open_gf10_core():
    g = fixture("GF10")
    s = g.vset_of(["a", "h"])
    assert g.labels_of(neighborhood(g, s)) == ["b"]


def test_neighborhood_empty_set():
    assert neighborhood(fixture("H1"), 0) == 0


def test_neighborhood_closed_isolated_vertex():
    g = generate("empty", 3)
    assert neighborhood(g, vset([1]), closed=True) == vset([1])


def test_neighborhood_closed_equals_open_union_s():
    g = fixture("G1")
    for s in (0, vset([0, 4]), g.full_mask, vset([2])):
        assert neighborhood(g, s, closed=True) == neighborhood(g, s) | s


def test_induced_subgraph_triangle_of_h1():
    g = fixture("H1")
    sub, remap = induced_subgraph(g, g.vset_of(["2", "3", "4"]))
    assert sub.n == 3 and sub.m == 3
    assert remap == {1: 0, 2: 1, 3: 2}
    assert sub.labels == ("2", "3", "4")


def test_induced_subgraph_full_is_identity():
    g = fixture("H2")
    sub, remap = induced_subgraph(g, g.full_mask)
    assert sub == g
    assert remap == {v: v for v in range(g.n)}


def test_induced_subgraph_empty():
    sub, remap = induced_subgraph(fixture("H3"), 0)
    assert sub.n == 0 and remap == {}


def test_delete_closed_neighborhood_h1_core():
    g = fixture("H1")
    h = delete_closed_neighborhood(g, g.vset_of(["1"]))
    assert h.n == 2 and h.m == 1
    assert h.labels == ("3", "4")


def test_delete_closed_neighborhood_star_leaves():
    g = generate("star", 4)
    assert delete_closed_neighborhood(g, vset([1, 2, 3])).n == 0


def test_delete_closed_neighborhood_empty_set():
    g = fixture("GF10")
    assert delete_closed_neighborhood(g, 0) == g


def test_is_independent():
    g2 = fixture("G2")
    assert is_independent(g2, g2.vset_of(["x", "y", "z"]))
    assert is_independent(g2, 0)
    k2 = generate("complete", 2)
    assert not is_independent(k2, vset([0, 1]))


def test_vertex_count_after_deletion():
    g = fixture("G1")
    for s in (vset([0]), vset([2, 4]), 0):
        closed = neighborhood(g, s, closed=True)
        assert delete_closed_neighborhood(g, s).n == g.n - closed.bit_count()


def test_two_coloring():
    c4 = generate("cycle", 4)
    side = two_coloring(c4)
    assert side is not None
    assert side in (vset([0, 2]), vset([1, 3]))
    assert two_coloring(generate("cycle", 5)) is None
    assert two_coloring(generate("empty", 3)) is not None
    assert two_coloring(fixture("H1")) is None  # contains a triangle


def test_labels_are_metadata_only():
    a = Graph(2, [(0, 1)], labels=("x", "y"))
    b = Graph(2, [(0, 1)])
    assert a == b
    assert a.label_of(0) == "x" and b.label_of(0) == "0"
    assert a.index_of("y") == 1
