"""Property-based tests over random small graphs."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import kegraph as kg
from kegraph.verify import (
    _d_oracle_broken,
    _inequality_chain_broken,
    _local_max_not_extending,
    _matching_invalid,
    _mu_oracle_broken,
    _omega_properties_broken,
    _recognition_inconsistent,
    _roundtrip_broken,
)

from conftest import surplus


@st.composite
def graphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    return kg.Graph(n, edges)


@given(graphs(max_n=24))
@settings(max_examples=150, deadline=None)
def test_graph6_roundtrip(g):
    assert not _roundtrip_broken(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_neighborhood_identities(g):
    for s in (0, g.full_mask, g.full_mask & 0b1011):
        s &= g.full_mask
        open_nb = kg.neighborhood(g, s)
        assert kg.neighborhood(g, s, closed=True) == open_nb | s
        assert open_nb.bit_count() <= sum(g.degree(v) for v in kg.bits(s))


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_matching_is_valid_and_maximum(g):
    assert not _matching_invalid(g)
    assert not _mu_oracle_broken(g)  # checked where m <= 24


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_invariant_inequality_chain(g):
    # 0 <= d <= alpha_c <= alpha <= n - mu, and d >= the core's surplus
    assert not _inequality_chain_broken(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_double_cover_identity(g):
    # d against brute force over independent sets and over all subsets
    assert not _d_oracle_broken(g)


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_recognition_equivalences(g):
    # alpha + mu = n <=> recognized KE <=> alpha_c = alpha <=> some / every
    # maximum independent set is critical
    assert not _recognition_inconsistent(g)


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_omega_stream_members(g):
    # distinct maximum independent sets, all of them in lexicographic order,
    # meeting in the core
    assert not _omega_properties_broken(g)
    stream = kg.enumerate_maximum_independent_sets(g)
    list(stream)
    assert not stream.truncated


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_critical_witness_contract(g):
    w = kg.max_critical_independent_set(g)
    assert kg.is_independent(g, w.set)
    assert surplus(g, w.set) == w.value == kg.critical_difference(g)
    nb = kg.neighborhood(g, w.set)
    assert w.hall_matching.saturated & nb == nb


@given(graphs(max_n=9), st.integers(min_value=0, max_value=511))
@settings(max_examples=100, deadline=None)
def test_local_max_sets_extend_to_maximum(g, raw):
    s = raw & g.full_mask
    if not kg.is_independent(g, s):
        return
    assert not _local_max_not_extending(g, s)


@given(graphs(max_n=12))
@settings(max_examples=100, deadline=None)
def test_induced_subgraph_count_identity(g):
    for s in (0, g.full_mask & 0b101, g.full_mask):
        closed = kg.neighborhood(g, s, closed=True)
        assert kg.delete_closed_neighborhood(g, s).n == g.n - closed.bit_count()
