import random

import pytest

from kegraph import TooLargeError, generate, random_graph, vset
from kegraph.oracle import (
    ORACLE_EDGE_LIMIT,
    ORACLE_VERTEX_LIMIT,
    brute_alpha,
    brute_alpha_c,
    brute_core,
    brute_critical_difference,
    brute_maximum_independent_sets,
    brute_mu,
    disagreements,
)


def test_brute_alpha_examples(g2, c4):
    assert brute_alpha(c4) == 2
    assert brute_alpha(g2) == 4
    assert brute_alpha(generate("empty", 0)) == 0


def test_brute_mu_examples(gf10, k13):
    assert brute_mu(k13) == 1
    assert brute_mu(gf10) == 3
    assert brute_mu(generate("complete", 2)) == 1


def test_brute_critical_difference_examples(gf10, k13):
    assert brute_critical_difference(gf10, "independent_only") == 1
    assert brute_critical_difference(gf10, "all_subsets") == 1
    for mode in ("independent_only", "all_subsets"):
        assert brute_critical_difference(k13, mode) == 2
        assert brute_critical_difference(generate("complete_minus_edge", 6), mode) == 0


def test_brute_critical_difference_mode_equality():
    rng = random.Random(83)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert brute_critical_difference(g, "independent_only") == (
            brute_critical_difference(g, "all_subsets")
        )


def test_brute_critical_difference_rejects_unknown_mode(c4):
    with pytest.raises(ValueError):
        brute_critical_difference(c4, "bogus")


def test_brute_alpha_c_examples(h3, gf10):
    assert brute_alpha_c(h3) == (1, h3.vset_of(["d1"]))
    size, witness = brute_alpha_c(gf10)
    assert size == 2 and gf10.labels_of(witness) == ["a", "h"]
    assert brute_alpha_c(generate("complete_minus_edge", 6)) == (0, 0)


def test_brute_alpha_c_witness_is_lex_least():
    # two isolated vertices plus K2: witnesses {0,1} beats {0,1,...} ties
    g = generate("empty", 2)
    assert brute_alpha_c(g) == (2, vset([0, 1]))


def test_brute_core_examples(gf10, g2):
    assert gf10.labels_of(brute_core(gf10)) == ["a", "h"]
    assert brute_core(generate("complete", 3)) == 0
    assert g2.labels_of(brute_core(g2)) == ["x", "y", "z"]


def test_brute_core_subset_of_every_mis(g1):
    c = brute_core(g1)
    for s in brute_maximum_independent_sets(g1):
        assert c & s == c


def test_oracle_self_consistency():
    rng = random.Random(89)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 11), rng.random())
        assert brute_alpha_c(g)[0] >= brute_critical_difference(g)


def test_gates():
    with pytest.raises(TooLargeError):
        brute_alpha(generate("empty", ORACLE_VERTEX_LIMIT + 1))
    with pytest.raises(TooLargeError):
        brute_mu(generate("complete", 8))  # 28 edges > 24
    assert brute_mu(generate("complete", 7)) == 3  # 21 edges, within the gate
    assert ORACLE_EDGE_LIMIT == 24


def test_disagreements_names_wrong_values_within_gates(gf10):
    # GF10: mu 3, d 1, alpha_c 2, alpha 4, core {a, h}
    core = gf10.vset_of(["a", "h"])
    assert disagreements(gf10, mu=3, d=1, alpha_c=2, alpha=4, core=core) == []
    assert disagreements(gf10, mu=2, d=0, alpha_c=2, alpha=5, core=0) == [
        "mu", "d[independent_only]", "d[all_subsets]", "alpha", "core",
    ]
    # n over the vertex gate: only mu (m = 0, within the edge gate) is checked
    empty = generate("empty", ORACLE_VERTEX_LIMIT + 1)
    assert disagreements(empty, mu=1, d=0, alpha=0, core=1) == ["mu"]
    assert disagreements(generate("complete", 8), mu=0) == []  # m = 28 > 24
