import random

import pytest

from kegraph import (
    NotKEError,
    TruncatedOmegaError,
    alpha,
    analyze_graph,
    characterization_check,
    critical_difference,
    equality_chain_report,
    fixture,
    generate,
    has_perfect_matching,
    is_independent,
    maximum_matching,
    random_bipartite_graph,
    random_graph,
    recognize_ke,
    structure_checks_ke,
    two_coloring,
    vset,
)

from conftest import surplus


def test_recognize_h3_not_ke(h3):
    cert = recognize_ke(h3)
    assert not cert.is_ke
    w = cert.non_ke_witness
    assert (w.alpha_c, w.mu, w.n) == (1, 2, 5)
    assert w.alpha_c < w.n - w.mu


def test_recognize_h1_ke(h1):
    cert = recognize_ke(h1)
    assert cert.is_ke
    s = cert.ke_witness.independent_set
    assert h1.labels_of(s) == ["1", "3"]
    rest = h1.full_mask & ~s
    assert cert.ke_witness.matching.saturated & rest == rest
    cert.ke_witness.matching.validate(h1)


def test_recognize_c4_ke(c4):
    assert recognize_ke(c4).is_ke


def test_recognize_h2_ke():
    assert recognize_ke(fixture("H2")).is_ke


def test_recognize_with_mis_witness(gf10):
    r = analyze_graph(gf10)
    assert not r.is_ke
    labels = r.certificates["non_ke_witness"]["non_critical_mis"]
    mis = vset(gf10.index_of(v) for v in labels)
    assert mis.bit_count() == alpha(gf10).value
    assert is_independent(gf10, mis)
    assert surplus(gf10, mis) != critical_difference(gf10)  # not critical


def test_ke_witness_is_maximum_independent_set():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        cert = recognize_ke(g)
        if cert.is_ke:
            s = cert.ke_witness.independent_set
            assert is_independent(g, s)
            assert s.bit_count() == alpha(g).value


def test_chain_h1(h1):
    r = equality_chain_report(h1)
    assert r.values() == (0, 0, 0, 0) and r.chain_holds and r.is_ke


def test_chain_star(k13):
    r = equality_chain_report(k13)
    assert r.values() == (2, 2, 2, 2) and r.chain_holds


def test_chain_gf10_fails_at_deficiency(gf10):
    r = equality_chain_report(gf10)
    assert r.values() == (1, 1, 1, 2)
    assert not r.chain_holds and not r.is_ke


def test_chain_g1_derived(g1):
    r = equality_chain_report(g1)
    assert r.values() == (3, 3, 3, 3) and r.chain_holds and r.is_ke


def test_chain_g2(g2):
    r = equality_chain_report(g2)
    assert r.values() == (2, 2, 1, 3)
    assert not r.chain_holds


def test_characterization_h1(h1):
    rec = characterization_check(h1)
    assert (rec.is_ke, rec.exists_critical_mis, rec.all_mis_critical) == (
        True, True, True,
    )
    assert rec.consistent and rec.witness is None


def test_characterization_g2(g2):
    rec = characterization_check(g2)
    assert (rec.is_ke, rec.exists_critical_mis, rec.all_mis_critical) == (
        False, False, False,
    )
    assert rec.witness == g2.vset_of(["p", "x", "y", "z"])
    assert surplus(g2, rec.witness) == -1 != critical_difference(g2)


def test_characterization_h3(h3):
    rec = characterization_check(h3)
    assert (rec.is_ke, rec.exists_critical_mis, rec.all_mis_critical) == (
        False, False, False,
    )
    assert rec.witness is not None


def test_characterization_respects_cap(c4):
    with pytest.raises(TruncatedOmegaError):
        characterization_check(c4, cap=1)


def test_characterization_consistency_random():
    rng = random.Random(67)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        rec = characterization_check(g)
        assert rec.consistent
        assert rec.is_ke == (alpha(g).value + maximum_matching(g).size == g.n)


def test_structure_checks_h1(h1):
    checks = structure_checks_ke(h1)
    assert checks.all_hold
    assert h1.labels_of(checks.core) == ["1"]
    assert h1.labels_of(checks.ncore) == ["2"]
    assert checks.complement_intersection == checks.ncore


def test_structure_checks_star(k13):
    checks = structure_checks_ke(k13)
    assert checks.all_hold
    # residual after removing N[core] is empty: vacuously matched and KE
    assert checks.core == vset([1, 2, 3])


def test_structure_checks_reject_gf10(gf10):
    with pytest.raises(NotKEError):
        structure_checks_ke(gf10)


def test_structure_checks_random_ke_graphs():
    rng = random.Random(71)
    seen = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        if recognize_ke(g).is_ke:
            seen += 1
            assert structure_checks_ke(g).all_hold
    assert seen > 50


def test_d_zero_iff_perfect_matching_on_ke():
    rng = random.Random(73)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        if recognize_ke(g).is_ke:
            assert (critical_difference(g) == 0) == has_perfect_matching(g)


def test_bipartite_graphs_are_ke():
    rng = random.Random(79)
    for _ in range(100):
        g, _ = random_bipartite_graph(rng, rng.randint(0, 20), rng.random())
        assert two_coloring(g) is not None
        assert recognize_ke(g).is_ke


def test_complete_minus_edge_family():
    for half in (3, 4, 5):
        g = generate("complete_minus_edge", 2 * half)
        a = alpha(g).value
        mu = maximum_matching(g).size
        assert a - mu == 2 - half
        from kegraph import core, neighborhood

        c = core(g)
        assert c.bit_count() - neighborhood(g, c).bit_count() == 4 - 2 * half
        assert not recognize_ke(g).is_ke
        assert critical_difference(g) == 0


def test_empty_graph_is_ke():
    g = generate("empty", 0)
    cert = recognize_ke(g)
    assert cert.is_ke
    assert characterization_check(g).consistent
