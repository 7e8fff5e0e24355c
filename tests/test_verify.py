import random
import re

import pytest

from kegraph import Graph, HallViolation, Matching, fixture, generate, verify
from kegraph.verify import CHECKS, DEFAULT_SEED, minimize, run_check, run_suite


@pytest.mark.parametrize("check", CHECKS["full"], ids=lambda c: c.name)
def test_check_clean(check):
    # One item per check of the full scope; the quick checks are among them.
    assert run_check(check, DEFAULT_SEED) is None


def test_invalid_hall_matching_is_a_violation(monkeypatch):
    real = verify.saturating_matching

    def invalid_when_hall_holds(g, from_set, into_set):
        # (0, 0) is no edge of any graph, so Matching.validate rejects it.
        result = real(g, from_set, into_set)
        return result if isinstance(result, HallViolation) else Matching(((0, 0),))

    monkeypatch.setattr(verify, "saturating_matching", invalid_when_hall_holds)
    check = next(c for c in CHECKS["full"] if c.name == "hall_crosscheck")
    violation = run_check(check, DEFAULT_SEED)
    assert violation is not None and violation.check == "hall_crosscheck"


def test_run_suite_logs_each_check_with_wall_time():
    lines = []
    assert run_suite("quick", log=lines.append) is None
    assert [line.split(" (")[0] for line in lines] == [
        f"ok: {check.name}" for check in CHECKS["quick"]
    ]
    assert all(re.fullmatch(r"ok: \w+ \(\d+\.\d\d s\)", line) for line in lines)


def test_minimize_shrinks_to_smallest_witness():
    # A triangle buried in a larger graph: the minimizer should strip
    # everything else away.
    g = Graph(
        7,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)],
    )

    def has_triangle(h: Graph) -> bool:
        return any(
            h.adj[u] & h.adj[v]
            for u in range(h.n)
            for v in range(u + 1, h.n)
            if h.has_edge(u, v)
        )

    assert has_triangle(g)
    shrunk = minimize(g, has_triangle)
    assert shrunk.n == 3 and shrunk.m == 3


def test_minimize_respects_size_floor():
    shrunk = minimize(fixture("H1"), lambda h: h.n >= 2)
    assert shrunk.n == 2


def test_minimize_swallows_kegraph_errors():
    from kegraph.errors import TooLargeError

    def violates(h: Graph) -> bool:
        if h.n < 5:
            raise TooLargeError("artificial")
        return True

    shrunk = minimize(generate("cycle", 6), violates)
    assert shrunk.n == 5


def test_violation_predicates_pass_on_healthy_graphs():
    from kegraph.verify import (
        _alpha_c_oracle_broken,
        _d_oracle_broken,
        _ke_chain_broken,
        _recognition_inconsistent,
        _roundtrip_broken,
    )

    rng = random.Random(7)
    from kegraph import random_graph

    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        assert not _roundtrip_broken(g)
        assert not _d_oracle_broken(g)
        assert not _alpha_c_oracle_broken(g)
        assert not _ke_chain_broken(g)
        assert not _recognition_inconsistent(g)


def test_chain_probe_catches_a_wrong_ke_core(monkeypatch):
    from kegraph import report
    from kegraph.verify import _ke_chain_broken

    g = fixture("G1")
    assert not _ke_chain_broken(g)
    monkeypatch.setattr(report, "ke_core", lambda g, matching, witness: 0)
    assert _ke_chain_broken(g)


def test_chain_probe_catches_a_wrong_report_field(monkeypatch):
    # The same probe compares the report's alpha, KE witness and core too.
    from kegraph import verify

    real = verify.analyze_graph

    def wrong_core(g, **options):
        r = real(g, **options)
        r.core = r.core[1:]
        return r

    g = fixture("G1")
    monkeypatch.setattr(verify, "analyze_graph", wrong_core)
    assert verify._ke_chain_broken(g)


def test_critical_shortcut_row_fires_on_most_dense_members():
    # The row only probes graphs on which the alpha_c = 0 test fires, so it
    # must fire often enough for the row to mean something.
    from kegraph.critical import _alpha_c_zero, _cover_matching
    from kegraph import maximum_matching

    check = next(c for c in CHECKS["full"] if c.name == "critical_shortcut")
    samples = check.pool(random.Random(f"{DEFAULT_SEED}:{check.name}"))
    dense = [g for tag, g in samples if tag == "dense"]
    fired = sum(
        _alpha_c_zero(g.adj, *_cover_matching(g, maximum_matching(g))) for g in dense
    )
    assert dense and 2 * fired >= len(dense)


def test_ke_guarantees_pool_has_cores_and_non_bipartite_members():
    # The row's equality-chain probe compares the KE path with
    # branch-and-bound on KE members only, so the pool must hold KE graphs
    # with something to compare.
    from kegraph import core, recognize_ke, two_coloring

    check = next(c for c in CHECKS["full"] if c.name == "ke_guarantees")
    samples = check.pool(random.Random(f"{DEFAULT_SEED}:{check.name}"))
    ke = [g for _tag, g in samples if recognize_ke(g).is_ke]
    assert sum(core(g, None) != 0 for g in ke) >= 50
    assert any(two_coloring(g) is None for g in ke)
