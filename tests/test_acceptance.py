"""Acceptance suite: ten criteria, exact integer comparisons throughout.

Each test prints one PASS/FAIL line (run with ``pytest -v -s``). Random pools
are seeded (master seed 20090001) so failures reproduce.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import time

import pytest

import kegraph as kg
from kegraph import oracle
from kegraph.verify import (
    CHECKS,
    ORACLE_PROBES,
    _critical_family_broken,
    _d_oracle_broken,
    _ke_certificate_invalid,
    _ke_chain_broken,
    _ke_perfect_matching_link_broken,
    _ke_structure_broken,
    _kn_minus_e_broken,
    _recognition_inconsistent,
    _roundtrip_broken,
    run_check,
)

from conftest import critical_sets_of

SEED = 20090001
FIXTURES = ("H1", "H2", "H3", "G1", "G2", "GF10")


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")
            return result

        return wrapped

    return deco


@pytest.fixture(scope="module")
def bipartite_pool() -> list[kg.Graph]:
    rng = random.Random(f"{SEED}:bipartite")
    return [
        kg.random_bipartite_graph(rng, rng.randint(0, 40), rng.random())[0]
        for _ in range(500)
    ]


@pytest.fixture(scope="module")
def small_pool() -> list[kg.Graph]:
    rng = random.Random(f"{SEED}:small")
    return [
        kg.random_graph(rng, rng.randint(0, 10), rng.random()) for _ in range(2000)
    ]


@pytest.fixture(scope="module")
def ke_pool(bipartite_pool, small_pool) -> list[kg.Graph]:
    pool = [kg.fixture(name) for name in FIXTURES]
    pool.extend(bipartite_pool)
    pool.extend(small_pool)
    return [g for g in pool if kg.recognize_ke(g).is_ke]


@criterion(1, "fixture corpus reproduces the published values")
def test_criterion_1_fixtures():
    # n, m, alpha, mu, d, alpha_c, the KE verdict, core and N(core) of the
    # six fixtures, as tabulated in kegraph.verify.FIXTURE_FACTS.
    (check,) = [c for c in CHECKS["quick"] if c.name == "fixture_facts"]
    assert run_check(check) is None


@criterion(2, "complete-graph-minus-an-edge family matches the formulas")
def test_criterion_2_family():
    for half in (3, 4, 5):
        g = kg.generate("complete_minus_edge", 2 * half)
        # alpha - mu = 2 - n, core surplus 4 - 2n, d = 0, not KE
        assert not _kn_minus_e_broken(g, half)
        # d = 0 agrees with brute force over both subset families
        assert not _d_oracle_broken(g)


@criterion(3, "equality chain d = core surplus = alpha - mu = def on all KE graphs")
def test_criterion_3_chain(ke_pool):
    assert len(ke_pool) > 500  # all bipartite graphs land here
    violations = sum(_ke_chain_broken(g) for g in ke_pool)
    assert violations == 0


@criterion(4, "KE <=> some MIS critical <=> every MIS critical; alpha_c = alpha on KE")
def test_criterion_4_characterization(small_pool):
    graphs = [kg.fixture(name) for name in FIXTURES] + small_pool
    # alpha + mu = n <=> alpha_c = alpha <=> some / every MIS is critical
    violations = sum(_recognition_inconsistent(g) for g in graphs)
    assert violations == 0


@criterion(5, "main-path alpha, mu, d, alpha_c, core equal brute force")
def test_criterion_5_oracle_equivalence():
    rng = random.Random(f"{SEED}:oracle")
    graphs = [kg.fixture(name) for name in FIXTURES]
    while len(graphs) < 6 + 500:
        graphs.append(kg.random_graph(rng, rng.randint(0, 14), rng.random()))
    mismatches = 0
    mu_checked = 0
    for g in graphs:
        if g.m <= oracle.ORACLE_EDGE_LIMIT:
            mu_checked += 1
        # mu, alpha, d (both subset families), alpha_c and core
        mismatches += sum(probe.broken(g) for probe in ORACLE_PROBES)
    assert mismatches == 0
    assert mu_checked >= 300  # graphs with m <= 24, where the mu oracle applies


@criterion(6, "certificates: KE witnesses saturate V - S; critical sets pass all checks")
def test_criterion_6_certificates(ke_pool, small_pool):
    for g in ke_pool:
        assert not _ke_certificate_invalid(g)

    sampled = 0
    failures = 0
    for g in small_pool:
        if g.n == 0 or g.n > 12:
            continue
        # every critical set is local-max, extends, and has a Hall matching
        sampled += len(critical_sets_of(g))
        failures += _critical_family_broken(g)
        if sampled >= 400:
            break
    assert sampled >= 200
    assert failures == 0


@criterion(7, "structural facts (core complement, counting identity, residual) on KE graphs")
def test_criterion_7_structure(ke_pool):
    # N(core) is the intersection of the complements of all maximum
    # independent sets, alpha + |that set| = mu + |core|, and G - N[core] is
    # perfectly matched and KE. Only untruncated enumerations are in scope.
    failures = sum(_ke_structure_broken(g, cap=20000) for g in ke_pool)
    assert failures == 0
    checked = 0
    for g in ke_pool:
        stream = kg.enumerate_maximum_independent_sets(g, cap=20000)
        list(stream)
        checked += not stream.truncated
    assert checked >= 100


@criterion(8, "on KE graphs, d = 0 exactly when a perfect matching exists")
def test_criterion_8_perfect_matching_link(ke_pool):
    for g in ke_pool:
        assert not _ke_perfect_matching_link_broken(g)


@criterion(9, "graph6 round-trip identity and hand-encoded vectors")
def test_criterion_9_formats():
    rng = random.Random(f"{SEED}:graph6")
    for _ in range(1000):
        g = kg.random_graph(rng, rng.randint(0, 60), rng.random())
        assert not _roundtrip_broken(g)
    k2 = kg.parse_graph6("A_")
    assert k2.n == 2 and k2.m == 1
    iso2 = kg.parse_graph6("A?")
    assert iso2.n == 2 and iso2.m == 0
    k3 = kg.parse_graph6("Bw")
    assert k3.n == 3 and k3.m == 3


def _dense_graph6_lines(rng: random.Random, count: int, n: int) -> list[str]:
    """*count* G(n, 1/2) graphs as graph6. Row u of each graph is one
    ``getrandbits(n - 1 - u)`` draw whose bit j is the edge u ~ u + 1 + j;
    graph6 lists the upper triangle column by column, six bits a byte."""
    pad = "0" * (-(n * (n - 1) // 2) % 6)
    sextets = {f"{i:06b}": chr(63 + i) for i in range(64)}
    lines = []
    for _ in range(count):
        # bin(row | 1 << k)[:2:-1] is the k low bits of row, bit 0 first.
        rows = [
            "0" * (u + 1) + bin(rng.getrandbits(n - 1 - u) | 1 << (n - 1 - u))[:2:-1]
            for u in range(n)
        ]
        cols = ["".join(col) for col in zip(*rows)]
        body = "".join([cols[v][:v] for v in range(1, n)]) + pad
        lines.append(chr(63 + n) + "".join(
            [sextets[body[i:i + 6]] for i in range(0, len(body), 6)]
        ))
    return lines


@criterion(10, "batch analysis of 10,000 n=50 graphs finishes within 60 s")
def test_criterion_10_performance(tmp_path):
    lines = _dense_graph6_lines(random.Random(f"{SEED}:perf"), 10000, 50)
    path = tmp_path / "perf.g6"
    path.write_text("\n".join(lines) + "\n")

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kegraph", "batch", str(path),
         "--poly-only", "--jobs", "2"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    out_lines = proc.stdout.strip().splitlines()
    rows = [ln for ln in out_lines[1:] if not ln.startswith("#")]
    assert len(rows) == 10000
    assert out_lines[-1].startswith("#summary total=10000")
    print(f"  batch wall time: {elapsed:.1f} s", end=" ")
    assert elapsed < 60.0
