import json
import os
import random
import re
import subprocess
import sys

import pytest

from kegraph import (
    CSV_COLUMNS,
    AnalysisReport,
    Graph,
    TooLargeError,
    alpha,
    analyze_graph,
    core,
    critical_difference,
    csv_row,
    emit_graph6,
    equality_chain_report,
    fixture,
    generate,
    maximum_matching,
    random_bipartite_graph,
    random_graph,
    recognize_ke,
    two_coloring,
)
from kegraph import independence
from kegraph.cli import main
from kegraph.report import chain_from_parts
from kegraph.verify import _ke_chain_broken

RUN = [sys.executable, "-m", "kegraph"]


def run_cli(*args, stdin: str = "", env_extra: dict | None = None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        RUN + list(args), input=stdin, capture_output=True, text=True, env=env,
    )


def test_analyze_report_h3():
    r = analyze_graph(fixture("H3"), "H3")
    assert not r.is_ke
    assert r.alpha == 2 and r.mu == 2
    assert r.alpha + r.mu == 4 < 5 == r.n
    assert r.certificates["non_ke_witness"]["alpha_c"] == 1


def test_analyze_report_gf10():
    r = analyze_graph(fixture("GF10"), "GF10")
    assert r.d == 1 and r.core == ["a", "h"] and r.deficiency == 2
    assert r.chain == {
        "d": 1, "core_surplus": 1, "alpha_minus_mu": 1, "def": 2,
        "chain_holds": False,
    }


REPORT_KEYS = {
    "name", "n", "m", "alpha", "mu", "def", "d", "alpha_c", "core", "n_core",
    "is_ke", "chain", "certificates", "gated", "oracle_checked", "timing_ms",
}


@pytest.mark.parametrize("graph, options, alpha_c", [
    (fixture("H1"), {}, 2),
    (fixture("G2"), {}, 3),
    (generate("empty", 70), {}, 70),
    (fixture("H1"), {"poly_only": True}, 2),
    (generate("cycle", 70), {"force": True}, 35),
], ids=["ke", "not-ke", "gated", "poly-only", "forced-n70"])
def test_report_json_roundtrip_bit_exact(graph, options, alpha_c):
    r = analyze_graph(graph, "g", **options)
    text = r.to_json()
    back = AnalysisReport.from_json(text)
    assert back == r
    assert back.to_json() == text
    assert set(r.to_dict()) == REPORT_KEYS
    assert json.loads(text)["alpha_c"] == alpha_c


def test_csv_row_layout():
    r = analyze_graph(fixture("GF10"), "GF10")
    row = csv_row(r)
    cells = row.split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[0] == "GF10"
    assert cells[CSV_COLUMNS.index("alpha")] == "4"
    assert cells[CSV_COLUMNS.index("is_ke")] == "false"
    assert cells[CSV_COLUMNS.index("core_size")] == "2"


def test_gated_report_nulls():
    g = generate("empty", 70)
    r = analyze_graph(g, "big")
    assert r.gated and r.alpha is None and r.core is None and r.chain is None
    cells = csv_row(r).split(",")
    assert cells[CSV_COLUMNS.index("alpha")] == ""
    forced = analyze_graph(g, "big", force=True)
    assert not forced.gated and forced.alpha == 70


def test_poly_only_skips_exact_fields():
    r = analyze_graph(fixture("H1"), "H1", poly_only=True)
    assert r.alpha is None and r.gated
    assert r.mu == 2 and r.is_ke


def test_oracle_cross_check_flag():
    r = analyze_graph(fixture("G2"), "G2", with_oracle=True)
    assert r.oracle_checked


def test_ke_certificate_in_report():
    r = analyze_graph(fixture("H1"), "H1")
    assert r.is_ke
    assert r.certificates["ke_witness"]["independent_set"] == ["1", "3"]
    assert r.certificates["ke_witness"]["matching"]


def test_report_integer_fields_consistent():
    for name in ("H1", "H2", "H3", "G1", "G2", "GF10"):
        r = analyze_graph(fixture(name), name)
        assert 0 <= r.d <= r.alpha_c <= r.alpha <= r.n - r.mu
        assert r.deficiency == r.n - 2 * r.mu >= 0


# --- CLI subprocess tests ---


def test_cli_analyze_fixture_csv():
    out = run_cli("analyze", "--fixture", "H3", "--csv")
    assert out.returncode == 0
    header, row = out.stdout.strip().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert row.startswith("H3,5,5,2,2,1,0,1")
    assert ",false" in row


def test_cli_analyze_stdin_graph6():
    out = run_cli("analyze", stdin=emit_graph6(fixture("GF10")) + "\n")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["d"] == 1 and data["def"] == 2 and data["alpha"] == 4


def test_cli_analyze_edges_format():
    out = run_cli("analyze", "--format", "edges", stdin="0 1\n1 2\n")
    assert out.returncode == 0
    assert json.loads(out.stdout)["n"] == 3


def test_cli_analyze_empty_stdin_exit_2():
    out = run_cli("analyze", stdin="")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_cli_analyze_garbage_exit_2():
    out = run_cli("analyze", stdin="\x01\x02\n")
    assert out.returncode == 2


def test_cli_analyze_gate_exit_3(tmp_path):
    big = tmp_path / "big.g6"
    big.write_text(emit_graph6(generate("empty", 70)) + "\n")
    out = run_cli("analyze", str(big))
    assert out.returncode == 3
    assert json.loads(out.stdout)["gated"] is True
    forced = run_cli("analyze", str(big), "--force")
    assert forced.returncode == 0
    assert json.loads(forced.stdout)["alpha"] == 70


def test_cli_batch_fixture_corpus(tmp_path):
    path = tmp_path / "corpus.g6"
    names = ("H1", "H2", "H3", "G1", "G2", "GF10")
    path.write_text("".join(emit_graph6(fixture(n)) + "\n" for n in names))
    out = run_cli("batch", str(path))
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 6
    ke_flags = [row.split(",")[CSV_COLUMNS.index("is_ke")] for row in rows]
    assert ke_flags == ["true", "true", "false", "true", "false", "false"]
    assert lines[-1].startswith("#summary total=6 ke=3")


def test_cli_batch_skips_malformed_lines(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("A_\nnot graph6 at all!!\x01\nBw\n")
    out = run_cli("batch", str(path))
    assert out.returncode == 0
    rows = [
        ln for ln in out.stdout.strip().splitlines()[1:] if not ln.startswith("#")
    ]
    assert len(rows) == 2
    assert "line 2" in out.stderr


def test_cli_batch_unexpected_exception_is_a_line_error(tmp_path, monkeypatch, capsys):
    from kegraph import cli

    real = cli.analyze_graph

    def flaky(g, name="", **kwargs):
        if name == "Bw":
            raise RuntimeError("boom")
        return real(g, name, **kwargs)

    monkeypatch.setattr(cli, "analyze_graph", flaky)
    path = tmp_path / "three.g6"
    path.write_text("A_\nBw\nBW\n")
    assert cli.main(["batch", str(path), "--jobs", "1"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:-1]] == ["A_", "BW"]
    assert lines[-1].startswith("#summary total=2 ")
    assert err.strip() == "line 2: internal error: RuntimeError: boom"


def test_cli_analyze_non_utf8_exit_2(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xff\xfe\n")
    out = run_cli("analyze", str(bad))
    assert out.returncode == 2
    assert "can't decode" in out.stderr and "Traceback" not in out.stderr


def test_cli_analyze_stdin_non_utf8_exit_2_under_c_locale():
    out = subprocess.run(
        RUN + ["analyze", "--format", "edges"], input=b"\xff 1\n",
        capture_output=True, env=dict(os.environ, LC_ALL="C"),
    )
    assert out.returncode == 2
    assert b"can't decode" in out.stderr and b"Traceback" not in out.stderr


def test_cli_closed_stdout_exits_141_quietly():
    # The pipe has no reader from the start, so the first write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            RUN + ["analyze", "--fixture", "GF10"], stdout=write_end,
            stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 141
    assert out.stderr == ""


def test_cli_analyze_path_2100_without_force(tmp_path):
    path = tmp_path / "p2100.g6"
    path.write_text(emit_graph6(generate("path", 2100)) + "\n")
    out = run_cli("analyze", str(path))
    assert out.returncode == 3
    data = json.loads(out.stdout)
    assert data["gated"] and data["is_ke"]
    assert data["mu"] == data["alpha_c"] == 1050


def test_cli_batch_non_utf8_line_is_a_line_error(tmp_path):
    mixed = tmp_path / "mixed.g6"
    mixed.write_bytes(b"A_\n\xffA\nBw\n")
    out = run_cli("batch", str(mixed))
    assert out.returncode == 0
    rows = [
        ln for ln in out.stdout.strip().splitlines()[1:] if not ln.startswith("#")
    ]
    assert [row.split(",")[0] for row in rows] == ["A_", "Bw"]
    assert "line 2" in out.stderr and "Traceback" not in out.stderr


def test_cli_batch_empty_exit_2(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert run_cli("batch", str(path)).returncode == 2


def test_cli_batch_parallel_order_preserved(tmp_path):
    path = tmp_path / "many.g6"
    names = ("H1", "H2", "H3", "G1", "G2", "GF10") * 5
    path.write_text("".join(emit_graph6(fixture(n)) + "\n" for n in names))
    seq = run_cli("batch", str(path))
    par = run_cli("batch", str(path), "--jobs", "2")
    assert seq.stdout == par.stdout


def test_cli_gen():
    out = run_cli("gen", "complete_minus_edge", "6")
    assert out.returncode == 0
    assert out.stdout.strip() == emit_graph6(generate("complete_minus_edge", 6))
    cyc = run_cli("gen", "cycle", "4")
    assert cyc.stdout.strip() == "Cl"


def test_cli_gen_bad_params():
    assert run_cli("gen", "cycle", "2").returncode == 2
    assert run_cli("gen", "complete_bipartite", "3").returncode == 2


def test_cli_verify_quick():
    out = run_cli("verify", "--scope", "quick")
    assert out.returncode == 0
    assert "all checks passed" in out.stderr


def test_cli_verify_env_seed():
    out = run_cli("verify", "--scope", "quick", env_extra={"KEG_SEED": "12345"})
    assert out.returncode == 0


def test_cli_batch_bipartite_graphs_all_ke(tmp_path):
    import random

    from kegraph import random_bipartite_graph

    rng = random.Random(20090001)
    path = tmp_path / "bip.g6"
    path.write_text(
        "".join(
            emit_graph6(random_bipartite_graph(rng, rng.randint(0, 12), rng.random())[0])
            + "\n"
            for _ in range(100)
        )
    )
    out = run_cli("batch", str(path))
    assert out.returncode == 0
    rows = [
        ln for ln in out.stdout.strip().splitlines()[1:] if not ln.startswith("#")
    ]
    assert len(rows) == 100
    ke_col = CSV_COLUMNS.index("is_ke")
    assert all(row.split(",")[ke_col] == "true" for row in rows)
    assert out.stdout.strip().splitlines()[-1].startswith("#summary total=100 ke=100")


def test_cli_batch_equals_analyze_rows(tmp_path):
    path = tmp_path / "two.g6"
    path.write_text(
        emit_graph6(fixture("H1")) + "\n" + emit_graph6(fixture("GF10")) + "\n"
    )
    out = run_cli("batch", str(path))
    rows = [
        ln for ln in out.stdout.strip().splitlines()[1:] if not ln.startswith("#")
    ]
    for row, name in zip(rows, ("H1", "GF10")):
        g6 = emit_graph6(fixture(name))
        direct = csv_row(analyze_graph(fixture(name), name=g6))
        assert row == direct


# --- KE graphs: alpha, witness and core without branch-and-bound ---


def test_ke_path_equals_branch_and_bound_small():
    rng = random.Random(1201)
    seen = non_bipartite = with_core = 0
    while seen < 2000:
        n = rng.randint(0, 16)
        if seen % 2:
            g = random_bipartite_graph(rng, n, rng.random())[0]
        else:
            g = random_graph(rng, n, 0.5 * rng.random())
            if not recognize_ke(g).is_ke:
                continue
        assert not _ke_chain_broken(g), emit_graph6(g)
        seen += 1
        non_bipartite += two_coloring(g) is None
        with_core += core(g, None) != 0
    assert non_bipartite >= 200 and with_core >= 1000


def _shuffled_bipartite(rng: random.Random, n: int, deg: float) -> Graph:
    """Sides of n // 2 and n - n // 2 shuffled vertices, average degree *deg*."""
    n1 = n // 2
    p = deg * n / (2 * n1 * (n - n1))
    order = list(range(n))
    rng.shuffle(order)
    edges = [(u, v) for u in order[:n1] for v in order[n1:] if rng.random() < p]
    return Graph(n, edges)


@pytest.mark.parametrize("n, deg", [(48, 4), (56, 6), (64, 3), (72, 5), (80, 8)])
def test_ke_path_equals_branch_and_bound_on_larger_bipartite_graphs(n, deg):
    # The bipartite specs of the analyze-exact benchmark workload.
    rng = random.Random(f"{n}:{deg}")
    for _ in range(2):
        assert not _ke_chain_broken(_shuffled_bipartite(rng, n, deg))


def test_equality_chain_report_runs_no_branch_and_bound_on_ke_graphs(monkeypatch):
    graphs = [fixture("H1"), fixture("G1")]
    for n, deg in [(48, 4), (56, 6), (64, 3), (72, 5), (80, 8)]:
        rng = random.Random(f"{n}:{deg}")
        graphs += [_shuffled_bipartite(rng, n, deg) for _ in range(2)]
    expected = []
    for g in graphs:
        a = alpha(g, None)
        expected.append(chain_from_parts(
            g, critical_difference(g), core(g, None, alpha_result=a), a.value,
            maximum_matching(g).size, True,
        ))

    def no_search(*args, **kwargs):
        raise AssertionError("branch-and-bound ran on a KE graph")

    monkeypatch.setattr(independence, "_alpha_value", no_search)
    assert [equality_chain_report(g, None) for g in graphs] == expected
    n80 = graphs[-1]
    assert n80.n == 80
    with pytest.raises(TooLargeError):
        equality_chain_report(n80)
    assert equality_chain_report(n80, limit=None).chain_holds


@pytest.mark.parametrize("n, edges, isolated", [
    (0, [], 0),
    (1, [], 1),
    (5, [], 5),
    (70, [], 70),
    (7, [(0, 1), (1, 2), (2, 3)], 3),
    (6, [(0, 1), (0, 2), (0, 3)], 2),
], ids=["empty0", "empty1", "empty5", "empty70", "path4+3", "star4+2"])
def test_cli_force_puts_isolated_vertices_in_the_core(tmp_path, capsys, n, edges, isolated):
    # Isolated vertices are exposed by every matching, so the cover 2-SAT
    # puts them out of every minimum cover, hence in the core.
    g = Graph(n, edges)
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(g) + "\n")
    assert main(["analyze", str(path), "--force"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_ke"]
    lonely = [str(v) for v in range(n) if not g.adj[v]]
    assert len(lonely) == isolated and set(lonely) <= set(data["core"])
    assert data["core"] == g.labels_of(core(g, None))


def _without_timing(text: str) -> str:
    return re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": 0', text)


def test_cli_usage_error_in_process_then_same_output_as_a_fresh_process(capsys, monkeypatch):
    # The parser is built once per process; a call that fails to parse must
    # leave nothing behind for the next call.
    monkeypatch.setenv("COLUMNS", "80")
    bad = ["analyze", "--json", "--csv", "--fixture", "G1"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kegraph analyze")
    assert "argument --csv: not allowed with argument --json" in err
    fresh_bad = run_cli(*bad, env_extra={"COLUMNS": "80"})
    assert (fresh_bad.returncode, fresh_bad.stdout, fresh_bad.stderr) == (2, "", err)
    assert main(["analyze", "--fixture", "G1", "--json"]) == 0
    got = capsys.readouterr()
    fresh = run_cli("analyze", "--fixture", "G1", "--json")
    assert fresh.returncode == 0 and got.err == fresh.stderr == ""
    assert _without_timing(got.out) == _without_timing(fresh.stdout)
