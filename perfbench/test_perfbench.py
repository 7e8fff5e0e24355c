"""Tests of the benchmark's own checker and metric names.

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from kegraph.cli import main as cli_main  # noqa: E402
from kegraph.formats import parse_graph6  # noqa: E402

# C6 plus the chord 0-3: bipartite, so KE, and every vertex has degree >= 2.
C6_CHORD = [0] * 6
for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)):
    C6_CHORD[u] |= 1 << v
    C6_CHORD[v] |= 1 << u
C6_CHORD = tuple(C6_CHORD)
# A triangle: alpha + mu = 2 < 3, so not KE.
TRIANGLE = (0b110, 0b101, 0b011)
# A triangle with a pendant vertex on each corner: not bipartite, but
# alpha + mu = 3 + 3 = n, so KE.
NET = [0] * 6
for u, v in ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)):
    NET[u] |= 1 << v
    NET[v] |= 1 << u
NET = tuple(NET)


def _report(adj, tmp_path, force=True) -> tuple[str, str]:
    path = tmp_path / "g.g6"
    path.write_text(workloads.encode_graph6(adj) + "\n")
    out = io.StringIO()
    with redirect_stdout(out):
        cli_main(["analyze", str(path)] + (["--force"] if force else []))
    return out.getvalue(), "g.g6"


def _check(adj, report: dict | str, name="g.g6", exact=True) -> list[str]:
    text = report if isinstance(report, str) else json.dumps(report)
    problems, _ = checker.check_report(adj, checker.reference(adj), text, name, exact)
    return problems


def test_encoder_matches_program_decoder():
    for adj in (C6_CHORD, TRIANGLE, (0,) * 70):
        g = parse_graph6(workloads.encode_graph6(adj))
        assert g.adj == adj


def test_checker_accepts_program_reports(tmp_path):
    for adj in (C6_CHORD, TRIANGLE, NET):
        text, name = _report(adj, tmp_path)
        assert _check(adj, text, name) == []


def test_checker_rejects_non_edge_in_matching(tmp_path):
    text, name = _report(C6_CHORD, tmp_path)
    r = json.loads(text)
    bad = copy.deepcopy(r)
    u, v = bad["certificates"]["ke_witness"]["matching"][0]
    other = next(
        w for w in range(6) if str(w) not in (u, v) and not (C6_CHORD[int(u)] >> w) & 1
    )
    bad["certificates"]["ke_witness"]["matching"][0] = [u, str(other)]
    assert any("non-edge" in p for p in _check(C6_CHORD, bad, name))


def test_checker_rejects_dependent_set(tmp_path):
    text, name = _report(C6_CHORD, tmp_path)
    bad = json.loads(text)
    s = bad["certificates"]["max_critical_set"]
    nb = next(str(w) for w in range(6) if (C6_CHORD[int(s[0])] >> w) & 1)
    bad["certificates"]["max_critical_set"] = sorted(set(s) | {nb}, key=int)
    assert any("not independent" in p for p in _check(C6_CHORD, bad, name))


def test_checker_rejects_flipped_is_ke(tmp_path):
    for adj in (C6_CHORD, TRIANGLE):
        text, name = _report(adj, tmp_path)
        bad = json.loads(text)
        bad["is_ke"] = not bad["is_ke"]
        assert any("is_ke" in p for p in _check(adj, bad, name))


def test_checker_rejects_wrong_mu_and_broken_chain(tmp_path):
    text, name = _report(TRIANGLE, tmp_path)
    bad = json.loads(text)
    bad["mu"] += 1
    assert any("networkx" in p for p in _check(TRIANGLE, bad, name))
    bad = json.loads(text)
    bad["chain"]["alpha_minus_mu"] += 1
    assert any("chain" in p for p in _check(TRIANGLE, bad, name))


def test_checker_rejects_understated_alpha_c_on_bipartite_graph(tmp_path):
    # is_ke false with alpha_c below n - mu agree with each other; only
    # Koenig's theorem shows the bipartite input was misjudged.
    text, name = _report(C6_CHORD, tmp_path)
    bad = json.loads(text)
    bad["is_ke"] = False
    bad["alpha_c"] -= 1
    assert any("bipartite" in p for p in _check(C6_CHORD, bad, name))


def test_checker_rejects_not_ke_when_alpha_plus_mu_is_n(tmp_path):
    text, name = _report(NET, tmp_path)
    bad = json.loads(text)
    assert bad["is_ke"] and not checker.reference(NET).bipartite
    bad["is_ke"] = False
    bad["alpha_c"] -= 1
    cert = bad["certificates"]
    cert["non_ke_witness"] = {
        "alpha_c": bad["alpha_c"], "mu": bad["mu"], "n": 6,
        "non_critical_mis": cert.pop("ke_witness")["independent_set"],
    }
    assert any("alpha + mu - n = 0" in p for p in _check(NET, bad, name))


def _batch(tmp_path, adjs):
    graphs = tuple(
        workloads.Graph6Input(f"t{i}", "test", adj, workloads.encode_graph6(adj))
        for i, adj in enumerate(adjs)
    )
    path = tmp_path / "b.g6"
    path.write_text("".join(g.text + "\n" for g in graphs))
    out = io.StringIO()
    with redirect_stdout(out):
        cli_main(["batch", str(path), "--poly-only"])
    return graphs, [checker.reference(g.adj) for g in graphs], out.getvalue()


def test_checker_rejects_corrupted_batch_row(tmp_path):
    graphs, refs, csv = _batch(tmp_path, (C6_CHORD, TRIANGLE))
    assert checker.check_batch(graphs, refs, csv, "") == ([], {"ke": 1})
    flipped = csv.replace(",true,\n", ",false,\n", 1)
    problems, _ = checker.check_batch(graphs, refs, flipped, "")
    assert any("is_ke" in p for p in problems)


def test_checker_rejects_understated_batch_row_on_bipartite_graph(tmp_path):
    graphs, refs, csv = _batch(tmp_path, (C6_CHORD,))
    header, row, summary = csv.splitlines()
    cells = row.split(",")
    assert cells[10] == "true"
    cells[7] = str(int(cells[7]) - 1)  # alpha_c
    cells[10] = "false"
    bad = "\n".join(
        (header, ",".join(cells), summary.replace("ke=1", "ke=0").replace("other=0", "other=1"))
    )
    problems, _ = checker.check_batch(graphs, refs, bad + "\n", "")
    assert [p for p in problems if "bipartite" in p] == [f"t0: {problems[0][4:]}"]


def test_generated_bipartite_graphs_are_bipartite(tmp_path):
    wl = workloads.build("analyze-exact", 3, str(tmp_path))
    bip = [op.graphs[0] for op in wl.ops[: wl.cycle] if op.graphs[0].kind == "bip"]
    assert bip and all(checker.reference(g.adj).bipartite for g in bip)


def test_server_runs_ops_and_spans_cover_the_timed_call(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(workloads.encode_graph6(TRIANGLE) + "\n")
    with run.Server(run.work_cpus(batch=False), trace=True) as server:
        plain = server.ask(cmd="op", argv=["analyze", str(path)])
        traced = server.ask(
            cmd="op", argv=["analyze", str(path)], trace=True, oid="o",
            gids={workloads.encode_graph6(TRIANGLE): "g"},
        )
        bad = server.ask(cmd="op", argv=["analyze", str(tmp_path / "missing.g6")])
        spans = server.ask(cmd="spans")["spans"]
    assert plain["rc"] == traced["rc"] == 0
    untimed = [json.loads(r["stdout"]) for r in (plain, traced)]
    for r in untimed:
        r.pop("timing_ms")
    assert untimed[0] == untimed[1]
    assert 0.0 <= traced["ms"] - traced["span_ms"] <= run.SPAN_SLACK_MS
    assert "FileNotFoundError" in bad["rc"]  # an escaping exception is a failed op
    names = {s["name"] for s in spans}
    assert {"cli.main", "formats.parse_graph6", "report.analyze_graph"} <= names
    assert all(s["gid"] in ("o", "g") for s in spans)


def test_host_speed_factor_averages_the_samples_around_an_op():
    host = hostspeed.Samplers([])
    p = hostspeed.PERIOD_S
    host.samples = {
        0: [(1 - 2 * p, 9.0), (1 - p / 2, 0.4), (1 + p / 2, 0.8), (1 + 1.2 * p, 0.8), (1 + 2 * p, 9.0)],
        1: [(1.0, 0.4)],
    }
    # An op from 1 to 1 + 0.4p sees the samples from 1 - p to 1 + 1.4p.
    assert abs(host.factor(1.0, 1 + 0.4 * p) - hostspeed.REF_MS * 4 / 2.4) < 1e-12


def test_host_speed_samplers_run_and_stop():
    cpu = run.work_cpus(batch=False)[0]
    with hostspeed.Samplers([cpu]) as host:
        t0 = time.monotonic()
        time.sleep(0.2)
    assert len(host.samples[cpu]) >= 3
    assert host.factor(t0, t0 + 0.2) > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    wl = workloads.Workload("w", (), exact=False, tail_percentile=50.0, cycle=1)
    recs = [run.Record(workloads.Op("o", ("analyze",), (), 0), 0, 0.0, 1.0, [], {})]
    metrics, _ = run.end_to_end(wl, recs, [1.0], 0.1, 1024)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
