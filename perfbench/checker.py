"""Reference-free checker for `analyze` JSON reports and `batch` CSV output.

Nothing here trusts the program under test: each claim in a report is
checked against the generated adjacency, and the two matching numbers are
recomputed with networkx (mu by blossom, d through a Hopcroft-Karp matching
of the bipartite double cover, d = n - mu(cover)). Bipartiteness is tested
by networkx too: by Koenig's theorem every bipartite graph is KE with
alpha_c = n - mu, so a bipartite input pins the verdict and alpha_c. Each check function
returns the problems it found (none means the output is accepted) and the
facts the benchmark records about the inputs, such as the KE verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import networkx as nx

CSV_HEADER = "name,n,m,alpha,mu,def,d,alpha_c,core_size,ncore_size,is_ke,chain_holds"


@dataclass(frozen=True)
class Reference:
    """Independently computed facts about one input graph."""

    n: int
    m: int
    mu: int
    d: int
    bipartite: bool


def reference(adj: tuple[int, ...]) -> Reference:
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in _bits(adj[u]) if u < v]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    mu = len(nx.max_weight_matching(g, maxcardinality=True))
    cover = nx.Graph()
    cover.add_nodes_from(range(2 * n))
    cover.add_edges_from((u, n + v) for u in range(n) for v in _bits(adj[u]))
    mu_cover = len(nx.bipartite.hopcroft_karp_matching(cover, top_nodes=range(n))) // 2
    return Reference(
        n=n, m=len(edges), mu=mu, d=n - mu_cover, bipartite=nx.is_bipartite(g)
    )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _vertex_set(labels, n: int, what: str, problems: list[str]) -> int | None:
    """Bitmask of a list of vertex labels, or None (with a problem) if invalid."""
    if not isinstance(labels, list):
        problems.append(f"{what} is not a list")
        return None
    mask = 0
    for s in labels:
        if not (isinstance(s, str) and s.isdigit() and int(s) < n):
            problems.append(f"{what} holds unknown vertex {s!r}")
            return None
        bit = 1 << int(s)
        if mask & bit:
            problems.append(f"{what} repeats vertex {s}")
            return None
        mask |= bit
    return mask


def _neighbourhood(adj, s: int) -> int:
    nb = 0
    for v in _bits(s):
        nb |= adj[v]
    return nb & ~s


def _independent(adj, s: int) -> bool:
    return all(not adj[v] & s for v in _bits(s))


def _matching(adj, pairs, what: str, problems: list[str]) -> list[tuple[int, int]] | None:
    """Edges of a claimed matching, or None if it uses a non-edge or a vertex twice."""
    if not isinstance(pairs, list):
        problems.append(f"{what} is not a list")
        return None
    n = len(adj)
    seen = 0
    edges = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            problems.append(f"{what} holds a malformed edge {pair!r}")
            return None
        ends = _vertex_set(pair, n, what, problems)
        if ends is None:
            return None
        u, v = int(pair[0]), int(pair[1])
        if not (adj[u] >> v) & 1:
            problems.append(f"{what} uses non-edge {u}-{v}")
            return None
        if seen & ends:
            problems.append(f"{what} is not vertex-disjoint at {u}-{v}")
            return None
        seen |= ends
        edges.append((u, v))
    return edges


def _saturates_into(edges, from_set: int, into_set: int) -> bool:
    """True iff every edge joins from_set to into_set and covers all of from_set."""
    covered = 0
    for u, v in edges:
        if (from_set >> u) & 1 and (into_set >> v) & 1:
            covered |= 1 << u
        elif (from_set >> v) & 1 and (into_set >> u) & 1:
            covered |= 1 << v
        else:
            return False
    return covered == from_set


def check_poly_fields(ref: Reference, n, m, mu, deficiency, d, alpha_c, is_ke) -> list[str]:
    """Checks shared by JSON and CSV: the matching numbers and the KE verdict."""
    problems = []
    if (n, m) != (ref.n, ref.m):
        problems.append(f"n, m = {n}, {m}; input has {ref.n}, {ref.m}")
    if mu != ref.mu:
        problems.append(f"mu = {mu}; networkx finds {ref.mu}")
    if deficiency != ref.n - 2 * ref.mu:
        problems.append(f"def = {deficiency}, not n - 2 mu = {ref.n - 2 * ref.mu}")
    if d != ref.d:
        problems.append(f"d = {d}; double-cover matching gives {ref.d}")
    if not isinstance(alpha_c, int) or not ref.d <= alpha_c <= ref.n - ref.mu:
        problems.append(f"alpha_c = {alpha_c} outside [d, n - mu]")
    elif is_ke is not (alpha_c == ref.n - ref.mu):
        problems.append(f"is_ke = {is_ke} but alpha_c = {alpha_c}, n - mu = {ref.n - ref.mu}")
    if ref.bipartite and (is_ke is not True or alpha_c != ref.n - ref.mu):
        problems.append(
            f"bipartite input reported with is_ke = {is_ke}, alpha_c = {alpha_c}; "
            f"Koenig gives KE with alpha_c = n - mu = {ref.n - ref.mu}"
        )
    return problems


def check_report(adj, ref: Reference, text: str, name: str, exact: bool) -> tuple[list[str], dict]:
    """Check one `analyze` JSON report against the input graph.

    Returns (problems, facts); facts holds is_ke, gated and alpha.
    """
    try:
        r = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], {}
    if not isinstance(r, dict):
        return ["report is not a JSON object"], {}
    problems: list[str] = []
    try:
        _check_report(adj, ref, r, name, exact, problems)
        facts = {k: r[k] for k in ("is_ke", "gated", "alpha")}
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks or mistypes a field: {exc!r}")
        facts = {}
    return problems, facts


def _check_report(adj, ref: Reference, r: dict, name: str, exact: bool, problems: list[str]):
    n = ref.n
    problems += check_poly_fields(
        ref, r["n"], r["m"], r["mu"], r["def"], r["d"], r["alpha_c"], r["is_ke"]
    )
    if r["name"] != name:
        problems.append(f"name = {r['name']!r}, expected {name!r}")
    cert = r["certificates"]
    s = _vertex_set(cert["max_critical_set"], n, "max_critical_set", problems)
    if s is not None:
        nb = _neighbourhood(adj, s)
        if not _independent(adj, s):
            problems.append("max_critical_set is not independent")
        if s.bit_count() != r["alpha_c"]:
            problems.append("max_critical_set size differs from alpha_c")
        if s.bit_count() - nb.bit_count() != ref.d:
            problems.append("max_critical_set does not attain d")
        hall = _matching(adj, cert["hall_matching"], "hall_matching", problems)
        if hall is not None and not _saturates_into(hall, nb, s):
            problems.append("hall_matching does not match N(S) into S")

    mis = None
    if r["is_ke"]:
        w = cert["ke_witness"]
        mis = _vertex_set(w["independent_set"], n, "ke_witness set", problems)
        mm = _matching(adj, w["matching"], "ke_witness matching", problems)
        if mis is not None:
            if not _independent(adj, mis):
                problems.append("ke_witness set is not independent")
            if mis.bit_count() != n - ref.mu:
                problems.append("ke_witness set size is not n - mu")
            if mm is not None and (
                len(mm) != ref.mu or not _saturates_into(mm, ((1 << n) - 1) & ~mis, mis)
            ):
                problems.append("ke_witness matching does not match V - S into S")
    else:
        w = cert["non_ke_witness"]
        if (w["alpha_c"], w["mu"], w["n"]) != (r["alpha_c"], ref.mu, n):
            problems.append("non_ke_witness disagrees with the report")
        if exact:
            mis = _vertex_set(w["non_critical_mis"], n, "non_critical_mis", problems)
            if mis is not None:
                if not _independent(adj, mis):
                    problems.append("non_critical_mis is not independent")
                if mis.bit_count() != r["alpha"]:
                    problems.append("non_critical_mis size is not alpha")
                if mis.bit_count() - _neighbourhood(adj, mis).bit_count() >= ref.d:
                    problems.append("non_critical_mis is critical on a NotKE graph")

    if not exact:
        if not r["gated"] or any(r[k] is not None for k in ("alpha", "core", "n_core", "chain")):
            problems.append("exact fields present on a size-gated report")
        return

    a = r["alpha"]
    if r["gated"] or not isinstance(a, int):
        problems.append("exact fields missing under --force")
        return
    if not r["alpha_c"] <= a <= n - ref.mu:
        problems.append(f"alpha = {a} outside [alpha_c, n - mu]")
    if r["is_ke"] is not (a == n - ref.mu):
        problems.append(f"is_ke = {r['is_ke']} but alpha + mu - n = {a + ref.mu - n}")
    core = _vertex_set(r["core"], n, "core", problems)
    ncore = _vertex_set(r["n_core"], n, "n_core", problems)
    if core is not None and ncore is not None:
        if ncore != _neighbourhood(adj, core):
            problems.append("n_core is not N(core)")
        if mis is not None and core & ~mis:
            problems.append("core is not inside a maximum independent set")
        chain = r["chain"]
        want = {
            "d": ref.d,
            "core_surplus": core.bit_count() - ncore.bit_count(),
            "alpha_minus_mu": a - ref.mu,
            "def": n - 2 * ref.mu,
        }
        if any(chain[k] != v for k, v in want.items()):
            problems.append(f"chain {chain} disagrees with {want}")
        holds = len(set(want.values())) == 1
        if chain["chain_holds"] is not holds:
            problems.append("chain_holds disagrees with the chain values")
        if r["is_ke"] and not holds:
            problems.append("equality chain fails on a KE graph")


def _cell_int(cell: str):
    return int(cell) if cell.lstrip("-").isdigit() else cell


def check_batch(graphs, refs, stdout: str, stderr: str) -> tuple[list[str], dict]:
    """Check the CSV of one `batch --poly-only` call over *graphs*, in order.

    Returns (problems, facts); facts holds the number of KE rows.
    """
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["batch output lacks the CSV header"], {}
    if stderr.strip():
        return [f"batch reported line errors: {stderr.strip()[:200]}"], {}
    rows, summary = lines[1:-1], lines[-1] if len(lines) > 1 else ""
    if len(rows) != len(graphs):
        return [f"{len(rows)} rows for {len(graphs)} input lines"], {}
    problems = []
    ke = 0
    for g, ref, row in zip(graphs, refs, rows):
        cells = row.split(",")
        if len(cells) != 12:
            problems.append(f"{g.gid}: malformed row {row!r}")
            continue
        name, n, m, a, mu, de, d, ac, cs, ncs, is_ke, ch = map(_cell_int, cells)
        if name != g.text:
            problems.append(f"{g.gid}: row out of order or misnamed")
        if (a, cs, ncs, ch) != ("", "", "", ""):
            problems.append(f"{g.gid}: exact fields present under --poly-only")
        if is_ke not in ("true", "false"):
            problems.append(f"{g.gid}: is_ke = {is_ke!r}")
            continue
        ke += is_ke == "true"
        problems += [
            f"{g.gid}: {p}"
            for p in check_poly_fields(ref, n, m, mu, de, d, ac, is_ke == "true")
        ]
    want = f"#summary total={len(graphs)} ke={ke} chain_holds_non_ke=0 other={len(graphs) - ke}"
    if summary != want:
        problems.append(f"summary {summary!r}, expected {want!r}")
    return problems, {"ke": ke}
