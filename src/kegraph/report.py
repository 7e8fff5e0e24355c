"""Per-graph analysis records: assembly, JSON round-tripping, CSV rows.

Polynomial quantities (mu, deficiency, d, alpha_c, the KE verdict and its
certificates) are always computed. Fields that need the exact solver (alpha,
core, the equality chain) are computed only within the size gate, otherwise
reported as null with ``gated: true``. On a KE graph those fields take no
search: alpha and its lex-least witness are the critical witness, and the
core comes from the 2-SAT of the minimum vertex covers (``ke_core``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from . import koenig, oracle
from .critical import ke_core, max_critical_independent_set
from .errors import ContractViolationError
from .graph import Graph, neighborhood
from .independence import DEFAULT_EXACT_LIMIT, AlphaResult, alpha, core
from .matching import maximum_matching

__all__ = ["AnalysisReport", "analyze_graph", "CSV_COLUMNS", "csv_row"]

CSV_COLUMNS = (
    "name", "n", "m", "alpha", "mu", "def", "d", "alpha_c",
    "core_size", "ncore_size", "is_ke", "chain_holds",
)


@dataclass
class AnalysisReport:
    name: str
    n: int
    m: int
    mu: int
    deficiency: int
    d: int
    alpha_c: int
    is_ke: bool
    alpha: int | None = None
    core: list[str] | None = None
    n_core: list[str] | None = None
    chain: dict[str, Any] | None = None
    certificates: dict[str, Any] = field(default_factory=dict)
    gated: bool = False
    oracle_checked: bool = False
    timing_ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "mu": self.mu,
            "def": self.deficiency,
            "d": self.d,
            "alpha_c": self.alpha_c,
            "core": self.core,
            "n_core": self.n_core,
            "is_ke": self.is_ke,
            "chain": self.chain,
            "certificates": self.certificates,
            "gated": self.gated,
            "oracle_checked": self.oracle_checked,
            "timing_ms": self.timing_ms,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> AnalysisReport:
        return cls(
            name=d["name"],
            n=d["n"],
            m=d["m"],
            mu=d["mu"],
            deficiency=d["def"],
            d=d["d"],
            alpha_c=d["alpha_c"],
            is_ke=d["is_ke"],
            alpha=d["alpha"],
            core=d["core"],
            n_core=d["n_core"],
            chain=d["chain"],
            certificates=d["certificates"],
            gated=d["gated"],
            oracle_checked=d["oracle_checked"],
            timing_ms=d["timing_ms"],
        )

    @classmethod
    def from_json(cls, text: str) -> AnalysisReport:
        return cls.from_dict(json.loads(text))


def csv_row(r: AnalysisReport) -> str:
    def cell(v: Any) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    chain_holds = r.chain["chain_holds"] if r.chain else None
    return ",".join(
        cell(v)
        for v in (
            r.name, r.n, r.m, r.alpha, r.mu, r.deficiency, r.d, r.alpha_c,
            len(r.core) if r.core is not None else None,
            len(r.n_core) if r.n_core is not None else None,
            r.is_ke, chain_holds,
        )
    )


def analyze_graph(
    g: Graph,
    name: str = "",
    *,
    exact_limit: int | None = DEFAULT_EXACT_LIMIT,
    force: bool = False,
    with_oracle: bool = False,
    poly_only: bool = False,
) -> AnalysisReport:
    """Assemble the full record for one graph.

    ``force`` lifts the exact-solver gate; ``poly_only`` skips the exact
    fields regardless of size; ``with_oracle`` cross-checks every main-path
    quantity against brute force (within the oracle's own gates) and raises
    ContractViolationError on mismatch.
    """
    t0 = time.perf_counter()
    mu_matching = maximum_matching(g)
    mu = mu_matching.size
    witness = max_critical_independent_set(g, mu_matching)
    d = witness.value
    cert = koenig.certificate_from_parts(g, witness, mu)

    report = AnalysisReport(
        name=name,
        n=g.n,
        m=g.m,
        mu=mu,
        deficiency=g.n - 2 * mu,
        d=d,
        alpha_c=witness.set.bit_count(),
        is_ke=cert.is_ke,
    )
    report.certificates["hall_matching"] = _edge_labels(g, witness.hall_matching.edges)
    report.certificates["max_critical_set"] = g.labels_of(witness.set)
    if cert.is_ke:
        report.certificates["ke_witness"] = {
            "independent_set": g.labels_of(cert.ke_witness.independent_set),
            "matching": _edge_labels(g, cert.ke_witness.matching.edges),
        }
    else:
        w = cert.non_ke_witness
        report.certificates["non_ke_witness"] = {
            "alpha_c": w.alpha_c,
            "mu": w.mu,
            "n": w.n,
        }

    exact_ok = not poly_only and (force or exact_limit is None or g.n <= exact_limit)
    c = None
    if exact_ok:
        if cert.is_ke:
            # Every maximum independent set of a KE graph is critical, so the
            # lex-least critical witness is the lex-least alpha witness.
            a = AlphaResult(witness.set.bit_count(), witness.set)
            c = ke_core(g, mu_matching, witness.set)
        else:
            limit = None if force else exact_limit
            a = alpha(g, limit)
            c = core(g, limit, alpha_result=a)
            # Any maximum independent set is non-critical on a NotKE graph.
            report.certificates["non_ke_witness"]["non_critical_mis"] = g.labels_of(
                a.witness
            )
        report.alpha = a.value
        report.core = g.labels_of(c)
        report.n_core = g.labels_of(neighborhood(g, c))
        chain = koenig.chain_from_parts(g, d, c, a.value, mu, cert.is_ke)
        report.chain = {
            "d": chain.d,
            "core_surplus": chain.core_surplus,
            "alpha_minus_mu": chain.alpha_minus_mu,
            "def": chain.deficiency,
            "chain_holds": chain.chain_holds,
        }
    else:
        report.gated = True

    if with_oracle:
        _cross_check(g, report, c)
        report.oracle_checked = True

    report.timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return report


def _edge_labels(g: Graph, edges: tuple[tuple[int, int], ...]) -> list[list[str]]:
    return [[g.label_of(u), g.label_of(v)] for u, v in edges]


def _cross_check(g: Graph, report: AnalysisReport, core_set: int | None) -> None:
    problems = oracle.disagreements(
        g, mu=report.mu, d=report.d, alpha_c=report.alpha_c, alpha=report.alpha, core=core_set
    )
    if problems:
        raise ContractViolationError(
            f"oracle disagrees with main path on: {', '.join(problems)}"
        )
