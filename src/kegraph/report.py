"""Per-graph analysis records (assembly, JSON round-tripping, CSV rows) and
the equality chain d = |core| - |N(core)| = alpha - mu = n - 2 mu.

Polynomial quantities (mu, deficiency, d, alpha_c, the KE verdict and its
certificates) are always computed. Fields that need the exact solver (alpha,
core, the equality chain) are computed only within the size gate, otherwise
reported as null with ``gated: true``. On a KE graph those fields take no
search: alpha and its lex-least witness are the critical witness, and the
core comes from the 2-SAT of the minimum vertex covers (``ke_core``). The
library's ``equality_chain_report`` takes the same route.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Any

from . import koenig, oracle
from .critical import CriticalWitness, ke_core, max_critical_independent_set
from .errors import ContractViolationError
from .graph import Graph, neighborhood
from .independence import DEFAULT_EXACT_LIMIT, AlphaResult, _gate, alpha, core
from .matching import Matching, maximum_matching

__all__ = [
    "AnalysisReport", "analyze_graph", "CSV_COLUMNS", "csv_row",
    "EqualityChainReport", "equality_chain_report",
]

CSV_COLUMNS = (
    "name", "n", "m", "alpha", "mu", "def", "d", "alpha_c",
    "core_size", "ncore_size", "is_ke", "chain_holds",
)


# Report fields whose JSON key differs from the field name.
_JSON_KEYS = {"deficiency": "def"}


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
        return {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> AnalysisReport:
        return cls(**{f.name: d[_JSON_KEYS.get(f.name, f.name)] for f in fields(cls)})

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
    force: bool = False,
    with_oracle: bool = False,
    poly_only: bool = False,
) -> AnalysisReport:
    """Assemble the full record for one graph.

    Alpha, core and the chain are gated above DEFAULT_EXACT_LIMIT vertices;
    ``force`` lifts the gate; ``poly_only`` skips those fields regardless of
    size; ``with_oracle`` cross-checks every main-path quantity against brute
    force (within the oracle's own gates) and raises ContractViolationError
    on mismatch.
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

    exact_ok = not poly_only and (force or g.n <= DEFAULT_EXACT_LIMIT)
    c = None
    if exact_ok:
        a, c = _alpha_and_core(g, mu_matching, witness, cert.is_ke)
        if not cert.is_ke:
            # Any maximum independent set is non-critical on a NotKE graph.
            report.certificates["non_ke_witness"]["non_critical_mis"] = g.labels_of(
                a.witness
            )
        report.alpha = a.value
        report.core = g.labels_of(c)
        report.n_core = g.labels_of(neighborhood(g, c))
        chain = chain_from_parts(g, d, c, a.value, mu, cert.is_ke)
        report.chain = {
            _JSON_KEYS.get(f.name, f.name): getattr(chain, f.name)
            for f in fields(chain) if f.name != "is_ke"
        }
        report.chain["chain_holds"] = chain.chain_holds
    else:
        report.gated = True

    if with_oracle:
        _cross_check(g, report, c)
        report.oracle_checked = True

    report.timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return report


def _alpha_and_core(
    g: Graph, matching: Matching, witness: CriticalWitness, is_ke: bool
) -> tuple[AlphaResult, int]:
    """Alpha with its lex-least witness, and the core.

    Every maximum independent set of a KE graph is critical, so there the
    lex-least critical witness is the lex-least alpha witness, and the core
    is read off the cover 2-SAT over *matching*, a maximum matching.
    Other graphs take branch-and-bound, ungated: both callers gate first.
    """
    if is_ke:
        a = AlphaResult(witness.set.bit_count(), witness.set)
        return a, ke_core(g, matching, witness.set)
    a = alpha(g, None)
    return a, core(g, None, alpha_result=a)


@dataclass(frozen=True)
class EqualityChainReport:
    """The four quantities d, |core| - |N(core)|, alpha - mu, and n - 2*mu.

    They coincide on every KE graph; on other graphs the report is
    informational (each pattern of agreement does occur).
    """

    d: int
    core_surplus: int
    alpha_minus_mu: int
    deficiency: int
    is_ke: bool

    @property
    def chain_holds(self) -> bool:
        return self.d == self.core_surplus == self.alpha_minus_mu == self.deficiency

    def values(self) -> tuple[int, int, int, int]:
        return (self.d, self.core_surplus, self.alpha_minus_mu, self.deficiency)


def chain_from_parts(
    g: Graph, d: int, core_set: int, alpha_value: int, mu: int, is_ke: bool
) -> EqualityChainReport:
    """Build the chain from already-computed parts; a KE graph failing it is
    an internal defect."""
    report = EqualityChainReport(
        d=d,
        core_surplus=core_set.bit_count() - neighborhood(g, core_set).bit_count(),
        alpha_minus_mu=alpha_value - mu,
        deficiency=g.n - 2 * mu,
        is_ke=is_ke,
    )
    if report.is_ke and not report.chain_holds:
        raise ContractViolationError(
            f"equality chain broken on a KE graph: {report.values()}"
        )
    return report


def equality_chain_report(
    g: Graph, limit: int | None = DEFAULT_EXACT_LIMIT
) -> EqualityChainReport:
    """Evaluate the equality chain; a KE graph failing it is an internal defect.

    Every graph above *limit* raises TooLargeError, KE graphs too.
    """
    _gate(g.n, limit)
    matching, witness, cert = koenig._recognized(g)
    a, c = _alpha_and_core(g, matching, witness, cert.is_ke)
    return chain_from_parts(g, witness.value, c, a.value, matching.size, cert.is_ke)


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
