"""Konig-Egervary recognition with certificates, and mechanical verifiers
for the structural facts this package is organized around.

A graph is Konig-Egervary (KE) when alpha + mu = n. Recognition runs the
polynomial route: alpha_c <= alpha <= n - mu holds always, so the verdict is
simply [alpha_c = n - mu], decided by matchings alone -- no exact solver.
A KE verdict ships a maximum independent set S together with a matching of
V - S into S saturating V - S; a NotKE verdict ships the arithmetic record
(alpha_c, mu, n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .critical import CriticalWitness, max_critical_independent_set
from .errors import ContractViolationError, NotKEError
from .graph import (
    Graph,
    delete_closed_neighborhood,
    neighborhood,
)
from .independence import DEFAULT_OMEGA_CAP, collect_omega
from .matching import Matching, maximum_matching

__all__ = [
    "KECertificate",
    "KEWitness",
    "NonKEWitness",
    "CharacterizationRecord",
    "StructureChecks",
    "recognize_ke",
    "characterization_check",
    "structure_checks_ke",
]


@dataclass(frozen=True)
class KEWitness:
    """S in Omega(G) plus a matching of V - S into S saturating V - S."""

    independent_set: int
    matching: Matching


@dataclass(frozen=True)
class NonKEWitness:
    """The arithmetic gap alpha_c < n - mu."""

    alpha_c: int
    mu: int
    n: int


@dataclass(frozen=True)
class KECertificate:
    is_ke: bool
    ke_witness: KEWitness | None = None
    non_ke_witness: NonKEWitness | None = None


def recognize_ke(g: Graph) -> KECertificate:
    """Decide KE-ness with a machine-checkable certificate."""
    return _recognized(g)[2]


def certificate_from_parts(g: Graph, witness: CriticalWitness, mu: int) -> KECertificate:
    """Build the certificate from an already-computed critical witness and mu."""
    alpha_c = witness.set.bit_count()
    if alpha_c == g.n - mu:
        s = witness.set
        rest = g.full_mask & ~s
        matching = witness.hall_matching
        if matching.saturated & rest != rest or matching.size != mu:
            raise ContractViolationError(
                "KE certificate matching fails to saturate V - S"
            )
        return KECertificate(is_ke=True, ke_witness=KEWitness(s, matching))
    return KECertificate(is_ke=False, non_ke_witness=NonKEWitness(alpha_c, mu, g.n))


def _recognized(g: Graph) -> tuple[Matching, CriticalWitness, KECertificate]:
    """One maximum matching, the critical witness over it, and the KE
    certificate of the two: d is the witness's value and mu the matching's
    size."""
    matching = maximum_matching(g)
    witness = max_critical_independent_set(g, matching)
    return matching, witness, certificate_from_parts(g, witness, matching.size)


@dataclass(frozen=True)
class CharacterizationRecord:
    """Three predicates that are equivalent for every graph: KE-ness, some
    maximum independent set critical, every maximum independent set critical."""

    is_ke: bool
    exists_critical_mis: bool
    all_mis_critical: bool
    witness: int | None  # first non-critical maximum independent set, if any

    @property
    def consistent(self) -> bool:
        return self.is_ke == self.exists_critical_mis == self.all_mis_critical


def characterization_check(g: Graph, cap: int = DEFAULT_OMEGA_CAP) -> CharacterizationRecord:
    """Quantify criticality over the full set of maximum independent sets.

    Requires untruncated enumeration (raises TruncatedOmegaError otherwise).
    """
    omega = collect_omega(g, cap)
    _matching, witness, cert = _recognized(g)
    d = witness.value
    exists = False
    witness = None
    all_critical = True
    for s in omega:
        surplus = s.bit_count() - neighborhood(g, s).bit_count()
        if surplus == d:
            exists = True
        else:
            all_critical = False
            if witness is None:
                witness = s
    return CharacterizationRecord(
        is_ke=cert.is_ke,
        exists_critical_mis=exists,
        all_mis_critical=all_critical,
        witness=witness,
    )


@dataclass(frozen=True)
class StructureChecks:
    """Structural facts that hold for every KE graph."""

    ncore_equals_complement_intersection: bool
    counting_identity_holds: bool
    residual_perfectly_matched: bool
    residual_is_ke: bool
    core: int
    ncore: int
    complement_intersection: int

    @property
    def all_hold(self) -> bool:
        return (
            self.ncore_equals_complement_intersection
            and self.counting_identity_holds
            and self.residual_perfectly_matched
            and self.residual_is_ke
        )


def structure_checks_ke(g: Graph, cap: int = DEFAULT_OMEGA_CAP) -> StructureChecks:
    """Verify, on a KE graph: (i) N(core) is the intersection of the
    complements of all maximum independent sets, (ii) alpha + |that set| =
    mu + |core|, (iii) G - N[core] has a perfect matching and is itself KE."""
    matching, _witness, cert = _recognized(g)
    if not cert.is_ke:
        w = cert.non_ke_witness
        raise NotKEError(f"alpha_c={w.alpha_c} < n - mu = {w.n - w.mu}; not KE")
    omega = collect_omega(g, cap)
    union = 0
    c = g.full_mask  # core: the intersection of all maximum independent sets
    for s in omega:
        union |= s
        c &= s
    complement_intersection = g.full_mask & ~union
    nc = neighborhood(g, c)
    a = omega[0].bit_count()
    residual = delete_closed_neighborhood(g, c)
    residual_matching, _witness, residual_cert = _recognized(residual)
    return StructureChecks(
        ncore_equals_complement_intersection=(nc == complement_intersection),
        counting_identity_holds=(
            a + complement_intersection.bit_count() == matching.size + c.bit_count()
        ),
        residual_perfectly_matched=(residual.n == 2 * residual_matching.size),
        residual_is_ke=residual_cert.is_ke,
        core=c,
        ncore=nc,
        complement_intersection=complement_intersection,
    )
