"""Matching and independence invariants of simple graphs.

The package computes maximum matchings (blossom), exact independence numbers
at desk scale, critical differences and maximum critical independent sets in
polynomial time via the bipartite double cover, and recognizes
Konig-Egervary graphs (alpha + mu = n) with machine-checkable certificates.
Brute-force oracles back every main-path quantity in the test suite.
"""

from .errors import (
    BadParamsError,
    ConstructionFailedError,
    ContractViolationError,
    DuplicateEdgeWarning,
    InvalidCharError,
    KegraphError,
    MalformedError,
    NOverflowError,
    NotBipartiteError,
    NotIndependentError,
    NotKEError,
    ParseError,
    SelfLoopError,
    TooLargeError,
    TrailingDataError,
    TruncatedError,
    TruncatedOmegaError,
    UnknownNameError,
    UnknownVertexError,
)
from .graph import (
    Graph,
    bits,
    delete_closed_neighborhood,
    induced_subgraph,
    is_independent,
    lex_less,
    neighborhood,
    two_coloring,
    vset,
)
from .formats import emit_graph6, parse_edge_list, parse_graph6
from .fixtures import (
    FAMILIES,
    FIXTURE_NAMES,
    fixture,
    generate,
    random_bipartite_graph,
    random_graph,
)
from .matching import (
    HallViolation,
    Matching,
    deficiency,
    has_perfect_matching,
    maximum_bipartite_matching,
    maximum_matching,
    saturating_matching,
)
from .independence import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_OMEGA_CAP,
    AlphaResult,
    OmegaStream,
    alpha,
    collect_omega,
    core,
    enumerate_maximum_independent_sets,
    extends_to_maximum,
    is_local_max_independent_set,
)
from .critical import (
    CriticalWitness,
    bipartite_double_cover,
    critical_difference,
    max_critical_independent_set,
)
from .koenig import (
    CharacterizationRecord,
    KECertificate,
    KEWitness,
    NonKEWitness,
    StructureChecks,
    characterization_check,
    recognize_ke,
    structure_checks_ke,
)
from .report import (
    CSV_COLUMNS,
    AnalysisReport,
    EqualityChainReport,
    analyze_graph,
    csv_row,
    equality_chain_report,
)

__version__ = "0.1.0"
