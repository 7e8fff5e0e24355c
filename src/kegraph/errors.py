"""Exception types shared across the package."""


class KegraphError(Exception):
    """Base class for all kegraph errors."""


class ParseError(KegraphError):
    """Base class for input-format errors (graph6 and edge lists)."""


class InvalidCharError(ParseError):
    """A graph6 body byte falls outside the printable range 63..126."""


class TruncatedError(ParseError):
    """A graph6 record ends before the adjacency bits are complete."""


class TrailingDataError(ParseError):
    """Extra bytes follow a complete graph6 record."""


class NOverflowError(ParseError):
    """Declared vertex count exceeds the configured parsing maximum."""


class SelfLoopError(ParseError):
    """An edge joins a vertex to itself."""


class UnknownVertexError(ParseError):
    """An edge endpoint is not among the declared vertices."""


class MalformedError(ParseError):
    """An edge-list line does not match the expected syntax."""


class UnknownNameError(KegraphError):
    """Unrecognized fixture name."""


class BadParamsError(KegraphError):
    """Invalid parameters for a graph family generator."""


class TooLargeError(KegraphError):
    """Input exceeds a size gate (exact solver or brute-force oracle)."""


class NotBipartiteError(KegraphError):
    """A supplied two-coloring is violated by some edge."""


class NotIndependentError(KegraphError):
    """A vertex set expected to be independent spans an edge."""


class NotKEError(KegraphError):
    """An operation requiring a Konig-Egervary graph was given one that is not."""


class TruncatedOmegaError(KegraphError):
    """A verifier demanded an exhaustive stream of maximum independent sets
    but the enumeration hit its cap."""


class ContractViolationError(KegraphError):
    """An internal runtime contract failed; indicates a defect, never bad input."""


class ConstructionFailedError(ContractViolationError):
    """The critical-set construction produced a non-conforming set."""


class DuplicateEdgeWarning(UserWarning):
    """Duplicate edges in an edge list were collapsed."""
