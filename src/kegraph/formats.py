"""graph6 codec and edge-list parsing.

graph6 layout: an optional ``>>graph6<<`` header, a vertex count N(n)
(one byte ``n+63`` for n <= 62, ``126`` plus 3 bytes holding 18 bits for
n <= 258047, else ``126 126`` plus 6 bytes holding 36 bits; 6 bits per byte,
each offset by 63), then the upper-triangle adjacency bits
x(0,1), x(0,2), x(1,2), x(0,3), ... packed 6 per byte, zero-padded.

A body is decoded one of two ways, chosen by its density. When fewer than a
quarter of its bytes are ``?`` (no bits set), it is expanded to a bit string
whose columns are read and transposed as strings; otherwise only its nonzero
bytes are visited, edge by edge.
"""

from __future__ import annotations

import re
import warnings
from math import isqrt

from .errors import (
    DuplicateEdgeWarning,
    InvalidCharError,
    MalformedError,
    NOverflowError,
    SelfLoopError,
    TrailingDataError,
    TruncatedError,
    UnknownVertexError,
)
from .graph import Graph

__all__ = ["parse_graph6", "emit_graph6", "parse_edge_list", "GRAPH6_HEADER"]

GRAPH6_HEADER = b">>graph6<<"
DEFAULT_MAX_N = 10**6

# Body bytes carry 6 bits each, offset by 63; "?" (63) carries none.
_BODY_BYTES = bytes(range(63, 127))
_DIGIT_BYTES = bytes((b + 63) % 256 for b in range(256))
_SET_BYTES = re.compile(rb"[^?]")
# The 6 bits of each body byte as a string, first bit first.
_BIT_STRINGS = tuple(format((b - 63) % 64, "06b") for b in range(256))


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 record into a Graph (labels unset).

    A single trailing newline is tolerated; any other surplus byte raises
    TrailingDataError. The decoded masks are correct by construction.
    """
    if isinstance(data, str) and not data.isascii():
        raise InvalidCharError("non-ASCII character in graph6 record")
    raw = data.encode("ascii") if isinstance(data, str) else bytes(data)
    if raw.startswith(GRAPH6_HEADER):
        raw = raw[len(GRAPH6_HEADER):]
    raw = raw.rstrip(b"\r\n")
    if not raw:
        raise TruncatedError("empty graph6 record")

    n, pos = _read_n(raw)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = raw[pos:pos + nbytes]
    if len(body) < nbytes:
        raise TruncatedError(
            f"graph6 body has {len(body)} bytes, needs {nbytes} for n={n}"
        )
    if len(raw) > pos + nbytes:
        raise TrailingDataError(
            f"{len(raw) - pos - nbytes} unexpected bytes after graph6 record"
        )

    bad = body.translate(None, _BODY_BYTES)
    if bad:
        raise InvalidCharError(f"byte {bad[0]} outside graph6 range 63..126")

    if 4 * body.count(b"?") < len(body):
        adj = _dense_masks(body, n)
    else:
        adj = _sparse_masks(body, n, nbits)
    return Graph._trusted(adj)


def _dense_masks(body: bytes, n: int) -> list[int]:
    """Neighbour masks by columns: column v of the body's bit string, bits
    v(v-1)/2 .. v(v+1)/2 - 1, holds x(0, v) .. x(v - 1, v). Padding bits
    lie past the last column and are never read."""
    s = "".join(map(_BIT_STRINGS.__getitem__, body))
    cols = [s[v * (v - 1) // 2:v * (v + 1) // 2] for v in range(n)]
    # Below v: column v read backwards. Above u: entry u of every column,
    # zero-padded to n, read from column n - 1 down.
    upper = zip(*[c.ljust(n, "0") for c in reversed(cols)])
    return [int(c[::-1] or "0", 2) | int("".join(r), 2) for c, r in zip(cols, upper)]


def _sparse_masks(body: bytes, n: int, nbits: int) -> list[int]:
    """Neighbour masks edge by edge, visiting only the nonzero body bytes."""
    adj = [0] * n
    for hit in _SET_BYTES.finditer(body):
        i = hit.start()
        x = body[i] - 63
        while x:
            top = x.bit_length() - 1
            x ^= 1 << top
            k = 6 * i + 5 - top
            if k >= nbits:
                break  # padding
            v = (1 + isqrt(8 * k + 1)) // 2
            u = k - v * (v - 1) // 2
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def _read_n(raw: bytes) -> tuple[int, int]:
    if raw[0] != 126:
        n, pos = raw[0] - 63, 1
        if not 0 <= n <= 62:
            raise InvalidCharError(f"byte {raw[0]} cannot start a graph6 record")
    elif len(raw) >= 2 and raw[1] == 126:
        n, pos = _read_groups(raw, 2, 6), 8
    else:
        n, pos = _read_groups(raw, 1, 3), 4
    if n > DEFAULT_MAX_N:
        raise NOverflowError(f"graph6 vertex count {n} exceeds maximum {DEFAULT_MAX_N}")
    return n, pos


def _read_groups(raw: bytes, start: int, count: int) -> int:
    if len(raw) < start + count:
        raise TruncatedError("graph6 record ends inside its vertex count")
    n = 0
    for b in raw[start:start + count]:
        if not 63 <= b <= 126:
            raise InvalidCharError(f"byte {b} inside vertex count")
        n = (n << 6) | (b - 63)
    return n


def emit_graph6(g: Graph) -> str:
    """Encode adjacency as canonical graph6: no header, minimal-length N(n)."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    elif n <= 68719476735:
        head = bytes([126, 126] + [63 + ((n >> s) & 63) for s in range(30, -1, -6)])
    else:
        raise NOverflowError(f"vertex count {n} not representable in graph6")

    # Bit k of the body is x(u, v) for k = v(v - 1)/2 + u, 6 bits per byte
    # with the first bit highest.
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v in range(1, n):
        base = v * (v - 1) // 2
        col = g.adj[v] & ((1 << v) - 1)  # neighbors u < v
        while col:
            low = col & -col
            k = base + low.bit_length() - 1
            body[k // 6] |= 32 >> (k % 6)
            col ^= low
    return (head + body.translate(_DIGIT_BYTES)).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse a human-readable edge list into a labeled Graph.

    Each non-blank line holds one edge ``u v``; ``#`` starts a comment. An
    optional ``vertices:`` line (before any edge) declares the vertex set:
    either a single integer count or the full list of vertex names, which
    also fixes the index order and admits isolated vertices. Without it,
    vertices are inferred from edges -- all-numeric tokens are treated as
    0-based indices, anything else as labels in order of first appearance.

    Duplicate edges collapse with a DuplicateEdgeWarning; self-loops raise.
    """
    declared: list[str] | None = None
    declared_count: int | None = None
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("vertices:"):
            if pairs or declared is not None or declared_count is not None:
                raise MalformedError(
                    f"line {lineno}: vertices: header must precede edges and be unique"
                )
            fields = stripped[len("vertices:"):].split()
            if len(fields) == 1 and _is_index(fields[0]):
                declared_count = _index_value(fields[0])
            elif fields:
                if len(set(fields)) != len(fields):
                    raise MalformedError(f"line {lineno}: repeated vertex name")
                declared = fields
            else:
                raise MalformedError(f"line {lineno}: empty vertices: header")
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise MalformedError(
                f"line {lineno}: expected 'u v', got {stripped!r}"
            )
        if fields[0] == fields[1]:
            raise SelfLoopError(f"line {lineno}: self-loop at {fields[0]!r}")
        pairs.append((fields[0], fields[1]))

    if declared is not None:
        index = {name: i for i, name in enumerate(declared)}
        n = len(declared)
        labels: tuple[str, ...] | None = tuple(declared)

        def resolve(tok: str) -> int:
            if tok not in index:
                raise UnknownVertexError(f"vertex {tok!r} not declared")
            return index[tok]

    elif declared_count is not None or all(
        _is_index(t) for uv in pairs for t in uv
    ):
        n = declared_count if declared_count is not None else (
            max((_index_value(t) for uv in pairs for t in uv), default=-1) + 1
        )
        if n > DEFAULT_MAX_N:
            raise NOverflowError(f"edge-list vertex count {n} exceeds {DEFAULT_MAX_N}")
        labels = None

        def resolve(tok: str) -> int:
            if not _is_index(tok):
                raise MalformedError(f"vertex {tok!r} is not an index")
            v = _index_value(tok)
            if v >= n:
                raise UnknownVertexError(f"vertex index {v} >= declared n={n}")
            return v

    else:
        order: dict[str, int] = {}
        for u, v in pairs:
            order.setdefault(u, len(order))
            order.setdefault(v, len(order))
        n = len(order)
        labels = tuple(order)

        def resolve(tok: str) -> int:
            return order[tok]

    adj = [0] * n
    dupes = 0
    for u_tok, v_tok in pairs:
        u, v = resolve(u_tok), resolve(v_tok)
        if (adj[u] >> v) & 1:
            dupes += 1
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if dupes:
        warnings.warn(
            f"collapsed {dupes} duplicate edge(s)", DuplicateEdgeWarning, stacklevel=2
        )
    return Graph.from_adjacency(adj, labels)


def _is_index(tok: str) -> bool:
    """Vertex indices and counts are ASCII digit strings only."""
    return tok.isascii() and tok.isdigit()


def _index_value(tok: str) -> int:
    """An index token's value, capped like a graph6 vertex count; int() sees
    at most one digit more than the cap has, never a huge digit string."""
    value = int(tok.lstrip("0")[:len(str(DEFAULT_MAX_N)) + 1] or "0")
    if value > DEFAULT_MAX_N:
        raise NOverflowError(f"edge-list number {tok[:20]} exceeds {DEFAULT_MAX_N}")
    return value
