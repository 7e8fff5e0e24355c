import random

import pytest
from hypothesis import given, settings, strategies as st

from kegraph import (
    DuplicateEdgeWarning,
    Graph,
    InvalidCharError,
    MalformedError,
    NOverflowError,
    ParseError,
    SelfLoopError,
    TrailingDataError,
    TruncatedError,
    UnknownVertexError,
    emit_graph6,
    generate,
    parse_edge_list,
    parse_graph6,
    random_graph,
    vset,
)
from kegraph import formats

# Hand-encoded reference records: one byte n+63, then the upper-triangle
# bits x(0,1), x(0,2), x(1,2), ... packed 6 per byte, each byte offset 63.
K2_G6 = "A_"        # n=2, bits 1         -> 100000 -> 32+63 = 95 = '_'
TWO_ISOLATED = "A?"  # n=2, bits 0         -> 63 = '?'
K3_G6 = "Bw"        # n=3, bits 111       -> 111000 -> 56+63 = 119 = 'w'


def test_parse_k2():
    g = parse_graph6(K2_G6)
    assert g.n == 2 and g.m == 1 and g.has_edge(0, 1)


def test_parse_two_isolated_vertices():
    g = parse_graph6(TWO_ISOLATED)
    assert g.n == 2 and g.m == 0


def test_parse_triangle():
    g = parse_graph6(K3_G6)
    assert g.n == 3 and g.m == 3


def test_emit_k2():
    assert emit_graph6(generate("complete", 2)) == K2_G6


def test_emit_empty_graph():
    assert emit_graph6(generate("empty", 0)) == "?"


def test_emit_triangle():
    assert emit_graph6(generate("complete", 3)) == K3_G6


def test_header_accepted():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_trailing_newline_accepted():
    assert parse_graph6("A_\n") == parse_graph6("A_")
    assert parse_graph6(b"Bw\r\n").m == 3


def test_trailing_data_rejected():
    with pytest.raises(TrailingDataError):
        parse_graph6("A_?")


def test_truncated_rejected():
    with pytest.raises(TruncatedError):
        parse_graph6("A")
    with pytest.raises(TruncatedError):
        parse_graph6("")


def test_invalid_body_byte_rejected():
    with pytest.raises(InvalidCharError):
        parse_graph6(b"B\xc8")
    with pytest.raises(InvalidCharError):
        parse_graph6(b"B>")


def test_invalid_body_byte_names_the_first_bad_byte():
    # n=6: a 3-byte body whose first byte is valid and set.
    with pytest.raises(InvalidCharError, match="byte 32 "):
        parse_graph6(b"E_ \x7f")


def test_padding_bits_are_ignored():
    # n=2 has 1 body bit and 5 padding bits; n=3 has 3 and 3.
    assert parse_graph6("A" + chr(63 + 0b011111)) == generate("empty", 2)
    assert parse_graph6("A" + chr(63 + 0b111111)) == generate("complete", 2)
    assert parse_graph6("B" + chr(63 + 0b111111)) == generate("complete", 3)
    # n=50 has 1225 body bits and 5 padding bits, read by the dense decoder.
    g = random_graph(random.Random(50), 50, 0.5)
    text = emit_graph6(g)
    padded = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 0b11111))
    assert padded != text and parse_graph6(padded) == g


def test_dense_body_errors_name_the_first_bad_byte_and_the_length():
    # n=50: one head byte and a 205-byte body that the dense decoder reads.
    raw = emit_graph6(random_graph(random.Random(50), 50, 0.5)).encode("ascii")
    head, body = raw[:1], raw[1:]
    bad = body[:100] + b" " + body[101:150] + b"\x7f" + body[151:]
    with pytest.raises(InvalidCharError, match="byte 32 "):
        parse_graph6(head + bad)
    with pytest.raises(TruncatedError, match="has 204 bytes, needs 205 for n=50"):
        parse_graph6(head + body[:-1])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 62, 63, 64, 200, 1000])
def test_dense_and_sparse_decoders_agree(n, monkeypatch):
    dense, sparse = formats._dense_masks, formats._sparse_masks
    taken = []
    monkeypatch.setattr(formats, "_dense_masks", lambda *a: taken.append("dense") or dense(*a))
    monkeypatch.setattr(formats, "_sparse_masks", lambda *a: taken.append("sparse") or sparse(*a))
    rng = random.Random(n)
    for p in (0.02, 0.5, 0.9):
        g = random_graph(rng, n, p)
        text = emit_graph6(g)
        body = text[1 if n <= 62 else 4:].encode("ascii")
        assert dense(body, n) == sparse(body, n, n * (n - 1) // 2) == list(g.adj)
        taken.clear()
        assert parse_graph6(text) == g
        if n < 2 or p == 0.02:
            assert taken == ["sparse"]
        elif p == 0.9:
            assert taken == ["dense"]


def _graph6_bit_by_bit(g: Graph) -> str:
    """Reference encoder: one body bit at a time, column by column."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    acc = nacc = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | int(g.has_edge(u, v))
            nacc += 1
            if nacc == 6:
                out.append(63 + acc)
                acc = nacc = 0
    if nacc:
        out.append(63 + (acc << (6 - nacc)))
    return bytes(out).decode("ascii")


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 1000])
def test_graph6_bytes_and_roundtrip_at_boundary_sizes(n):
    rng = random.Random(n)
    for p in (0.0, 0.01, 0.5, 1.0):
        g = random_graph(rng, n, p)
        text = emit_graph6(g)
        assert text == _graph6_bit_by_bit(g)
        assert parse_graph6(text) == g


def _long_count(n: int) -> bytes:
    """The 8-byte graph6 vertex count of *n*, with no body."""
    return bytes([126, 126] + [63 + ((n >> s) & 63) for s in range(30, -1, -6)])


def test_n_overflow_gate():
    # The gate admits 10**6 but not more (2e6 needs the 8-byte form).
    with pytest.raises(NOverflowError):
        parse_graph6(_long_count(2 * 10**6))
    # Exactly 10**6 passes the count gate and stops at the missing body.
    with pytest.raises(TruncatedError, match="needs .* for n=1000000$"):
        parse_graph6(_long_count(10**6))


def test_non_ascii_text_is_an_invalid_char():
    with pytest.raises(InvalidCharError):
        parse_graph6("A\u00e9")


def test_long_form_n63_roundtrip():
    g = generate("path", 63)
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_single_vertex():
    assert emit_graph6(generate("empty", 1)) == "@"
    assert parse_graph6("@").n == 1


def test_roundtrip_random_graphs():
    rng = random.Random(4242)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 60), rng.random())
        assert parse_graph6(emit_graph6(g)) == g


def test_roundtrip_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 30), rng.random())
        ours = emit_graph6(g)
        theirs = nx.to_graph6_bytes(
            nx.from_edgelist(g.edges(), nx.Graph()) if g.m else nx.empty_graph(g.n),
            header=False,
        ).strip().decode()
        if g.m:  # from_edgelist drops isolated vertices; rebuild exactly
            gx = nx.Graph()
            gx.add_nodes_from(range(g.n))
            gx.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(gx, header=False).strip().decode()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == g.n and back.number_of_edges() == g.m


# --- edge lists ---


def test_edge_list_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2 and g.has_edge(0, 1) and g.has_edge(1, 2)


def test_edge_list_h3_fixture_file():
    text = """
    # H3: three path vertices plus two pendants
    c1 c2
    c2 c3
    c1 d1
    c2 d2
    c3 d2
    """
    g = parse_edge_list(text)
    assert g.n == 5 and g.m == 5
    assert set(g.labels) == {"c1", "c2", "c3", "d1", "d2"}
    assert g.has_edge(g.index_of("c1"), g.index_of("d1"))


def test_edge_list_self_loop():
    with pytest.raises(SelfLoopError):
        parse_edge_list("0 0")
    with pytest.raises(SelfLoopError):
        parse_edge_list("a a")


def test_edge_list_duplicates_collapse_with_warning():
    with pytest.warns(DuplicateEdgeWarning):
        g = parse_edge_list("0 1\n1 0\n0 1")
    assert g.m == 1


def test_edge_list_vertices_header_with_names():
    g = parse_edge_list("vertices: a b c loner\na b\nb c")
    assert g.n == 4 and g.m == 2
    assert g.labels == ("a", "b", "c", "loner")
    assert g.degree(g.index_of("loner")) == 0


def test_edge_list_vertices_header_with_count():
    g = parse_edge_list("vertices: 5\n0 1")
    assert g.n == 5 and g.m == 1


def test_edge_list_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        parse_edge_list("vertices: 3\n0 3")
    with pytest.raises(UnknownVertexError):
        parse_edge_list("vertices: a b\na c")


def test_edge_list_malformed():
    with pytest.raises(MalformedError):
        parse_edge_list("0 1 2")
    with pytest.raises(MalformedError):
        parse_edge_list("0 1\nvertices: 4")  # header after edges
    with pytest.raises(MalformedError):
        parse_edge_list("vertices: 4\nvertices: 5")


def test_edge_list_labels_in_first_appearance_order():
    g = parse_edge_list("x y\nz x")
    assert g.labels == ("x", "y", "z")
    assert g.vset_of(["x"]) == vset([0])


def test_edge_list_mixed_numeric_and_label_tokens_are_all_labels():
    g = parse_edge_list("0 a\n1 a")
    assert g.labels == ("0", "a", "1")
    assert g.n == 3 and g.m == 2
    assert g.has_edge(g.index_of("0"), g.index_of("a"))
    assert g.has_edge(g.index_of("1"), g.index_of("a"))


def test_edge_list_empty_input_is_empty_graph():
    g = parse_edge_list("# nothing\n\n")
    assert g.n == 0 and isinstance(g, Graph)


def test_edge_list_non_ascii_digits_are_labels():
    # str.isdigit accepts superscript digits, which int() rejects.
    g = parse_edge_list("\u00b9 \u00b2")
    assert g.labels == ("\u00b9", "\u00b2") and g.m == 1
    g = parse_edge_list("vertices: \u00b2")
    assert g.labels == ("\u00b2",) and g.n == 1


def test_edge_list_vertex_count_gate():
    with pytest.raises(NOverflowError):
        parse_edge_list("vertices: 1000001")
    with pytest.raises(NOverflowError):
        parse_edge_list("0 1000000")  # n = 10**6 + 1
    with pytest.raises(NOverflowError):
        parse_edge_list("0 1000000000")
    with pytest.raises(NOverflowError):
        parse_edge_list("0 " + "9" * 5000)  # past int()'s digit limit
    assert parse_edge_list("0001 0").n == 2


@given(st.one_of(st.binary(max_size=64), st.text(max_size=64)))
@settings(max_examples=300, deadline=None)
def test_parse_graph6_raises_only_parse_errors(data):
    try:
        assert isinstance(parse_graph6(data), Graph)
    except ParseError:
        pass


@given(st.text(max_size=64))
@settings(max_examples=300, deadline=None)
def test_parse_edge_list_raises_only_parse_errors(text):
    try:
        assert isinstance(parse_edge_list(text), Graph)
    except ParseError:
        pass
