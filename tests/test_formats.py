import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_extremal import (
    FormatError,
    Graph,
    load_graph,
    random_graph,
    read_edge_list,
    read_graph6,
    save_graph,
    write_edge_list,
    write_graph6,
)
from clique_extremal.cli import main
from clique_extremal.limits import MAX_PARSE_N

from conftest import complete_graph


def reference_read_graph6(text: str) -> Graph:
    """The earlier per-bit decoder, kept as the reference: the whole body as
    one integer, shifted once per adjacency bit (quadratic in the bits).
    Takes well-formed input only."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if s[0] != "~":
        n, body = ord(s[0]) - 63, s[1:]
    else:
        vals = [ord(c) - 63 for c in s[1:4]]
        n, body = (vals[0] << 12) | (vals[1] << 6) | vals[2], s[4:]
    need = (n * (n - 1) // 2 + 5) // 6
    assert len(body) == need
    bits = 0
    for c in body:
        v = ord(c) - 63
        assert 0 <= v <= 63
        bits = bits << 6 | v
    total = need * 6
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> (total - 1 - pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, rows)


def test_edge_list_round_trip():
    for seed in range(10):
        g = random_graph(11, 0.5, seed)
        assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_comments_and_blanks_ignored():
    text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
    g = read_edge_list(text)
    assert g.num_edges == 2


def test_edge_list_errors():
    with pytest.raises(FormatError):
        read_edge_list("")
    with pytest.raises(FormatError):
        read_edge_list("3\n")
    with pytest.raises(FormatError):
        read_edge_list("3 2\n0 1\n")  # announces 2 edges, gives 1
    with pytest.raises(FormatError):
        read_edge_list("2 1\n0 0\n")  # self-loop
    with pytest.raises(FormatError):
        read_edge_list("2 1\n0 5\n")  # out of range
    with pytest.raises(FormatError):
        read_edge_list("2 1\n0 x\n")


def test_graph6_known_value():
    assert write_graph6(complete_graph(4)) == "C~"
    assert read_graph6("C~") == complete_graph(4)


def test_graph6_header_accepted():
    assert read_graph6(">>graph6<<C~") == complete_graph(4)


def test_graph6_round_trip_byte_exact():
    for seed in range(40):
        n = seed % 23 + 1
        g = random_graph(n, (seed % 10) / 10.0, seed)
        encoded = write_graph6(g)
        assert read_graph6(encoded) == g
        assert write_graph6(read_graph6(encoded)) == encoded


def test_graph6_three_byte_size_prefix():
    g = random_graph(80, 0.05, 3)
    encoded = write_graph6(g)
    assert encoded.startswith("~")
    assert read_graph6(encoded) == g


def test_graph6_matches_networkx():
    for seed in range(25):
        n = seed % 35 + 1
        g = random_graph(n, 0.4, seed)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert write_graph6(g) == theirs
        assert read_graph6(theirs) == g


def test_graph6_errors():
    with pytest.raises(FormatError):
        read_graph6("")
    with pytest.raises(FormatError):
        read_graph6("C~~")  # trailing junk
    with pytest.raises(FormatError):
        read_graph6("C")  # truncated body
    with pytest.raises(FormatError):
        read_graph6("C\x1c~")  # character below the offset


def test_graph6_size_prefix_is_range_checked_and_shortest(capsys, tmp_path):
    body = write_graph6(random_graph(64, 0.5, 3))[4:]
    assert read_graph6("~?@?" + body).n == 64
    bad = [
        chr(127) + body,  # a character above '~' (63 + 64)
        "~?\x7f?" + body,  # the same inside the four-character form
        "~?>?" + body,  # a character below '?'
        "~??}" + write_graph6(Graph(62, [0] * 62))[1:],  # n = 62 fits one character
        "~~????@?" + body,  # n = 64 fits four characters
    ]
    for text in bad:
        with pytest.raises(FormatError, match="size prefix"):
            read_graph6(text)
    path = tmp_path / "bad.g6"
    for text in bad[0], bad[4]:
        path.write_text(text + "\n", encoding="ascii")
        assert main(["count", "--input", str(path), "--format", "graph6"]) == 2
        assert "size prefix" in capsys.readouterr().err


def test_file_round_trip(tmp_path):
    g = random_graph(9, 0.6, 1)
    for fmt in ("edgelist", "graph6"):
        path = str(tmp_path / f"g.{fmt}")
        save_graph(g, path, fmt)
        assert load_graph(path, fmt) == g


@st.composite
def graph6_strings(draw):
    """Any well-formed graph6 string for n <= 130: both size-prefix widths,
    arbitrary body characters, so the padding bits are often nonzero."""
    n = draw(st.integers(0, 130))
    need = (n * (n - 1) // 2 + 5) // 6
    bits = draw(st.integers(0, (1 << 6 * need) - 1))
    prefix = write_graph6(Graph(n, [0] * n))[: 1 if n <= 62 else 4]
    return prefix + "".join(chr(63 + (bits >> 6 * k & 63)) for k in range(need))


@settings(max_examples=300, deadline=None)
@given(graph6_strings(), st.booleans())
def test_graph6_decoder_matches_per_bit_reference(encoded, header):
    text = (">>graph6<<" if header else "") + encoded + "\n"
    assert read_graph6(text) == reference_read_graph6(text)


def test_graph6_matches_networkx_at_800_vertices():
    g = random_graph(800, 0.5, 11)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(800))
    nxg.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert write_graph6(g) == theirs
    assert read_graph6(theirs) == g


def test_edge_list_header_beyond_parse_cap(capsys, tmp_path):
    with pytest.raises(FormatError, match="limited to"):
        read_edge_list("1000000000 0\n")
    with pytest.raises(FormatError):
        read_edge_list(f"{MAX_PARSE_N + 1} 0\n")
    assert read_edge_list("5 0\n").n == 5
    # a raised size guard does not move the parse cap
    path = tmp_path / "huge.el"
    path.write_text("1000000000 0\n", encoding="ascii")
    assert main(["params", "--input", str(path), "--approx", "--limit-n", str(10**12)]) == 2
    assert "limited to" in capsys.readouterr().err


def test_load_graph_rejects_non_ascii(tmp_path):
    path = tmp_path / "latin.el"
    path.write_bytes("2 1\n0 1 # caf\u00e9\n".encode("utf-8"))
    for fmt in ("edgelist", "graph6"):
        with pytest.raises(FormatError, match="not ASCII"):
            load_graph(str(path), fmt)


def test_unknown_format_is_rejected_before_any_file_work(tmp_path):
    with pytest.raises(FormatError, match="unknown graph format"):
        load_graph(str(tmp_path / "missing.el"), "dot")
    path = tmp_path / "out.dot"
    with pytest.raises(FormatError, match="unknown graph format"):
        save_graph(random_graph(5, 0.5, 0), str(path), "dot")
    assert not path.exists()
