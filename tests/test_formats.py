import random
import tracemalloc
from itertools import accumulate

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_extremal import (
    FormatError,
    Graph,
    load_graph,
    matching_complement,
    random_graph,
    read_edge_list,
    read_graph6,
    write_edge_list,
    write_graph6,
)
from clique_extremal import formats
from clique_extremal.cli import main
from clique_extremal.formats import _CHUNK, _decode_size, _encode_size
from clique_extremal.graph import _square_rows
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


def reference_read_edge_list(text: str) -> Graph:
    """The earlier per-line reader, kept as the reference for what the
    edge-list reader accepts and for the text of each error."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("edge-list input is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {lines[0]!r}") from exc
    if n > MAX_PARSE_N:
        raise FormatError(f"header announces n = {n} vertices; edge lists are limited to n <= {MAX_PARSE_N}")
    if len(lines) - 1 != m:
        raise FormatError(f"header announces {m} edges but {len(lines) - 1} edge lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected edge line 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"non-integer endpoint in {ln!r}") from exc
    try:
        return Graph.from_edge_list(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def reference_write_edge_list(g: Graph) -> str:
    """The earlier writer: one string per edge, joined once."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _read_outcome(reader, text: str):
    try:
        g = reader(text)
    except FormatError as exc:
        return "error", str(exc)
    return "graph", g.n, g.rows


# tokens int() reads in unusual ways or not at all, and separators str.split
# reads as whitespace
_ODD_TOKENS = ["0", "1", "2", "3", "4", "5", "-1", "07", "00", "+2", "1_0", "x", "\u0661", "9" * 5000]
_SEPARATORS = [" ", "  ", "\t", " \t", "\x1f"]


# one defect each, planted in text otherwise in the form write_edge_list
# emits: a leading zero, a loop, a vertex beyond n, a sign, whitespace the
# per-line rule reads, a lone name (also beside the space), three names, a
# comment, a blank line and a non-ASCII digit
_WRITTEN_DEFECTS = [
    "07 3", "3 3", "0 12", "+2 1", "1\t2", "1  2", "1 2 ", "4", " 4", "4 ", "1 2 3", "# c", "", "\u0661 1"
]


def _written_edge_list(rng: random.Random) -> str:
    n = rng.choice((0, 1, 3, 5, 12))
    lines = [f"{u} {v}" for u, v in (rng.sample(range(n), 2) for _ in range(rng.randrange(6) if n > 1 else 0))]
    m = len(lines)
    kind = rng.randrange(8)
    if kind == 1 and lines:
        lines[rng.randrange(m)] = rng.choice(_WRITTEN_DEFECTS)
    elif kind == 2:
        lines.insert(rng.randrange(m + 1), rng.choice(_WRITTEN_DEFECTS))
    elif kind == 3:
        m += rng.choice((1, -1))
    text = "".join(f"{ln}\n" for ln in [f"{n} {m}", *lines])
    if kind == 4:
        return text.replace("\n", "\r\n")
    if kind == 5:
        return text[:-1]
    return f"0{text}" if kind == 6 else text


def _malformed_edge_list(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return _written_edge_list(rng)
    lines = []
    for _ in range(rng.randrange(6)):
        kind = rng.random()
        if kind < 0.1:
            lines.append("# " + rng.choice(_ODD_TOKENS))
        elif kind < 0.15:
            lines.append(rng.choice(["", "\t"]))
        else:
            tokens = [rng.choice(_ODD_TOKENS) for _ in range(rng.choice((1, 2, 2, 2, 3)))]
            line = tokens[0] + "".join(rng.choice(_SEPARATORS) + t for t in tokens[1:])
            lines.append("\t" + line + " " if rng.random() < 0.1 else line)
    m = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#")) + rng.choice((0, 0, 0, 1, -1))
    head = f"{rng.choice((-1, 0, 1, 3, 5))} {m}" if rng.random() < 0.95 else rng.choice(["x 1", "3", "3 1 1"])
    return "\n".join([head, *lines]) + rng.choice(["\n", "", "\r\n"])


def test_edge_list_reader_matches_the_per_line_reference():
    rng = random.Random(20240615)
    outcomes = set()
    for _ in range(4000):
        text = _malformed_edge_list(rng)
        want = _read_outcome(reference_read_edge_list, text)
        assert _read_outcome(read_edge_list, text) == want, text
        outcomes.add(want[0])
    assert outcomes == {"graph", "error"}


def test_edge_list_reader_matches_the_reference_across_chunks():
    # about 16,800 edge lines in two parsing chunks, with defects planted on
    # either side of the chunk cut and of line 4096
    rng = random.Random(7)
    defects = ["3 3", "260 1", "1\t2", "2 1", "07 3", "4", "4 5 6", "0 -1", "0 259", "# c", ""]
    for trial in range(12):
        g = random_graph(260, 0.5, trial)
        written = write_edge_list(g)
        lines = written.splitlines()
        # lines[cut] holds character _CHUNK of the edge lines, so it ends the first chunk
        cut = written.partition("\n")[2].count("\n", 0, _CHUNK) + 1
        for _ in range(trial % 3):
            lines[rng.choice((rng.randrange(1, len(lines)), 4096, 4097, cut, cut + 1))] = rng.choice(defects)
        m = sum(1 for ln in lines[1:] if ln.strip() and not ln.startswith("#"))
        text = "\n".join([f"260 {m}", *lines[1:]]) + "\n"
        want = _read_outcome(reference_read_edge_list, text)
        assert _read_outcome(read_edge_list, text) == want
        if trial % 3 == 0:
            assert want == ("graph", 260, g.rows)


def test_written_form_checks_the_edge_count_before_building_anything():
    tracemalloc.start()
    try:
        got = _read_outcome(read_edge_list, "3 1000000000000\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("error", "header announces 1000000000000 edges but 1 edge lines follow")
    assert peak < 2**20
    # no final newline, and CRLF endings: read through the line filter
    for text in "3 1\n0 1", "3 1\r\n0 1\r\n":
        want = _read_outcome(reference_read_edge_list, text)
        assert _read_outcome(read_edge_list, text) == want == ("graph", 3, (2, 1, 0))


def test_edge_list_reader_peak_memory_is_near_its_input():
    text = write_edge_list(random_graph(800, 0.5, 1))
    tracemalloc.start()
    try:
        read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: "# a comment\n" + text,
        lambda text: text[:-1],
    ],
    ids=["crlf", "leading-comment", "no-final-newline"],
)
def test_filtered_edge_list_peak_memory_is_near_its_input(rewrite):
    # text not in the written form is cut to its kept lines one chunk at a
    # time, so no list of every line exists at once
    g = random_graph(800, 0.5, 1)
    text = rewrite(write_edge_list(g))
    tracemalloc.start()
    try:
        got = read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == g
    assert peak <= 3.5 * len(text)


def test_huge_edgeless_header_allocates_only_its_rows():
    tracemalloc.start()
    try:
        g = read_edge_list(f"{MAX_PARSE_N} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.num_edges) == (MAX_PARSE_N, 0)
    assert peak < 64 * 2**20


def _square_spy(monkeypatch):
    """Counts the edge-list reader's calls of the square-to-rows helper: one
    per text read on the dense route, none on the sparse one."""
    calls = []

    def spy(square, n):
        calls.append(n)
        return _square_rows(square, n)

    monkeypatch.setattr(formats, "_square_rows", spy)
    return calls


def _edge_list_texts(g: Graph, rng: random.Random) -> list[str]:
    """``g`` as written, with every line turned to ``v u``, and with every
    line in both orientations plus some repeated, shuffled, m adjusted."""
    written = write_edge_list(g)
    pairs = [ln.split() for ln in written.splitlines()[1:]]
    lines = [f"{u} {v}" for u, v in pairs] + [f"{v} {u}" for u, v in pairs]
    lines += rng.sample(lines, len(lines) // 4)
    rng.shuffle(lines)
    return [
        written,
        "".join([f"{g.n} {len(pairs)}\n", *(f"{v} {u}\n" for u, v in pairs)]),
        "".join([f"{g.n} {len(lines)}\n", *(f"{ln}\n" for ln in lines)]),
    ]


@pytest.mark.parametrize(
    "n, p, dense",
    [(60, 0.5, True), (300, 0.5, True), (300, 0.03, False), (3000, 0.004, False)],
    ids=["dense-60", "dense-300-across-chunks", "sparse-300", "sparse-3000-across-chunks"],
)
def test_edge_list_routes_match_the_reference(monkeypatch, n, p, dense):
    # the dense route ORs each line into one row and reads the rows back
    # through the square, so either orientation of an edge, or both, or a
    # repeat, must give the same graph as two ORs per line
    calls = _square_spy(monkeypatch)
    rng = random.Random(n)
    g = random_graph(n, p, n)
    for text in _edge_list_texts(g, rng):
        assert (n * n <= len(text)) == dense
        want = _read_outcome(reference_read_edge_list, text)
        assert want == ("graph", n, g.rows)
        assert _read_outcome(read_edge_list, text) == want
    assert calls == ([n] * 3 if dense else [])
    if n == 3000:
        assert len(text) > 2 * _CHUNK


def _edge_list_of_length(n: int, length: int, rng: random.Random) -> str:
    """Text in the form written, of exactly ``length`` characters, whose m
    lines name random distinct vertices, repeats allowed; 14 < n <= 10,000."""
    for digits in range(1, 8):
        head = f"{n} {'0' * digits}\n"
        lines = []
        left = length - len(head)
        while left > 24:
            u, v = rng.sample(range(n), 2)
            lines.append(f"{u} {v}\n")
            left -= len(lines[-1])
        # what is left, 15 to 24 characters while names have at most 4 digits,
        # as k lines of 4 characters, r of them lengthened to 5
        k, r = divmod(left, 4)
        lines += ["3 14\n"] * r + ["1 2\n"] * (k - r)
        if len(str(len(lines))) == digits:
            text = "".join([f"{n} {len(lines)}\n", *lines])
            assert len(text) == length
            return text
    raise AssertionError("no edge count fits")


@pytest.mark.parametrize("n", [40, 41, 300])
def test_edge_list_route_switches_where_the_square_reaches_the_text(monkeypatch, n):
    calls = _square_spy(monkeypatch)
    rng = random.Random(n)
    # n * n just below, equal to and just above the length of the text
    for length in (n * n + 1, n * n, n * n - 1):
        text = _edge_list_of_length(n, length, rng)
        want = _read_outcome(reference_read_edge_list, text)
        assert want[0] == "graph"
        assert _read_outcome(read_edge_list, text) == want
    assert calls == [n, n]


def test_edge_list_reads_the_smallest_graphs_on_the_dense_route(monkeypatch):
    # no text of a header and newline is shorter than 1 = n * n, so n = 0
    # and n = 1 always take the dense route
    calls = _square_spy(monkeypatch)
    for text, rows in (("0 0\n", ()), ("1 0\n", (0,)), ("2 1\n1 0\n", (2, 1))):
        want = _read_outcome(reference_read_edge_list, text)
        assert _read_outcome(read_edge_list, text) == want == ("graph", len(rows), rows)
    assert calls == [0, 1, 2]
    for text in ("1 1\n0 0\n", "1 1\n0 1\n", "0 1\n0 1\n"):
        want = _read_outcome(reference_read_edge_list, text)
        assert want[0] == "error"
        assert _read_outcome(read_edge_list, text) == want


def test_a_self_loop_on_the_dense_route_gives_the_per_line_error(monkeypatch):
    # the dense route finds a line 'v v' on the square's diagonal, before the
    # rows are built, so of these texts only the clean one reaches the square
    calls = _square_spy(monkeypatch)
    n = 300
    written = write_edge_list(random_graph(n, 0.5, n))
    lines = written.splitlines(keepends=True)
    starts = list(accumulate(map(len, lines), initial=0))
    late = next(i for i, start in enumerate(starts) if start > _CHUNK + 64)
    assert _read_outcome(read_edge_list, written)[0] == "graph"
    # vertex 0 ends the diagonal and vertex n - 1 starts it
    for i, v in ((5, 0), (late, n - 1)):
        text = "".join([*lines[:i], f"{v} {v}\n", *lines[i + 1 :]])
        assert n * n <= len(text)
        want = _read_outcome(reference_read_edge_list, text)
        assert want == ("error", f"self-loop ({v}, {v}) not allowed")
        assert _read_outcome(read_edge_list, text) == want
    assert calls == [n]


def test_edge_list_peak_memory_where_the_square_reaches_the_text(monkeypatch):
    # n * n = len(text): the largest square the dense route builds
    n = 1000
    calls = _square_spy(monkeypatch)
    text = _edge_list_of_length(n, n * n, random.Random(1))
    tracemalloc.start()
    try:
        read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [n]
    assert peak <= 3 * len(text)


def test_edge_list_writer_matches_the_joined_reference():
    graphs = [
        Graph(0, []),
        Graph(1, [0]),
        Graph.from_edge_list(7, [(1, 5), (5, 6)]),  # isolated 0, 2, 3 and 4
        Graph.from_edge_list(12, [(0, 11)]),
        complete_graph(9),
        matching_complement(2),
        matching_complement(16),
        *(random_graph(n, p, n) for n in (2, 31, 64, 65, 200) for p in (0.0, 0.04, 0.5, 1.0)),
    ]
    assert write_edge_list(Graph(0, [])) == "0 0\n"
    for g in graphs:
        assert write_edge_list(g) == reference_write_edge_list(g), g


def test_edge_list_writer_peak_memory_is_near_its_output():
    g = matching_complement(1000)
    tracemalloc.start()
    try:
        text = write_edge_list(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


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
    # a lone name and three names: two names per line on average
    for text in ("5 2\n1\n2 3 0\n", "5 2\n2 3 0\n1\n"):
        with pytest.raises(FormatError, match="expected edge line 'u v'"):
            read_edge_list(text)


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
    with pytest.raises(FormatError, match="^truncated graph6 size prefix$"):
        read_graph6("~")
    # n = 4 needs one body character; '>' is chr(62), one below the offset
    with pytest.raises(FormatError, match="^invalid graph6 character '>'$"):
        read_graph6("C>")


def test_graph6_eight_character_size_prefix_and_its_limit():
    # 258048 = 2^18 is the first n beyond the four-character form
    assert len(_encode_size(258047)) == 4
    for n in 258048, 2**36 - 1:
        encoded = _encode_size(n)
        assert encoded.startswith("~~") and len(encoded) == 8
        assert _decode_size(encoded) == (n, 8)
    with pytest.raises(FormatError, match="^graph6 cannot encode n = 68719476736$"):
        _encode_size(2**36)


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
    for fmt, text in (("edgelist", write_edge_list(g)), ("graph6", write_graph6(g) + "\n")):
        path = tmp_path / f"g.{fmt}"
        path.write_text(text, encoding="ascii")
        assert load_graph(str(path), fmt) == g


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


def reference_write_graph6(g: Graph) -> str:
    """The earlier writer, kept as the reference: one generator step and one
    int() per six-bit character."""
    head = _encode_size(g.n)
    # column j: the pairs (i, j) for i = 0..j-1, i.e. row j's low bits, least first
    bits = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))


def test_graph6_writer_matches_the_per_character_reference():
    # n = 0..70 crosses the n = 63 switch to the four-character size prefix
    graphs = [random_graph(n, p, n) for n in range(71) for p in (0.0, 0.3, 0.5, 1.0)]
    graphs += [matching_complement(200), random_graph(800, 0.5, 5)]
    for g in graphs:
        assert write_graph6(g) == reference_write_graph6(g), g


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
