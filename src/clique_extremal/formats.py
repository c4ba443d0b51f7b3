"""Graph serialization: edge-list text and graph6.

Edge-list format: first line ``n m``, then m lines ``u v`` with 0-based
whitespace-separated endpoints; lines starting with ``#`` are ignored; n is
capped by ``limits.MAX_PARSE_N``, checked before anything is allocated.
Text as ``write_edge_list`` emits it is checked and split in one pass; other
text is cut to its kept lines first. What that pass refuses is read per line.

graph6 is the standard ASCII encoding (6 bits per character, offset 63,
N(n) size prefix, upper-triangle bits in column order). Reader and writer
round-trip byte-exactly. The graph6 reader takes time and memory linear in n
plus the size of the input, besides the n adjacency rows it builds. The
edge-list reader builds an n x n table of binary digits only when it is no
larger than the text (n * n <= len(text)); then it ORs each edge into one
row and the table's transpose adds it to the other. On sparser text it
allocates no such table, but ORs each edge into both rows, and each OR
copies its row, so a vertex with d edges costs d copies of a row of up to
n bits.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from collections.abc import Iterator
from itertools import compress
from operator import eq

from .errors import FormatError
from .graph import Graph, _square_rows
from .limits import MAX_PARSE_N

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_graph6",
    "write_graph6",
    "load_graph",
]

_GRAPH6_HEADER = ">>graph6<<"
# the six-bit digits 0..63 in base64 and in graph6 (chr(63)..chr(126))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
# binary digit characters -> 0/1 selector bytes for itertools.compress
_PICKS = bytes.maketrans(b"01", b"\x00\x01")
# characters of an edge list split or filtered at once, which bounds the lists of one pass
_CHUNK = 1 << 16


def read_edge_list(text: str) -> Graph:
    if (g := _edge_graph(text)) is not None:
        return g
    # the kept lines, each ended by a newline: in the form written if they can be.
    # Filtered a chunk at a time, so no list of every line is built
    text = "".join(
        "\n".join([ln for ln in map(str.strip, chunk.splitlines()) if ln and ln[0] != "#"] + [""])
        for chunk in _chunks(text, 0)
    )
    if (g := _edge_graph(text)) is not None:
        return g
    lines = text.splitlines()
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
    # the per-line rule names the first bad line, then the first bad pair
    edges = [_edge_line(ln) for ln in lines[1:]]
    try:
        return Graph.from_edge_list(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _chunks(text: str, start: int) -> Iterator[str]:
    """``text[start:]`` in pieces of about ``_CHUNK`` characters, each cut after a newline."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _edge_line(ln: str) -> tuple[int, int]:
    parts = ln.split()
    if len(parts) != 2:
        raise FormatError(f"expected edge line 'u v', got {ln!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"non-integer endpoint in {ln!r}") from exc


def _edge_graph(text: str) -> Graph | None:
    """The graph of ``text`` in the form written, else None: a header ``n m`` with n <=
    MAX_PARSE_N, then m lines ``u v`` naming two distinct vertices in plain decimal, one
    space apart, each line ended by a newline. Scratch memory is O(n + len(text)), whatever
    m is; the name table has at most 2m entries, and a vertex beyond it is refused.

    Dense text, n * n <= len(text), ORs each line into one row only, ``rows[u] |= bit[v]``,
    then reads the rows back through the n x n square of their binary digits
    (``graph._square_rows``), which adds each edge to its other row. The square, held
    twice while it is joined, is never larger than the text, and ``bit``, the n one-bit
    masks, takes about n * n / 16 bytes. Sparse text ORs each line into both rows and
    builds no square.

    A self-loop ``v v`` returns None, so the per-line reader names it. The sparse route
    compares the two ends of each line; the dense route, where a loop sets a 1 on the
    square's diagonal, reads that diagonal once, after the join and before the rows."""
    head = text.partition("\n")[0]
    # digit runs short enough for int()
    if not (text.isascii() and len(parts := head.split(" ")) == 2 and all(map(str.isdigit, parts)) and len(head) < 40):
        return None
    n, m = int(parts[0]), int(parts[1])
    shape = text.encode().translate(None, b"0123456789")  # b" \n" per line in the form written
    if n > MAX_PARSE_N or len(shape) != 2 * m + 2 or shape.count(b" \n") != m + 1:
        return None
    del shape
    index = {str(v): v for v in range(min(n, 2 * m))}
    dense = n * n <= len(text)
    bit = [1 << v for v in range(n)] if dense else []
    rows = [0] * n
    for chunk in _chunks(text, len(head) + 1):
        # one split per chunk, not a tuple or list per line, which the
        # cyclic garbage collector would have to scan
        try:
            ends = list(map(index.__getitem__, chunk.split()))
        except KeyError:
            return None
        # each line holds one space, so 2 names per line means none is empty
        if len(ends) != 2 * chunk.count("\n"):
            return None
        if dense:
            pairs = iter(ends)
            for u, v in zip(pairs, pairs):
                rows[u] |= bit[v]
        else:
            us, vs = ends[0::2], ends[1::2]
            if any(map(eq, us, vs)):
                return None
            for u, v in zip(us, vs):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if dense:
        square = "".join([format(r, f"0{n}b") for r in reversed(rows)])
        if "1" in square[:: n + 1]:
            return None
        return Graph(n, _square_rows(square, n))
    return Graph(n, rows)


def write_edge_list(g: Graph) -> str:
    """Header, then the edges u < v in lexicographic order, one row's
    edges joined at a time."""
    names = list(map(str, range(g.n)))
    out = [f"{g.n} {g.num_edges}\n"]
    for u, row in enumerate(g.rows):
        if higher := row >> (u + 1):
            picks = bin(higher)[:1:-1].encode().translate(_PICKS)  # bit i: edge (u, u + 1 + i)
            out.append(f"{u} " + f"\n{u} ".join(compress(names[u + 1 : u + 1 + len(picks)], picks)) + "\n")
    return "".join(out)


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(63 + (n >> shift & 63)) for shift in (30, 24, 18, 12, 6, 0))
    raise FormatError(f"graph6 cannot encode n = {n}")


def _decode_size(s: str) -> tuple[int, int]:
    """Vertex count and the number of prefix characters consumed. Only the
    shortest form of each n is accepted, so every accepted input round-trips
    byte-exactly."""
    if not s:
        raise FormatError("empty graph6 string")
    start, used = (0, 1) if s[0] != "~" else (2, 8) if s[1:2] == "~" else (1, 4)
    if len(s) < used:
        raise FormatError("truncated graph6 size prefix")
    digits = s[start:used]
    if min(digits) < "?" or max(digits) > "~":
        raise FormatError(f"invalid graph6 size prefix {s[:used]!r}")
    n = 0
    for c in digits:
        n = n << 6 | (ord(c) - 63)
    if _encode_size(n) != s[:used]:
        raise FormatError(f"graph6 size prefix {s[:used]!r} is not the shortest form of n = {n}")
    return n, used


def write_graph6(g: Graph) -> str:
    head = _encode_size(g.n)
    # column j: the pairs (i, j) for i = 0..j-1, i.e. row j's low bits, least first
    bits = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    size = -(-len(bits) // 6)
    # padded to whole base64 quanta (24 bits), whose six-bit digits are then
    # renamed from the base64 alphabet to graph6's chr(63)..chr(126)
    bits += "0" * (-len(bits) % 24)
    body = b2a_base64(int("0" + bits, 2).to_bytes(len(bits) // 8, "big"), newline=False)
    return head + body[:size].translate(_BASE64_TO_GRAPH6).decode("ascii")


def read_graph6(text: str) -> Graph:
    """Linear in the body: column j of the bit string (the pairs (i, j),
    i < j, i ascending) reversed and padded on the left to n digits is row
    j's low bits read as a binary number. Those columns, j = n - 1 down to
    0, make the vertex-reversed square that ``graph._square_rows`` reads.
    Padding bits after the last pair are ignored."""
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):]
    n, used = _decode_size(s)
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body for n = {n} needs {need} characters, got {len(body)}")
    if body and (min(body) < "?" or max(body) > "~"):
        bad = next(c for c in body if not "?" <= c <= "~")
        raise FormatError(f"invalid graph6 character {bad!r}")
    # renamed to base64 digits and padded to whole quanta, then decoded at once
    digits = body.encode("ascii").translate(_GRAPH6_TO_BASE64)
    digits += b"A" * (-len(digits) % 4)
    bits = format(int.from_bytes(a2b_base64(digits), "big"), f"0{6 * len(digits)}b")
    square = "".join(bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1].rjust(n, "0") for j in range(n - 1, -1, -1))
    return Graph(n, _square_rows(square, n))


# readers are called by name, not from a table, so that rebinding them works
_FORMATS = ("edgelist", "graph6")


def load_graph(path: str, fmt: str = "edgelist") -> Graph:
    if fmt not in _FORMATS:
        raise FormatError(f"unknown graph format {fmt!r}")
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not ASCII text: {exc}") from exc
    return read_edge_list(text) if fmt == "edgelist" else read_graph6(text)
