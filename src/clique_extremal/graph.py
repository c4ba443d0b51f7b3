"""Immutable simple graphs with bitset adjacency rows.

Vertices are dense indices 0..n-1 and every adjacency row is a Python int
used as a bitset, so neighbourhood queries are mask intersections and
popcounts. Graphs never mutate after construction; algorithms that "delete"
vertices carry a residual mask instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = ["Graph", "vertex_mask", "iter_bits", "reach", "simple_paths", "induced_paths"]


def vertex_mask(vertices: Iterable[int], n: int) -> int:
    """Bitset of the given vertices, validating the 0..n-1 range."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for a graph on {n} vertices")
        mask |= 1 << v
    return mask


def _square_rows(square: str | bytes | bytearray, n: int) -> list[int]:
    """The adjacency rows held by an n x n square of binary digits, row by
    row, in vertex-reversed orientation: a 1 in square row n - 1 - u at
    column n - 1 - v stands for the edge u-v. Row v is square row n - 1 - v
    read as a binary number, first digit highest, ORed with square column
    n - 1 - v read the same way, so an edge set in either of its two cells
    lands in both rows. The diagonal must hold zeros."""
    return [int(square[j * n : (j + 1) * n], 2) | int(square[j::n], 2) for j in range(n - 1, -1, -1)]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach(adj: Sequence[int], seed: int, allowed: int) -> int:
    """The ``seed`` mask plus every vertex of ``allowed`` that a path
    through ``allowed`` joins to it."""
    reached = frontier = seed
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= adj[low.bit_length() - 1]
        frontier = grown & allowed & ~reached
        reached |= frontier
    return reached


def simple_paths(adj: Sequence[int], u: int, v: int, allowed: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(internal mask, route) of every simple u-v path with at least one
    internal vertex, all of them in ``allowed``: by number of internal
    vertices, then by ascending vertices along the route.

    The walk runs on an explicit stack and restarts once per number of
    internal vertices, from the count of breadth-first layers from u's
    neighbours in ``allowed`` to the first that touches N(v): a route's i-th
    vertex lies in the first i layers, so no route is shorter, and a lone
    long route is walked once.
    """
    allowed &= ~(1 << u | 1 << v)
    layer = reached = adj[u] & allowed
    first = 1
    while not layer & adj[v]:
        grown = 0
        while layer:
            low = layer & -layer
            layer ^= low
            grown |= adj[low.bit_length() - 1]
        layer = grown & allowed & ~reached
        if not layer:
            return
        reached |= layer
        first += 1
    for k in range(first, allowed.bit_count() + 1):
        route, used = [u], 0
        stack = [adj[u] & allowed]  # stack[i]: untried next vertices after route[i]
        while stack:
            cands = stack[-1]
            if not cands:
                stack.pop()
                used &= ~(1 << route.pop())
                continue
            low = cands & -cands
            stack[-1] = cands ^ low
            w = low.bit_length() - 1
            if len(stack) < k:
                route.append(w)
                used |= low
                stack.append(adj[w] & allowed & ~used)
            elif adj[w] >> v & 1:
                yield used | low, (*route, w, v)


def induced_paths(adj: Sequence[int], u: int, v: int, allowed: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(internal mask, route) of every induced u-v path with at least one
    internal vertex, all of them in ``allowed``, in the order of
    ``simple_paths``. A path is induced when no two of its vertices are
    adjacent unless they follow each other on it, so an edge u-v rules out
    every route and nothing is yielded.

    The routes grow one vertex per level on explicit lists, so a route may
    be longer than Python's recursion limit, and each level is built in
    route order, which keeps the order above. An entry carries its route
    and ``far``, the closed neighbourhoods of every route vertex but the
    last. The next vertex is a neighbour of the last one outside ``far``,
    hence off the route and adjacent to no earlier route vertex; a vertex
    adjacent to v ends its route, which is yielded and not grown.
    """
    if adj[u] >> v & 1:
        return
    allowed &= ~(1 << u | 1 << v)
    level = [((u,), 0, 0)]  # (route, far, internal mask)
    while level:
        grown = []
        for route, far, used in level:
            last = route[-1]
            cands = adj[last] & allowed & ~far
            far |= adj[last] | 1 << last
            while cands:
                low = cands & -cands
                cands ^= low
                w = low.bit_length() - 1
                if adj[w] >> v & 1:
                    yield used | low, (*route, w, v)
                else:
                    grown.append(((*route, w), far, used | low))
        level = grown


class Graph:
    """Simple undirected graph. ``rows`` is the tuple of adjacency bitsets,
    row v at index v; rows must be symmetric and irreflexive, and the
    public constructors guarantee that."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, adjacency_rows: Iterable[int]):
        self.n = n
        self.rows = tuple(adjacency_rows)
        if len(self.rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(self.rows)}")

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph with exactly the listed edges; duplicates collapse.

        Rejects endpoints outside 0..n-1 and self-loops, naming the
        offending pair.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range for n = {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    # -- basic queries ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacency_mask(self, v: int) -> int:
        return self.rows[v]

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def missing_degree(self, v: int) -> int:
        """Number of missing edges incident to v, i.e. n - 1 - degree(v)."""
        return self.n - 1 - self.rows[v].bit_count()

    def max_missing_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max_missing_degree is undefined on the empty graph")
        return max(self.missing_degree(v) for v in range(self.n))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs u < v, lexicographic."""
        for u in range(self.n):
            higher = self.rows[u] >> (u + 1) << (u + 1)
            for v in iter_bits(higher):
                yield u, v

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph(self.n, (full & ~row & ~(1 << v) for v, row in enumerate(self.rows)))

    # -- subset queries ---------------------------------------------------

    def missing_edges_within(self, vertices: Iterable[int]) -> int:
        """Number of non-adjacent unordered pairs inside the vertex set."""
        return self.missing_edges_within_mask(vertex_mask(vertices, self.n))

    def missing_edges_within_mask(self, mask: int) -> int:
        """k(k-1)/2 pairs inside a k-vertex mask less its edges, each of
        which two rows count."""
        rows = self.rows
        present = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            present += (rows[low.bit_length() - 1] & mask).bit_count()
        k = mask.bit_count()
        return k * (k - 1) // 2 - present // 2

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"
