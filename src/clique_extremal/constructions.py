"""Deterministic generators for the extremal families and seeded random graphs."""

from __future__ import annotations

import random

from .graph import Graph

__all__ = [
    "star_of_clique",
    "matching_complement",
    "disjoint_union_matching_complements",
    "immersion_tightness",
    "random_graph",
]


def star_of_clique(n: int, t: int) -> Graph:
    """Clique on vertices 0..t-3 plus n-t+2 pendant vertices adjacent to
    exactly that clique. Has 2^(t-2) * (n-t+3) cliques including the empty
    one and no immersion of a clique on t vertices."""
    if t < 3 or n < t - 2:
        raise ValueError(f"star_of_clique needs n >= t - 2 >= 1, got n = {n}, t = {t}")
    core = t - 2
    core_mask = (1 << core) - 1
    rows = []
    for v in range(n):
        if v < core:
            rows.append((core_mask & ~(1 << v)) | (((1 << n) - 1) ^ core_mask))
        else:
            rows.append(core_mask)
    return Graph(n, rows)


def matching_complement(n: int) -> Graph:
    """Complete graph on n vertices minus the perfect matching (2i, 2i+1).
    Every vertex misses exactly one edge; there are 3^(n/2) cliques
    including the empty one."""
    if n < 2 or n % 2:
        raise ValueError(f"matching_complement needs even n >= 2, got {n}")
    full = (1 << n) - 1
    return Graph(n, (full & ~(1 << v) & ~(1 << (v ^ 1)) for v in range(n)))


def _matching_block_size(t: int) -> int:
    """Largest even integer strictly below 4t/3."""
    b = (4 * t - 1) // 3
    if b % 2:
        b -= 1
    return b


def disjoint_union_matching_complements(n: int, t: int) -> Graph:
    """Disjoint union of matching complements, each block small enough that
    no block contains a subdivision of a clique on t vertices.

    Blocks have the largest even size strictly below 4t/3; an even remainder
    becomes a final smaller block.
    """
    if t < 2:
        raise ValueError(f"disjoint_union_matching_complements needs t >= 2, got t = {t}")
    if n % 2:
        raise ValueError(f"even n required to split into matching complements, got n = {n}")
    if 3 * n < 4 * t:
        raise ValueError(f"need n >= 4t/3, got n = {n}, t = {t}")
    block = _matching_block_size(t)
    sizes = [block] * (n // block)
    if n % block:
        sizes.append(n % block)
    rows: list[int] = []
    for size in sizes:
        mc, offset = matching_complement(size), len(rows)
        rows.extend(row << offset for row in mc.rows)
    return Graph(n, rows)


def immersion_tightness(n: int, t: int) -> tuple[Graph, frozenset[int]]:
    """Sharpness example for the dense immersion embedder.

    Vertices 0..t-1 form the designated set T with the single missing pair
    (0, 1); the rest splits into two cliques S1, S2 of size (n-t)/2 with no
    edges between them, S1 complete to T minus {1} and S2 complete to
    T minus {0}. The maximum missing degree is (n-t)/2 + 1 and there is no
    strong immersion of a t-clique with T as end vertices, though a weak
    one exists. Returns the graph and T.
    """
    if t < 2:
        raise ValueError(f"immersion_tightness needs t >= 2, got t = {t}")
    if n <= t or (n - t) % 2:
        raise ValueError(f"immersion_tightness needs n - t even and positive, got n = {n}, t = {t}")
    half = (n - t) // 2
    terms, s1 = (1 << t) - 1, ((1 << half) - 1) << t
    s2 = s1 << half
    # (vertices, row) in vertex order: 0, 1, the other terminals, S1, S2
    blocks = (
        (1, terms & ~3 | s1),
        (1, terms & ~3 | s2),
        (t - 2, terms | s1 | s2),
        (half, s1 | terms & ~2),
        (half, s2 | terms & ~1),
    )
    rows = [row for count, row in blocks for _ in range(count)]
    return Graph(n, (row & ~(1 << v) for v, row in enumerate(rows))), frozenset(range(t))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample G(n, p), deterministic for a fixed seed: one draw
    per pair, u ascending, then v > u ascending."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    draw = random.Random(seed).random
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    bit = [1 << v for v in range(n)]
    rows = [0] * n
    for u in range(n):
        upper = 0  # row u above the diagonal; the draws for u come in one run
        for v in range(u + 1, n):
            if draw() < p:
                upper |= bit[v]
                rows[v] |= bit[u]
        rows[u] |= upper
    return Graph(n, rows)
