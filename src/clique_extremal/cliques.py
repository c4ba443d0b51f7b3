"""Exact clique counting.

Two independent counters are provided. ``count_cliques_peeling`` follows the
minimum-degree peeling process: pick a minimum degree vertex, delete it,
repeat, then count each clique in the later neighbourhood of its first pick.
``count_cliques_oracle`` is the cross-check: it counts independent sets of
the complement graph by branching on a maximum-degree vertex, with component
splitting, which shares no traversal logic with the peeling route.

Counts are exact big integers and always include the empty clique; the
non-empty count is reported alongside.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, reach
from .limits import ORACLE_MAX_N, check_guard

__all__ = ["CliqueStats", "count_cliques_oracle", "count_cliques_peeling"]


class CliqueStats(NamedTuple):
    count_including_empty: int
    count_nonempty: int
    clique_number: int


def count_cliques_oracle(g: Graph, limit_n: int | None = None) -> CliqueStats:
    """Exact clique count and clique number via independent sets of the
    complement (cliques of G are exactly the independent sets of its
    complement).

    ``memo`` maps a mask to (independent sets of the complement on it, the
    empty one included, and its independence number). The explicit stack
    holds masks to solve and (mask, first, second, split) entries that
    combine two solved parts: a product when ``split`` (the component of a
    maximum-degree vertex v and the rest), else a branch on v.

    A mask whose complement has maximum degree at most 1 is a matching of e
    edges (half the degree sum) and closes as (3^e * 2^(k-2e), k - e) on k
    vertices: each edge contributes none, one or the other end. When v's
    closed complement neighbourhood covers the mask, v's component is the
    whole mask, so the branch is taken without a ``reach``."""
    check_guard("count_cliques_oracle", g.n, ORACLE_MAX_N, limit_n)
    comp = g.complement().rows
    memo: dict[int, tuple[int, int]] = {0: (1, 0)}
    stack: list[int | tuple[int, int, int, bool]] = [g.full_mask]
    while stack:
        top = stack.pop()
        if type(top) is tuple:
            mask, first, second, split = top
            (count_a, alpha_a), (count_b, alpha_b) = memo[first], memo[second]
            if split:
                memo[mask] = (count_a * count_b, alpha_a + alpha_b)
            else:
                memo[mask] = (count_a + count_b, max(alpha_a, 1 + alpha_b))
            continue
        mask = top
        if mask in memo:
            continue
        best_v = -1
        best_d = -1
        degrees = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (comp[v] & mask).bit_count()
            degrees += d
            if d > best_d:
                best_v, best_d = v, d
        if best_d <= 1:  # a matching of e edges: 3 choices per edge, 2 per other vertex
            k, e = mask.bit_count(), degrees >> 1
            memo[mask] = (3**e << (k - 2 * e), k - e)
            continue
        second = mask & ~(comp[best_v] | (1 << best_v))
        piece = reach(comp, 1 << best_v, mask) if second else mask
        if piece != mask:
            first, second, split = mask & ~piece, piece, True
        else:
            first, split = mask & ~(1 << best_v), False
        stack += ((mask, first, second, split), second, first)
    count, alpha = memo[g.full_mask]
    return CliqueStats(count, count - 1, alpha)


def count_cliques_peeling(g: Graph) -> tuple[CliqueStats, tuple[int, ...]]:
    """Peeling enumeration: repeatedly pick a minimum degree vertex (lowest
    index on ties) and delete it; every clique lies in the later
    neighbourhood of its first-picked vertex, so the cliques are counted
    there. Returns the counts and the top-level picks in order.

    The first loop only orders. It takes its picks from a degree-bucket
    queue (the smallest-last order of Matula and Beck): ``buckets[d]`` is
    the bitmask of residual vertices of degree d, and a pick is the lowest
    vertex of the lowest non-empty bucket. Deleting v moves each residual
    neighbour down one bucket, so the next minimum is at least d(v) - 1 and
    the scan pointer steps back by at most one. The order thus costs
    O(n + m) bit moves, and its scratch memory is one n-bit mask per
    distinct residual degree plus a list of n degrees. Each pick with a
    non-empty later neighbourhood N(v) & residual pushes it at depth 1, so
    the seeded stack holds at most one entry per pick, each no larger than
    its row.

    The second loop counts on that one stack of non-empty (residual, depth)
    entries. An entry finds a minimum degree vertex u (lowest index on
    ties) by an inline scan of its residual and closes in one of two ways:
    a residual that is a clique adds all its non-empty subsets; otherwise u
    closes one clique and the entry pushes the rest of its residual and
    above it the child N(u) & residual, one level deeper.

    The clique number comes from clique residuals alone: by induction on
    |R|, an entry (R, k) that is not a clique pushes the non-empty
    (R - u, k), so every entry at depth k ends in a clique residual at
    depth k, which sets omega >= k + 1."""
    adj = g.rows
    degree = [row.bit_count() for row in adj]
    buckets = [0] * g.n
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    picked: list[int] = []
    stack: list[tuple[int, int]] = []
    alive = g.full_mask
    min_d = 0
    for _ in range(g.n):
        while not buckets[min_d]:
            min_d += 1
        bucket = buckets[min_d]
        low = bucket & -bucket
        buckets[min_d] = bucket ^ low
        v = low.bit_length() - 1
        alive ^= low
        picked.append(v)
        if not min_d:
            continue
        rest = adj[v] & alive
        stack.append((rest, 1))
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            d = degree[w]
            degree[w] = d - 1
            buckets[d] ^= low
            buckets[d - 1] |= low
        min_d -= 1
    total = 1 + g.n  # each pick closes its one-vertex clique
    omega = 1 if g.n else 0
    while stack:
        residual, depth = stack.pop()
        size = d = residual.bit_count()
        rest = residual
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            dw = (adj[w] & residual).bit_count()
            if dw < d:
                u, d = w, dw
        if d == size - 1:
            total += (1 << size) - 1
            if depth + size > omega:
                omega = depth + size
            continue
        total += 1
        stack.append((residual & ~(1 << u), depth))
        if d:
            stack.append((adj[u] & residual, depth + 1))
    return CliqueStats(total, total - 1, omega), tuple(picked)
