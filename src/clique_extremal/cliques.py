"""Exact clique counting.

Two independent counters are provided. ``count_cliques_peeling`` follows the
minimum-degree peeling process: pick a minimum degree vertex, enumerate the
cliques through its neighbourhood, delete it, repeat.
``count_cliques_oracle`` is the cross-check: it counts independent sets of
the complement graph by branching on a maximum-degree vertex, with component
splitting, which shares no traversal logic with the peeling route.

Counts are exact big integers and always include the empty clique; the
non-empty count is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, iter_bits, reach
from .limits import ORACLE_MAX_N, check_guard

__all__ = ["CliqueStats", "PeelingTrace", "count_cliques_oracle", "count_cliques_peeling", "peel_trace"]

STOP_SIZE = "size-threshold"
STOP_SMALL_DROP = "small-drop"
STOP_EXHAUSTED = "clique-exhausted"


@dataclass(frozen=True)
class CliqueStats:
    count_including_empty: int
    count_nonempty: int
    clique_number: int


@dataclass(frozen=True)
class PeelingTrace:
    """Outer-loop skeleton of a peeling run.

    ``sizes`` has one more entry than ``picked``: sizes[i] is the residual
    order before the (i+1)-th pick. ``missing_degrees[i]`` is the maximum
    missing degree of the residual at pick time (the picked vertex has
    minimum degree, hence maximum missing degree). ``stop_index`` points at
    the sizes entry that triggered the stop rule.
    """

    picked: tuple[int, ...]
    sizes: tuple[int, ...]
    missing_degrees: tuple[int, ...]
    stop_reason: str
    stop_index: int


def _min_degree_vertex(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """Vertex of minimum degree in the induced submask, lowest index on ties."""
    best_v = -1
    best_d = 1 << 62
    for v in iter_bits(mask):
        d = (adj[v] & mask).bit_count()
        if d < best_d:
            best_v, best_d = v, d
    return best_v, best_d


def count_cliques_oracle(g: Graph, limit_n: int | None = None) -> CliqueStats:
    """Exact clique count and clique number via independent sets of the
    complement (cliques of G are exactly the independent sets of its
    complement)."""
    check_guard("count_cliques_oracle", g.n, ORACLE_MAX_N, limit_n)
    if g.n == 0:
        return CliqueStats(1, 0, 0)
    comp = tuple(map(g.complement().adjacency_mask, range(g.n)))
    memo: dict[int, tuple[int, int]] = {}

    def solve(mask: int) -> tuple[int, int]:
        """(number of independent sets including the empty one, independence
        number) of the complement induced on ``mask``."""
        if mask == 0:
            return 1, 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_v = -1
        best_d = -1
        for v in iter_bits(mask):
            d = (comp[v] & mask).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d == 0:
            k = mask.bit_count()
            result = (1 << k, k)
        else:
            piece = reach(comp, 1 << best_v, mask)
            if piece != mask:
                count_rest, alpha_rest = solve(mask & ~piece)
                count_piece, alpha_piece = solve(piece)
                result = (count_piece * count_rest, alpha_piece + alpha_rest)
            else:
                count_ex, alpha_ex = solve(mask & ~(1 << best_v))
                count_in, alpha_in = solve(mask & ~(comp[best_v] | (1 << best_v)))
                result = (count_ex + count_in, max(alpha_ex, 1 + alpha_in))
        memo[mask] = result
        return result

    count, alpha = solve(g.full_mask)
    return CliqueStats(count, count - 1, alpha)


def count_cliques_peeling(g: Graph) -> tuple[CliqueStats, PeelingTrace]:
    """Peeling enumeration: repeatedly pick a minimum degree vertex (lowest
    index on ties), count the cliques containing it inside its
    neighbourhood, then delete it. The trace records the outer loop; it runs
    to exhaustion, so its stop reason is always clique-exhausted."""
    n = g.n
    adj = tuple(g.adjacency_mask(v) for v in range(n))
    omega = 0

    def count_within(mask: int, depth: int) -> int:
        """Cliques including the empty one inside ``mask``; the current pick
        chain has ``depth`` vertices. Deletions loop, so recursion depth is
        bounded by the clique number."""
        nonlocal omega
        total = 1
        residual = mask
        while residual:
            size = residual.bit_count()
            v, d = _min_degree_vertex(adj, residual)
            if d == size - 1:
                if depth + size > omega:
                    omega = depth + size
                return total + (1 << size) - 1
            total += count_within(adj[v] & residual, depth + 1)
            residual &= ~(1 << v)
        if depth > omega:
            omega = depth
        return total

    picked: list[int] = []
    sizes = [n]
    missing_degrees: list[int] = []
    total = 1
    residual = g.full_mask
    while residual:
        size = residual.bit_count()
        v, d = _min_degree_vertex(adj, residual)
        picked.append(v)
        missing_degrees.append(size - 1 - d)
        total += count_within(adj[v] & residual, 1)
        residual &= ~(1 << v)
        sizes.append(size - 1)
    trace = PeelingTrace(
        picked=tuple(picked),
        sizes=tuple(sizes),
        missing_degrees=tuple(missing_degrees),
        stop_reason=STOP_EXHAUSTED,
        stop_index=len(sizes) - 1,
    )
    return CliqueStats(total, total - 1, omega), trace


def peel_trace(g: Graph, t: int, size_factor: float = 1.05, drop_exponent: float = 0.55) -> PeelingTrace:
    """Outer peeling loop with the early stopping rule.

    Each step picks a global minimum degree vertex (lowest index on ties)
    and deletes it together with its non-neighbours. The loop stops when the
    residual order falls to at most ``size_factor * t`` (size-threshold),
    when a step shrinks the residual by less than ``size ** drop_exponent``
    (small-drop), or when nothing is left to pick (clique-exhausted).
    """
    if t < 1:
        raise ValueError(f"peel_trace needs t >= 1, got t = {t}")
    adj = tuple(g.adjacency_mask(v) for v in range(g.n))
    residual = g.full_mask
    picked: list[int] = []
    sizes = [g.n]
    missing_degrees: list[int] = []
    reason = STOP_EXHAUSTED
    while True:
        size = sizes[-1]
        if size <= size_factor * t:
            reason = STOP_SIZE
            break
        if residual == 0:
            reason = STOP_EXHAUSTED
            break
        v, d = _min_degree_vertex(adj, residual)
        picked.append(v)
        missing_degrees.append(size - 1 - d)
        residual &= adj[v]
        sizes.append(residual.bit_count())
        if sizes[-1] >= size - size ** drop_exponent:
            reason = STOP_SMALL_DROP
            break
    return PeelingTrace(
        picked=tuple(picked),
        sizes=tuple(sizes),
        missing_degrees=tuple(missing_degrees),
        stop_reason=reason,
        stop_index=len(sizes) - 1,
    )
