"""Extremal parameters: minimum missing-edge counts over t-sets, the
parameter t(G), and the missing-degree bounds tied to subdivisions.

All bound values are exact rationals; the subset searches are exact with a
branch-and-bound over the complement graph, with no size guard.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .graph import Graph, iter_bits

__all__ = [
    "ParamReport",
    "min_tset_missing",
    "tset_missing_upper_estimate",
    "t_param",
    "t_param_lower_estimate",
    "delta_threshold_no_subdivision",
]


class ParamReport(NamedTuple):
    """t(G) with a witness set, the maximum missing degree, and the implied
    sandwich for the clique subdivision number."""

    t_param: int
    witness: frozenset[int]
    delta: int
    sigma_lower: int
    sigma_upper: int


class _SearchTables:
    """Tables of the subset search that depend on the graph alone, shared by
    every t. Vertices sit at positions in ascending complement-degree order
    and level i leaves R = ``order[i:]`` undecided. A counter per position
    is one ``width``-bit field of a single int, the field of position j at
    bit ``width * j`` in absolute packs and ``width * (j - i)`` in those of
    level i. ``width`` is the smallest of 8, 16, 32 and 64 whose field holds
    a key (at most 3(n - 1)) and a biased field 2^(width - 1) + d_R(u) -
    (r - s) with an exact top bit, which needs n <= 2^(width - 1) as d_R(u)
    and r - s are below n. Level tables are built the first time a search
    reaches them.
    """

    __slots__ = ("comp", "order", "width", "code", "fields", "levels")

    def __init__(self, g: Graph):
        n = g.n
        self.comp = g.complement().rows
        self.order = sorted(range(n), key=lambda v: (self.comp[v].bit_count(), v))
        for code in "BHIQ":
            self.width = 8 * array(code).itemsize
            if 3 * (n - 1) < 1 << self.width and n <= 1 << (self.width - 1):
                break
        self.code = code
        # reads a pack's bytes as its fields; 8-bit fields are the bytes
        self.fields = bytes if self.width == 8 else partial(array, code)
        self.levels: list[tuple[int, ...] | None] = [None] * n

    def _pack(self, fields: list[int]) -> int:
        return int.from_bytes(array(self.code, fields).tobytes(), sys.byteorder)

    def level(self, i: int) -> tuple[int, ...]:
        """(bit of order[i], its absolute spread, packed d_R, packed
        2^(width - 1) + d_R, packed ones, packed 2^(width - 1), bytes in a
        pack, e(R)) for R = order[i:]."""
        comp, order, v = self.comp, self.order, self.order[i]
        rest = sum(1 << u for u in order[i:])
        degrees = [(comp[u] & rest).bit_count() for u in order[i:]]
        later = comp[v] & rest  # a complement row has no self bit
        spread = [later >> u & 1 for u in order]
        ones = self._pack([1] * len(degrees))
        high = ones << (self.width - 1)
        deg = self._pack(degrees)
        table = (
            1 << v, self._pack(spread), deg, deg + high, ones, high,
            len(degrees) * self.width // 8, sum(degrees) // 2,
        )
        self.levels[i] = table
        return table


@lru_cache(maxsize=8)
def _search_tables(g: Graph) -> _SearchTables:
    return _SearchTables(g)


def min_tset_missing(
    g: Graph,
    t: int,
    *,
    stop_at: int | None = None,
) -> tuple[int, frozenset[int]]:
    """Minimum number of missing edges over all t-subsets, with a witness.

    Branch and bound on the complement: vertices are tried in ascending
    complement-degree order, the first t of them give the starting
    incumbent, and a depth-first search (include a vertex before excluding
    it, on an explicit stack) cuts a branch once its partial missing count
    plus a lower bound on the rest cannot beat the incumbent. With R the r
    undecided vertices and s open slots, a vertex u in R has m_u
    complement-neighbours among the chosen ones and d_R(u) in R, and a
    completion S of R with |S| = s adds sum_S m_u + e(S), e counting
    complement edges. Two bounds on it are checked in turn:

    * each u in S keeps at least s - r + d_R(u) complement-neighbours in S,
      so the completion adds at least half the sum of the s smallest keys
      2 m_u + max(0, s - r + d_R(u)), rounded up;
    * sum_S d_R(u) = 2 e(S) + e(S, R - S) and e(R) = e(S) + e(R - S) +
      e(S, R - S) give sum_S m_u + e(S) = sum_S (m_u + d_R(u)) - e(R) +
      e(R - S), so the completion adds at least the sum of the s smallest
      m_u + d_R(u), less e(R).

    The counters m_u are fields of one int (``_SearchTables`` sets their
    width), so including a vertex is one add of its spread (its later
    complement-neighbours, one per field), max(0, s - r + d_R(u)) comes
    from the top bits of biased fields, and each key list is one sort of
    the pack's bytes. The tables for a graph are kept in a cache of the last
    8 graphs seen, so searches for every t of one graph build them once.

    A bound only cuts branches that hold no strictly better subset, so the
    witness is the first optimal subset in search order, whichever bounds
    are used. ``stop_at`` ends the search at the first subset found with at
    most that many missing edges: ``t_param`` stops at n - t, and the suite's
    averaging check at floor(Delta t^2 / 2n). Otherwise the value is exact. No size guard.
    """
    n = g.n
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t = {t}, n = {n}")
    tables = _search_tables(g)
    comp, levels, width, fields = tables.comp, tables.levels, tables.width, tables.fields
    field, top_shift, byteorder = (1 << width) - 1, width - 1, sys.byteorder

    best_mask = 0
    best = 0
    for v in tables.order[:t]:
        best += (comp[v] & best_mask).bit_count()
        best_mask |= 1 << v
    if stop_at is not None and best <= stop_at:
        return best, frozenset(iter_bits(best_mask))

    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, k, cur, counts, chosen = stack.pop()
        if cur >= best:
            continue
        if k == t:
            best, best_mask = cur, chosen
            if stop_at is not None and cur <= stop_at:
                break
            continue
        slots = t - k
        spare = n - i - slots
        if spare < 0:
            continue
        bit, spread, deg, biased, ones, high, size, inner = levels[i] or tables.level(i)
        m = counts >> width * i
        x = biased - spare * ones
        top = x & high
        keys = sorted(fields(((m << 1) + (x & (top - (top >> top_shift)))).to_bytes(size, byteorder)))
        if cur + (sum(keys[:slots]) + 1) // 2 >= best:
            continue
        keys = sorted(fields((m + deg).to_bytes(size, byteorder)))
        if cur + sum(keys[:slots]) - inner >= best:
            continue
        # the include branch goes on top, so it is searched first
        stack.append((i + 1, k, cur, counts, chosen))
        stack.append((i + 1, k + 1, cur + (m & field), counts + spread, chosen | bit))
    return best, frozenset(iter_bits(best_mask))


def tset_missing_upper_estimate(g: Graph, t: int) -> int:
    """Averaging upper bound on min_tset_missing: some t-set misses at most
    total_missing * C(t,2) / C(n,2) edges. Not exact, usable beyond the
    subset-search guard."""
    n = g.n
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t = {t}, n = {n}")
    return _averaging_estimate(n, n * (n - 1) // 2 - g.num_edges, t)


def _averaging_estimate(n: int, total_missing: int, t: int) -> int:
    return total_missing * (t * (t - 1)) // (n * (n - 1)) if t >= 2 else 0  # n >= t >= 2


def t_param(g: Graph) -> ParamReport:
    """Largest t admitting a t-set with at most n - t missing edges inside,
    plus the witness and the sandwich t - Delta <= sigma <= t.

    The scan starts at ``t_param_lower_estimate``, which always qualifies:
    the minimum over t-sets is an integer no larger than the average, so at
    most its floor, which the estimate keeps at most n - t. It then steps
    up while a (t + 1)-set misses at most n - t - 1 edges, and stops at the
    first failure. Qualifying is closed downwards, since every (t - 1)-subset
    of a qualifying t-set misses at most n - t < n - t + 1 edges, so no t
    above the first failure qualifies, and only that one search has to run
    to exhaustion. The witness comes from the call ``min_tset_missing(g,
    t(G), stop_at=n - t(G))``, the one a scan down from n would return from,
    so it is the same. No size guard.
    """
    n = g.n
    t = t_param_lower_estimate(g)  # raises on the empty graph
    _, witness = min_tset_missing(g, t, stop_at=n - t)
    while t < n:
        value, larger = min_tset_missing(g, t + 1, stop_at=n - t - 1)
        if value > n - t - 1:
            break
        t, witness = t + 1, larger
    delta = g.max_missing_degree()
    return ParamReport(t, witness, delta, t - delta, t)


def t_param_lower_estimate(g: Graph) -> int:
    """Largest t whose ``tset_missing_upper_estimate`` is at most n - t: a
    lower bound on t(G) from one edge count, with no size guard. Not exact."""
    n = g.n
    if n == 0:
        raise ValueError("t_param is undefined on the empty graph")
    total_missing = n * (n - 1) // 2 - g.num_edges
    return next(t for t in range(n, 0, -1) if _averaging_estimate(n, total_missing, t) <= n - t)


def delta_threshold_no_subdivision(n: int, t: int) -> Fraction:
    """Averaging threshold 2(n-t)(n-1) / (4(n-1) + t(t-1)).

    Any n-vertex graph without a subdivision of a t-clique has maximum
    missing degree strictly greater than this value: otherwise some t-set
    would miss few enough edges for the dense subdivision embedder.
    """
    if n < 2:
        raise ValueError(f"threshold undefined for n < 2, got n = {n}")
    if t > n:
        raise ValueError(f"need t <= n, got t = {t}, n = {n}")
    return Fraction(2 * (n - t) * (n - 1), 4 * (n - 1) + t * (t - 1))
