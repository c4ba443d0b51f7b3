"""Extremal parameters: minimum missing-edge counts over t-sets, the
parameter t(G), and the missing-degree bounds tied to subdivisions.

All bound values are exact rationals; the subset searches are exact with a
branch-and-bound over the complement graph and a size guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, iter_bits
from .limits import SUBSET_MAX_N, check_guard

__all__ = [
    "ParamReport",
    "min_tset_missing",
    "tset_missing_upper_estimate",
    "t_param",
    "t_param_lower_estimate",
    "delta_lower_bound",
    "delta_threshold_no_subdivision",
]


@dataclass(frozen=True)
class ParamReport:
    """t(G) with a witness set, the maximum missing degree, and the implied
    sandwich for the clique subdivision number."""

    t_param: int
    witness: frozenset[int]
    delta: int
    sigma_lower: int
    sigma_upper: int


def min_tset_missing(
    g: Graph,
    t: int,
    limit_n: int | None = None,
    stop_at: int | None = None,
) -> tuple[int, frozenset[int]]:
    """Minimum number of missing edges over all t-subsets, with a witness.

    Branch and bound on the complement: vertices are tried in ascending
    complement-degree order, the first t of them give the starting
    incumbent, and a depth-first search (include a vertex before excluding
    it, on an explicit stack) cuts a branch once its partial missing count
    plus a completion bound cannot beat the incumbent. With R the r
    undecided vertices and s open slots, a vertex u in R has m_u
    complement-neighbours among the chosen ones and d_R(u) in R. A
    completion S of R with |S| = s leaves each u in S at least
    s - r + d_R(u) complement-neighbours inside S, so it adds at least half
    the sum of the s smallest keys 2 m_u + max(0, s - r + d_R(u)), rounded
    up. The bound only cuts branches that hold no strictly better subset,
    so the witness is the first optimal subset in search order. ``stop_at``
    ends the search at the first subset found with at most that many
    missing edges (used by threshold queries).
    """
    n = g.n
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t = {t}, n = {n}")
    check_guard("min_tset_missing", n, SUBSET_MAX_N, limit_n)
    complement = g.complement()
    comp = tuple(complement.adjacency_mask(v) for v in range(n))
    order = sorted(range(n), key=lambda v: (comp[v].bit_count(), v))
    comp_sorted = [comp[v] for v in order]
    undecided = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        undecided[i] = undecided[i + 1] | (1 << order[i])

    best_mask = 0
    best = 0
    for v in order[:t]:
        best += (comp[v] & best_mask).bit_count()
        best_mask |= 1 << v
    if stop_at is not None and best <= stop_at:
        return best, frozenset(iter_bits(best_mask))

    stack = [(0, 0, 0, 0)]
    while stack:
        i, k, cur, chosen = stack.pop()
        if cur >= best:
            continue
        if k == t:
            best, best_mask = cur, chosen
            if stop_at is not None and cur <= stop_at:
                break
            continue
        slots = t - k
        slack = slots - (n - i)
        if slack > 0:
            continue
        rest = undecided[i]
        keys = []
        for c in comp_sorted[i:]:
            forced = slack + (c & rest).bit_count()
            keys.append(2 * (c & chosen).bit_count() + (forced if forced > 0 else 0))
        keys.sort()
        if cur + (sum(keys[:slots]) + 1) // 2 >= best:
            continue
        v = order[i]
        # the include branch goes on top, so it is searched first
        stack.append((i + 1, k, cur, chosen))
        stack.append((i + 1, k + 1, cur + (comp[v] & chosen).bit_count(), chosen | (1 << v)))
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


def t_param(g: Graph, limit_n: int | None = None) -> ParamReport:
    """Largest t admitting a t-set with at most n - t missing edges inside,
    plus the witness and the sandwich t - Delta <= sigma <= t."""
    n = g.n
    if n == 0:
        raise ValueError("t_param is undefined on the empty graph")
    check_guard("t_param", n, SUBSET_MAX_N, limit_n)
    delta = g.max_missing_degree()
    for t in range(n, 0, -1):
        value, witness = min_tset_missing(g, t, limit_n=limit_n, stop_at=n - t)
        if value <= n - t:
            return ParamReport(t, witness, delta, t - delta, t)
    raise AssertionError("unreachable: t = 1 always qualifies")


def t_param_lower_estimate(g: Graph) -> int:
    """Largest t whose ``tset_missing_upper_estimate`` is at most n - t: a
    lower bound on t(G) from one edge count, with no size guard. Not exact."""
    n = g.n
    if n == 0:
        raise ValueError("t_param is undefined on the empty graph")
    total_missing = n * (n - 1) // 2 - g.num_edges
    return next(t for t in range(n, 0, -1) if _averaging_estimate(n, total_missing, t) <= n - t)


def delta_lower_bound(n: int, x: int, t: int) -> Fraction:
    """If every t-set of an n-vertex graph misses at least x edges, the
    maximum missing degree is at least 2nx/t^2 (exact rational)."""
    if t == 0:
        raise ValueError("t must be positive")
    if n < t:
        raise ValueError(f"need n >= t, got n = {n}, t = {t}")
    return Fraction(2 * n * x, t * t)


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
