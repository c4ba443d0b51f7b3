import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_extremal import suite
from clique_extremal import (
    Graph,
    GuardExceeded,
    count_cliques_oracle,
    count_cliques_peeling,
    matching_complement,
    random_graph,
    star_of_clique,
)

from clique_extremal.cliques import CliqueStats
from clique_extremal.graph import iter_bits, reach
from clique_extremal.limits import ORACLE_MAX_N, check_guard

from conftest import brute_count_cliques, complete_graph, cycle_graph


# The recursive counters as they were before both moved onto explicit stacks,
# kept verbatim (only renamed) as references for the stack versions; the
# peeling reference picks with reference_min_degree_vertex (below), not with
# the module's own pick, so its pick order checks the depth-0 picks.


def reference_oracle(g: Graph, limit_n: int | None = None) -> CliqueStats:
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


def reference_peeling(g: Graph) -> tuple[CliqueStats, tuple[int, ...]]:
    """Peeling enumeration: repeatedly pick a minimum degree vertex (lowest
    index on ties), count the cliques containing it inside its
    neighbourhood, then delete it. Returns the counts and the outer loop's
    picks in order."""
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
            v, d = reference_min_degree_vertex(adj, residual)
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
    total = 1
    residual = g.full_mask
    while residual:
        v, _ = reference_min_degree_vertex(adj, residual)
        picked.append(v)
        total += count_within(adj[v] & residual, 1)
        residual &= ~(1 << v)
    return CliqueStats(total, total - 1, omega), tuple(picked)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_stack_counters_match_the_recursive_references(n, p, seed):
    g = random_graph(n, p, seed)
    assert count_cliques_oracle(g) == reference_oracle(g)
    assert count_cliques_peeling(g) == reference_peeling(g)


def _bucket_queue_inputs():
    """Inputs beyond the hypothesis range, where the top-level picks move
    many vertices between degree buckets."""
    for n in (40, 120, 300):
        for p in (0.01, 0.04, 0.1):
            yield f"G({n}, {p})", random_graph(n, p, n * 1000 + round(p * 100))
    yield "star", Graph.from_edge_list(60, [(0, v) for v in range(1, 60)])
    yield "path", Graph.from_edge_list(60, [(v, v + 1) for v in range(59)])
    yield "isolated", Graph.from_edge_list(30, [(3, 7), (7, 12), (3, 12), (12, 20), (25, 29)])
    yield "star_of_clique", star_of_clique(200, 5)


def test_bucket_queue_matches_the_reference_on_large_sparse_graphs():
    for name, g in _bucket_queue_inputs():
        assert count_cliques_peeling(g) == reference_peeling(g), name


def _path_complement(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)]).complement()


def test_oracle_counts_a_deep_path_complement():
    # the independent sets of a path on n vertices number F(n + 2); the
    # branch depth here is far beyond the default recursion limit
    n = 1100
    stats = count_cliques_oracle(_path_complement(n), limit_n=n)
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    assert stats.count_including_empty == b
    assert stats.clique_number == n // 2


def test_counters_need_no_interpreter_stack():
    # Ten frames above the caller's depth. The depth counts C calls as well
    # as the frames that inspect.stack() sees, so start there and take the
    # smallest limit setrecursionlimit accepts. The recursive counters need
    # about fifteen frames more on this graph.
    g = matching_complement(30)
    old = sys.getrecursionlimit()
    limit = len(inspect.stack())
    try:
        while True:
            try:
                sys.setrecursionlimit(limit)
                break
            except RecursionError:
                limit += 1
        sys.setrecursionlimit(limit + 10)
        oracle = count_cliques_oracle(g)
        peeling, _ = count_cliques_peeling(g)
    finally:
        sys.setrecursionlimit(old)
    assert oracle == peeling == CliqueStats(3**15, 3**15 - 1, 15)


def _partial_matching_complement(n: int, e: int, rng: random.Random) -> Graph:
    """K_n minus e disjoint edges on randomly chosen vertices."""
    order = rng.sample(range(n), n)
    partner = dict(zip(order[: 2 * e : 2], order[1 : 2 * e : 2]))
    partner.update({b: a for a, b in partner.items()})
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) & ~(1 << partner.get(v, v)) for v in range(n)])


def _matching_stats(n: int, e: int) -> CliqueStats:
    count = 3**e << (n - 2 * e)
    return CliqueStats(count, count - 1, n - e)


def test_counters_on_partial_matching_complements_up_to_n_40():
    # beyond the hypothesis range (n <= 14): the complement is a matching
    # with e edges, so 3^e * 2^(n-2e) cliques and clique number n - e. The
    # oracle closes such a mask at once; peeling takes about 2^e nodes, so
    # it gets e <= 12, and the perfect matchings go to the oracle alone
    rng = random.Random("partial-matching")
    for n in range(1, 41, 3):
        for e in {0, rng.randint(0, min(n // 2, 12)), min(n // 2, 12)}:
            g = _partial_matching_complement(n, e, rng)
            assert count_cliques_oracle(g) == _matching_stats(n, e), (n, e)
            assert count_cliques_peeling(g)[0] == _matching_stats(n, e), (n, e)
    for n in range(30, 41):
        g = _partial_matching_complement(n, n // 2, rng)
        assert count_cliques_oracle(g) == _matching_stats(n, n // 2), n


@pytest.mark.parametrize("quick", [True, False])
def test_matching_complement_check_counts_with_the_peeling_counter(monkeypatch, quick):
    # the oracle closes MC(n) by the formula itself, so only the peeling
    # counter's search can disagree with 3^(n/2); it runs for n <= 16
    real = suite.count_cliques_peeling

    def off_by_one(g):
        stats, picks = real(g)
        return stats._replace(count_including_empty=stats.count_including_empty + 1), picks

    monkeypatch.setattr(suite, "count_cliques_peeling", off_by_one)
    name, passed, _, data = suite.check_matching_complement_counts(0, quick)
    assert name == "matching-complement-count" and not passed
    assert data["failures"] == [[n, "peeling", 3 ** (n // 2) + 1] for n in range(2, 17, 2)]


def test_sigma_sandwich_check_counts_threshold_violations(monkeypatch):
    # Delta <= n - 1 < n, so a threshold of n is violated at every t above sigma
    monkeypatch.setattr(suite, "delta_threshold_no_subdivision", lambda n, t: n)
    name, passed, _, data = suite.check_sigma_sandwich(0, True)
    assert name == "sigma-sandwich" and not passed
    assert data["sandwich_violations"] == 0 and data["threshold_violations"] > 0


def test_oracle_known_values():
    assert count_cliques_oracle(complete_graph(4)).count_including_empty == 16
    assert count_cliques_oracle(complete_graph(4)).clique_number == 4
    mc6 = count_cliques_oracle(matching_complement(6))
    assert mc6.count_including_empty == 27
    assert mc6.clique_number == 3
    assert count_cliques_oracle(star_of_clique(10, 5)).count_including_empty == 64


def test_peeling_known_values():
    stats, _ = count_cliques_peeling(Graph.from_edge_list(3, []))
    assert stats.count_including_empty == 4
    stats, _ = count_cliques_peeling(cycle_graph(5))
    assert stats.count_including_empty == 11
    assert stats.clique_number == 2
    stats, _ = count_cliques_peeling(star_of_clique(12, 5))
    assert stats.count_including_empty == 2 ** 3 * (12 - 5 + 3)


def test_counts_on_empty_vertex_set():
    g = Graph.from_edge_list(0, [])
    assert count_cliques_oracle(g).count_including_empty == 1
    assert count_cliques_oracle(g).clique_number == 0
    stats, picks = count_cliques_peeling(g)
    assert stats.count_including_empty == 1
    assert picks == ()


def test_stats_invariants():
    for seed in range(25):
        g = random_graph(seed % 13 + 1, 0.5, seed)
        stats = count_cliques_oracle(g)
        assert stats.count_including_empty == stats.count_nonempty + 1
        assert 1 <= stats.clique_number <= g.n


def test_oracle_matches_subset_enumeration():
    for seed in range(40):
        g = random_graph(seed % 11 + 2, (seed % 9 + 1) / 10.0, seed)
        count, omega = brute_count_cliques(g)
        stats = count_cliques_oracle(g)
        assert stats.count_including_empty == count
        assert stats.clique_number == omega


def test_peeling_matches_oracle():
    for seed in range(150):
        g = random_graph(seed % 17 + 4, (seed % 9 + 1) / 10.0, seed)
        assert count_cliques_peeling(g)[0] == count_cliques_oracle(g)


def test_peeling_on_a_hub_joined_to_k44():
    # vertex 0 joined to 1-4, and K_{4,4} between {1, 3, 5, 6} and {2, 4, 7, 8}:
    # the residual {2, 4} at depth 2 is not a clique and is popped before any
    # triangle is seen, so the clique number 3 comes from the residual {4} it
    # pushes; 1 + 9 vertices + 20 edges + 4 triangles through 0
    edges = [(0, v) for v in range(1, 5)] + [(a, b) for a in (1, 3, 5, 6) for b in (2, 4, 7, 8)]
    g = Graph.from_edge_list(9, edges)
    expected = CliqueStats(34, 33, 3)
    assert count_cliques_oracle(g) == expected
    assert count_cliques_peeling(g) == reference_peeling(g)
    assert count_cliques_peeling(g)[0] == expected


def test_peeling_matches_oracle_on_every_graph_up_to_5_vertices():
    # every edge set on at most 5 vertices, 2^10 of them at n = 5: the small
    # residuals meet both closings, the clique one and the general pick,
    # with every edge count
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for edges in range(1 << len(pairs)):
            g = Graph.from_edge_list(n, [e for i, e in enumerate(pairs) if edges >> i & 1])
            assert count_cliques_peeling(g)[0] == count_cliques_oracle(g), (n, edges)


def test_oracle_guard():
    with pytest.raises(GuardExceeded):
        count_cliques_oracle(Graph.from_edge_list(41, []))
    # explicit limit overrides the default
    count_cliques_oracle(Graph.from_edge_list(41, []), limit_n=41)


def test_adding_edge_never_decreases_count():
    for seed in range(15):
        g = random_graph(10, 0.4, seed)
        base = count_cliques_oracle(g).count_including_empty
        missing = [
            (u, v)
            for u in range(10)
            for v in range(u + 1, 10)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        u, v = missing[seed % len(missing)]
        bigger = Graph.from_edge_list(10, list(g.edges()) + [(u, v)])
        assert count_cliques_oracle(bigger).count_including_empty >= base


def test_peeling_trace_well_formed():
    for seed in range(10):
        g = random_graph(12, 0.5, seed)
        _, picks = count_cliques_peeling(g)
        assert sorted(picks) == list(range(g.n))
        # each pick has minimum degree in its residual graph
        residual = set(range(g.n))
        for v in picks:
            degs = {u: sum(1 for w in residual if w != u and g.has_edge(u, w)) for u in residual}
            assert degs[v] == min(degs.values())
            residual.remove(v)


# The minimum-degree pick as it was while it walked iter_bits, kept verbatim
# (only renamed) as reference_peeling's pick, so that reference does not share
# the inline bit loop or its lowest-index tie rule with the counter it checks.


def reference_min_degree_vertex(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    """Vertex of minimum degree in the induced submask, lowest index on ties."""
    best_v = -1
    best_d = 1 << 62
    for v in iter_bits(mask):
        d = (adj[v] & mask).bit_count()
        if d < best_d:
            best_v, best_d = v, d
    return best_v, best_d

