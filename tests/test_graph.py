import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_extremal import Graph, immersion_tightness, matching_complement, random_graph, star_of_clique
from clique_extremal.graph import induced_paths, reach, simple_paths, vertex_mask

from conftest import complete_graph, cycle_graph


def test_from_edge_list_triangle():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.num_edges == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_from_edge_list_collapses_duplicates():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_constructor_rejects_a_wrong_row_count():
    with pytest.raises(ValueError, match="^expected 3 adjacency rows, got 2$"):
        Graph(3, [0, 0])


def test_from_edge_list_empty_graph():
    g = Graph.from_edge_list(4, [])
    assert g.num_edges == 0
    assert g.n == 4


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        Graph.from_edge_list(2, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 5\)"):
        Graph.from_edge_list(3, [(0, 5)])


def test_degree_plus_missing_degree():
    for seed in range(20):
        g = random_graph(seed % 15 + 1, 0.4, seed)
        for v in range(g.n):
            assert g.degree(v) + g.missing_degree(v) == g.n - 1


def test_complement_involution_and_degrees():
    for seed in range(10):
        g = random_graph(12, 0.5, seed)
        back = g.complement().complement()
        assert back == g
        comp = g.complement()
        for v in range(g.n):
            assert g.missing_degree(v) == comp.degree(v)


def test_complement_of_complete_is_empty():
    assert complete_graph(4).complement().num_edges == 0
    empty = Graph.from_edge_list(5, [])
    assert empty.complement() == complete_graph(5)


def test_c5_self_complementary():
    comp = cycle_graph(5).complement()
    # the complement is again a connected 2-regular graph on 5 vertices
    assert all(comp.degree(v) == 2 for v in range(5))
    assert comp.num_edges == 5
    seen = {0}
    cur = 0
    for _ in range(4):
        nxt = [w for w in range(5) if comp.has_edge(cur, w) and w not in seen]
        assert nxt
        cur = nxt[0]
        seen.add(cur)
    assert seen == set(range(5))


def test_missing_degree_values():
    assert all(complete_graph(5).missing_degree(v) == 0 for v in range(5))
    assert all(cycle_graph(5).missing_degree(v) == 2 for v in range(5))
    star = star_of_clique(10, 5)
    assert star.missing_degree(9) == 6  # pendant: degree 3 in n = 10


def test_max_missing_degree():
    assert complete_graph(6).max_missing_degree() == 0
    assert matching_complement(8).max_missing_degree() == 1
    g, _ = immersion_tightness(10, 4)
    assert g.max_missing_degree() == (10 - 4) // 2 + 1
    with pytest.raises(ValueError):
        Graph.from_edge_list(0, []).max_missing_degree()


def test_missing_edges_within():
    assert complete_graph(6).missing_edges_within(range(6)) == 0
    assert matching_complement(8).missing_edges_within([0, 1, 2, 3]) == 2
    empty = Graph.from_edge_list(4, [])
    assert empty.missing_edges_within(range(4)) == 6
    for seed in range(10):
        g = random_graph(14, 0.5, seed)
        assert g.missing_edges_within(range(14)) == 14 * 13 // 2 - g.num_edges


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.integers(0, 2**12 - 1))
def test_missing_edges_within_mask_counts_pair_by_pair(n, p, seed, bits):
    g = random_graph(n, p, seed)
    mask = bits & g.full_mask
    inside = [v for v in range(n) if mask >> v & 1]
    pairs = sum(1 for i, u in enumerate(inside) for v in inside[i + 1 :] if not g.has_edge(u, v))
    assert g.missing_edges_within_mask(mask) == pairs


def test_edges_iteration_sorted():
    g = Graph.from_edge_list(4, [(2, 3), (0, 3), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]


# -- shared bitset walks -------------------------------------------------------


def _nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_rows_are_the_adjacency_masks():
    for g in (random_graph(9, 0.4, 1), star_of_clique(7, 4), Graph(0, [])):
        assert type(g.rows) is tuple
        assert g.rows == tuple(g.adjacency_mask(v) for v in range(g.n))


def test_reach_matches_networkx_components():
    for k in range(80):
        rng = random.Random(f"reach:{k}")
        n = rng.randint(1, 12)
        g = random_graph(n, rng.uniform(0.05, 0.6), rng.randrange(2 ** 32))
        seed = [v for v in range(n) if rng.random() < 0.2] or [rng.randrange(n)]
        allowed = [v for v in range(n) if rng.random() < 0.6]
        # every seed vertex expands, so the closure is what the seeds reach
        # in the graph induced on allowed plus seed
        h = _nx_graph(g).subgraph(set(allowed) | set(seed))
        expected = set().union(*(nx.node_connected_component(h, s) for s in seed))
        got = reach(g.rows, vertex_mask(seed, n), vertex_mask(allowed, n))
        assert got == vertex_mask(expected, n), (k, seed, allowed)


def test_simple_paths_matches_networkx_in_order():
    for k in range(80):
        rng = random.Random(f"simple-paths:{k}")
        n = rng.randint(2, 9)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(2 ** 32))
        u, v = rng.sample(range(n), 2)
        allowed = [w for w in range(n) if rng.random() < 0.8]
        h = _nx_graph(g).subgraph(set(allowed) | {u, v})
        routes = sorted(
            (len(p), tuple(p)) for p in nx.all_simple_paths(h, u, v) if len(p) > 2
        )
        expected = [(vertex_mask(route[1:-1], n), route) for _, route in routes]
        assert list(simple_paths(g.rows, u, v, vertex_mask(allowed, n))) == expected, k


def test_simple_paths_ignores_ends_in_allowed_and_direct_edge():
    g = complete_graph(4)
    paths = list(simple_paths(g.rows, 0, 3, g.full_mask))
    assert paths == [
        (0b0010, (0, 1, 3)),
        (0b0100, (0, 2, 3)),
        (0b0110, (0, 1, 2, 3)),
        (0b0110, (0, 2, 1, 3)),
    ]


def test_simple_paths_reads_adjacency_lazily():
    # path 0-1-2 plus a vertex 3 that is joined in only after the first route
    adj = [0b0010, 0b0101, 0b0010, 0b0000]
    walk = simple_paths(adj, 0, 2, 0b1111)
    assert next(walk) == (0b0010, (0, 1, 2))
    adj[1] |= 0b1000
    adj[2] |= 0b1000
    adj[3] |= 0b0110
    assert list(walk) == [(0b1010, (0, 1, 3, 2))]


def _is_induced(g: Graph, path) -> bool:
    return all(not g.rows[a] & vertex_mask(path[i + 2:], g.n) for i, a in enumerate(path))


def test_induced_paths_match_networkx_in_order():
    for k in range(300):
        rng = random.Random(f"induced-paths:{k}")
        n = rng.randint(2, 9)
        g = random_graph(n, rng.uniform(0.15, 0.75), rng.randrange(2 ** 32))
        h = _nx_graph(g)
        for u, v in combinations(range(n), 2):
            if g.has_edge(u, v):
                continue
            found = [p for p in nx.all_simple_paths(h, u, v) if _is_induced(g, p)]
            # both directions, each route listed from its own start
            for a, b, paths in ((u, v, found), (v, u, [p[::-1] for p in found])):
                expected = [(vertex_mask(p[1:-1], n), tuple(p)) for p in sorted(paths, key=lambda p: (len(p), p))]
                assert list(induced_paths(g.rows, a, b, g.full_mask)) == expected, (k, a, b)


def test_induced_paths_keep_to_allowed_in_order():
    for k in range(80):
        rng = random.Random(f"induced-paths-allowed:{k}")
        n = rng.randint(2, 9)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(2 ** 32))
        u, v = rng.sample(range(n), 2)
        allowed = [w for w in range(n) if rng.random() < 0.8]
        h = _nx_graph(g)
        sub = h.subgraph(set(allowed) | {u, v})
        routes = sorted(
            (len(p), tuple(p))
            for p in nx.all_simple_paths(sub, u, v)
            if len(p) > 2 and _is_induced(g, p)
        )
        expected = [(vertex_mask(route[1:-1], n), route) for _, route in routes]
        assert list(induced_paths(g.rows, u, v, vertex_mask(allowed, n))) == expected, k


def test_induced_paths_ignore_ends_in_allowed_and_stop_at_a_direct_edge():
    # the 4-cycle 0-1-2-3 has two induced 0-2 paths; K_4's edge 0-3 is a
    # chord of every longer 0-3 route
    c4 = cycle_graph(4)
    assert list(induced_paths(c4.rows, 0, 2, c4.full_mask)) == [(0b0010, (0, 1, 2)), (0b1000, (0, 3, 2))]
    k4 = complete_graph(4)
    assert list(induced_paths(k4.rows, 0, 3, k4.full_mask)) == []


def test_induced_paths_end_at_the_first_neighbour_of_the_far_end():
    # 0-1-2-3 with the extra edge 1-3: the route stops at 1, so the
    # longer 0-1-2-3 (chord 1-3) is never yielded
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert list(induced_paths(g.rows, 0, 3, g.full_mask)) == [(0b0010, (0, 1, 3))]


def test_induced_paths_on_a_long_path():
    # the only route has 2,998 internal vertices; a recursive walk would
    # exceed the interpreter's recursion limit
    n = 3000
    g = Graph.from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    assert list(induced_paths(g.rows, 0, n - 1, g.full_mask)) == [
        (g.full_mask & ~(1 | 1 << (n - 1)), tuple(range(n)))
    ]

