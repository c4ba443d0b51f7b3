import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from clique_extremal import (
    Graph,
    count_cliques_oracle,
    disjoint_union_matching_complements,
    immersion_tightness,
    matching_complement,
    random_graph,
    sigma_exhaustive,
    star_of_clique,
)
from clique_extremal.constructions import _BULK_N, _matching_block_size

from conftest import complete_graph


def test_star_of_clique_structure():
    g = star_of_clique(10, 5)
    core = 5 - 2
    for v in range(core):
        assert g.degree(v) == 9
    for v in range(core, 10):
        assert g.degree(v) == core  # pendant degree t - 2
        assert all(g.has_edge(v, c) for c in range(core))
    assert count_cliques_oracle(g).count_including_empty == 64


def test_star_of_clique_degenerate_is_clique():
    g = star_of_clique(4, 6)  # n = t - 2
    assert g == complete_graph(4)
    assert count_cliques_oracle(g).count_including_empty == 2 ** 4


def test_star_of_clique_rejects_bad_params():
    with pytest.raises(ValueError):
        star_of_clique(2, 5)
    with pytest.raises(ValueError):
        star_of_clique(5, 2)


def test_matching_complement_basics():
    g = matching_complement(8)
    assert g.max_missing_degree() == 1
    assert all(not g.has_edge(2 * i, 2 * i + 1) for i in range(4))
    assert count_cliques_oracle(matching_complement(6)).count_including_empty == 27
    assert count_cliques_oracle(matching_complement(2)).count_including_empty == 3


def test_matching_complement_rejects_odd():
    with pytest.raises(ValueError):
        matching_complement(7)
    with pytest.raises(ValueError):
        matching_complement(0)


def test_union_block_size_rule():
    assert _matching_block_size(9) == 10  # largest even below 12
    assert _matching_block_size(6) == 6  # largest even strictly below 8
    assert _matching_block_size(2) == 2


def test_union_blocks_are_matching_complements():
    # n >= 4t/3 with block < 4t/3 forces at least two pieces, so the
    # single-block case is realized blockwise: each block induces a
    # matching complement of its size, with no edge between blocks
    g = disjoint_union_matching_complements(8, 6)  # blocks of 6 and 2
    assert g.rows == matching_complement(6).rows + tuple(row << 6 for row in matching_complement(2).rows)
    assert count_cliques_oracle(g).count_including_empty == (27 - 1) + (3 - 1) + 1


def test_union_two_blocks_count():
    g = disjoint_union_matching_complements(12, 5)  # two blocks of 6
    stats = count_cliques_oracle(g)
    assert stats.count_including_empty == 2 * (27 - 1) + 1


def test_union_remainder_becomes_final_block():
    g = disjoint_union_matching_complements(28, 9)  # blocks 10, 10, 8
    assert count_cliques_oracle(g).count_including_empty == 2 * (3 ** 5 - 1) + (3 ** 4 - 1) + 1


def test_union_rejects_bad_params():
    with pytest.raises(ValueError):
        disjoint_union_matching_complements(2, 9)  # below 4t/3
    with pytest.raises(ValueError):
        disjoint_union_matching_complements(13, 9)  # odd


def reference_union(n: int, t: int) -> Graph:
    """The earlier union, kept verbatim as the reference: it derives the
    edges of each matching-complement block by hand."""
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
    edges = []
    offset = 0
    for size in sizes:
        for u in range(size):
            for v in range(u + 1, size):
                if u ^ 1 != v:
                    edges.append((offset + u, offset + v))
        offset += size
    return Graph.from_edge_list(n, edges)


def _built_or_error(build, n, t):
    try:
        return build(n, t)
    except ValueError as exc:
        return str(exc)


def test_union_matches_the_reference_for_every_size_below_120():
    # every valid (n, t) with n < 120 (even n, 2 <= t <= 3n/4), and the
    # error message of every invalid one up to t = 92
    graphs = 0
    for n in range(120):
        for t in range(93):
            got = _built_or_error(disjoint_union_matching_complements, n, t)
            assert got == _built_or_error(reference_union, n, t), (n, t)
            graphs += isinstance(got, Graph)
    assert graphs == 2581


def test_immersion_tightness_shape():
    g, terminals = immersion_tightness(12, 6)
    assert terminals == frozenset(range(6))
    assert g.max_missing_degree() == (12 - 6) // 2 + 1
    assert not g.has_edge(0, 1)
    assert g.missing_edges_within(terminals) == 1
    # the two outside cliques have no cross edges
    s1 = range(6, 9)
    s2 = range(9, 12)
    assert all(not g.has_edge(a, b) for a in s1 for b in s2)


def reference_immersion_tightness(n: int, t: int):
    """The earlier construction, kept verbatim as the reference: it lists
    every edge and rebuilds the rows through ``Graph.from_edge_list``."""
    if t < 2:
        raise ValueError(f"immersion_tightness needs t >= 2, got t = {t}")
    if n <= t or (n - t) % 2:
        raise ValueError(f"immersion_tightness needs n - t even and positive, got n = {n}, t = {t}")
    half = (n - t) // 2
    s1 = range(t, t + half)
    s2 = range(t + half, n)
    edges = []
    for u in range(t):
        for v in range(u + 1, t):
            if (u, v) != (0, 1):
                edges.append((u, v))
    for block in (s1, s2):
        for u in block:
            for v in block:
                if u < v:
                    edges.append((u, v))
    for w in s1:
        edges.extend((term, w) for term in range(t) if term != 1)
    for w in s2:
        edges.extend((term, w) for term in range(t) if term != 0)
    return Graph.from_edge_list(n, edges), frozenset(range(t))


def test_immersion_tightness_matches_the_reference_for_every_size_below_120():
    # every valid (n, t) with n < 120 and t < 30 (n - t even and positive,
    # t >= 2): the same rows and the same terminals; the error message of
    # every invalid one
    graphs = 0
    for n in range(120):
        for t in range(30):
            got = _built_or_error(immersion_tightness, n, t)
            assert got == _built_or_error(reference_immersion_tightness, n, t), (n, t)
            graphs += isinstance(got, tuple)
    assert graphs == 1442


def test_immersion_tightness_rejects_bad_params():
    with pytest.raises(ValueError):
        immersion_tightness(11, 4)  # odd remainder
    with pytest.raises(ValueError):
        immersion_tightness(4, 4)  # empty remainder


def test_random_graph_extremes_and_determinism():
    assert random_graph(6, 0.0, 1).num_edges == 0
    assert random_graph(6, 1.0, 1) == complete_graph(6)
    assert random_graph(12, 0.37, 99) == random_graph(12, 0.37, 99)
    assert random_graph(12, 0.37, 99) != random_graph(12, 0.37, 100)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 0)
    # random.Random would seed -3 as 3
    for n in (6, _BULK_N):
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            random_graph(n, 0.5, -3)


def reference_random_graph(n: int, p: float, seed: int) -> Graph:
    """The earlier builder, kept as the reference for the draw order: an
    edge list, one draw per pair u < v in lexicographic order."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def test_random_graph_draws_in_the_reference_order():
    grids = [
        (range(41), (0.0, 0.04, 0.37, 0.5, 1.0)),
        # on both sides of the switch to bulk draws and beyond it, at p off the
        # 1/256 grid (so that random()'s own expression decides some pairs),
        # an int p and a Fraction p
        ((_BULK_N - 1, _BULK_N, 64, 200), (0.37, 1 / 3, 2**-9, 1 - 2**-30, 1, Fraction(1, 3))),
    ]
    for sizes, densities in grids:
        for n in sizes:
            for p in densities:
                for seed in (0, 1, 7, 2**31 - 1):
                    g = random_graph(n, p, seed)
                    assert (g.n, g.rows) == (n, reference_random_graph(n, p, seed).rows), (n, p, seed)
    assert random_graph(800, 0.5, 11) == reference_random_graph(800, 0.5, 11)
    # p equal to the 500th draw and to the next float above it: only the low
    # bits of random()'s expression decide that pair
    draw = random.Random(7).random
    x = [draw() for _ in range(500)][-1]
    for p in (x, math.nextafter(x, 1.0)):
        assert random_graph(64, p, 7) == reference_random_graph(64, p, 7), p


def test_random_graph_bulk_scratch_memory_is_bounded():
    n = 2000
    tracemalloc.start()
    try:
        random_graph(n, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n


def test_random_graph_edge_sizes():
    assert random_graph(0, 0.5, 3) == Graph(0, [])
    assert random_graph(1, 1.0, 3) == Graph(1, [0])
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        random_graph(-1, 0.5, 3)


def test_generators_satisfy_graph_invariants():
    graphs = [
        star_of_clique(9, 4),
        matching_complement(10),
        disjoint_union_matching_complements(14, 5),
        immersion_tightness(10, 4)[0],
        random_graph(13, 0.5, 5),
    ]
    for g in graphs:
        for v in range(g.n):
            assert not g.has_edge(v, v)
            assert g.degree(v) + g.missing_degree(v) == g.n - 1
            for w in range(g.n):
                assert g.has_edge(v, w) == g.has_edge(w, v)


def test_union_blocks_contain_no_clique_subdivision():
    # sigma(MC(b)) for b = 2, 4, ..., 14 is 1, 3, 4, 6, 7, 9, 10, so the
    # block rule of disjoint_union_matching_complements holds for t <= 11
    # and the next even size already holds a subdivision for t <= 10
    for t in range(2, 12):
        block = _matching_block_size(t)
        assert sigma_exhaustive(matching_complement(block)) < t, t
        if t <= 10:
            assert sigma_exhaustive(matching_complement(block + 2)) >= t, t
