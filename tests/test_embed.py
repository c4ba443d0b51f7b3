import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clique_extremal import (
    Certificate,
    FormatError,
    Graph,
    PreconditionViolation,
    certificate_dumps,
    certificate_loads,
    has_immersion_with_ends,
    immerse_dense,
    immersion_tightness,
    matching_complement,
    random_graph,
    sigma_exhaustive,
    star_of_clique,
    subdivide_dense,
    verify_immersion,
    verify_subdivision,
)

import clique_extremal
from clique_extremal import suite
from clique_extremal.embed import KIND_STRONG, KIND_SUBDIVISION
from clique_extremal.graph import iter_bits, reach, simple_paths, vertex_mask
from clique_extremal.limits import SIGMA_MAX_N

from conftest import complete_graph, cycle_graph


def k5_minus_edge():
    return Graph.from_edge_list(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    )


# -- immerse_dense ------------------------------------------------------------


def test_immerse_dense_complete_graph_uses_direct_edges():
    cert = immerse_dense(complete_graph(5), range(5))
    assert len(cert.paths) == 10
    assert all(len(route) == 2 for route in cert.paths.values())
    assert verify_immersion(complete_graph(5), cert, "strong")


def test_immerse_dense_reroutes_missing_pair():
    g = k5_minus_edge()
    cert = immerse_dense(g, [0, 1, 2])
    assert cert.paths[(0, 1)] == (0, 3, 1)  # lowest-index helper vertex
    assert cert.paths[(0, 2)] == (0, 2)
    assert cert.paths[(1, 2)] == (1, 2)
    assert verify_immersion(g, cert, "strong")


def test_immerse_dense_rejects_tightness_terminal():
    g, terminals = immersion_tightness(10, 4)
    with pytest.raises(PreconditionViolation, match="terminal 0"):
        immerse_dense(g, terminals)


def test_immerse_dense_singleton_terminal_set():
    cert = immerse_dense(complete_graph(3), [1])
    assert cert.paths == {}
    assert verify_immersion(complete_graph(3), cert, "strong")


# -- subdivide_dense -----------------------------------------------------------


def test_subdivide_dense_complete_graph():
    cert = subdivide_dense(complete_graph(6), [0, 2, 3, 5])
    assert all(len(route) == 2 for route in cert.paths.values())
    assert verify_subdivision(complete_graph(6), cert)


def test_subdivide_dense_matching_complement_cases():
    mc8 = matching_complement(8)
    cert = subdivide_dense(mc8, [0, 1, 2, 4])
    assert cert.paths[(0, 1)] == (0, 3, 1)
    assert verify_subdivision(mc8, cert)
    cert = subdivide_dense(mc8, [0, 1, 2, 3])  # 2 missing <= 8 - 4 - 2
    assert cert.paths[(0, 1)] == (0, 4, 1)
    assert cert.paths[(2, 3)] == (2, 5, 3)
    assert verify_subdivision(mc8, cert)


def test_subdivide_dense_rejects_with_instantiated_inequality():
    g, _ = immersion_tightness(10, 4)  # max missing degree 4, hopeless budget
    with pytest.raises(PreconditionViolation, match=r"n - t - 2\*Delta"):
        subdivide_dense(g, [0, 1, 2, 3])


# -- both dense embedders against the earlier two-loop versions ---------------


def reference_immerse_dense(g: Graph, terminals) -> Certificate:
    """The earlier immersion embedder, kept verbatim as the reference: its
    own routing loop over an edge-availability overlay."""
    t_set = sorted(set(terminals))
    t_mask = vertex_mask(t_set, g.n)
    n, t = g.n, len(t_set)
    for v in t_set:
        if 2 * g.missing_degree(v) >= n - t + 2:
            raise PreconditionViolation(
                f"terminal {v} has missing degree {g.missing_degree(v)}, "
                f"needs < (n - t + 2)/2 = {(n - t + 2) / 2}"
            )
    avail = [g.adjacency_mask(v) for v in range(n)]
    outside = g.full_mask & ~t_mask
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in combinations(t_set, 2):
        if g.has_edge(u, v):
            paths[(u, v)] = (u, v)
    for u, v in combinations(t_set, 2):
        if g.has_edge(u, v):
            continue
        candidates = avail[u] & avail[v] & outside
        if not candidates:
            raise AssertionError(f"no free common neighbour left for pair ({u}, {v})")
        w = (candidates & -candidates).bit_length() - 1
        avail[u] &= ~(1 << w)
        avail[w] &= ~(1 << u)
        avail[v] &= ~(1 << w)
        avail[w] &= ~(1 << v)
        paths[(u, v)] = (u, w, v)
    return Certificate(KIND_STRONG, frozenset(t_set), paths)


def reference_subdivide_dense(g: Graph, terminals) -> Certificate:
    """The earlier subdivision embedder, kept verbatim as the reference: its
    own routing loop over a mask of used outside vertices."""
    t_set = sorted(set(terminals))
    t_mask = vertex_mask(t_set, g.n)
    n, t = g.n, len(t_set)
    delta = g.max_missing_degree() if n else 0
    missing = g.missing_edges_within_mask(t_mask)
    budget = n - t - 2 * delta
    if missing > budget:
        raise PreconditionViolation(
            f"{missing} missing edges inside the terminal set exceed "
            f"n - t - 2*Delta = {n} - {t} - 2*{delta} = {budget}"
        )
    outside = g.full_mask & ~t_mask
    used = 0
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in combinations(t_set, 2):
        if g.has_edge(u, v):
            paths[(u, v)] = (u, v)
            continue
        candidates = g.adjacency_mask(u) & g.adjacency_mask(v) & outside & ~used
        if not candidates:
            raise AssertionError(f"no unused common neighbour left for pair ({u}, {v})")
        w = (candidates & -candidates).bit_length() - 1
        used |= 1 << w
        paths[(u, v)] = (u, w, v)
    return Certificate(KIND_SUBDIVISION, frozenset(t_set), paths)


def _outcome(embed, g, terminals):
    """The certificate, or the message of the precondition it reports."""
    try:
        return embed(g, terminals)
    except PreconditionViolation as exc:
        return f"PreconditionViolation: {exc}"


@st.composite
def dense_graph_with_terminals(draw):
    """A complete graph minus a few drawn non-edges, and a terminal set: both
    preconditions hold on some draws and fail on others."""
    n = draw(st.integers(2, 16))
    pairs = list(combinations(range(n), 2))
    removed = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    g = Graph.from_edge_list(n, [pair for pair in pairs if pair not in removed])
    return g, draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n))


@settings(max_examples=400, deadline=None)
@given(dense_graph_with_terminals())
def test_dense_embedders_match_the_reference(instance):
    g, terminals = instance
    for embed, reference in ((immerse_dense, reference_immerse_dense), (subdivide_dense, reference_subdivide_dense)):
        assert _outcome(embed, g, terminals) == _outcome(reference, g, terminals)


def test_dense_embedders_match_the_reference_on_the_suite_instances():
    # the dense instances of both embedder checks of verify-paper at seed 0
    for label, kind, embed, reference in (
        ("immersion-sound", "immersion", immerse_dense, reference_immerse_dense),
        ("subdivision-sound", "subdivision", subdivide_dense, reference_subdivide_dense),
    ):
        for k in range(500):
            g, terminals = suite._dense_instance_with_terminals(suite._rng(0, label, k), kind)
            assert embed(g, terminals) == reference(g, terminals), (label, k)


# -- verifiers -----------------------------------------------------------------


def test_verifier_reports_shared_edge():
    g = complete_graph(4)
    cert = Certificate(
        "strong_immersion",
        frozenset([0, 1, 2]),
        {(0, 1): (0, 3, 1), (0, 2): (0, 3, 2), (1, 2): (1, 3, 2)},
    )
    # every pair routes through vertex 3: edges (0,3) etc. are fine, but
    # (1,3) appears in both the (0,1) and (1,2) routes
    result = verify_immersion(g, cert, "weak")
    assert not result
    assert any("(1, 3)" in v for v in result.violations)


def test_verifier_strong_vs_weak_internal_terminal():
    # the (0, 1) route passes through terminal 2 on fresh edges, so only
    # the strong check objects
    g = complete_graph(5)
    cert = Certificate(
        "strong_immersion",
        frozenset([0, 1, 2]),
        {(0, 1): (0, 4, 2, 3, 1), (0, 2): (0, 2), (1, 2): (1, 2)},
    )
    assert verify_immersion(g, cert, "weak")
    strong = verify_immersion(g, cert, "strong")
    assert not strong
    assert any("terminals" in v for v in strong.violations)


def test_verifier_missing_and_foreign_pairs():
    g = complete_graph(4)
    cert = Certificate("strong_immersion", frozenset([0, 1, 2]), {(0, 3): (0, 3)})
    result = verify_immersion(g, cert, "weak")
    assert not result
    assert any("not a terminal pair" in v for v in result.violations)
    assert sum("no path for terminal pair" in v for v in result.violations) == 3


def test_verifier_rejects_broken_routes():
    g = cycle_graph(5)
    bad_endpoint = Certificate("strong_immersion", frozenset([0, 1]), {(0, 1): (0, 2)})
    assert not verify_immersion(g, bad_endpoint, "weak")
    non_edge = Certificate("strong_immersion", frozenset([0, 2]), {(0, 2): (0, 2)})
    result = verify_immersion(g, non_edge, "weak")
    assert any("non-edge" in v for v in result.violations)
    repeated = Certificate("strong_immersion", frozenset([0, 2]), {(0, 2): (0, 1, 0, 1, 2)})
    assert not verify_immersion(g, repeated, "weak")
    for bad in (5, -1):
        outside = Certificate("strong_immersion", frozenset([0, 1]), {(0, 1): (0, bad, 1)})
        assert verify_immersion(g, outside, "weak").violations == (
            f"route for (0, 1) leaves the vertex range: (0, {bad}, 1)",
        )


def test_verify_immersion_rejects_an_unknown_mode():
    cert = Certificate("strong_immersion", frozenset([0, 1]), {(0, 1): (0, 1)})
    with pytest.raises(ValueError, match="^mode must be 'weak' or 'strong', got 'bogus'$"):
        verify_immersion(complete_graph(3), cert, mode="bogus")


def test_verifier_work_is_bounded_by_the_edge_count():
    # C(t, 2) edge-disjoint paths need C(t, 2) edges: 2,000 terminals against
    # an edgeless graph are one violation, reported before the 1,999,000
    # terminal pairs would be built
    g = Graph.from_edge_list(2000, [])
    text = certificate_dumps(Certificate(KIND_STRONG, frozenset(range(2000)), {}))
    want = ("2000 terminals need 1999000 edge-disjoint paths, but the graph has 0 edges",)
    # untraced first: a verifier that lists every missing pair fails here, on a short slice
    assert verify_immersion(g, certificate_loads(text)).violations[:2] == want
    tracemalloc.start()
    try:
        cert = certificate_loads(text)
        results = [verify_immersion(g, cert, "weak"), verify_immersion(g, cert), verify_subdivision(g, cert)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [result.violations for result in results] == [want] * 3
    assert peak < 2**20


def test_subdivision_certificate_is_strong_immersion():
    mc8 = matching_complement(8)
    cert = subdivide_dense(mc8, [0, 1, 2, 3])
    assert verify_immersion(mc8, cert, "strong")
    assert verify_immersion(mc8, cert, "weak")


def test_verify_subdivision_rejects_shared_internal():
    g = matching_complement(8)
    cert = subdivide_dense(g, [0, 1, 2, 3])
    tampered = dict(cert.paths)
    tampered[(2, 3)] = (2, 4, 3)  # reuse internal vertex 4 from the (0,1) route
    bad = Certificate("subdivision", cert.terminals, tampered)
    result = verify_subdivision(g, bad)
    assert not result
    assert any("internal vertex 4" in v for v in result.violations)
    # as a plain strong immersion the tampered routes are still edge-disjoint
    assert verify_immersion(g, bad, "strong")


# -- verifiers against corrupted certificates ---------------------------------


@st.composite
def dense_certificates(draw, embedders=(immerse_dense, subdivide_dense)):
    """A certificate from one of ``embedders`` on a random dense graph
    whose first two terminals are not adjacent, so some route has an
    internal vertex and the graph has a non-edge."""
    n = draw(st.integers(8, 14))
    g = random_graph(n, draw(st.sampled_from([0.85, 0.9, 0.95])), draw(st.integers(0, 2 ** 32 - 1)))
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=5, unique=True))
    u, v = sorted(terminals[:2])
    g = Graph.from_edge_list(n, [e for e in g.edges() if e != (u, v)])
    embed = draw(st.sampled_from(embedders))
    try:
        cert = embed(g, terminals)
    except PreconditionViolation:
        assume(False)
    return g, cert


def _verdicts(g, cert, modes):
    """Verification results in the given modes; subdivision mode only for a
    subdivision certificate, the one kind that should pass it."""
    modes = [m for m in modes if m != "subdivision" or cert.kind == "subdivision"]
    return [verify_subdivision(g, cert) if m == "subdivision" else verify_immersion(g, cert, m) for m in modes]


def _check_rejected(g, cert, mutant, message, modes=("weak", "strong", "subdivision")):
    assert all(_verdicts(g, cert, modes))
    for result in _verdicts(g, mutant, modes):
        assert not result
        assert any(message in violation for violation in result.violations), result.violations


@settings(max_examples=60, deadline=None)
@given(dense_certificates(), st.data())
def test_verifiers_reject_a_dropped_path(instance, data):
    g, cert = instance
    pair = data.draw(st.sampled_from(sorted(cert.paths)))
    paths = {p: route for p, route in cert.paths.items() if p != pair}
    _check_rejected(g, cert, cert._replace(paths=paths), f"no path for terminal pair {pair}")


@settings(max_examples=60, deadline=None)
@given(dense_certificates(), st.data())
def test_verifiers_reject_a_pair_repeated_under_its_reversed_key(instance, data):
    g, cert = instance
    u, v = data.draw(st.sampled_from(sorted(cert.paths)))
    paths = {**cert.paths, (v, u): cert.paths[(u, v)][::-1]}
    _check_rejected(g, cert, cert._replace(paths=paths), f"duplicate path for pair {(u, v)}")


@settings(max_examples=60, deadline=None)
@given(dense_certificates(), st.data())
def test_verifiers_reject_a_route_over_a_non_edge(instance, data):
    g, cert = instance
    u, v = data.draw(st.sampled_from(sorted(cert.paths)))
    non_edges = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b)]
    a, b = data.draw(st.sampled_from(non_edges))
    # whichever of a, b is not an end sits next to the end it would equal,
    # so a and b are consecutive on the route
    route = (u, *(x for x in (a, b) if x not in (u, v)), v)
    paths = {**cert.paths, (u, v): route}
    _check_rejected(g, cert, cert._replace(paths=paths), "non-edge")


@settings(max_examples=60, deadline=None)
@given(dense_certificates(), st.data())
def test_verifiers_reject_a_terminal_inside_a_route(instance, data):
    g, cert = instance
    u, v = data.draw(st.sampled_from(sorted(cert.paths)))
    w = data.draw(st.sampled_from(sorted(cert.terminals - {u, v})))
    paths = {**cert.paths, (u, v): (u, w, v)}
    _check_rejected(g, cert, cert._replace(paths=paths), "passes through terminals", modes=("strong", "subdivision"))


@settings(max_examples=60, deadline=None)
@given(dense_certificates((subdivide_dense,)), st.data())
def test_verify_subdivision_rejects_a_reused_internal_vertex(instance, data):
    g, cert = instance
    owner = data.draw(st.sampled_from(sorted(p for p, route in cert.paths.items() if len(route) > 2)))
    x = cert.paths[owner][1]
    u, v = data.draw(st.sampled_from(sorted(set(cert.paths) - {owner})))
    paths = {**cert.paths, (u, v): (u, x, v)}
    _check_rejected(g, cert, cert._replace(paths=paths), f"internal vertex {x} shared by", modes=("subdivision",))


# -- exhaustive searches -------------------------------------------------------


def test_sigma_spot_values():
    assert sigma_exhaustive(cycle_graph(5)) == 3
    assert sigma_exhaustive(complete_graph(5)) == 5
    assert sigma_exhaustive(matching_complement(8)) == 6
    path = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert sigma_exhaustive(path) == 2
    claw = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert sigma_exhaustive(claw) == 2
    assert sigma_exhaustive(Graph.from_edge_list(3, [])) == 1
    assert sigma_exhaustive(Graph.from_edge_list(0, [])) == 0


def test_sigma_star_of_clique():
    # pendants can never route around each other: sigma sticks at t - 2 + 2
    assert sigma_exhaustive(star_of_clique(10, 5)) == 4


def test_sigma_past_the_cli_guard():
    # only the CLI refuses n > SIGMA_MAX_N; a 40-vertex binary tree is cheap
    assert sigma_exhaustive(Graph.from_edge_list(15, [])) == 1
    assert sigma_exhaustive(Graph.from_edge_list(40, [((v - 1) // 2, v) for v in range(1, 40)])) == 2


def test_sigma_subdivision_needs_long_paths():
    # K4 subdivided: each edge replaced by a path of length 2; only the
    # branch vertices have degree 3, and routing needs the length-2 paths
    edges = []
    internal = 4
    for u in range(4):
        for v in range(u + 1, 4):
            edges.extend([(u, internal), (internal, v)])
            internal += 1
    g = Graph.from_edge_list(internal, edges)
    assert sigma_exhaustive(g) == 4


def test_sigma_matching_complements_follow_the_union_block_rule():
    # sigma(MC(b)) for b = 2..14 even, up to the guard SIGMA_MAX_N = 14
    sigmas = [sigma_exhaustive(matching_complement(b)) for b in range(2, SIGMA_MAX_N + 1, 2)]
    assert sigmas == [1, 3, 4, 6, 7, 9, 10]


def test_has_immersion_with_ends_tightness():
    for n, t in [(8, 4), (10, 4)]:
        g, terminals = immersion_tightness(n, t)
        assert not has_immersion_with_ends(g, terminals, strong=True)
        assert has_immersion_with_ends(g, terminals, strong=False)


def test_has_immersion_with_ends_dense_graph():
    g = Graph.from_edge_list(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)]
    )
    assert has_immersion_with_ends(g, [0, 1, 2, 3], strong=True)


def test_has_immersion_with_ends_on_a_deep_path():
    # the only route has 2,198 internal vertices; a recursive path walk
    # would exceed the interpreter's recursion limit, and a walk that
    # restarts at one internal vertex per route length re-walks every
    # prefix, for seconds
    n = 2200
    g = Graph.from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    start = time.perf_counter()
    assert has_immersion_with_ends(g, [0, n - 1])
    assert time.perf_counter() - start < 0.5


# The earlier searches, kept as the reference: an augmenting matching over
# common neighbours, then a memoised recursive internal-set assignment for
# sigma; an unmemoised recursive route packing with no degree cut for
# immersions.


def reference_match_length_two(adj, pairs, pool):
    cands = [adj[u] & adj[v] & pool for u, v in pairs]
    matched = {}

    def assign(i, banned):
        free = cands[i] & ~banned[0]
        for w in iter_bits(free):
            banned[0] |= 1 << w
            j = matched.get(w)
            if j is None or assign(j, banned):
                matched[w] = i
                return True
        return False

    return all(assign(i, [0]) for i in range(len(pairs)))


def reference_route_internally_disjoint(adj, missing, pool):
    for u, v in missing:
        if not reach(adj, 1 << u, pool | 1 << v) >> v & 1:
            return False
    if reference_match_length_two(adj, missing, pool):
        return True
    order = sorted(missing, key=lambda p: ((adj[p[0]] & adj[p[1]] & pool).bit_count(), p))
    dead = set()

    def assign(idx, avail):
        if idx == len(order):
            return True
        key = (idx, avail)
        if key in dead:
            return False
        u, v = order[idx]
        seen = set()
        for used, _ in simple_paths(adj, u, v, avail):
            if used not in seen:
                seen.add(used)
                if assign(idx + 1, avail & ~used):
                    return True
        dead.add(key)
        return False

    return assign(0, pool)


def reference_sigma(g):
    n = g.n
    if n == 0:
        return 0
    adj = tuple(g.adjacency_mask(v) for v in range(n))
    degrees = sorted((g.degree(v) for v in range(n)), reverse=True)
    h_max = 1
    for h in range(n, 1, -1):
        if degrees[h - 1] >= h - 1:
            h_max = h
            break
    for h in range(h_max, 1, -1):
        candidates = [v for v in range(n) if g.degree(v) >= h - 1]
        if len(candidates) < h:
            continue
        for branch in combinations(candidates, h):
            b_mask = vertex_mask(branch, n)
            missing = [(u, v) for u, v in combinations(branch, 2) if not g.has_edge(u, v)]
            if not missing:
                return h
            if reference_route_internally_disjoint(adj, missing, g.full_mask & ~b_mask):
                return h
    return 1


def reference_has_immersion(g, terminals, strong):
    t_set = sorted(set(terminals))
    t_mask = vertex_mask(t_set, g.n)
    if len(t_set) <= 1:
        return True
    avail = [g.adjacency_mask(v) for v in range(g.n)]
    missing = []
    for u, v in combinations(t_set, 2):
        if g.has_edge(u, v):
            avail[u] &= ~(1 << v)
            avail[v] &= ~(1 << u)
        else:
            missing.append((u, v))
    internal_ok = g.full_mask & ~t_mask if strong else g.full_mask

    def consume(route):
        for a, b in zip(route, route[1:]):
            avail[a] &= ~(1 << b)
            avail[b] &= ~(1 << a)

    def restore(route):
        for a, b in zip(route, route[1:]):
            avail[a] |= 1 << b
            avail[b] |= 1 << a

    def pack(idx):
        if idx == len(missing):
            return True
        u, v = missing[idx]
        for _, route in simple_paths(avail, u, v, internal_ok):
            consume(route)
            if pack(idx + 1):
                return True
            restore(route)
        return False

    return pack(0)


def reference_simple_paths(adj, u, v, allowed):
    allowed &= ~(1 << u | 1 << v)
    for k in range(1, allowed.bit_count() + 1):
        route, used = [u], 0
        stack = [adj[u] & allowed]
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


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1), st.data())
def test_simple_paths_match_the_reference_walker(n, p, seed, data):
    # the reference restarts at one internal vertex instead of at the
    # breadth-first distance, and must yield the same sequence
    g = random_graph(n, p, seed)
    u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    allowed = data.draw(st.integers(0, g.full_mask))
    assert list(simple_paths(g.rows, u, v, allowed)) == list(reference_simple_paths(g.rows, u, v, allowed))


@st.composite
def graph_with_terminals(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edge_list(n, [pair for pair, keep in zip(pairs, present) if keep])
    terminals = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    return g, sorted(terminals)


@settings(max_examples=300, deadline=None)
@given(graph_with_terminals())
def test_searches_match_the_reference(instance):
    g, terminals = instance
    assert sigma_exhaustive(g) == reference_sigma(g)
    for strong in (True, False):
        assert has_immersion_with_ends(g, terminals, strong=strong) == reference_has_immersion(
            g, terminals, strong
        )


def test_sigma_matches_the_reference_beyond_nine_vertices():
    # 48 seeded G(n, p) with n = 10..12, past the property's n <= 9; both
    # searches together take about 0.1 s on a 2-core host
    for n in (10, 11, 12):
        for p in (0.3, 0.5, 0.7, 0.85):
            for seed in range(4):
                g = random_graph(n, p, seed)
                assert sigma_exhaustive(g) == reference_sigma(g), (n, p, seed)


def test_sigma_matches_the_reference_at_the_guard():
    # 24 seeded G(n, p) with n = 13 and n = SIGMA_MAX_N = 14; the reference
    # packs every simple path, sigma_exhaustive only induced ones. Both
    # searches together take about 0.4 s on a 2-core host
    for n in (13, SIGMA_MAX_N):
        for p in (0.4, 0.5, 0.6, 0.7):
            for seed in range(3):
                g = random_graph(n, p, seed)
                assert sigma_exhaustive(g) == reference_sigma(g), (n, p, seed)


_SCAN = """
import random, time
from clique_extremal import has_immersion_with_ends, random_graph

g = random_graph(12, 0.5, 41)
for strong in (True, False):
    start = time.perf_counter()
    assert not has_immersion_with_ends(g, [5, 3, 2, 6], strong=strong)
    assert time.perf_counter() - start < 1.0, strong
for seed in range(400):
    rng = random.Random(seed)
    g = random_graph(12, (0.3, 0.5, 0.7)[seed % 3], seed)
    terminals = rng.sample(range(12), rng.randint(4, 6))
    for strong in (True, False):
        has_immersion_with_ends(g, terminals, strong=strong)
"""


def test_immersion_search_finishes_on_seeded_instances():
    # terminal 6 of the seed-41 graph has degree 2, so no K_4 immersion can
    # end there; a search without a degree cut and a memo ran for minutes on
    # it. A subprocess with a timeout turns such a hang into a failure.
    env = {**os.environ, "PYTHONPATH": str(Path(clique_extremal.__file__).resolve().parents[1])}
    try:
        done = subprocess.run([sys.executable, "-c", _SCAN], env=env, capture_output=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("the seeded immersion scan did not finish within 30 s")
    assert done.returncode == 0, done.stderr.decode()


def test_has_immersion_with_ends_degenerate_and_unguarded():
    assert has_immersion_with_ends(complete_graph(3), [2])
    assert has_immersion_with_ends(complete_graph(3), [])
    assert not has_immersion_with_ends(Graph.from_edge_list(13, []), [0, 1])


def test_embedder_soundness_random_suite():
    checked = 0
    for k in range(60):
        rng = random.Random(f"unit-immersion:{k}")
        n = rng.randint(8, 14)
        t = rng.randint(3, n - 4)
        g = random_graph(n, rng.uniform(0.7, 0.95), rng.randrange(2 ** 32))
        terminals = sorted(range(n), key=lambda v: (g.missing_degree(v), v))[:t]
        if not all(2 * g.missing_degree(v) < n - t + 2 for v in terminals):
            continue
        cert = immerse_dense(g, terminals)
        assert verify_immersion(g, cert, "strong")
        assert all(len(route) <= 3 for route in cert.paths.values())
        checked += 1
    assert checked >= 30


def test_subdivider_soundness_random_suite():
    checked = 0
    for k in range(60):
        rng = random.Random(f"unit-subdivision:{k}")
        n = rng.randint(8, 14)
        t = rng.randint(3, 6)
        g = random_graph(n, rng.uniform(0.85, 0.98), rng.randrange(2 ** 32))
        budget = n - t - 2 * g.max_missing_degree()
        terminals = sorted(range(n), key=lambda v: (g.missing_degree(v), v))[:t]
        if budget < 0 or g.missing_edges_within(terminals) > budget:
            continue
        cert = subdivide_dense(g, terminals)
        assert verify_subdivision(g, cert)
        checked += 1
    assert checked >= 30


# -- serialization -------------------------------------------------------------


def test_certificate_json_round_trip():
    mc8 = matching_complement(8)
    cert = subdivide_dense(mc8, [0, 1, 2, 3])
    text = certificate_dumps(cert)
    data = json.loads(text)
    assert data["kind"] == "subdivision"
    assert data["terminals"] == [0, 1, 2, 3]
    back = certificate_loads(text)
    assert back.paths == cert.paths
    assert back.terminals == cert.terminals
    assert verify_subdivision(mc8, back)


def test_certificate_json_schema_shape():
    cert = immerse_dense(k5_minus_edge(), [0, 1, 2])
    data = json.loads(certificate_dumps(cert))
    assert data["kind"] == "strong_immersion"
    assert data["paths"][0] == {"ends": [0, 1], "route": [0, 3, 1]}


def test_certificate_json_errors():
    with pytest.raises(FormatError):
        certificate_loads("not json")
    with pytest.raises(FormatError):
        certificate_loads('{"kind": "nonsense", "terminals": [], "paths": []}')
    with pytest.raises(FormatError):
        certificate_loads('{"kind": "subdivision", "terminals": []}')
    twice = (
        '{"kind":"strong_immersion","terminals":[0,1],'
        '"paths":[{"ends":[0,1],"route":[0,1]},{"ends":[1,0],"route":[1,0]}]}'
    )
    with pytest.raises(FormatError, match=r"^duplicate path entry for pair \(0, 1\)$"):
        certificate_loads(twice)


_PATHS = '{"kind":"subdivision","terminals":[0,1],"paths":%s}'
MALFORMED_SHAPES = [
    ('{"kind":"subdivision","terminals":[]}', "the top level has no 'paths'"),
    ('{"kind":"subdivision","terminals":null,"paths":[]}', "terminals must be an array, got null"),
    ('{"kind":"subdivision","terminals":[[1]],"paths":[]}', "terminals[0] must be an integer, got an array"),
    (_PATHS % '{"a":1}', "paths must be an array, got an object"),
    (_PATHS % '"ab"', "paths must be an array, got a string"),
    (_PATHS % "[3]", "paths[0] must be an object, got an integer"),
    (_PATHS % '[{"ends":[0,1]}]', "paths[0] has no 'route'"),
    (_PATHS % '[{"ends":[1],"route":[0,1]}]', "paths[0].ends must be two vertices, got 1"),
    (_PATHS % '[{"ends":[0,1],"route":[0,1]},{"ends":[0,true],"route":[0,1]}]',
     "paths[1].ends[1] must be an integer, got a boolean"),
    (_PATHS % '[{"ends":[0,1],"route":[0,1.0]}]', "paths[0].route[1] must be an integer, got a number with a fraction or exponent"),
]


@pytest.mark.parametrize("text, message", MALFORMED_SHAPES, ids=[
    "no-paths", "null-terminals", "nested-terminal", "paths-object", "paths-string",
    "entry-integer", "no-route", "one-end", "boolean-end", "fraction-route",
])
def test_certificate_loads_names_the_malformed_field(text, message):
    with pytest.raises(FormatError) as exc:
        certificate_loads(text)
    assert str(exc.value) == f"malformed certificate: {message}"


NON_INTEGER_VERTICES = [
    '{"kind":"subdivision","terminals":"01","paths":[{"ends":"01","route":"01"}]}',
    '{"kind":"subdivision","terminals":[0,true],"paths":[{"ends":[0,1],"route":[0,1]}]}',
    '{"kind":"subdivision","terminals":[0,1],"paths":[{"ends":[false,1],"route":[0,1]}]}',
    '{"kind":"subdivision","terminals":[0,1],"paths":[{"ends":[0,1],"route":[0.2,1.9]}]}',
]


@pytest.mark.parametrize("text", NON_INTEGER_VERTICES, ids=["string", "boolean-terminal", "boolean-end", "fraction"])
def test_certificate_vertices_must_be_json_integers(text):
    # each of these once read as the valid certificate 0-1 of the edge (0, 1)
    with pytest.raises(FormatError, match="^malformed certificate: "):
        certificate_loads(text)


def test_certificate_negative_and_out_of_range_vertices_reach_the_verifier():
    g = Graph.from_edge_list(3, [(0, 1)])
    for bad in (-1, 3):
        cert = certificate_loads(
            f'{{"kind":"subdivision","terminals":[0,{bad}],"paths":[{{"ends":[0,{bad}],"route":[0,{bad}]}}]}}'
        )
        assert not verify_subdivision(g, cert)
