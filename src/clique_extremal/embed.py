"""Immersion and subdivision certificates: constructive embedders for the
dense regimes, certificate verifiers, and exhaustive desk-scale searches.

A certificate is a terminal set plus one explicit path per terminal pair.
Weak immersions need pairwise edge-disjoint paths; strong immersions
additionally keep internal vertices off the terminals; subdivisions are
strong immersions whose paths are internally vertex-disjoint.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple

from .errors import FormatError, PreconditionViolation
from .graph import Graph, induced_paths, simple_paths, vertex_mask

__all__ = [
    "Certificate",
    "VerificationResult",
    "immerse_dense",
    "subdivide_dense",
    "verify_immersion",
    "verify_subdivision",
    "sigma_exhaustive",
    "has_immersion_with_ends",
    "certificate_dumps",
    "certificate_loads",
]

KIND_STRONG = "strong_immersion"
KIND_WEAK = "weak_immersion"
KIND_SUBDIVISION = "subdivision"


class Certificate(NamedTuple):
    """An embedding of a complete graph: its kind (one of the three above),
    its end (branch) vertices, and the route of each terminal pair."""

    kind: str
    terminals: frozenset[int]
    paths: dict[tuple[int, int], tuple[int, ...]]


class VerificationResult(NamedTuple):
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# -- constructive embedders ---------------------------------------------------


def immerse_dense(g: Graph, terminals: Iterable[int]) -> Certificate:
    """Strong immersion of a complete graph with the given end vertices,
    using only paths of length one or two.

    Requires every terminal to have missing degree strictly below
    (n - t + 2) / 2; the counting behind it guarantees that ``_route_dense``
    finds a free outside vertex for every missing pair.
    """
    t_set = sorted(set(terminals))
    t_mask = vertex_mask(t_set, g.n)
    n, t = g.n, len(t_set)
    for v in t_set:
        if 2 * g.missing_degree(v) >= n - t + 2:
            raise PreconditionViolation(
                f"terminal {v} has missing degree {g.missing_degree(v)}, "
                f"needs < (n - t + 2)/2 = {(n - t + 2) / 2}"
            )
    return _route_dense(g, t_set, t_mask, KIND_STRONG)


def subdivide_dense(g: Graph, terminals: Iterable[int]) -> Certificate:
    """Subdivision of a complete graph with the given branch vertices, using
    only paths of length one or two.

    With D the maximum missing degree of g (so the minimum degree is
    n - D - 1 by definition), requires at most n - t - 2D missing edges
    inside the terminal set. ``_route_dense`` joins the pairs.
    """
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
    return _route_dense(g, t_set, t_mask, KIND_SUBDIVISION)


def _route_dense(g: Graph, t_set: list[int], t_mask: int, kind: str) -> Certificate:
    """Join the terminal pairs in lexicographic order, each by its direct edge
    or else through the lowest-indexed free common neighbour w outside the
    terminals; ``free[x]`` holds the outside neighbours terminal x may still
    route through. A subdivision route uses up the vertex w (w leaves every
    row), an immersion route the edges u-w and w-v (the rows of u and v)."""
    outside = g.full_mask & ~t_mask
    free = {x: g.rows[x] & outside for x in t_set}
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in combinations(t_set, 2):
        if g.has_edge(u, v):
            paths[(u, v)] = (u, v)
            continue
        candidates = free[u] & free[v]
        if not candidates:
            raise AssertionError(f"no free common neighbour left for pair ({u}, {v})")
        w = (candidates & -candidates).bit_length() - 1
        for x in t_set if kind == KIND_SUBDIVISION else (u, v):
            free[x] &= ~(1 << w)
        paths[(u, v)] = (u, w, v)
    return Certificate(kind, frozenset(t_set), paths)


# -- verifiers ----------------------------------------------------------------


def _check_paths(g: Graph, cert: Certificate, strong: bool) -> list[str]:
    violations: list[str] = []
    terminals = sorted(cert.terminals)
    for v in terminals:
        if not 0 <= v < g.n:
            violations.append(f"terminal {v} out of range")
            return violations
    # C(t, 2) pairwise edge-disjoint paths need C(t, 2) edges; with fewer, one
    # violation answers at once, so the pair set below never outgrows the edges
    t, m = len(terminals), g.num_edges
    need = t * (t - 1) // 2
    if need > m:
        return [f"{t} terminals need {need} edge-disjoint paths, but the graph has {m} edges"]
    expected = {tuple(sorted(p)) for p in combinations(terminals, 2)}
    seen_pairs: set[tuple[int, int]] = set()
    edge_owner: dict[frozenset[int], tuple[int, int]] = {}
    for raw_pair, route in sorted(cert.paths.items()):
        pair = tuple(sorted(raw_pair))
        if pair in seen_pairs:
            violations.append(f"duplicate path for pair {pair}")
            continue
        seen_pairs.add(pair)
        if pair not in expected:
            violations.append(f"path for {pair} which is not a terminal pair")
            continue
        if len(route) < 2 or {route[0], route[-1]} != set(pair):
            violations.append(f"route for {pair} does not join its endpoints: {route}")
            continue
        if any(not 0 <= v < g.n for v in route):
            violations.append(f"route for {pair} leaves the vertex range: {route}")
            continue
        if len(set(route)) != len(route):
            violations.append(f"route for {pair} repeats a vertex: {route}")
            continue
        for a, b in zip(route, route[1:]):
            if not g.has_edge(a, b):
                violations.append(f"route for {pair} uses a non-edge ({a}, {b})")
        for a, b in zip(route, route[1:]):
            edge = frozenset((a, b))
            if edge in edge_owner:
                violations.append(
                    f"edge ({min(edge)}, {max(edge)}) used by both {edge_owner[edge]} and {pair}"
                )
            else:
                edge_owner[edge] = pair
        if strong:
            bad = [v for v in route[1:-1] if v in cert.terminals]
            if bad:
                violations.append(f"route for {pair} passes through terminals {bad}")
    for pair in sorted(expected - seen_pairs):
        violations.append(f"no path for terminal pair {pair}")
    return violations


def verify_immersion(g: Graph, cert: Certificate, mode: str = "strong") -> VerificationResult:
    """Check all immersion certificate invariants; violations are reported,
    never raised. Accepts subdivision certificates as well (a subdivision is
    in particular a strong immersion)."""
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', got {mode!r}")
    violations = _check_paths(g, cert, strong=(mode == "strong"))
    return VerificationResult(not violations, tuple(violations))


def verify_subdivision(g: Graph, cert: Certificate) -> VerificationResult:
    """Strong immersion checks plus internal vertex disjointness."""
    violations = _check_paths(g, cert, strong=True)
    internal_owner: dict[int, tuple[int, int]] = {}
    for raw_pair, route in sorted(cert.paths.items()):
        pair = tuple(sorted(raw_pair))
        for v in route[1:-1]:
            if v in internal_owner:
                violations.append(
                    f"internal vertex {v} shared by {internal_owner[v]} and {pair}"
                )
            else:
                internal_owner[v] = pair
    return VerificationResult(not violations, tuple(violations))


# -- exhaustive searches ------------------------------------------------------


def _pack(pairs: list[tuple[int, int]], state: Hashable, routes: Callable) -> bool:
    """Can each pair in turn take a route? ``routes(state, pair)`` yields the
    state that each route of ``pair`` leaves behind.

    Depth-first on an explicit stack. A (depth, state) whose search failed
    is recorded and never searched again, so each distinct child state is
    also tried at most once per node.
    """
    if not pairs:
        return True
    dead: set[tuple[int, Hashable]] = set()
    stack = [(state, routes(state, pairs[0]))]
    while stack:
        depth = len(stack)  # pairs routed in each child of the top node
        for child in stack[-1][1]:
            if (depth, child) not in dead:
                if depth == len(pairs):
                    return True
                stack.append((child, routes(child, pairs[depth])))
                break
        else:
            dead.add((depth - 1, stack.pop()[0]))
    return False


def sigma_exhaustive(g: Graph) -> int:
    """Exact clique subdivision number: the largest h such that some h-set of
    branch vertices can be joined by internally vertex-disjoint paths whose
    internal vertices avoid the branch set.

    Branch sets are scanned for descending h with degree pruning (a branch
    vertex needs degree at least h - 1); path packing is exhaustive over the
    free-vertex mask, so paths of any length count.

    Counting cut: the paths are internally vertex-disjoint and a missing
    branch pair's path has at least one internal vertex, all of them in the
    free pool, so a branch set with more missing pairs than pool vertices
    cannot be routed and is skipped before any packing.

    Induced routes: each missing pair u-v takes only induced paths
    (``graph.induced_paths``), and that loses no packing. Take any u-v path
    P and a shortest u-v path Q inside G[V(P)]. A chord of Q would make a
    shorter u-v path inside G[V(P)], so Q is induced in G[V(P)] and hence
    in G, and its internal vertices are some of P's. Replacing every route
    of a packing by its Q keeps the routes disjoint and off the branch set.
    A vertex set S joins u to v when G[S + {u, v}] holds a u-v path; the
    internal sets of induced paths are exactly the minimal such S (the
    shortest path of a minimal S uses all of it, and the only u-v path in
    an induced path is the path itself), and an induced path is the one
    path through its vertex set, so each minimal S is yielded once. No size guard.
    """
    n = g.n
    if n == 0:
        return 0
    adj = g.rows
    full = g.full_mask
    degree = [row.bit_count() for row in adj]

    def routes(free: int, pair: tuple[int, int]) -> Iterator[int]:
        for used, _ in induced_paths(adj, *pair, free):
            yield free & ~used

    for h in range(n, 1, -1):
        candidates = [v for v in range(n) if degree[v] >= h - 1]
        if len(candidates) < h:
            continue
        for branch in combinations(candidates, h):
            bmask = 0
            for a in branch:
                bmask |= 1 << a
            pool = full & ~bmask
            missing = []
            for a in branch:
                rest = (bmask & ~adj[a]) >> (a + 1) << (a + 1)
                while rest:
                    low = rest & -rest
                    rest ^= low
                    missing.append((a, low.bit_length() - 1))
            if len(missing) > pool.bit_count():
                continue
            missing.sort(key=lambda p: ((adj[p[0]] & adj[p[1]] & pool).bit_count(), p))
            if _pack(missing, pool, routes):
                return h
    return 1


def has_immersion_with_ends(
    g: Graph,
    terminals: Iterable[int],
    strong: bool = True,
) -> bool:
    """Exact decision: is there an immersion of a complete graph with exactly
    the given end vertices?

    Packs edge-disjoint paths over the missing terminal pairs by exhaustive
    search over the free-edge rows. Adjacent terminal pairs always use their
    direct edge (a rerouting exchange shows this loses nothing). Every
    terminal needs its own edge towards each other terminal, so a terminal
    of degree below t - 1 answers False at once. In strong mode the internal
    vertices are restricted to non-terminals; weak mode lifts only that
    restriction. No size guard; no command runs it.
    """
    t_set = sorted(set(terminals))
    t_mask = vertex_mask(t_set, g.n)
    if len(t_set) <= 1:
        return True
    if any(g.degree(v) < len(t_set) - 1 for v in t_set):
        return False
    avail = list(g.rows)
    missing: list[tuple[int, int]] = []
    for u, v in combinations(t_set, 2):
        if g.has_edge(u, v):
            avail[u] &= ~(1 << v)
            avail[v] &= ~(1 << u)
        else:
            missing.append((u, v))
    internal_ok = g.full_mask & ~t_mask if strong else g.full_mask

    def routes(free: tuple[int, ...], pair: tuple[int, int]) -> Iterator[tuple[int, ...]]:
        for _, route in simple_paths(free, *pair, internal_ok):
            rows = list(free)
            for a, b in zip(route, route[1:]):
                rows[a] &= ~(1 << b)
                rows[b] &= ~(1 << a)
            yield tuple(rows)

    return _pack(missing, tuple(avail), routes)


# -- serialization ------------------------------------------------------------


def certificate_dumps(cert: Certificate) -> str:
    data = {
        "kind": cert.kind,
        "terminals": sorted(cert.terminals),
        "paths": [
            {"ends": list(pair), "route": list(route)}
            for pair, route in sorted((tuple(sorted(p)), r) for p, r in cert.paths.items())
        ],
    }
    return json.dumps(data, indent=2) + "\n"


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number with a fraction or exponent", bool: "a boolean", type(None): "null"}


def _shaped(raw: object, field: str, kind: type, keys: tuple[str, ...] = ()) -> Any:
    """``raw`` if it is a JSON ``kind`` with ``keys``, else a FormatError naming ``field``."""
    if type(raw) is not kind:
        raise FormatError(f"malformed certificate: {field} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(raw)]}")
    if missing := [key for key in keys if key not in raw]:
        raise FormatError(f"malformed certificate: {field} has no {missing[0]!r}")
    return raw


def _vertices(raw: object, field: str) -> list[int]:
    """JSON integers only: no string, boolean or fraction is read as a vertex."""
    vertices = _shaped(raw, field, list)
    for i, v in enumerate(vertices):
        if type(v) is not int:
            _shaped(v, f"{field}[{i}]", int)  # raises
    return vertices


def certificate_loads(text: str) -> Certificate:
    """The certificate ``certificate_dumps`` wrote, or a FormatError naming its first malformed field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"certificate is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise FormatError("certificate nests JSON arrays or objects too deeply") from exc
    data = _shaped(data, "the top level", dict, ("kind", "terminals", "paths"))
    kind = data["kind"]
    terminals = frozenset(_vertices(data["terminals"], "terminals"))
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, entry in enumerate(_shaped(data["paths"], "paths", list)):
        entry = _shaped(entry, f"paths[{i}]", dict, ("ends", "route"))
        ends = _vertices(entry["ends"], f"paths[{i}].ends")
        if len(ends) != 2:
            raise FormatError(f"malformed certificate: paths[{i}].ends must be two vertices, got {len(ends)}")
        u, v = ends
        pair = (u, v) if u < v else (v, u)
        if pair in paths:
            raise FormatError(f"duplicate path entry for pair {pair}")
        paths[pair] = tuple(_vertices(entry["route"], f"paths[{i}].route"))
    if kind not in (KIND_STRONG, KIND_WEAK, KIND_SUBDIVISION):
        raise FormatError(f"unknown certificate kind {kind!r}")
    return Certificate(kind, terminals, paths)
