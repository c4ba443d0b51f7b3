import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_extremal import (
    Graph,
    delta_threshold_no_subdivision,
    matching_complement,
    min_tset_missing,
    random_graph,
    sigma_exhaustive,
    star_of_clique,
    t_param,
    t_param_lower_estimate,
    tset_missing_upper_estimate,
)
from clique_extremal import params, suite
from clique_extremal.graph import iter_bits
from clique_extremal.limits import SUBSET_MAX_N, check_guard

from conftest import brute_min_tset_missing, brute_t_param, complete_graph, cycle_graph


def test_min_tset_missing_spot_values():
    assert min_tset_missing(complete_graph(9), 4)[0] == 0
    assert min_tset_missing(matching_complement(8), 6)[0] == 2
    assert min_tset_missing(star_of_clique(10, 5), 6)[0] == 3


def test_min_tset_missing_witness_is_exact():
    for seed in range(20):
        g = random_graph(seed % 10 + 3, 0.5, seed)
        for t in range(1, g.n + 1):
            value, witness = min_tset_missing(g, t)
            assert len(witness) == t
            assert g.missing_edges_within(witness) == value


def test_min_tset_missing_matches_brute_force():
    for seed in range(25):
        g = random_graph(seed % 9 + 3, (seed % 9 + 1) / 10.0, seed)
        for t in range(1, g.n + 1):
            assert min_tset_missing(g, t)[0] == brute_min_tset_missing(g, t)


# (value, sorted witness) for every t of 60 seeded random graphs, n = 4..20,
# with and without stop_at = n - t. ``params --json`` prints witnesses, so a
# change to the search must reproduce them exactly.
GOLDEN = json.loads((Path(__file__).parent / "data" / "min_tset_missing_golden.json").read_text())


def test_min_tset_missing_golden_values_and_witnesses():
    assert len(GOLDEN) == 60
    for row in GOLDEN:
        g = random_graph(row["n"], row["p"], row["seed"])
        for key, stop in (("free", False), ("stop_at_n_minus_t", True)):
            got = []
            for t in range(1, g.n + 1):
                value, witness = min_tset_missing(g, t, stop_at=g.n - t if stop else None)
                got.append([value, sorted(witness)])
            assert got == row[key], (row["seed"], key)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edge_list(n, [e for e, keep in zip(pairs, present) if keep])


@st.composite
def graph_and_t(draw):
    g = draw(graphs(10))
    return g, draw(st.integers(1, g.n)), draw(st.integers(0, g.n))


@settings(max_examples=300, deadline=None)
@given(graph_and_t())
def test_min_tset_missing_property_against_brute_force(case):
    g, t, stop_at = case
    exact = brute_min_tset_missing(g, t)
    value, witness = min_tset_missing(g, t)
    assert value == exact
    assert len(witness) == t and g.missing_edges_within(witness) == value
    value, witness = min_tset_missing(g, t, stop_at=stop_at)
    assert len(witness) == t and g.missing_edges_within(witness) == value
    assert value <= stop_at if exact <= stop_at else value == exact


def test_averaging_threshold_stop_agrees_with_the_exact_bound():
    # every (graph, t) of the quick averaging check: the search stopped at
    # floor(Delta t^2 / 2n) gives the verdict of the exact x(t)
    pairs = 0
    for seed in (0, 1):
        for g in suite._random_graphs(seed, "degree-avg", 60, 20):
            delta = g.max_missing_degree()
            for t in range(1, g.n + 1):
                exact, _ = min_tset_missing(g, t)
                threshold = delta * t * t // (2 * g.n)
                value, witness = min_tset_missing(g, t, stop_at=threshold)
                holds = value <= threshold
                assert holds == (delta >= Fraction(2 * g.n * exact, t * t)), (seed, g, t)
                if holds:
                    assert len(witness) == t and len(set(witness)) == t
                    assert g.missing_edges_within(witness) <= threshold
                else:
                    assert value == exact
                pairs += 1
    assert pairs > 1000


# stand-ins for the search the averaging check calls, which always passes its
# threshold as stop_at
def _short_witness(g, t, stop_at):
    value, witness = min_tset_missing(g, t, stop_at=stop_at)
    return value, frozenset(sorted(witness)[:-1])


def _overfull_witness(g, t, stop_at):
    # the t-set missing the most edges, reported at the threshold when it is above it
    _, worst = min_tset_missing(g.complement(), t)
    if g.missing_edges_within(worst) > stop_at:
        return stop_at, worst
    return min_tset_missing(g, t, stop_at=stop_at)


def _value_above_threshold(g, t, stop_at):
    return stop_at + 1, min_tset_missing(g, t, stop_at=stop_at)[1]


@pytest.mark.parametrize("search", [_short_witness, _overfull_witness, _value_above_threshold])
def test_averaging_check_rejects_corrupted_witnesses(monkeypatch, search):
    monkeypatch.setattr(suite, "min_tset_missing", search)
    name, passed, _, data = suite.check_degree_averaging(0, True)
    assert name == "missing-degree-averaging"
    assert data["violations"] > 0 and not passed


# The search before the exclusion bound, the packed counters and the table
# cache, kept verbatim as the reference: its values and witnesses are the
# ones the search must keep.
def reference_min_tset_missing(
    g: Graph,
    t: int,
    limit_n: int | None = None,
    stop_at: int | None = None,
) -> tuple[int, frozenset[int]]:
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


@st.composite
def graph_and_t_order(draw):
    g = draw(graphs(12))
    n = g.n
    ts = list(range(1, n + 1))
    order = draw(st.sampled_from(("ascending", "descending", "shuffled")))
    if order == "descending":
        ts.reverse()
    elif order == "shuffled":
        ts = draw(st.permutations(ts))
    return g, ts, draw(st.integers(0, n * (n - 1) // 2))


@settings(max_examples=200, deadline=None)
@given(graph_and_t_order())
def test_min_tset_missing_matches_the_reference_in_any_t_order(case):
    # the per-graph tables are cached: neither the order of the t nor a
    # second, equal graph may change a value or a witness
    g, ts, stop = case
    twin = Graph(g.n, [g.adjacency_mask(v) for v in range(g.n)])
    assert twin == g and twin is not g
    expected = {
        (t, stop_at): reference_min_tset_missing(g, t, stop_at=stop_at)
        for t in ts
        for stop_at in (None, g.n - t, stop)
    }
    for graph in (g, twin):
        for t in ts:
            for stop_at in (None, g.n - t, stop):
                assert min_tset_missing(graph, t, stop_at=stop_at) == expected[t, stop_at], (t, stop_at)


@pytest.mark.parametrize(
    "n, p, t, width",
    [(86, 0.1, 6, 8), (86, 0.2, 6, 8), (87, 0.1, 6, 16), (87, 0.2, 6, 16), (100, 0.1, 5, 16), (200, 0.8, 6, 16)],
)
def test_min_tset_missing_above_the_guard_matches_the_reference(n, p, t, width):
    # 8-bit fields hold every key and the bias up to n = 86, wider ones from
    # 87 on; at n = 200, 8-bit fields give 1 instead of 0 at t = 6
    g = random_graph(n, p, n)
    assert params._search_tables(g).width == width
    for stop_at in (None, 2):
        assert min_tset_missing(g, t, stop_at=stop_at) == reference_min_tset_missing(
            g, t, limit_n=n, stop_at=stop_at
        )


def test_min_tset_missing_cache_stays_bounded():
    cache = params._search_tables
    size = cache.cache_info().maxsize
    rng = random.Random("cache-bound")
    graphs = [random_graph(rng.randint(6, 12), 0.5, rng.randrange(2**32)) for _ in range(size + 3)]
    for g in graphs:
        assert min_tset_missing(g, g.n // 2) == reference_min_tset_missing(g, g.n // 2)
        assert cache.cache_info().currsize <= size
    assert cache.cache_info().currsize == size
    # the oldest graphs were dropped and are rebuilt on their next search
    assert min_tset_missing(graphs[0], 3) == reference_min_tset_missing(graphs[0], 3)
    assert cache.cache_info().currsize == size


def test_min_tset_missing_deep_search_needs_no_recursion():
    # 1200 vertices: a search recursing once per vertex would pass Python's
    # default recursion limit
    assert min_tset_missing(Graph.from_edge_list(1200, []), 2)[0] == 1


def test_min_tset_missing_validates():
    with pytest.raises(ValueError):
        min_tset_missing(complete_graph(3), 0)
    with pytest.raises(ValueError):
        min_tset_missing(complete_graph(3), 4)
    with pytest.raises(TypeError):  # stop_at is keyword-only, never a positional limit
        min_tset_missing(complete_graph(3), 2, 3)
    assert min_tset_missing(Graph.from_edge_list(25, []), 3)[0] == 3


def test_the_environment_moves_no_guard(monkeypatch):
    g = matching_complement(20)
    expected = t_param(g)
    monkeypatch.setenv("CLIQUE_EXTREMAL_MAX_N", "10")
    assert t_param(g) == expected


def test_upper_estimate_bounds_the_minimum():
    for seed in range(20):
        g = random_graph(seed % 12 + 4, 0.5, seed)
        for t in range(2, g.n + 1):
            assert min_tset_missing(g, t)[0] <= tset_missing_upper_estimate(g, t)


def test_t_param_lower_estimate_is_a_lower_bound():
    for seed in range(20):
        g = random_graph(seed % 9 + 1, (seed % 10 + 1) / 10.0, seed)
        estimate = t_param_lower_estimate(g)
        assert estimate == max(t for t in range(1, g.n + 1) if tset_missing_upper_estimate(g, t) <= g.n - t)
        assert estimate <= brute_t_param(g)
    with pytest.raises(ValueError):
        t_param_lower_estimate(Graph(0, []))


def test_t_param_spot_values():
    assert t_param(complete_graph(7)).t_param == 7
    assert t_param(matching_complement(8)).t_param == 6
    assert t_param(star_of_clique(10, 5)).t_param == 6
    assert t_param(cycle_graph(5)).t_param == 3
    # past SUBSET_MAX_N, which only the CLI applies, yet cheap
    assert t_param(star_of_clique(60, 5)).t_param == 13


def test_t_param_matches_brute_force():
    for seed in range(25):
        g = random_graph(seed % 9 + 2, (seed % 9 + 1) / 10.0, seed)
        assert t_param(g).t_param == brute_t_param(g)


# The scan down from n, kept verbatim as the reference: the scan up from
# t_param_lower_estimate must give the same t, witness and sandwich.
def reference_t_param(g: Graph, limit_n: int | None = None) -> params.ParamReport:
    n = g.n
    if n == 0:
        raise ValueError("t_param is undefined on the empty graph")
    check_guard("t_param", n, SUBSET_MAX_N, limit_n)
    delta = g.max_missing_degree()
    for t in range(n, 0, -1):
        value, witness = min_tset_missing(g, t, stop_at=n - t)
        if value <= n - t:
            return params.ParamReport(t, witness, delta, t - delta, t)
    raise AssertionError("unreachable: t = 1 always qualifies")


@settings(max_examples=300, deadline=None)
@given(graphs(12))
def test_t_param_matches_the_downward_scan(g):
    assert t_param(g) == reference_t_param(g)


# G(24, p) at the subset guard, where t(G) sits well above the averaging bound
AT_THE_GUARD = [(p / 10, seed) for p in range(3, 9) for seed in range(4)]


@pytest.mark.parametrize("p, seed", AT_THE_GUARD)
def test_t_param_matches_the_downward_scan_at_the_guard(p, seed):
    g = random_graph(SUBSET_MAX_N, p, seed)
    assert t_param(g) == reference_t_param(g)


def test_t_param_runs_one_failing_search(monkeypatch):
    # one search per t from t_lo to t(G), then one that fails; the reference
    # calls this module's min_tset_missing, which stays uncounted
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return min_tset_missing(*args, **kwargs)

    monkeypatch.setattr(params, "min_tset_missing", counted)
    for p, seed in AT_THE_GUARD:
        g = random_graph(SUBSET_MAX_N, p, seed)
        expected = reference_t_param(g).t_param
        calls.clear()
        assert t_param(g).t_param == expected
        assert len(calls) <= expected - t_param_lower_estimate(g) + 2, (p, seed, calls)


def test_t_param_report_fields():
    rep = t_param(matching_complement(8))
    assert rep.delta == 1
    assert (rep.sigma_lower, rep.sigma_upper) == (5, 6)
    assert matching_complement(8).missing_edges_within(rep.witness) <= 8 - rep.t_param
    with pytest.raises(ValueError):
        t_param(Graph.from_edge_list(0, []))


def test_delta_lower_bound_holds_with_exact_minimum():
    for seed in range(30):
        g = random_graph(seed % 10 + 4, (seed % 9 + 1) / 10.0, seed)
        delta = Fraction(g.max_missing_degree())
        for t in range(1, g.n + 1):
            x, _ = min_tset_missing(g, t)
            assert delta >= Fraction(2 * g.n * x, t * t)


def test_delta_lower_bound_tight_on_cycle():
    # C5 at t = n: every 5-set misses 5 edges and 2 * 5 * 5 / 25 = 2 = Delta
    g = cycle_graph(5)
    x, _ = min_tset_missing(g, 5)
    assert x == 5
    assert Fraction(2 * 5 * x, 5 * 5) == 2 == g.max_missing_degree()


def test_delta_threshold_values():
    assert delta_threshold_no_subdivision(6, 6) == 0
    assert delta_threshold_no_subdivision(10, 5) == Fraction(90, 56)
    assert delta_threshold_no_subdivision(100, 16) == Fraction(16632, 636)
    with pytest.raises(ValueError):
        delta_threshold_no_subdivision(1, 1)
    with pytest.raises(ValueError):
        delta_threshold_no_subdivision(4, 5)


def test_delta_threshold_direction():
    # C5 has sigma = 3 and Delta = 2: without a subdivision of a t-clique
    # the maximum missing degree must exceed the averaging threshold
    g = cycle_graph(5)
    assert sigma_exhaustive(g) == 3
    for t in (4, 5):
        assert Fraction(g.max_missing_degree()) > delta_threshold_no_subdivision(5, t)
    # and at scale: every random graph obeys the implication
    for seed in range(25):
        g = random_graph(seed % 8 + 4, (seed % 9 + 1) / 10.0, seed)
        sigma = sigma_exhaustive(g)
        delta = Fraction(g.max_missing_degree())
        for t in range(sigma + 1, g.n + 1):
            assert delta > delta_threshold_no_subdivision(g.n, t)
