import json
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clique_extremal import (
    boundt_value,
    case1_exponent,
    case1_rate,
    case1_supremum,
    case2_exponent,
    case2_supremum,
    count_cliques_oracle,
    g_bound,
    g_case_log2,
    g_recursion_check,
    matching_complement,
    optimize_constant,
    random_graph,
)
from clique_extremal import bounds
from clique_extremal.bounds import LOG_SHIFT


def test_boundt_matching_case_is_exact():
    value = boundt_value(10, 4, 1)
    # 2^6 * (3/2)^4 = 324
    assert math.isclose(value.log2_cliques, math.log2(324), rel_tol=0, abs_tol=1e-12)
    assert value.clique_number_bound == 6


def test_boundt_no_missing_edges():
    value = boundt_value(9, 0, 3)
    assert value.log2_cliques == 9.0
    assert value.clique_number_bound == 9


def test_boundt_fractional_cap():
    value = boundt_value(12, 6, 2)
    expected = math.log2(2 ** 9 * (1 + 2 ** -0.5) ** 3)
    assert math.isclose(value.log2_cliques, expected, abs_tol=1e-9)
    assert math.isclose(value.log2_cliques, 11.314659909, abs_tol=1e-6)
    assert value.clique_number_bound == Fraction(9)


def test_boundt_validates():
    with pytest.raises(ValueError):
        boundt_value(10, 4, 0)
    with pytest.raises(ValueError):
        boundt_value(0, 0, 1)
    # no 3-vertex graph misses 100 edges, and none on 4 vertices with
    # missing degrees at most 1 misses 5 (that would read -97 and -1)
    for t, x, d in ((3, 100, 1), (4, 5, 1), (4, 7, 3), (5, 3, 1)):
        with pytest.raises(ValueError):
            boundt_value(t, x, d)
    # the extremes that do describe graphs: K_t's complement, a perfect matching
    assert boundt_value(4, 6, 3).clique_number_bound == 2
    assert boundt_value(4, 2, 1).clique_number_bound == 2
    assert boundt_value(10, 10, 2).clique_number_bound == 5


def test_boundt_empirical_random_graphs():
    import random

    for k in range(120):
        rng = random.Random(f"unit-boundt:{k}")
        t = rng.randint(3, 12)
        g = random_graph(t, rng.uniform(0.2, 0.95), rng.randrange(2 ** 32))
        x = t * (t - 1) // 2 - g.num_edges
        if x == 0:
            continue
        cap = g.max_missing_degree()
        stats = count_cliques_oracle(g)
        bt = boundt_value(t, x, cap)
        assert Fraction(stats.clique_number) <= bt.clique_number_bound
        assert math.log2(stats.count_including_empty) <= bt.log2_cliques + 1e-9


def test_boundt_equality_for_matching_complements():
    for half in range(1, 8):
        t, x = 2 * half, half
        count = count_cliques_oracle(matching_complement(t)).count_including_empty
        assert count == 2 ** (t - x) * Fraction(3, 2) ** x


def test_case1_rate_values():
    assert math.isclose(case1_rate(1), math.log2(1.5), abs_tol=1e-12)
    # the rate rises from d = 1 to d = 2 before decaying
    assert case1_rate(2) > case1_rate(1)
    samples = [2, 3, 5, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6]
    rates = [case1_rate(d) for d in samples]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_case1_exponent_limits():
    assert math.isclose(case1_exponent(2.0, 10 ** 6), 1.0, abs_tol=1e-4)
    with pytest.raises(ValueError):
        case1_exponent(1.0, 2)
    # the sparse branch needs d > 2c(c - 1), which is 12 at c = 3
    for d in (1, 12):
        with pytest.raises(ValueError):
            case1_exponent(3.0, d)
    assert case1_exponent(3.0, 13) > 1.0
    with pytest.raises(ValueError):
        case1_rate(0.5)


def test_case1_supremum_below_164():
    sup = case1_supremum()
    assert sup.log2_bound <= 1.64 + 1e-6
    assert sup.log2_bound > 1.5  # sanity: the bound is not vacuous


def reference_case1_best_at(c):
    """The earlier rule, kept verbatim as the reference: a candidate set
    with a d = 2 that d0 + 1 already is when d0 = 1."""
    delta = 2.0 * c * (c - 1.0)
    d0 = max(1, math.floor(delta) + 1)
    candidates = {d0, d0 + 1}
    if d0 == 1:
        candidates.add(2)
    best_d = min(candidates)
    best = case1_exponent(c, best_d)
    for d in sorted(candidates):
        value = case1_exponent(c, d)
        if value > best + 1e-15:
            best, best_d = value, d
    return best, best_d


def test_case1_rule_matches_the_reference_on_the_first_grid():
    # the 401 points of the first round of case1_supremum's grid
    lo, hi = 1.0 + 1e-6, 1000.0
    for i in range(401):
        c = lo + (hi - lo) * i / 400
        assert bounds._case1_best_at(c) == reference_case1_best_at(c), c


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
def test_case1_rule_matches_the_reference(c):
    assert bounds._case1_best_at(c) == reference_case1_best_at(c)


def test_branch_suprema_are_pinned():
    assert repr(case1_supremum()) == (
        "BoundResult(log2_bound=1.610822430521916, case_tag='above-delta', "
        "c_value=2.8979157616560522, d_value=11, slack_log2=0.0)"
    )
    assert repr(case2_supremum()) == (
        "BoundResult(log2_bound=2.9104823522738577, case_tag='at-most-delta', "
        "c_value=3.59459022519016, d_value=None, slack_log2=0.0)"
    )


def test_case2_spot_values():
    assert math.isclose(case2_exponent(3.0), 2.8680583326, abs_tol=1e-8)
    assert case2_exponent(10 ** 6) < 1.05
    with pytest.raises(ValueError):
        case2_exponent(2.9)


def test_case2_supremum_below_292():
    sup = case2_supremum()
    assert sup.log2_bound <= 2.92 + 1e-6
    assert sup.log2_bound > 2.8


def test_shift_inequality():
    # the 1.95 shift satisfies log2(y - s)/(y - s) >= log2(1 + y)/y on y >= 5
    y = 5.0
    while y <= 10 ** 4:
        lhs = math.log2(y - LOG_SHIFT) / (y - LOG_SHIFT)
        rhs = math.log2(1 + y) / y
        assert lhs >= rhs - 1e-12, y
        y *= 1.01


def test_g_case_reduces_to_boundt_when_m_equals_t():
    main, slack, tag = g_case_log2(10, 10, 10, 2)
    assert tag == "at-most-delta"
    assert math.isclose(main, boundt_value(10, 10, 2).log2_cliques, abs_tol=1e-12)
    assert slack == 0.0


def test_g_bound_structure():
    result = g_bound(40, 10, 10, 8)
    assert result.log2_bound > 0
    assert result.d_value in range(2, 9)
    assert result.c_value == 4.0
    # slack is reported separately, never folded in
    main, slack, _ = g_case_log2(40, 10, 10, result.d_value)
    assert math.isclose(result.log2_bound, main, abs_tol=1e-12)
    assert math.isclose(result.slack_log2, slack, abs_tol=1e-12)


def test_g_bound_spot_value_large_t():
    t = 10 ** 4
    result = g_bound(4 * t, 3 * t, t, t)
    assert result.log2_bound / t <= 2.92 + 1e-3
    assert result.case_tag == "at-most-delta"


def test_g_bound_huge_t_stays_finite():
    t = 10 ** 6
    result = g_bound(4 * t, 3 * t, t, 10)
    assert math.isfinite(result.log2_bound)
    assert result.log2_bound / t < 3.0


def test_g_bound_empty_d_range():
    with pytest.raises(ValueError, match="empty D range"):
        g_bound(40, 30, 10, 2)  # ceil(2x/t) = 6 > d = 2


# Captured from the evaluator that rebuilt its log-sum table for every D:
# the three base points of the benchmark's large-inputs recursion checks,
# a small grid (None where the D range is empty) and one point with
# delta = 10^4. Floats are stored as repr strings and compared exactly.
GOLDEN = json.loads((Path(__file__).parent / "data" / "g_bound_golden.json").read_text())


def test_g_bound_golden():
    for entry in GOLDEN["g_bound"]:
        try:
            r = g_bound(*entry["params"])
        except ValueError:
            got = None
        else:
            got = {
                "log2_bound": repr(r.log2_bound),
                "slack_log2": repr(r.slack_log2),
                "d_value": r.d_value,
                "case_tag": r.case_tag,
            }
        assert got == entry["result"], entry["params"]


def test_g_recursion_check_golden():
    for entry in GOLDEN["g_recursion_check"]:
        check = g_recursion_check(*entry["params"])
        assert {"passed": check.passed, "failures": list(check.failures)} == entry["result"], entry["params"]


# -- the g evaluators against the earlier versions -----------------------------


def reference_g_case_log2(m, x, t, big_d):
    """The earlier per-D evaluator, kept verbatim as the reference: it
    builds a Fraction for delta at every D."""
    delta = Fraction(2 * x * m, t * t)
    if big_d > delta:
        main = ((m - t) / big_d + 1.0) * math.log2(big_d + 1.0) + bounds._boundt_log2(t, x, big_d)
        return main, 0.0, "above-delta"
    ceil_delta = math.ceil(delta)
    if ceil_delta > bounds._MAX_DELTA:
        raise ValueError(f"delta = {ceil_delta} is beyond the evaluator's scale")
    t2_over_2x = t * t / (2.0 * x)
    product = bounds._log_ratio_sum(big_d + 1, ceil_delta)
    main = (
        t2_over_2x * product
        + (t2_over_2x - t / big_d) * math.log2(big_d + 1.0)
        + bounds._boundt_log2(t, x, big_d)
    )
    return main, product, "at-most-delta"


def reference_g_bound(m, x, t, d):
    """The earlier scan, kept verbatim as the reference: a strict > update."""
    if t < 1 or x < 1 or d < 1 or m < t:
        raise ValueError(f"need t >= 1, x >= 1, d >= 1, m >= t; got m={m}, x={x}, t={t}, d={d}")
    if d > bounds._MAX_D:
        raise ValueError(f"d = {d} is beyond the evaluator's scale")
    lo = max(1, -(-2 * x // t))
    if lo > d:
        raise ValueError(f"empty D range: ceil(2x/t) = {lo} exceeds d = {d}")
    best = None
    for big_d in range(lo, d + 1):
        main, slack, tag = reference_g_case_log2(m, x, t, big_d)
        if best is None or main > best[0]:
            best = (main, slack, tag, big_d)
    main, slack, tag, big_d = best
    return bounds.BoundResult(
        log2_bound=main,
        case_tag=tag,
        c_value=m / t,
        d_value=big_d,
        slack_log2=slack,
    )


def reference_g_recursion_check(m, x, t, d):
    """The earlier check, kept verbatim as the reference: it evaluates m and
    m + 1 twice, skips each Delta_1 with m - Delta_1 < t in the loop, and
    probes d + 1, which cannot fail, so the check without it must agree."""
    failures = []

    def value(mm, xx, tt, dd):
        try:
            return reference_g_bound(mm, xx, tt, dd).log2_bound
        except ValueError:
            return None

    base = value(m, x, t, d)
    if base is None:
        return bounds.RecursionCheck(False, (f"base point ({m},{x},{t},{d}) is invalid",))
    for mm in (m + 1, m + 2):
        nxt = value(mm, x, t, d)
        if nxt is not None and nxt < value(mm - 1, x, t, d) - bounds._RECURSION_TOL:
            failures.append(f"not monotone in m at m = {mm}")
    up_x = value(m, x + 1, t, d)
    if up_x is not None and up_x > base + bounds._RECURSION_TOL:
        failures.append(f"not monotone decreasing in x at x = {x + 1}")
    up_t = value(m, x, t + 1, d)
    if up_t is not None and up_t < base - bounds._RECURSION_TOL:
        failures.append(f"not monotone in t at t = {t + 1}")
    up_d = value(m, x, t, d + 1)
    if up_d is not None and up_d < base - bounds._RECURSION_TOL:
        failures.append(f"not monotone in d at d = {d + 1}")

    lo = max(1, -(-2 * x // t))
    recursion_holds = False
    for delta1 in range(lo, d + 1):
        if m - delta1 < t:
            continue
        inner = value(m - delta1, x, t, delta1)
        if inner is None:
            continue
        if base <= math.log2(delta1 + 1.0) + inner + bounds._RECURSION_TOL:
            recursion_holds = True
            break
    if not recursion_holds:
        failures.append("no admissible Delta_1 satisfies the peel-step recursion")
    return bounds.RecursionCheck(not failures, tuple(failures))


def _outcome(evaluate, *params):
    try:
        return evaluate(*params)
    except ValueError as exc:
        return str(exc)


@st.composite
def g_case_points(draw):
    """(m, x, t, D) with delta = 2xm/t^2 at most about 10^5, or with D t^2 =
    2xm exactly (D one off either way too), or with ceil(delta) just above
    the evaluator's scale."""
    t = draw(st.integers(1, 300))
    x = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(("moderate", "at-delta", "beyond-scale")))
    if kind == "moderate":
        m = draw(st.integers(t, t + 100_000 * t * t // (2 * x)))
        big_d = draw(st.integers(1, 2 * (2 * x * m // (t * t)) + 3))
    elif kind == "at-delta":
        k = draw(st.integers(1, 20))
        m, big_d = k * t * t, 2 * x * k + draw(st.integers(-1, 1))
        assume(big_d >= 1)
    else:
        m = bounds._MAX_DELTA * t * t // (2 * x) + draw(st.integers(1, 3))
        big_d = draw(st.integers(1, 1000))
    return m, x, t, big_d


@pytest.mark.parametrize("m, x, t, big_d", [
    (10, 5, 10, 1),  # D t^2 = 2xm = 100: D = delta takes the product branch
    (10, 5, 10, 2),
    (20, 3, 2, 30),  # delta = 30, an integer
    (20, 3, 2, 31),
    (10_000_001, 1, 2, 7),  # delta = 5,000,000.5: ceil(delta) one above the scale
    (6_000_000, 50, 10, 10),
])
def test_g_case_log2_matches_the_reference_at_the_edges(m, x, t, big_d):
    assert _outcome(g_case_log2, m, x, t, big_d) == _outcome(reference_g_case_log2, m, x, t, big_d)


@settings(max_examples=400, deadline=None)
@given(g_case_points())
def test_g_case_log2_matches_the_reference(point):
    assert _outcome(g_case_log2, *point) == _outcome(reference_g_case_log2, *point)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 500), st.integers(1, 60), st.integers(1, 150))
def test_g_bound_matches_the_reference(m, x, t, d):
    assert _outcome(g_bound, m, x, t, d) == _outcome(reference_g_bound, m, x, t, d)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(-3, 400), st.integers(1, 400), st.integers(1, 80))
def test_g_recursion_check_matches_the_reference(t, m_over_t, x, d):
    # m - t from -3 (an invalid base point) up to 400, so that m - Delta_1 < t
    # cuts the Delta_1 range at some points and not at others
    m = t + m_over_t
    assert g_recursion_check(m, x, t, d) == reference_g_recursion_check(m, x, t, d)


@pytest.mark.parametrize("params", [(4000, 1600, 90, 220), (5000, 2000, 100, 250), (6000, 2400, 110, 280)])
def test_g_recursion_check_evaluates_each_point_once(monkeypatch, params):
    # the benchmark's three base points: the base, m + 1, m + 2, x + 1,
    # t + 1 and the first Delta_1, which already satisfies the recursion;
    # the earlier check evaluated m and m + 1 once more each, and d + 1,
    # which cannot fail: g_bound at d + 1 maximises over a larger D range
    calls = []
    real = bounds.g_bound
    monkeypatch.setattr(bounds, "g_bound", lambda *p: calls.append(p) or real(*p))
    assert g_recursion_check(*params).passed
    assert len(calls) == len(set(calls)) == 6


def _recursion_base_points(rng):
    """Seeded (kind, (m, x, t, d)): moderate points, points whose Delta_1
    range ends at or near _MAX_D, points whose ceil(delta) is at or next to
    _MAX_DELTA, and points whose t^2 is at or next to the top of the float
    range (some of them invalid base points), and points whose bound is near the
    top of the float range (about two in five overflow to an invalid base point)."""
    for _ in range(60):
        t = rng.randint(1, 60)
        yield "moderate", (t + rng.randint(0, 400), rng.randint(1, 400), t, rng.randint(1, 80))
    for _ in range(8):
        # lo = ceil(2x/t) within 20 of _MAX_D; t >= 2100 keeps delta = 2xm/t^2 below _MAX_DELTA
        t = rng.randint(2100, 2500)
        lo = bounds._MAX_D - rng.randint(0, 20)
        yield "max-d", (lo + t + rng.randint(0, 30), lo * t // 2, t, bounds._MAX_D - rng.randint(0, 5))
    for _ in range(8):
        # at t = 10 and x = 50, delta = m
        yield "max-delta", (bounds._MAX_DELTA + rng.randint(-3, 1), 50, 10, rng.randint(10, 40))
    for _ in range(8):
        # t^2 next to the top of the float range and delta = 2xm/t^2 from 1 to 6: the base
        # evaluates only if t*t/(2x) is a float, and the inner points form no larger float
        t = math.isqrt(2 ** 1024) + rng.randint(-(2 ** 460), 2 ** 460)
        x, k = rng.randint(1, 3), rng.randint(1, 6)
        yield "float-range", (k * t * t // (2 * x), x, t, rng.randint(1, 8))
    for _ in range(8):
        # t*t/(2x) from 10^305 to 2*10^307 and delta = 2xm/t^2 from 1 to 200: the
        # product term times t*t/(2x) overflows a float at small D for some of them
        x = rng.randint(1, 3)
        t = math.isqrt(2 * x * rng.randint(10 ** 305, 2 * 10 ** 307))
        yield "overflow", (rng.randint(1, 200) * t * t // (2 * x), x, t, rng.randint(1, 250))


def test_g_recursion_check_inner_points_evaluate(monkeypatch):
    # g_recursion_check raises nothing; once the base point evaluates to a finite bound,
    # g_bound evaluates to one at every (m - Delta_1, Delta_1) the peel-step loop visits,
    # so no Delta_1 fails for being beyond the scale; a fresh table, so its growth ends
    # with the test
    monkeypatch.setattr(bounds, "_log_ratio_prefix", bounds._log_ratio_prefix[:2])
    valid = {"moderate": 0, "max-d": 0, "max-delta": 0, "float-range": 0, "overflow": 0}
    for kind, (m, x, t, d) in _recursion_base_points(random.Random("recursion-inner")):
        check = g_recursion_check(m, x, t, d)
        try:
            base = g_bound(m, x, t, d).log2_bound
        except ValueError:
            assert check.failures[0].endswith("is invalid")
            continue
        assert math.isfinite(base), (kind, m, x, t, d)
        valid[kind] += 1
        lo = max(1, -(-2 * x // t))
        for delta1 in range(lo, min(d, m - t) + 1):
            assert math.isfinite(g_bound(m - delta1, x, t, delta1).log2_bound)
    assert min(valid.values()) >= 3, valid


def test_g_bound_rejects_delta_beyond_scale_before_growing_the_table():
    size = len(bounds._log_ratio_prefix)
    # delta = 2 * 50 * 6_000_000 / 10^2 = 6_000_000 > 5_000_000
    with pytest.raises(ValueError, match="beyond the evaluator's scale"):
        g_bound(6_000_000, 50, 10, 10)
    assert len(bounds._log_ratio_prefix) == size
    check = g_recursion_check(6_000_000, 50, 10, 10)
    assert not check.passed
    assert "invalid" in check.failures[0]


def test_g_bound_rejects_d_beyond_scale_before_the_scan():
    # every D in [ceil(2x/t), d] costs a few microseconds, so d = 10^9
    # would run for about an hour
    with pytest.raises(ValueError, match="d = 100001 is beyond the evaluator's scale"):
        g_bound(10 ** 6, 1, 1, bounds._MAX_D + 1)
    check = g_recursion_check(10 ** 6, 1, 1, 10 ** 9)
    assert not check.passed
    assert check.failures == ("base point (1000000,1,1,1000000000) is invalid",)


@pytest.mark.parametrize("evaluate, params", [
    (boundt_value, (2, 1, 10 ** 400)),  # 2^(-1/d) takes d as a float
    (boundt_value, (10 ** 310, 1, 1)),  # t - x/d takes t as a float
    (case1_exponent, (3.0, 10 ** 400)),
    (g_bound, (10 ** 400, 1, 10 ** 400, 1)),
    (g_bound, (10 ** 160, 5 * 10 ** 159, 10 ** 160, 2)),  # t^2 = 10^320 leaves the float range
    (g_bound, (13 * 10 ** 308, 1, math.isqrt(2 * 10 ** 307), 200)),  # the bound overflows to inf
])
def test_integers_beyond_the_float_range_are_beyond_the_scale(evaluate, params):
    with pytest.raises(ValueError, match="overflows a float: beyond the evaluator's scale"):
        evaluate(*params)
    if evaluate is g_bound:
        check = g_recursion_check(*params)
        assert not check.passed
        assert check.failures[0].endswith("is invalid")


def test_log_ratio_table_costs_eight_bytes_an_entry(monkeypatch):
    # a fresh table of the module's own kind, cut back to its first entries
    monkeypatch.setattr(bounds, "_log_ratio_prefix", bounds._log_ratio_prefix[:2])
    entries = 300_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        total = bounds._log_ratio_sum(1, entries)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 9 * entries
    # the bulk growth adds the terms in the same order as one running sum
    reference = [0.0, 1.0]
    for h in range(2, entries + 1):
        reference.append(reference[-1] + math.log2(h + 1.0) / h)
    assert list(bounds._log_ratio_prefix) == reference
    assert total == reference[entries]


def test_g_recursion_check_at_spec_point():
    check = g_recursion_check(40, 10, 10, 8)
    assert check.passed, check.failures


def test_g_bound_monotone_at_spec_point():
    base = g_bound(40, 10, 10, 8).log2_bound
    assert g_bound(41, 10, 10, 8).log2_bound >= base - 1e-9
    assert g_bound(40, 11, 10, 8).log2_bound <= base + 1e-9
    assert g_bound(40, 10, 10, 9).log2_bound >= base - 1e-9


def test_coarse_constant_is_three():
    result = optimize_constant("coarse")
    assert abs(result.log2_bound - 3.0) <= 1e-6
    assert result.case_tag == "trivial-small-c"


def test_refined_constant_in_envelope():
    result = optimize_constant("refined")
    assert 1.70 <= result.log2_bound <= 1.8165
    assert result.d_value is not None
    assert result.c_value > 1
    again = optimize_constant("refined")
    assert again == result  # deterministic


def test_refined_constant_is_pinned():
    # the result of the scan that evaluated every D in [2(c-1), 2c(c-1)]
    result = optimize_constant("refined")
    assert (result.log2_bound, result.c_value, result.d_value, result.case_tag) == (
        1.815874628942467,
        4.944097208657591,
        10,
        "refined-product",
    )


def reference_refined_case2(c, big_d):
    """The earlier per-D formula, kept as the reference: it recomputes the
    per-c terms for every D and adds term1 even when D = ceil(delta)."""
    delta = 2.0 * c * (c - 1.0)
    ceil_delta = math.ceil(delta)
    inv2x = 1.0 / (2.0 * (c - 1.0))
    term1 = (c - (ceil_delta - 1) * inv2x) / ceil_delta * math.log2(ceil_delta + 1.0)
    term2 = inv2x * bounds._log_ratio_sum(big_d + 1, ceil_delta - 1)
    term3 = (inv2x - 1.0 / big_d) * math.log2(big_d + 1.0)
    term4 = 1.0 - (c - 1.0) / big_d * (1.0 - math.log2(1.0 + 2.0 ** (-1.0 / big_d)))
    return term1 + term2 + term3 + term4


def reference_refined_value(c, big_d):
    """The per-D objective with the empty product: at an integer delta,
    D = delta has no term1 and no term2."""
    if big_d != 2.0 * c * (c - 1.0):
        return reference_refined_case2(c, big_d)
    term3 = (1.0 / (2.0 * (c - 1.0)) - 1.0 / big_d) * math.log2(big_d + 1.0)
    return term3 + 1.0 - (c - 1.0) / big_d * (1.0 - math.log2(1.0 + 2.0 ** (-1.0 / big_d)))


def reference_refined_best_at(c, value=reference_refined_case2):
    """The earlier objective: every D in [2(c-1), 2c(c-1)], no tail cut."""
    delta = 2.0 * c * (c - 1.0)
    lo = max(1, math.ceil(2.0 * (c - 1.0)))
    hi = math.floor(delta)
    best_v, best_d = bounds._case1_best_at(c)
    tag = "above-delta"
    for big_d in range(lo, hi + 1):
        v = value(c, big_d)
        if v > best_v:
            best_v, best_d, tag = v, big_d, "refined-product"
    return best_v, best_d, tag


def test_refined_objective_matches_reference_on_the_first_grid():
    # the 601 points of the first round of optimize_constant's grid; only
    # c = 60 has an integer delta, and its D = delta value is not the best
    lo, hi = 1.0 + 1e-6, 60.0
    for i in range(601):
        c = lo + (hi - lo) * i / 600
        assert bounds._refined_best_at(c) == reference_refined_best_at(c), c


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1.0 + 1e-6, max_value=60.0, exclude_min=True))
def test_refined_objective_matches_reference(c):
    delta = 2.0 * c * (c - 1.0)
    assume(delta != math.ceil(delta))
    assert bounds._refined_best_at(c) == reference_refined_best_at(c)


def test_refined_objective_is_continuous_at_an_integer_delta():
    # delta = 4 at c = 2: the product for D = 4 is empty, so it adds no
    # h = ceil(delta) factor; the earlier formula jumped to 1.8408 here
    at = bounds._refined_best_at(2.0)
    below = bounds._refined_best_at(2.0 - 1e-9)
    assert abs(at[0] - below[0]) <= 1e-6
    assert at[0] < 1.8165


def _floor_contract_points():
    """The first round of optimize_constant's grid, the floats around
    c* = (1 + sqrt 79)/2 (delta = 39), and c_k = (1 + sqrt(1 + 2k))/2
    (delta = k) with their lower neighbours."""
    lo, hi = 1.0 + 1e-6, 60.0
    points = [lo + (hi - lo) * i / 600 for i in range(601)]
    star = (1.0 + math.sqrt(79.0)) / 2.0
    for k in range(60):
        points += [star + k * 1e-9, star - k * 1e-9, star + k * 2.0**-50, star - k * 2.0**-50]
    for k in range(1, 2000, 7):
        c_k = (1.0 + math.sqrt(1.0 + 2.0 * k)) / 2.0
        points += [c_k, math.nextafter(c_k, 0.0)]
    return points


def test_refined_objective_is_exact_above_its_floor():
    # exact where the value exceeds floor, at most floor elsewhere
    rng = random.Random("floor-contract")
    integer_deltas = 0
    for c in _floor_contract_points():
        want = reference_refined_best_at(c, reference_refined_value)
        integer_deltas += 2.0 * c * (c - 1.0) == math.floor(2.0 * c * (c - 1.0))
        assert bounds._refined_best_at(c) == want, c
        v = want[0]
        for floor in (v - 1e-3, v - 1e-12, math.nextafter(v, 0.0), v, v + 1e-12, rng.uniform(1.0, 1.9)):
            got = bounds._refined_best_at(c, floor)
            if v > floor:
                assert got == want, (c, floor)
            else:
                assert got[0] <= floor, (c, floor)
    assert integer_deltas >= 20


def test_tail_sum_plus_log_never_increases():
    # the lemma behind _refined_best_at's cut: s(D) + log2(D + 1) does not
    # increase, read off the prefix table as P[N] - P[D] + log2(D + 1)
    top = 10**5 + 1
    bounds._log_ratio_sum(1, top)
    prefix = bounds._log_ratio_prefix
    values = [prefix[top] - prefix[d] + math.log2(d + 1.0) for d in range(1, top)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=2.0, max_value=2000.0))
@example(2.0)
@example(4.944097208657591)
@example(60.0)
@example(1000.0)
def test_refined_tail_bound_holds(c):
    assert bounds._refined_best_at(c)[0] <= bounds._refined_tail_bound(c)


def test_refined_tail_bound_decreases():
    rng = random.Random("tail-bound")
    samples = sorted({2.0 * 5e8 ** rng.random() for _ in range(20_000)} | {2.0, 60.0, 1e9})
    values = [bounds._refined_tail_bound(c) for c in samples]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_refined_tail_bound_at_60_is_below_the_maximum():
    # 1 + u(8 + 3u) / (4 ln 2 * 59) with u = ln 120, in 50-digit decimals
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(120).ln()
        exact = 1 + u * (8 + 3 * u) / (4 * Decimal(2).ln() * 59)
    assert exact < Decimal("1.8158")
    assert abs(exact - Decimal(bounds._refined_tail_bound(60.0))) < Decimal("1e-12")


def test_optimize_constant_rejects_a_tail_bound_that_reaches_the_maximum(monkeypatch):
    monkeypatch.setattr(bounds, "_refined_tail_bound", lambda c: 2.0)
    with pytest.raises(AssertionError, match="tail bound"):
        optimize_constant("refined")


def test_case1_supremum_rejects_a_tail_bound_that_reaches_the_maximum(monkeypatch):
    # the uncached scan, so the process-wide supremum stays as it is
    monkeypatch.setattr(bounds, "_refined_tail_bound", lambda c: 2.0)
    with pytest.raises(AssertionError, match="tail bound"):
        bounds._case1_supremum.__wrapped__()


def test_grid_zoom_max_reads_the_tail_at_the_hi_it_was_given():
    # the peak at c = 3 is on the first grid; the tail is small only from c = 10 on,
    # so a tail read at the zoomed hi (about 3.1) would reach the peak and raise
    def objective(c, floor):
        return -((c - 3.0) ** 2)

    def tail(c):
        return -1.0 if c >= 10.0 else 1.0

    assert bounds._grid_zoom_max(objective, 0.0, 10.0, tail) == (3.0, 0.0)
    with pytest.raises(AssertionError, match="tail bound"):
        bounds._grid_zoom_max(objective, 0.0, 10.0, lambda c: 0.0)


def test_case2_tail_bound_holds():
    rng = random.Random("case2-tail-holds")
    samples = [3.0 * (1e9 / 3.0) ** rng.random() for _ in range(5_000)] + [3.0, 3.59, 1000.0, 1e9]
    assert all(bounds.case2_exponent(c) <= bounds._case2_tail_bound(c) for c in samples)


def test_case2_tail_bound_decreases():
    rng = random.Random("case2-tail-decreases")
    samples = sorted({3.0 * (1e9 / 3.0) ** rng.random() for _ in range(20_000)} | {3.0, 6.0, 1000.0, 1e9})
    values = [bounds._case2_tail_bound(c) for c in samples]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_case2_supremum_rejects_a_tail_bound_that_reaches_the_maximum(monkeypatch):
    # the uncached scan, so the process-wide supremum stays as it is
    monkeypatch.setattr(bounds, "_case2_tail_bound", lambda c: 3.0)
    with pytest.raises(AssertionError, match="tail bound"):
        bounds._case2_supremum.__wrapped__()


def test_optimize_constant_validates_mode():
    with pytest.raises(ValueError):
        optimize_constant("fast")
