"""Clique-count bound evaluators and the exponential-constant optimizer.

Everything is computed in log2 space so the evaluators stay finite for very
large parameters. The headline numbers this module reproduces:

* ``boundt_value``: a t-vertex graph with at least x missing edges and
  complement maximum degree D has at most 2^(t - x/D) * (1 + 2^(-1/D))^(x/D)
  cliques and clique number at most t - x/D.
* ``case1_exponent`` is bounded by 1.64, ``case2_exponent`` by 2.92.
* ``optimize_constant("coarse")`` gives per-t exponent 3 (attained by the
  trivial branch for graphs on at most 3t vertices).
* ``optimize_constant("refined")`` maximizes the exact product bound and
  lands near 1.816.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import itemgetter
from typing import Callable, NamedTuple

__all__ = [
    "BoundResult",
    "BoundtValue",
    "RecursionCheck",
    "boundt_value",
    "case1_rate",
    "case1_exponent",
    "case1_supremum",
    "case2_exponent",
    "case2_supremum",
    "g_bound",
    "g_case_log2",
    "g_recursion_check",
    "optimize_constant",
    "LOG_SHIFT",
]

# Shift making log2(y - s)/(y - s) >= log2(1 + y)/y for all y >= 5.
LOG_SHIFT = 1.95

CASE_ABOVE = "above-delta"
CASE_BELOW = "at-most-delta"
CASE_TRIVIAL = "trivial-small-c"
CASE_REFINED = "refined-product"

_LN2 = math.log(2.0)
# Upper end of the c range that both branch suprema scan; each branch has a
# tail bound beyond it (see ``case1_supremum`` and ``case2_supremum``).
_C_MAX = 1000.0


class BoundtValue(NamedTuple):
    log2_cliques: float
    clique_number_bound: Fraction


class BoundResult(NamedTuple):
    log2_bound: float
    case_tag: str
    c_value: float
    d_value: int | None
    slack_log2: float = 0.0


class RecursionCheck(NamedTuple):
    passed: bool
    failures: tuple[str, ...]


def boundt_value(t: int, x: int, d: int) -> BoundtValue:
    """log2 of 2^(t - x/d) * (1 + 2^(-1/d))^(x/d), plus the exact rational
    clique-number bound t - x/d. A t-vertex graph misses at most t(t-1)/2
    edges, and at most td/2 when d caps its missing degrees, so a larger x
    describes no graph and is rejected."""
    if d < 1:
        raise ValueError(f"complement degree cap must be positive, got {d}")
    if t < 1 or x < 0:
        raise ValueError(f"need t >= 1 and x >= 0, got t = {t}, x = {x}")
    if 2 * x > t * min(t - 1, d):
        raise ValueError(f"no {t}-vertex graph with missing degrees at most {d} misses {x} edges")
    try:
        log2 = _boundt_log2(t, x, d)
    except OverflowError:
        raise ValueError("t, x or d overflows a float: beyond the evaluator's scale") from None
    return BoundtValue(log2, Fraction(t) - Fraction(x, d))


def _boundt_log2(t: float, x: float, d: float) -> float:
    ratio = x / d
    return t - ratio + ratio * math.log2(1.0 + 2.0 ** (-1.0 / d))


def case1_rate(d: float) -> float:
    """Per-unit-of-m log factor of the sparse branch:
    (log2(d+1) - (1 - log2(1 + 2^(-1/d)))) / d.

    Decreasing for d >= 2 but not from d = 1 (it rises from 0.585 to 0.678
    before decaying), so optimizers scan integer candidates instead of
    assuming monotonicity.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return (math.log2(d + 1.0) - (1.0 - math.log2(1.0 + 2.0 ** (-1.0 / d)))) / d


def case1_exponent(c: float, d: float) -> float:
    """Per-t exponent 1 + (c - 1) * case1_rate(d) of the branch where the
    missing-degree cap exceeds 2c(c-1)."""
    if c <= 1:
        raise ValueError(f"need c > 1, got {c}")
    try:
        if d <= 2.0 * c * (c - 1.0):
            raise ValueError(f"the sparse branch needs d > 2c(c - 1) = {2.0 * c * (c - 1.0)}, got d = {d}")
        return 1.0 + (c - 1.0) * case1_rate(d)
    except OverflowError:
        raise ValueError("c or d overflows a float: beyond the evaluator's scale") from None


def _case1_best_at(c: float) -> tuple[float, int]:
    """Best admissible integer d strictly above delta = 2c(c-1): the first
    one, d0, or d0 + 1 if it is larger by more than 1e-15."""
    d0 = math.floor(2.0 * c * (c - 1.0)) + 1
    v0, v1 = case1_exponent(c, d0), case1_exponent(c, d0 + 1)
    return (v1, d0 + 1) if v1 > v0 + 1e-15 else (v0, d0)


def case2_exponent(c: float) -> float:
    """Closed-form per-t exponent of the dense branch after the integral
    estimate with the 1.95 shift and a per-summand choice of D:

    1 + (log2^2(2c(c-1) - 1.95) - log2^2(2(c-1) - 1.95)) / (4(c-1))
      + log2(2c(c-1) + 1) / (2c)

    Valid for c >= 3; below 3 the trivial 2^(3t) bound applies instead.
    """
    if c < 3:
        raise ValueError(f"case2_exponent needs c >= 3, got {c}")
    hi = math.log2(2.0 * c * (c - 1.0) - LOG_SHIFT)
    lo = math.log2(2.0 * (c - 1.0) - LOG_SHIFT)
    return 1.0 + (hi * hi - lo * lo) / (4.0 * (c - 1.0)) + math.log2(2.0 * c * (c - 1.0) + 1.0) / (2.0 * c)


# -- finite-parameter g bound ---------------------------------------------


# Largest ceil(delta) the g evaluator accepts; the table below grows to it.
_MAX_DELTA = 5_000_000
# Largest d that g_bound accepts: it evaluates every D up to d.
_MAX_D = 100_000
# Slack of g_recursion_check's comparisons.
_RECURSION_TOL = 1e-9

# prefix[h] = sum of log2(h'+1)/h' for h' = 1..h, 8 bytes an entry
_log_ratio_prefix = array("d", [0.0, 1.0])


def _log_ratio_sum(lo: int, hi: int) -> float:
    """Sum of log2(h+1)/h over lo <= h <= hi via a shared prefix table."""
    if hi < lo:
        return 0.0
    prefix = _log_ratio_prefix
    if len(prefix) <= hi:  # in bulk: the popped last entry comes back first, then the new sums
        terms = (math.log2(h + 1.0) / h for h in range(len(prefix), hi + 1))
        prefix.extend(accumulate(terms, initial=prefix.pop()))
    return prefix[hi] - prefix[lo - 1]


def g_case_log2(m: int, x: int, t: int, big_d: int) -> tuple[float, float, str]:
    """log2 of the recursion bound at a fixed integer D, with the integer
    rounding slack reported separately: (main term, slack, case tag).

    For D at most delta = 2xm/t^2 the bound is the product
    prod_{h=D+1}^{ceil(delta)} (h+1)^(t^2/(2xh)) * (D+1)^(t^2/(2x) - t/D)
    times the degree-capped clique bound; above delta it is
    (D+1)^((m-t)/D + 1) times that clique bound.
    """
    if big_d * t * t > 2 * x * m:  # D > delta, in integers
        main = ((m - t) / big_d + 1.0) * math.log2(big_d + 1.0) + _boundt_log2(t, x, big_d)
        return main, 0.0, CASE_ABOVE
    ceil_delta = -(-2 * x * m // (t * t))
    if ceil_delta > _MAX_DELTA:
        raise ValueError(f"delta = {ceil_delta} is beyond the evaluator's scale")
    t2_over_2x = t * t / (2.0 * x)
    product = _log_ratio_sum(big_d + 1, ceil_delta)
    main = (
        t2_over_2x * product
        + (t2_over_2x - t / big_d) * math.log2(big_d + 1.0)
        + _boundt_log2(t, x, big_d)
    )
    return main, product, CASE_BELOW


def g_bound(m: int, x: int, t: int, d: int) -> BoundResult:
    """Certified bound over all admissible integer D in [ceil(2x/t), d]:
    the recursion lands on some D in that range, so the worst case over the
    range bounds the clique count. The per-h rounding slack of the product
    (an O(log^2 delta) term) is never folded into the main bound."""
    if t < 1 or x < 1 or d < 1 or m < t:
        raise ValueError(f"need t >= 1, x >= 1, d >= 1, m >= t; got m={m}, x={x}, t={t}, d={d}")
    if d > _MAX_D:
        raise ValueError(f"d = {d} is beyond the evaluator's scale")
    lo = max(1, -(-2 * x // t))
    if lo > d:
        raise ValueError(f"empty D range: ceil(2x/t) = {lo} exceeds d = {d}")
    try:
        # max keeps the first of equal maxima: the smallest such D
        main, slack, tag, big_d = max(
            (g_case_log2(m, x, t, big_d) + (big_d,) for big_d in range(lo, d + 1)), key=itemgetter(0)
        )
        if not math.isfinite(main):  # a float product overflows to inf without raising
            raise OverflowError
        return BoundResult(main, tag, m / t, big_d, slack)
    except OverflowError:
        raise ValueError("m, x or t overflows a float: beyond the evaluator's scale") from None


def g_recursion_check(m: int, x: int, t: int, d: int) -> RecursionCheck:
    """Numeric diagnostics of the evaluator around a base point: probed
    upward in m (m + 1, m + 2) and t, where the bound must not fall, and
    downward in x (x + 1 may not raise it), plus the peel-step recursion
    g(m,x,t,d) <= (D1+1) * g(m-D1,x,t,D1) for some admissible D1.

    The d-axis holds by construction, so it is not probed: ``g_bound`` at
    d + 1 maximises the same per-D values over a range that contains d's.
    Near branch switches of the optimal D the evaluated bound can wiggle
    on the other axes; such points are reported as failures, which flags
    looseness of the bound there, not unsoundness.
    """
    failures: list[str] = []

    def value(mm: int, xx: int, tt: int, dd: int) -> float | None:
        try:
            return g_bound(mm, xx, tt, dd).log2_bound
        except ValueError:
            return None

    base = value(m, x, t, d)
    if base is None:
        return RecursionCheck(False, (f"base point ({m},{x},{t},{d}) is invalid",))
    prev = base
    for mm in (m + 1, m + 2):
        nxt = value(mm, x, t, d)
        if nxt is None:  # beyond the scale: nothing to compare
            break
        if nxt < prev - _RECURSION_TOL:
            failures.append(f"not monotone in m at m = {mm}")
        prev = nxt
    up_x = value(m, x + 1, t, d)
    if up_x is not None and up_x > base + _RECURSION_TOL:
        failures.append(f"not monotone decreasing in x at x = {x + 1}")
    up_t = value(m, x, t + 1, d)
    if up_t is not None and up_t < base - _RECURSION_TOL:
        failures.append(f"not monotone in t at t = {t + 1}")

    lo = max(1, -(-2 * x // t))
    recursion_holds = False
    for delta1 in range(lo, min(d, m - t) + 1):
        inner = value(m - delta1, x, t, delta1)  # None beyond the scale: not satisfied
        if inner is not None and base <= math.log2(delta1 + 1.0) + inner + _RECURSION_TOL:
            recursion_holds = True
            break
    if not recursion_holds:
        failures.append("no admissible Delta_1 satisfies the peel-step recursion")
    return RecursionCheck(not failures, tuple(failures))


# -- exponential-constant optimization --------------------------------------


def _grid_zoom_max(
    f: Callable[[float, float], float],
    lo: float,
    hi: float,
    tail: Callable[[float], float],
    steps: int = 400,
) -> tuple[float, float]:
    """Deterministic grid refinement maximizer over [lo, hi], robust to the
    ceiling jumps of the objective. Returns (argmax, max).

    ``f(c, floor)`` gets the running best as ``floor``. The grid only acts
    on a value above it, so ``f`` must be exact where its value exceeds
    ``floor`` and may return anything at most ``floor`` elsewhere.

    ``tail`` bounds ``f`` from above and decreases on [hi, inf). Its value
    at the ``hi`` given must stay below the grid maximum: no c >= hi can
    then score higher. Otherwise the maximizer raises AssertionError."""
    top = hi
    best_c, best_v = lo, f(lo, -math.inf)
    # Each round cuts the bracket to at most 8/steps of its width, so with
    # steps >= 400 a bracket up to _C_MAX wide falls under 1e-10 within 8
    # rounds (8, 8 and 7 for the three callers) and the cap never binds.
    for _ in range(10):
        span = hi - lo
        for i in range(steps + 1):
            c = lo + span * i / steps
            v = f(c, best_v)
            if v > best_v:
                best_c, best_v = c, v
        width = 4.0 * span / steps
        lo = max(lo, best_c - width)
        hi = min(hi, best_c + width)
        if hi - lo < 1e-10:
            break
    if tail(top) >= best_v:
        raise AssertionError(f"the tail bound for c >= {top} reached the grid maximum {best_v}")
    return best_c, best_v


def case1_supremum() -> BoundResult:
    """sup over c > 1 of the sparse-branch exponent at its best admissible
    integer d; stays below 1.64. Computed once per process.

    The grid covers (1 + 1e-6, _C_MAX]. The sparse branch is the starting
    value of ``_refined_best_at``, so its tail is ``_refined_tail_bound``,
    1.0845... at _C_MAX.
    """
    return _case1_supremum()


@cache
def _case1_supremum() -> BoundResult:
    c0, v0 = _grid_zoom_max(lambda c, floor: _case1_best_at(c)[0], 1.0 + 1e-6, _C_MAX, _refined_tail_bound)
    return BoundResult(v0, CASE_ABOVE, c0, _case1_best_at(c0)[1])


def case2_supremum() -> BoundResult:
    """sup over c >= 3 of the dense-branch closed form; stays below 2.92.
    Computed once per process.

    The grid covers [3, _C_MAX]; the tail is ``_case2_tail_bound``, 1.1201...
    at _C_MAX.
    """
    return _case2_supremum()


@cache
def _case2_supremum() -> BoundResult:
    c0, v0 = _grid_zoom_max(lambda c, floor: case2_exponent(c), 3.0, _C_MAX, _case2_tail_bound)
    return BoundResult(v0, CASE_BELOW, c0, None)


def _case2_tail_bound(c: float) -> float:
    """1 + L^2 / (4(c - 1)) + L / (2c) with L = 1 + 2 log2(c): an upper
    bound on ``case2_exponent(c)`` for c >= 3 that decreases for c >= 6.

    Proof. L = log2(2c^2). The high logarithm is at most L, as
    2c(c - 1) - 1.95 <= 2c^2; the low one is positive, as 2(c - 1) - 1.95 > 1
    for c >= 3, so the difference of squares is at most L^2. The last
    logarithm is at most L, as 2c(c - 1) + 1 <= 2c^2 for c >= 1/2. With
    L' = 2/(c ln 2), the derivative of L^2 / (4(c - 1)) has the sign of
    4(c - 1)/(c ln 2) - L, which is below 4/ln 2 - L <= 0 once
    L >= 4/ln 2 = 5.771, i.e. c >= 5.23; that of L / (2c) has the sign of
    2/ln 2 - L, negative once c >= 1.93. Both terms thus decrease for c >= 6
    (numerically the sum decreases from c = 3).
    """
    big_l = 1.0 + 2.0 * math.log2(c)
    return 1.0 + big_l * big_l / (4.0 * (c - 1.0)) + big_l / (2.0 * c)


_per_d = [(0.0, 0.0)]  # [D] = (log2(D + 1), 1 - log2(1 + 2^(-1/D))), the second positive


def _refined_best_at(c: float, floor: float = -math.inf) -> tuple[float, int | None, str]:
    """Best of the sparse branch and, for each integer D in [2(c-1), 2c(c-1)],
    the per-t limit of the exact product bound at n = ct, x = (c-1)t, a sum
    of term1 (the h = ceil(delta) factor), term2 = inv2x * s(D) (the factors
    h = D+1..ceil(delta)-1; s(D) = P[ceil(delta)-1] - P[D], P the log-ratio
    prefix table), term3 = (inv2x - 1/D) * log2(D+1) (the (D+1) power) and
    term4 <= 1 (the degree-capped clique bound). Floors and ceilings that
    survive the limit are kept; the per-t vanishing remainders are dropped.
    At an integer delta the product for D = delta is empty: that D has no
    term1 and no term2.

    Meets the floor contract of ``_grid_zoom_max``, for D and tag too. The
    D loop stops once no later D can beat bar = max(best so far, floor).
    Updates need v > best, so a stop at the best changes nothing, and a
    stop at a larger ``floor`` leaves a best that is at most ``floor``.

    Tail cut. Let m = min(hi, ceil(delta) - 1). Every D' in [D, m] scores at
    most term1 + inv2x * (s(D) + log2(D+1)) - log2(m+1)/m + 1, with 1e-9 for
    rounding. Proof: s(D) + log2(D+1) never increases with D, as its step is
    log2((D+2)/(D+1)) - log2(D+2)/(D+1) and log2((D+2)/(D+1)) <=
    1/((D+1) ln 2) < log2(D+2)/(D+1) once D + 2 > e; log2(D+1)/D decreases,
    so it is at least log2(m+1)/m on [D, m]; and term4 <= 1. At an integer
    delta, D = delta scores at most cap = term1 + inv2x * log2(hi+1) + 1
    (term1 > 0), and is evaluated only when cap is above the bar.
    """
    best_v, best_d = _case1_best_at(c)
    tag = CASE_ABOVE
    delta = 2.0 * c * (c - 1.0)
    ceil_delta = math.ceil(delta)
    lo = max(1, math.ceil(2.0 * (c - 1.0)))
    hi = math.floor(delta)
    inv2x = 1.0 / (2.0 * (c - 1.0))
    term1 = (c - (ceil_delta - 1) * inv2x) / ceil_delta * math.log2(ceil_delta + 1.0)
    bar = max(best_v, floor)
    m = min(hi, ceil_delta - 1)
    if m >= lo:
        rest = term1 + 1.0 + 1e-9 - math.log2(m + 1.0) / m
        top, prefix, per_d = _log_ratio_sum(1, ceil_delta - 1), _log_ratio_prefix, _per_d
        for big_d in range(lo, m + 1):
            while len(per_d) <= big_d:  # grown only as far as the cut lets a scan go
                d = len(per_d)
                per_d.append((math.log2(d + 1.0), 1.0 - math.log2(1.0 + 2.0 ** (-1.0 / d))))
            log2_succ, ramp = per_d[big_d]
            s = top - prefix[big_d]
            if rest + inv2x * (s + log2_succ) <= bar:
                break
            v = term1 + inv2x * s + (inv2x - 1.0 / big_d) * log2_succ + (1.0 - (c - 1.0) / big_d * ramp)
            if v > best_v:
                best_v, best_d, tag = v, big_d, CASE_REFINED
                bar = max(v, floor)
    # at an integer delta, D = delta is scored alone: no term1 and no term2
    log2_succ = math.log2(hi + 1.0)
    if hi == ceil_delta and term1 + inv2x * log2_succ + 1.0 + 1e-9 > bar:
        ramp = 1.0 - math.log2(1.0 + 2.0 ** (-1.0 / hi))
        v = (inv2x - 1.0 / hi) * log2_succ + (1.0 - (c - 1.0) / hi * ramp)
        if v > best_v:
            best_v, best_d, tag = v, hi, CASE_REFINED
    return best_v, best_d, tag


def _refined_tail_bound(c: float) -> float:
    """1 + u(8 + 3u) / (4 ln 2 (c - 1)) with u = ln(2c): an upper bound on
    ``_refined_best_at(c)[0]``, the per-t limit with the remainders dropped,
    valid and decreasing for c >= 2.

    Proof. Let inv2x = 1/(2(c - 1)); delta = 2c(c - 1) <= 2c^2 gives
    log2(delta + 1) <= 2 log2(2c). For each D, term4 <= 1; term1 <= inv2x,
    as c - (ceil(delta) - 1) inv2x <= inv2x and log2(k + 1) <= k; term3 <=
    inv2x log2(delta + 1). term2 = inv2x s(D), and as log2(h + 1)/h
    decreases, s(D) is at most the integral of log2(2h)/h from 2(c - 1) >= c
    to 2c^2, which is 3u^2/(2 ln 2). The sparse branch is at most
    1 + log2(delta + 1)/(2c) <= 1 + u/(c ln 2). The derivative has the sign
    of (6u + 8)(c - 1)/c - (3u^2 + 8u), negative once u > 4/3, i.e. c > 1.9.
    """
    u = math.log(2.0 * c)
    return 1.0 + u * (8.0 + 3.0 * u) / (4.0 * _LN2 * (c - 1.0))


def optimize_constant(mode: str) -> BoundResult:
    """Exponential constant of the clique bound for graphs without a
    subdivision of a t-clique, in the large-t limit.

    coarse: maximum of the two smooth branches and the trivial bound of 3
    for graphs on at most 3t vertices; the trivial branch dominates, so the
    constant is exactly 3 while the smooth branches stay below 2.92.

    refined: maximizes the exact product bound over real c > 1 and integer
    D, excluding the trivial branch; reports the achieved constant and its
    maximizer (c, D). A deterministic grid-zoom search (``_grid_zoom_max``)
    covers (1 + 1e-6, 60]; the tail is ``_refined_tail_bound``, 1.654... at 60.
    """
    if mode == "coarse":
        sup1 = case1_supremum()
        sup2 = case2_supremum()
        smooth = max(sup1.log2_bound, sup2.log2_bound)
        if smooth >= 3.0:
            raise AssertionError(f"smooth branches reached {smooth}, expected < 3")
        return BoundResult(3.0, CASE_TRIVIAL, 3.0, None)
    if mode != "refined":
        raise ValueError(f"mode must be 'coarse' or 'refined', got {mode!r}")
    c_best, _ = _grid_zoom_max(
        lambda c, floor: _refined_best_at(c, floor)[0], 1.0 + 1e-6, 60.0, _refined_tail_bound, steps=600
    )
    value, d_value, tag = _refined_best_at(c_best)
    return BoundResult(value, tag, c_best, d_value)
