"""The library's self-verification suite.

Each check re-derives one of the documented guarantees from scratch at desk
scale: the two clique counters agree, the generator count formulas hold
exactly, the embedders always emit certificates their verifiers accept, the
parameter sandwich and missing-degree inequalities hold on random suites,
and the bound engine reproduces its constants. The CLI's ``verify-paper``
subcommand runs every check in order, in one process, and reports a table.

All randomness is derived from string-seeded generators, so reports are
byte-identical across runs and platforms for a fixed seed.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .bounds import boundt_value, case1_supremum, case2_supremum, optimize_constant
from .cliques import count_cliques_oracle, count_cliques_peeling
from .constructions import immersion_tightness, matching_complement, random_graph, star_of_clique
from .embed import (
    has_immersion_with_ends,
    immerse_dense,
    sigma_exhaustive,
    subdivide_dense,
    verify_immersion,
    verify_subdivision,
)
from .graph import Graph
from .params import delta_threshold_no_subdivision, min_tset_missing, t_param

__all__ = ["CheckResult", "SuiteReport", "run_suite", "report_to_json", "CHECKS"]

_DENSITIES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    summary: str
    data: dict
    seconds: float


class SuiteReport(NamedTuple):
    seed: int
    quick: bool
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _rng(seed: int, tag: str, k: int) -> random.Random:
    # String seeding hashes via SHA-512, stable across processes.
    return random.Random(f"{seed}:{tag}:{k}")


def _random_graphs(seed: int, tag: str, count: int, n_max: int) -> Iterator[Graph]:
    """``count`` seeded G(n, p) graphs, 4 <= n <= n_max, p from ``_DENSITIES``."""
    for k in range(count):
        rng = _rng(seed, tag, k)
        n = rng.randint(4, n_max)
        p = rng.choice(_DENSITIES)
        yield random_graph(n, p, rng.randrange(2**32))


# -- individual checks --------------------------------------------------------


def check_peeling_vs_oracle(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    instances = 100 if quick else 1000
    mismatches = 0
    fingerprint = 0
    for g in _random_graphs(seed, "oracle-eq", instances, 20):
        a = count_cliques_oracle(g)
        b, _ = count_cliques_peeling(g)
        if a != b:
            mismatches += 1
        fingerprint += a.count_including_empty
    data = {"instances": instances, "mismatches": mismatches, "clique_total": fingerprint}
    summary = f"{instances} random graphs (n <= 20), {mismatches} mismatches"
    return "peeling-vs-oracle", mismatches == 0, summary, data


def check_star_of_clique_counts(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    t_hi, n_extra = (8, 8) if quick else (12, 20)
    bad = []
    cases = 0
    for t in range(3, t_hi + 1):
        for n in range(t - 2, t + n_extra + 1):
            cases += 1
            got = count_cliques_oracle(star_of_clique(n, t)).count_including_empty
            want = 2 ** (t - 2) * (n - t + 3)
            if got != want:
                bad.append([t, n, got, want])
    data = {"cases": cases, "failures": bad}
    return "star-of-clique-count", not bad, f"{cases} (t, n) pairs match 2^(t-2) * (n-t+3) exactly", data


def check_matching_complement_counts(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    """The oracle closes MC(n) at its root by the very formula 3^(n/2), so
    the peeling counter, which searches, counts MC(n) as well for n <= 16."""
    n_hi = 16 if quick else 30
    bad = []
    cases = 0
    for n in range(2, n_hi + 1, 2):
        cases += 1
        g = matching_complement(n)
        got = count_cliques_oracle(g).count_including_empty
        if got != 3 ** (n // 2):
            bad.append([n, got])
        if n <= 16:
            peeled = count_cliques_peeling(g)[0].count_including_empty
            if peeled != 3 ** (n // 2):
                bad.append([n, "peeling", peeled])
    data = {"cases": cases, "failures": bad}
    return "matching-complement-count", not bad, f"{cases} even n match 3^(n/2) exactly", data


def _dense_instance_with_terminals(rng: random.Random, kind: str):
    """Rejection-sample a graph plus terminal set satisfying the relevant
    dense-embedder precondition."""
    for _ in range(500):
        n = rng.randint(8, 15)
        if kind == "immersion":
            t = rng.randint(3, n - 4)
            p = rng.uniform(0.7, 0.95)
        else:
            t = rng.randint(3, 6)
            p = rng.uniform(0.85, 0.98)
        g = random_graph(n, p, rng.randrange(2**32))
        order = sorted(range(n), key=lambda v: (g.missing_degree(v), v))
        terminals = order[:t]
        if kind == "immersion":
            if all(2 * g.missing_degree(v) < n - t + 2 for v in terminals):
                return g, terminals
        else:
            budget = n - t - 2 * g.max_missing_degree()
            if budget >= 0 and g.missing_edges_within(terminals) <= budget:
                return g, terminals
    raise AssertionError(f"rejection sampling for {kind} instances failed to converge")


def _check_embedder(seed: int, quick: bool, kind: str, embed, verify, summary: str) -> tuple[str, bool, str, dict]:
    """Embed every seeded dense instance of ``kind``; each certificate must
    pass ``verify`` with routes of length at most 2."""
    instances = 50 if quick else 500
    failures = 0
    for k in range(instances):
        g, terminals = _dense_instance_with_terminals(_rng(seed, f"{kind}-sound", k), kind)
        cert = embed(g, terminals)
        if not verify(g, cert) or any(len(route) > 3 for route in cert.paths.values()):
            failures += 1
    data = {"instances": instances, "failures": failures}
    return f"{kind}-embedder-soundness", failures == 0, f"{instances} dense instances, {summary}", data


def check_immersion_embedder(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    # verify_immersion checks the strong mode by default
    summary = "all certificates strong with paths of length <= 2"
    return _check_embedder(seed, quick, "immersion", immerse_dense, verify_immersion, summary)


def check_subdivision_embedder(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    summary = "all subdivision certificates valid"
    return _check_embedder(seed, quick, "subdivision", subdivide_dense, verify_subdivision, summary)


def check_immersion_tightness(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    cases = [(8, 4), (10, 4)] if quick else [(8, 4), (10, 4), (10, 6), (12, 6)]
    bad = []
    for n, t in cases:
        g, terminals = immersion_tightness(n, t)
        sharp = g.max_missing_degree() == (n - t) // 2 + 1
        strong = has_immersion_with_ends(g, terminals, strong=True)
        weak = has_immersion_with_ends(g, terminals, strong=False)
        if not sharp or strong or not weak:
            bad.append([n, t, sharp, strong, weak])
    data = {"cases": cases, "failures": bad}
    summary = f"{len(cases)} sharpness graphs: no strong immersion with the designated ends, weak exists"
    return "immersion-tightness-sharpness", not bad, summary, data


def check_sigma_sandwich(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    instances = 60 if quick else 300
    sandwich_bad = 0
    threshold_bad = 0
    for g in _random_graphs(seed, "sigma-sandwich", instances, 12):
        sigma = sigma_exhaustive(g)
        rep = t_param(g)
        if not rep.t_param - rep.delta <= sigma <= rep.t_param:
            sandwich_bad += 1
        for t in range(sigma + 1, g.n + 1):
            if not rep.delta > delta_threshold_no_subdivision(g.n, t):
                threshold_bad += 1
    data = {
        "instances": instances,
        "sandwich_violations": sandwich_bad,
        "threshold_violations": threshold_bad,
    }
    summary = f"{instances} graphs (n <= 12): t - Delta <= sigma <= t, Delta above the averaging threshold"
    return "sigma-sandwich", sandwich_bad == 0 and threshold_bad == 0, summary, data


def check_degree_averaging(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    """Delta >= 2nx/t^2 iff the integer x(t) <= floor(Delta t^2 / 2n): a recounted t-set proves it."""
    instances = 60 if quick else 300
    violations = 0
    for g in _random_graphs(seed, "degree-avg", instances, 20):
        delta = g.max_missing_degree()
        for t in range(1, g.n + 1):
            threshold = delta * t * t // (2 * g.n)
            x, witness = min_tset_missing(g, t, stop_at=threshold)
            if x > threshold or len(witness) != t or g.missing_edges_within(witness) > threshold:
                violations += 1
    data = {"instances": instances, "violations": violations}
    summary = f"{instances} graphs (n <= 20), all t: Delta >= 2nx/t^2 exactly"
    return "missing-degree-averaging", violations == 0, summary, data


def check_degree_capped_clique_bound(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    instances = 50 if quick else 500
    violations = 0
    used = 0
    equality_bad = 0
    for k in range(instances):
        rng = _rng(seed, "boundt", k)
        t = rng.randint(3, 14)
        p = rng.uniform(0.2, 0.95)
        g = random_graph(t, p, rng.randrange(2**32))
        x = t * (t - 1) // 2 - g.num_edges
        if x == 0:
            continue
        used += 1
        cap = g.max_missing_degree()
        stats = count_cliques_oracle(g)
        bt = boundt_value(t, x, cap)
        if stats.clique_number > bt.clique_number_bound:
            violations += 1
        if cap == 1:
            if stats.count_including_empty > 2 ** (t - x) * Fraction(3, 2) ** x:
                violations += 1
        elif math.log2(stats.count_including_empty) > bt.log2_cliques + 1e-9:
            violations += 1
    for half in range(1, 8):
        g = matching_complement(2 * half)
        count = count_cliques_oracle(g).count_including_empty
        if count != 2 ** half * Fraction(3, 2) ** half:
            equality_bad += 1
    data = {
        "instances": used,
        "violations": violations,
        "matching_equality_failures": equality_bad,
    }
    summary = f"{used} graphs (t <= 14) within the cap bound; matching complements achieve equality"
    return "degree-capped-clique-bound", violations == 0 and equality_bad == 0, summary, data


def check_constant_case1(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    sup = case1_supremum()
    ok = sup.log2_bound <= 1.64 + 1e-6
    data = {"supremum": sup.log2_bound, "c": sup.c_value, "d": sup.d_value}
    return "sparse-branch-constant", ok, f"sup = {sup.log2_bound:.6f} <= 1.64", data


def check_constant_case2(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    sup = case2_supremum()
    ok = sup.log2_bound <= 2.92 + 1e-6
    data = {"supremum": sup.log2_bound, "c": sup.c_value}
    return "dense-branch-constant", ok, f"sup = {sup.log2_bound:.6f} <= 2.92", data


def check_constant_coarse(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    result = optimize_constant("coarse")
    ok = abs(result.log2_bound - 3.0) <= 1e-6
    data = {"constant": result.log2_bound, "case": result.case_tag}
    return "coarse-constant", ok, f"coarse constant = {result.log2_bound:.6f} (trivial small-c branch)", data


def check_constant_refined(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    result = optimize_constant("refined")
    ok = 1.70 <= result.log2_bound <= 1.8165
    data = {
        "constant": result.log2_bound,
        "c": result.c_value,
        "d": result.d_value,
        "case": result.case_tag,
    }
    summary = f"refined constant = {result.log2_bound:.6f} at c = {result.c_value:.4f}, D = {result.d_value}"
    return "refined-constant", ok, summary, data


def _brute_t_param(g: Graph) -> int:
    best = 0
    for t in range(1, g.n + 1):
        least = min(
            g.missing_edges_within(subset) for subset in combinations(range(g.n), t)
        )
        if least <= g.n - t:
            best = t
    return best


def check_spot_values(seed: int, quick: bool) -> tuple[str, bool, str, dict]:
    bad = []
    c5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    if sigma_exhaustive(c5) != 3:
        bad.append("sigma(C5) != 3")
    for n in range(1, 9):
        kn = Graph.from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        if sigma_exhaustive(kn) != n:
            bad.append(f"sigma(K{n}) != {n}")
    mc8 = matching_complement(8)
    if sigma_exhaustive(mc8) != 6:
        bad.append("sigma(MC(8)) != 6")
    if t_param(mc8).t_param != 6 or _brute_t_param(mc8) != 6:
        bad.append("t(MC(8)) != 6")
    star = star_of_clique(10, 5)
    if t_param(star).t_param != 6 or _brute_t_param(star) != 6:
        bad.append("t(star_of_clique(10,5)) != 6")
    data = {"failures": bad}
    return "spot-values", not bad, "sigma and t spot values match brute-force recomputation", data


CHECKS = (
    check_peeling_vs_oracle,
    check_star_of_clique_counts,
    check_matching_complement_counts,
    check_immersion_embedder,
    check_immersion_tightness,
    check_subdivision_embedder,
    check_sigma_sandwich,
    check_degree_averaging,
    check_degree_capped_clique_bound,
    check_constant_case1,
    check_constant_case2,
    check_constant_coarse,
    check_constant_refined,
    check_spot_values,
)


def _run_one(check, seed: int, quick: bool) -> CheckResult:
    """Run and time one check; each check returns (name, passed, summary, data)."""
    start = time.perf_counter()
    outcome = check(seed, quick)
    return CheckResult(*outcome, time.perf_counter() - start)


def run_suite(seed: int = 0, quick: bool = False) -> SuiteReport:
    """Run every check in ``CHECKS`` order in this process."""
    results = tuple(_run_one(check, seed, quick) for check in CHECKS)
    return SuiteReport(seed=seed, quick=quick, results=results)


def report_to_json(report: SuiteReport) -> str:
    """Deterministic JSON: timings are excluded so two runs with the same
    seed are byte-identical."""
    payload = {
        "seed": report.seed,
        "quick": report.quick,
        "passed": report.passed,
        "checks": [
            {"name": r.name, "passed": r.passed, "summary": r.summary, "data": r.data}
            for r in report.results
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"

