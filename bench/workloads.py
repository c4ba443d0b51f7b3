"""The benchmark's workloads, as listed in ``BENCHMARK.json``.

Each workload turns a seed into a fixed batch of CLI operations. ``setup``
generates the graphs with the library's seeded generators, writes the input
files with this module's own writers and returns the batch. Every operation
carries an independent check of its answer, which the runner applies after
timing, so checking never counts as the program's time.

Why these two:

* ``paper-suite`` is the reproduction users run, ``verify-paper`` at full
  size. ``params.min_tset_missing`` does most of its work, then
  ``bounds.optimize_constant``; it reads and writes no files.
* ``large-inputs`` reads and writes graphs with up to 800 vertices in both
  formats and runs ``bounds.g_recursion_check`` at large parameters, so
  ``formats`` and ``bounds.g_bound`` do most of its work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFINED_CONSTANT = 1.815875

# (exit code, stdout) -> None when the answer is right, else what is wrong.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Check


# -- independent helpers -------------------------------------------------------
# Graphs are (n, rows) with rows[v] the adjacency bitmask of v. These helpers
# encode, decode and evaluate graphs from the definitions, without the
# library's code.


def rows_of(g) -> tuple[int, list[int]]:
    return g.n, [g.adjacency_mask(v) for v in range(g.n)]


def edge_list_text(n: int, rows: list[int]) -> str:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def graph6_text(n: int, rows: list[int]) -> str:
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~"] + [chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)]
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        b = bits[k : k + 6]
        out.append(chr(63 + (b[0] << 5 | b[1] << 4 | b[2] << 3 | b[3] << 2 | b[4] << 1 | b[5])))
    return "".join(out) + "\n"


def parse_graph6(text: str) -> tuple[int, list[int]]:
    s = text.strip()
    if s[0] != "~":
        n, body = ord(s[0]) - 63, s[1:]
    else:
        a, b, c = (ord(ch) - 63 for ch in s[1:4])
        n, body = a << 12 | b << 6 | c, s[4:]
    rows = [0] * n
    i, j = 0, 1
    for ch in body:
        value = ord(ch) - 63
        for shift in range(5, -1, -1):
            if j >= n:
                break
            if value >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return n, rows


def parse_edge_list(text: str) -> tuple[int, list[int]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n = int(lines[0][0])
    rows = [0] * n
    for u, v in ((int(a), int(b)) for a, b in lines[1:]):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, rows


def max_missing_degree(n: int, rows: list[int]) -> int:
    return n - 1 - min(r.bit_count() for r in rows)


def count_cliques(n: int, rows: list[int]) -> tuple[int, int]:
    """(cliques including the empty one, clique number), each clique listed
    once in increasing vertex order. Only fast on sparse graphs."""
    total, omega = 1, 0
    stack = [((rows[v] >> (v + 1)) << (v + 1), 1) for v in range(n)]
    while stack:
        candidates, size = stack.pop()
        total += 1
        omega = max(omega, size)
        while candidates:
            low = candidates & -candidates
            w = low.bit_length() - 1
            candidates ^= low
            stack.append((candidates & rows[w], size + 1))
    return total, omega


# -- checks -------------------------------------------------------------------


def _json(rc: int, out: str) -> dict:
    if rc != 0:
        raise ValueError(f"exit code {rc}, expected 0")
    return json.loads(out)


def _checked(body: Callable[[int, str], "str | None"]) -> Check:
    def check(rc: int, out: str) -> str | None:
        try:
            return body(rc, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return check


def check_approx(n: int, rows: list[int]) -> Check:
    """``params --approx`` from the averaging formula, the same for the
    graph6 and edge-list reads of one graph."""
    missing = n * (n - 1) // 2 - sum(r.bit_count() for r in rows) // 2
    t_lower = max(t for t in range(1, n + 1) if missing * t * (t - 1) // (n * (n - 1)) <= n - t)
    want = {"n": n, "exact": False, "t_param_lower_bound": t_lower, "delta": max_missing_degree(n, rows)}

    def body(rc, out):
        data = _json(rc, out)
        return None if data == want else f"approx report {data}, expected {want}"

    return _checked(body)


def check_construct(lib, n: int, p: str, seed: int, fmt: str) -> Check:
    """The printed graph parses back to ``random_graph(n, p, seed)``."""

    def body(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        got = parse_graph6(out) if fmt == "graph6" else parse_edge_list(out)
        if got != rows_of(lib.random_graph(n, float(p), seed)):
            return f"printed graph differs from random_graph({n}, {p}, {seed})"
        return None

    return _checked(body)


def check_peeling(n: int, rows: list[int]) -> Check:
    def body(rc, out):
        data = _json(rc, out)
        count, omega = count_cliques(n, rows)
        if (data["count_including_empty"], data["clique_number"]) != (count, omega):
            return f"peeling {data}, expected count {count}, clique number {omega}"
        return None

    return _checked(body)


@_checked
def check_recursion(rc: int, out: str) -> str | None:
    """The exit code agrees with the reported ``passed``."""
    passed = json.loads(out)["passed"]
    return None if rc == (0 if passed else 1) else f"exit code {rc} with passed = {passed}"


@_checked
def check_paper(rc: int, out: str) -> str | None:
    """Every check passes and the refined constant is 1.815875."""
    report = _json(rc, out)
    checks = {c["name"]: c for c in report["checks"]}
    failed = [name for name, c in checks.items() if not c["passed"]]
    if failed or not report["passed"]:
        return f"failed checks {failed}"
    refined = checks["refined-constant"]["data"]["constant"]
    if abs(refined - REFINED_CONSTANT) > 1e-6:
        return f"refined constant {refined}"
    return None


# -- workloads ----------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


def paper_suite(lib, seed: int, workdir: Path, smoke: bool) -> list[Op]:
    """``verify-paper --seed 0 --json`` at full size: the default
    reproduction, one operation per pass.

    The benchmark seed does not choose the suite seed. The cost of one
    suite run moves by about a sixth with the suite seed, more than the
    run-to-run noise of a shared machine, and only four to six suite runs
    fit in one benchmark run, too few to average that out.
    """
    extra = ("--quick",) if smoke else ()
    return [Op("verify-paper", ("verify-paper", "--seed", "0", "--json") + extra, check_paper)]


def large_inputs(lib, seed: int, workdir: Path, smoke: bool) -> list[Op]:
    """Sizes and densities follow fixed ladders, so the cost of a batch does
    not depend on the seed; the graphs and a 1% jitter of the
    recursion-check parameters do. The cost of a recursion check grows
    steeply with its parameters: a 5% jitter moved it by a third, and with
    it the batch's 90th percentile."""
    rng = random.Random(f"large-inputs:{seed}")
    ladder = (40, 80) if smoke else (200, 300, 400, 500, 600, 700, 800)
    ops: list[Op] = []
    for n in ladder:
        n, rows = rows_of(lib.random_graph(n, 0.5, rng.randrange(2**32)))
        check = check_approx(n, rows)
        g6 = _write(workdir / f"approx{n}.g6", graph6_text(n, rows))
        el = _write(workdir / f"approx{n}.el", edge_list_text(n, rows))
        ops.append(Op("approx-graph6", ("params", "--input", g6, "--format", "graph6", "--approx", "--json"), check))
        ops.append(Op("approx-edgelist", ("params", "--input", el, "--approx", "--json"), check))
    for n in ladder:
        graph_seed = rng.randrange(2**31)
        for fmt in ("graph6", "edgelist"):
            argv = ("construct", "--family", "random", "--n", str(n), "--p", "0.5", "--seed", str(graph_seed))
            check = check_construct(lib, n, "0.5", graph_seed, fmt)
            ops.append(Op(f"construct-{fmt}", argv + ("--output-format", fmt), check))
    for k, n in enumerate((60,) if smoke else (200, 250, 300, 350, 400)):
        n, rows = rows_of(lib.random_graph(n, 0.04, rng.randrange(2**32)))
        path = _write(workdir / f"sparse{k}.el", edge_list_text(n, rows))
        ops.append(Op("peeling", ("count", "--input", path, "--method", "peeling", "--json"), check_peeling(n, rows)))
    bases = [(400, 150, 20, 40)] if smoke else [(4000, 1600, 90, 220), (5000, 2000, 100, 250), (6000, 2400, 110, 280)]
    for m, x, t, d in bases:
        m, x, d = (round(v * rng.uniform(0.99, 1.01)) for v in (m, x, d))
        argv = ("bounds", "--mode", "recursion-check", "--params", f"{m},{x},{t},{d}", "--json")
        ops.append(Op("recursion-check", argv, check_recursion))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "paper-suite": paper_suite,
    "large-inputs": large_inputs,
}
