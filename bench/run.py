"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload large-inputs --seed 0 --seconds 50 --trace 0

Every operation is an in-process call of ``clique_extremal.cli.main(argv)``
with its output captured, made in a closed loop by one client. The run
imports the package from ``src/`` next to this directory, sets the workload
up several times (``setup_s`` is the median), then repeats the workload's
batch until ``--seconds`` would be exceeded and checks every answer.

``--trace 0`` reports the end-to-end metrics. Their times are corrected for
the processor's momentary speed, which ``speed.SpeedSampler`` samples while
the run sets up and measures; stderr shows the uncorrected times too.
``--trace 1`` alternates untraced and traced passes, reports per-layer
metrics per traced operation plus the tracing overhead, and writes every
span to ``.benchmarks/spans-<workload>.jsonl``. A human-readable table goes to
stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedSampler  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".benchmarks"
# Set-up repeats: at least 7 and 1.5 s of them, at most 30. Cheap set-ups
# repeat more, so their median does not ride on one slow moment.
SETUP_REPEATS = (7, 1.5, 30)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_UNITS = {"calls": "calls/op", "self_s": "s/op", "bytes": "B/op", "searches_per_call": "searches/call"}
_SUITE_CHECKS = (
    "peeling_vs_oracle star_of_clique_counts matching_complement_counts immersion_embedder "
    "immersion_tightness subdivision_embedder sigma_sandwich degree_averaging "
    "degree_capped_clique_bound constant_case1 constant_case2 constant_coarse constant_refined spot_values"
).split()
_TRACED = [
    ("params.min_tset_missing", ("calls", "self_s")),
    ("params.t_param", ("calls", "self_s", "searches_per_call")),
    ("bounds.optimize_constant", ("self_s",)),
    ("bounds.case1_supremum", ("self_s",)),
    ("bounds.case2_supremum", ("self_s",)),
    ("bounds.g_bound", ("calls", "self_s")),
    ("bounds.g_recursion_check", ("self_s",)),
    *[(f"formats.{fn}", ("calls", "self_s", "bytes"))
      for fn in ("read_graph6", "read_edge_list", "write_graph6", "write_edge_list")],
    ("cliques.count_cliques_oracle", ("calls", "self_s")),
    ("cliques.count_cliques_peeling", ("calls", "self_s")),
    ("embed.sigma_exhaustive", ("calls", "self_s")),
    ("embed.has_immersion_with_ends", ("calls", "self_s")),
    *[(f"embed.{fn}", ("self_s",)) for fn in (
        "immerse_dense", "subdivide_dense", "verify_immersion", "verify_subdivision")],
    ("constructions.random_graph", ("self_s",)),
    *[(f"suite.check_{name}", ("self_s",)) for name in _SUITE_CHECKS],
    ("cli.main", ("self_s",)),
    ("cli.build_parser", ("self_s",)),
]
# name -> unit
PER_LAYER = {f"{fn}.{stat}": _UNITS[stat] for fn, stats in _TRACED for stat in stats}
PER_LAYER["trace.overhead_ratio"] = "ratio"


def load_program():
    """Import ``clique_extremal.cli`` afresh, so module-level state starts
    empty as in a new CLI process."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    cli = importlib.import_module(PACKAGE + ".cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, argv) -> tuple[float, int | None, str, str]:
    """(seconds, exit code, stdout, stderr); exit code None if main raised."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, never the end of the run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


class Outcomes:
    """Answers seen per operation; each distinct answer is checked once."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.seen: Counter = Counter()
        self.errors: dict[tuple, str] = {}

    def add(self, index: int, rc: int | None, out: str, err: str) -> None:
        key = (index, rc, out)
        self.seen[key] += 1
        if rc is None:
            self.errors[key] = err

    def failures(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        messages = []
        for (index, rc, out), times in self.seen.items():
            attempted += times
            op = self.ops[index]
            problem = self.errors.get((index, rc, out)) or op.check(rc, out)
            if problem is not None:
                failed += times
                messages.append(f"{op.kind} {' '.join(op.argv)}: {problem}")
        return attempted, failed, messages


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(ops, outcomes: Outcomes, tracer: Tracer | None = None) -> list[tuple[float, float]]:
    """One pass over the batch on a freshly imported program, as a new CLI
    process would start; returns each operation's start and end."""
    cli = load_program()
    windows = []
    if tracer is not None:
        tracer.install()
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id += 1
            start = time.perf_counter()
            took, rc, out, err = run_op(cli, op.argv)
            windows.append((start, start + took))
            outcomes.add(index, rc, out, err)
    finally:
        if tracer is not None:
            tracer.restore()
    return windows


def measure(ops, seconds: float, outcomes: Outcomes, sampler: SpeedSampler) -> dict[str, float]:
    """Repeat the batch until another pass would end after ``seconds``.

    Each operation's time is corrected for the processor's speed around it
    (``SpeedSampler.corrected``). ``wall_s`` is the median over passes of a
    pass's corrected total; the latency percentiles pool every corrected
    operation of every pass."""
    passes: list[list[tuple[float, float]]] = []
    began = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - began + longest <= seconds:
        passes.append(run_pass(ops, outcomes))
        longest = max(longest, passes[-1][-1][1] - passes[-1][0][0])
    totals: list[float] = []
    raw: list[float] = []
    latencies: list[float] = []
    for windows in passes:
        took = [sampler.corrected(start, end) for start, end in windows]
        totals.append(sum(took))
        raw.append(sum(end - start - sampler.busy(start, end) for start, end in windows))
        latencies += took
    wall = statistics.median(totals)
    return {
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": 1000 * quantile(latencies, 50),
        "op_p90_ms": 1000 * quantile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_samples": len(latencies),
        "_passes": " ".join(f"{t:.3f} ({r:.3f} raw)" for t, r in zip(totals, raw)),
    }


def measure_traced(
    ops, seconds: float, outcomes: Outcomes, sampler: SpeedSampler, spans_path: Path
) -> dict[str, float]:
    """Rounds of one untraced and one traced pass, in alternating order,
    until another round would end after ``seconds``. Alternating keeps a
    first pass's warm-up from landing on one side of
    ``trace.overhead_ratio``, and both sides' operation times are corrected
    for the processor's speed. The per-layer self times are not corrected;
    they include the sampler's own time, about 2%."""
    tracer = Tracer()
    untraced = traced = longest = 0.0
    rounds = 0
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began + longest <= seconds:
        start = time.perf_counter()
        for traced_pass in (False, True) if rounds % 2 == 0 else (True, False):
            took = sum(sampler.corrected(*window) for window in run_pass(ops, outcomes, tracer if traced_pass else None))
            if traced_pass:
                traced += took
            else:
                untraced += took
        rounds += 1
        longest = max(longest, time.perf_counter() - start)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path)

    count = rounds * len(ops)
    stats = tracer.aggregate()
    metrics = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        value = stats.get(fn, {}).get(stat, 0)
        metrics[name] = value if stat == "searches_per_call" else value / count
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["_samples"] = count
    metrics["_top"] = sorted(((v["self_s"] / count, k) for k, v in stats.items()), reverse=True)[:8]
    return metrics


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_avg_start = _loadavg()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        load_program()  # the first import compiles; it is not part of set-up
        sampler = SpeedSampler()
        with sampler:
            setups: list[tuple[float, float]] = []
            least, least_s, most = SETUP_REPEATS
            while len(setups) < least or (sum(e - s for s, e in setups) < least_s and len(setups) < most):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                start = time.perf_counter()
                load_program()
                ops = WORKLOADS[args.workload](sys.modules[PACKAGE], args.seed, workdir, args.smoke)
                setups.append((start, time.perf_counter()))
            outcomes = Outcomes(ops)
            if args.trace:
                metrics = measure_traced(ops, args.seconds, outcomes, sampler, SPANS / f"spans-{args.workload}.jsonl")
            else:
                metrics = measure(ops, args.seconds, outcomes, sampler)
        if args.trace:
            units = PER_LAYER
        else:
            setup_raw = statistics.median(end - start - sampler.busy(start, end) for start, end in setups)
            metrics["setup_s"] = statistics.median(sampler.corrected(start, end) for start, end in setups)
            metrics["_setup"] = f"{metrics['setup_s']:.4f} ({setup_raw:.4f} raw)"
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        attempted, failed, messages = outcomes.failures()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    log = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"loadavg {load_avg_start} -> {_loadavg()}", file=log)
    print(f"operations {attempted}  failed {failed}  failed_ratio {failed / attempted:.4f}  "
          f"samples {metrics.pop('_samples')}", file=log)
    print(f"pass seconds {metrics.pop('_passes', '-')}  set-up seconds {metrics.pop('_setup', '-')}", file=log)
    for message in messages[:10]:
        print(f"  FAILED {message}", file=log)
    for self_s, name in metrics.pop("_top", ()):
        print(f"  top self time {name:<40} {self_s:>10.4f} s/op", file=log)
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}", file=log)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
