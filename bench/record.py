"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/record.py [--seeds 0-9] [--workloads paper-suite ...] > bench/baseline.json

Each run is a separate ``bench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, as the benchmark is meant to be run. Per workload it
makes one untraced run per seed, one more on the held-out seed 1000 and one
traced run on seed 0. For every end-to-end metric the summary on stderr
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the quartile distance as a share of the median, next to the
metric's bound. Stdout gets the whole record as JSON, with the machine it
ran on: core count, Python version, commit, ``src/`` line count, load
average before and after, and how much six identical calls of
``optimize_constant("refined")`` differ in time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Not among the seeds the benchmark was tuned on.
HELD_OUT_SEED = 1000
TRACE_SEED = 0


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _loadavg() -> str:
    return " ".join(Path("/proc/loadavg").read_text().split()[:3])


def speed_noise() -> str:
    """Time identical calls of the refined-constant optimizer in one fresh
    process; their range shows how much the machine's speed moves."""
    code = (
        "import time\n"
        "from clique_extremal.bounds import optimize_constant\n"
        "for _ in range(6):\n"
        "    start = time.perf_counter(); optimize_constant('refined'); print(time.perf_counter() - start)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, check=True, timeout=300)
    times = [float(line) for line in proc.stdout.split()]
    return ("Six identical optimize_constant('refined') calls in one process took "
            f"{min(times):.2f}-{max(times):.2f} s.")


def machine_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
        "loadavg_start": _loadavg(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"seed": seed, **result, "metrics": metrics, "process_s": time.perf_counter() - start}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def _report(workload: str, summary: dict) -> None:
    for name, s in summary.items():
        flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
        bound = "" if s["bound"] is None else f" bound {s['bound']}"
        print(f"{workload:<14} {name:<32} median {s['median']:<12.6g} spread {s['spread']:.4f}{bound}{flag}",
              file=sys.stderr, flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    machine = machine_record()
    machine["notes"] = [
        "Runs are separate processes started one after another by bench/record.py.",
        "Nothing was pinned to a core, no cache was dropped and no machine setting was changed.",
        "End-to-end times are corrected for the processor's momentary speed by bench/speed.py.",
        speed_noise(),
    ]
    record = {"machine": machine, "seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        entry = record["workloads"][workload] = {}
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: attempted {runs[-1]['attempted']} failed {runs[-1]['failed']}",
                  file=sys.stderr, flush=True)
        entry["runs"] = runs
        entry["summary"] = summarise(runs, bounds)
        _report(workload, entry["summary"])
        entry["held_out"] = run_once(workload, HELD_OUT_SEED, seconds, 0)
        entry["traced"] = run_once(workload, TRACE_SEED, seconds, 1)
    record["machine"]["loadavg_end"] = _loadavg()
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
