"""Tests of the benchmark itself: span arithmetic, tracer install and
restore, the speed correction, seeded inputs, and smoke-size runs of every
workload."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import clique_extremal
import clique_extremal.cli
import clique_extremal.params
import clique_extremal.suite
from clique_extremal.constructions import star_of_clique

import run
import speed
import workloads
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_subtracts_children_once():
    # name, start, end, parent, op
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["overlap", 5.5, 7.0, 0, 0],
    ]
    # root: 10 minus the union [1,4] + [5,7] = 5; a: 3 - 1; leaves keep their length.
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def _references():
    modules = [m for k, m in sys.modules.items() if k == "clique_extremal" or k.startswith("clique_extremal.")]
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}


def test_tracer_wraps_every_reference_and_restores_them():
    before = _references()
    original = clique_extremal.params.min_tset_missing
    tracer = Tracer()
    tracer.install()
    try:
        for module in (clique_extremal, clique_extremal.params, clique_extremal.suite, clique_extremal.cli):
            assert module.min_tset_missing is not original
        assert all(hasattr(check, "__wrapped__") for check in clique_extremal.suite.CHECKS)
        clique_extremal.cli.t_param(star_of_clique(10, 5))
    finally:
        tracer.restore()
    assert _references() == before
    stats = tracer.aggregate()
    assert stats["params.t_param"]["calls"] == 1
    assert stats["params.t_param"]["searches_per_call"] == stats["params.min_tset_missing"]["calls"] >= 1


def test_speed_is_the_mean_of_nominal_over_duration_near_a_window():
    sampler = speed.SpeedSampler()
    nominal, pad = speed.NOMINAL_S, speed.PAD
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [nominal, 2 * nominal, nominal, 4 * nominal]
    # Samples at 1 and 2 fall inside [1, 2]; the one at 3 is beyond the pad.
    assert sampler.speed(1.0, 2.0) == pytest.approx((0.5 + 1.0) / 2)
    # The sample at 3 is within the pad of [3 - pad / 2, 3 - pad / 2].
    assert sampler.speed(3 - pad / 2, 3 - pad / 2) == pytest.approx(0.25)
    assert sampler.busy(0.5, 2.5) == pytest.approx(3 * nominal)
    # 1 s holding the sample at 1 (2 * nominal of sampler time), at speed 0.5.
    assert sampler.corrected(0.5, 1.5) == pytest.approx((1.0 - 2 * nominal) * 0.5)
    assert sampler.speed(5.0, 6.0) == 1.0


def test_sampler_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * speed.INTERVAL:
            speed.reference()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) >= 3
    assert sampler.starts == sorted(sampler.starts)
    assert 0 < sampler.speed(start, time.perf_counter()) < 10


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    def batch(seed, folder):
        folder.mkdir()
        ops = workloads.WORKLOADS[name](clique_extremal, seed, folder, False)
        files = {p.name: p.read_text() for p in folder.iterdir()}
        return [tuple(a.replace(str(folder), "") for a in op.argv) for op in ops], files

    first = batch(7, tmp_path / "a")
    assert batch(7, tmp_path / "b") == first
    # paper-suite always runs the default reproduction, whatever the seed.
    assert (batch(8, tmp_path / "c") == first) == (name == "paper-suite")


def test_independent_codecs_match_the_library():
    g = clique_extremal.random_graph(70, 0.4, 3)
    n, rows = workloads.rows_of(g)
    assert workloads.graph6_text(n, rows) == clique_extremal.write_graph6(g) + "\n"
    assert workloads.edge_list_text(n, rows) == clique_extremal.write_edge_list(g)
    assert workloads.parse_graph6(workloads.graph6_text(n, rows)) == (n, rows)
    stats, _ = clique_extremal.count_cliques_peeling(g)
    assert workloads.count_cliques(n, rows) == (stats.count_including_empty, stats.clique_number)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(
    "name, trace",
    [("paper-suite", 0), ("large-inputs", 0), ("large-inputs", 1)],
)
def test_smoke_run_checks_every_answer(name, trace):
    proc = _bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        spans = [json.loads(line) for line in (ROOT / ".benchmarks" / f"spans-{name}.jsonl").open()]
        assert {span[0] for span in spans} >= {"cli.main", "formats.read_graph6", "bounds.g_bound"}
        assert all(len(span) == 5 and span[1] <= span[2] and span[3] < index for index, span in enumerate(spans))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "large-inputs", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
