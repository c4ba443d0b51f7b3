import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from clique_extremal import Graph, cli, matching_complement, read_graph6, star_of_clique, write_edge_list, write_graph6
from clique_extremal.cli import main
from clique_extremal.limits import MAX_CONSTRUCT_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def mc8_path(tmp_path):
    path = str(tmp_path / "mc8.g6")
    Path(path).write_text(write_graph6(matching_complement(8)) + "\n", encoding="ascii")
    return path


def test_count_both_methods(capsys, mc8_path):
    code, out, _ = run(capsys, "count", "--input", mc8_path, "--format", "graph6", "--method", "both", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count_including_empty"] == 81
    assert data["clique_number"] == 4


def test_count_human_output(capsys, tmp_path):
    path = str(tmp_path / "star.el")
    Path(path).write_text(write_edge_list(star_of_clique(10, 5)), encoding="ascii")
    code, out, _ = run(capsys, "count", "--input", path)
    assert code == 0
    assert "64" in out


def test_sigma_and_params(capsys, mc8_path):
    code, out, _ = run(capsys, "sigma", "--input", mc8_path, "--format", "graph6", "--json")
    assert code == 0
    assert json.loads(out)["sigma"] == 6
    code, out, _ = run(capsys, "params", "--input", mc8_path, "--format", "graph6", "--t", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["t_param"] == 6
    assert data["delta"] == 1
    assert data["sigma"] == 6
    assert data["min_tset_missing"] == 2


EMBED_MC8 = ("embed", "--format", "graph6", "--lemma", "subdivision", "--terminals", "0,1,2,3")


def test_embed_then_verify(capsys, tmp_path, mc8_path):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, *EMBED_MC8, "--input", mc8_path)
    assert code == 0
    Path(cert_path).write_text(out, encoding="ascii")
    code, out, _ = run(
        capsys,
        "verify", "--input", mc8_path, "--format", "graph6", "--certificate", cert_path,
    )
    assert code == 0
    assert "VALID" in out
    # tamper: reuse an internal vertex
    cert = json.loads(open(cert_path).read())
    for entry in cert["paths"]:
        if len(entry["route"]) == 3:
            entry["route"][1] = 4
    open(cert_path, "w").write(json.dumps(cert))
    code, out, _ = run(
        capsys,
        "verify", "--input", mc8_path, "--format", "graph6", "--certificate", cert_path,
    )
    assert code == 1
    assert "INVALID" in out


@pytest.mark.parametrize("flags", [("--output", "cert.json"), ("--json",)])
def test_embed_reads_no_output_or_json_flag(capsys, tmp_path, monkeypatch, mc8_path, flags):
    # embed prints its certificate to stdout and writes no file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*EMBED_MC8, "--input", mc8_path, *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "cert.json").exists()


def test_verify_rejects_a_non_integer_vertex(capsys, tmp_path):
    graph = tmp_path / "three.el"
    graph.write_text("3 1\n0 1\n")
    cert = tmp_path / "cert.json"
    cert.write_text('{"kind":"subdivision","terminals":"01","paths":[{"ends":"01","route":"01"}]}')
    code, out, err = run(capsys, "verify", "--input", str(graph), "--certificate", str(cert))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed certificate: ")


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"kind":"subdivision","terminals":[0,1],"paths":' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["top-level", "in-paths"])
def test_verify_rejects_a_deeply_nested_certificate(capsys, tmp_path, text):
    graph = tmp_path / "three.el"
    graph.write_text("3 1\n0 1\n")
    cert = tmp_path / "deep.json"
    cert.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(graph), "--certificate", str(cert))
    assert code == 2
    assert out == ""
    assert err == "error: certificate nests JSON arrays or objects too deeply\n"


def test_verify_reads_its_default_mode_from_the_certificate_kind(capsys, tmp_path):
    # 0-2-1 passes through the terminal 2: a weak immersion that is not a strong one
    graph = tmp_path / "weak.el"
    graph.write_text(write_edge_list(Graph.from_edge_list(5, [(0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (2, 4)])))
    cert = tmp_path / "weak.json"
    cert.write_text(json.dumps({"kind": "weak_immersion", "terminals": [0, 1, 2], "paths": [
        {"ends": [0, 1], "route": [0, 2, 1]},
        {"ends": [0, 2], "route": [0, 3, 2]},
        {"ends": [1, 2], "route": [1, 4, 2]},
    ]}))
    code, out, _ = run(capsys, "verify", "--input", str(graph), "--certificate", str(cert))
    assert code == 0
    assert out == "certificate VALID (weak)\n"
    code, out, _ = run(capsys, "verify", "--input", str(graph), "--certificate", str(cert), "--mode", "strong")
    assert code == 1
    assert out.startswith("certificate INVALID (strong)\n")


def test_count_both_reports_a_mismatch(capsys, monkeypatch, mc8_path):
    real = cli.count_cliques_peeling

    def off_by_one(g):
        stats, picks = real(g)
        return replace(stats, count_including_empty=stats.count_including_empty + 1), picks

    monkeypatch.setattr(cli, "count_cliques_peeling", off_by_one)
    code, out, err = run(capsys, "count", "--input", mc8_path, "--format", "graph6", "--method", "both")
    assert code == 1
    assert out == ""
    assert "COUNT MISMATCH" in err


def test_embed_precondition_failure_exit_code(capsys, tmp_path):
    from clique_extremal import immersion_tightness

    g, terminals = immersion_tightness(10, 4)
    path = str(tmp_path / "tight.el")
    Path(path).write_text(write_edge_list(g), encoding="ascii")
    code, _, err = run(
        capsys,
        "embed", "--input", path, "--lemma", "immersion",
        "--terminals", ",".join(str(v) for v in sorted(terminals)),
    )
    assert code == 1
    assert "missing degree" in err


def test_construct_count_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--family", "star", "--n", "12", "--t", "5")
    assert code == 0
    path = tmp_path / "star.el"
    path.write_text(out)
    code, out, _ = run(capsys, "count", "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out)["count_including_empty"] == 80


def test_construct_families(capsys):
    code, out, _ = run(capsys, "construct", "--family", "matching", "--n", "6", "--output-format", "graph6")
    assert code == 0
    code, out, _ = run(capsys, "construct", "--family", "tightness", "--n", "10", "--t", "4")
    assert code == 0
    assert out.startswith("# designated terminals: 0,1,2,3")
    code, out, _ = run(capsys, "construct", "--family", "union", "--n", "12", "--t", "5")
    assert code == 0
    code, out, _ = run(capsys, "construct", "--family", "random", "--n", "9", "--p", "0.5", "--seed", "3")
    assert code == 0
    two = run(capsys, "construct", "--family", "random", "--n", "9", "--p", "0.5", "--seed", "3")[1]
    assert out == two


def test_construct_missing_t_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--family", "star", "--n", "12")
    assert code == 2
    assert "--t" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("construct", "--family", "random", "--n", "9"), "--p is required for the random family"),
        (("bounds", "--mode", "recursion-check"), "--params m,x,t,d is required for recursion-check"),
    ],
)
def test_a_missing_required_flag_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "star", "--n", "10", "--t", "3", "--p", "0.4"),
        ("--family", "matching", "--n", "10", "--t", "99", "--seed", "4"),
        ("--family", "matching", "--n", "10", "--seed", "0"),
        ("--family", "union", "--n", "12", "--t", "5", "--seed", "1"),
        ("--family", "tightness", "--n", "10", "--t", "4", "--p", "0.5"),
        ("--family", "random", "--n", "9", "--p", "0.5", "--t", "3"),
    ],
)
def test_construct_rejects_flags_its_family_does_not_read(capsys, argv):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_construct_random_seed_is_zero_when_absent(capsys):
    code, out, _ = run(capsys, "construct", "--family", "random", "--n", "9", "--p", "0.5")
    assert code == 0
    assert out == run(capsys, "construct", "--family", "random", "--n", "9", "--p", "0.5", "--seed", "0")[1]


def test_construct_random_negative_seed_is_a_usage_error(capsys):
    # random.Random would seed -3 as 3 and print the --seed 3 graph
    for n in ("6", "800"):
        code, out, err = run(capsys, "construct", "--family", "random", "--n", n, "--p", "0.5", "--seed", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be non-negative, got -3\n"


def test_construct_beyond_its_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "construct", "--family", "matching", "--n", str(MAX_CONSTRUCT_N + 1))
    assert code == 2
    assert out == ""
    assert f"limited to --n <= {MAX_CONSTRUCT_N}" in err
    argv = ("construct", "--family", "random", "--n", "800", "--p", "0.5", "--output-format", "graph6")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert read_graph6(out.strip()).n == 800


def test_bounds_case1_at_a_given_c_reports_the_best_d(capsys):
    # below c = (1 + sqrt 3) / 2 the first admissible d is 1, and d = 2 scores higher
    code, out, _ = run(capsys, "bounds", "--mode", "case1", "--c", "1.2", "--json")
    assert code == 0
    assert json.loads(out) == {"mode": "case1", "C": 1.2, "D": 2, "constant": 1.1356515803884768}
    code, out, _ = run(capsys, "bounds", "--mode", "case1", "--c", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"mode": "case1", "C": 3.0, "D": 13, "constant": 1.5799086162620992}
    code, out, _ = run(capsys, "bounds", "--mode", "case1", "--c", "1.2", "--d", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"mode": "case1", "C": 1.2, "D": 1, "constant": 1.1169925001442311}


def test_bounds_modes(capsys):
    code, out, _ = run(capsys, "bounds", "--mode", "boundt", "--params", "10,4,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["log2_cliques"] - 8.33985) < 1e-4
    code, out, _ = run(capsys, "bounds", "--mode", "refined", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"constant", "C", "D"}
    assert data["constant"] <= 1.8165
    code, out, _ = run(capsys, "bounds", "--mode", "case2", "--c", "3.0", "--json")
    assert code == 0
    assert abs(json.loads(out)["constant"] - 2.86806) < 1e-4
    code, out, _ = run(capsys, "bounds", "--mode", "recursion-check", "--params", "40,10,10,8")
    assert code == 0
    code, _, err = run(capsys, "bounds", "--mode", "boundt")
    assert code == 2


@pytest.mark.parametrize("mode", ["case1", "case2"])
@pytest.mark.parametrize("c", ["inf", "nan", "1e300"])
def test_bounds_rejects_a_non_finite_delta(capsys, mode, c):
    code, out, err = run(capsys, "bounds", "--mode", mode, "--c", c, "--json")
    assert code == 2
    assert out == ""
    assert "non-finite delta" in err


# an integer beyond the float range
_BIG = str(10 ** 400)


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "boundt", "--params", "3,100,1"),
        ("--mode", "boundt", "--params", "4,5,1"),
        ("--mode", "case1", "--c", "3", "--d", "1"),
        ("--mode", "case1", "--c", "3", "--d", "12"),
        ("--mode", "boundt", "--params", f"2,1,{_BIG}"),
        ("--mode", "boundt", "--params", f"{10 ** 310},1,1"),
        ("--mode", "case1", "--c", "3", "--d", _BIG),
    ],
)
def test_bounds_rejects_parameters_outside_their_range(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "case1", "--d", "1"),
        ("--mode", "case2", "--c", "3", "--d", "1"),
        ("--mode", "refined", "--c", "3"),
        ("--mode", "coarse", "--params", "1,2,3"),
        ("--mode", "boundt", "--params", "10,4,1", "--c", "5"),
        ("--mode", "case1", "--params", "10,4,1"),
    ],
)
def test_bounds_rejects_flags_its_mode_does_not_read(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_bounds_valid_edge_parameters_still_run(capsys):
    code, out, _ = run(capsys, "bounds", "--mode", "boundt", "--params", "10,10,2", "--json")
    assert code == 0
    assert json.loads(out)["clique_number_bound"] == "5"
    code, out, _ = run(capsys, "bounds", "--mode", "case1", "--c", "3", "--d", "13", "--json")
    assert code == 0
    assert json.loads(out)["D"] == 13


@pytest.mark.parametrize(
    "params",
    [
        f"{_BIG},1,{_BIG},1",
        f"{10 ** 160},{5 * 10 ** 159},{10 ** 160},2",
        f"{13 * 10 ** 308},1,{math.isqrt(2 * 10 ** 307)},200",  # the bound overflows to inf
    ],
    ids=["m-and-t-beyond", "t-squared-beyond", "bound-overflows"],
)
def test_recursion_check_reports_a_base_point_beyond_the_float_range_as_invalid(capsys, params):
    code, out, err = run(capsys, "bounds", "--mode", "recursion-check", "--params", params, "--json")
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert not report["passed"]
    assert report["failures"][0].endswith("is invalid")


def test_recursion_check_beyond_the_d_limit_ends_at_once():
    # g_bound evaluates every D up to d, so without its limit on d this runs
    # for about an hour; a subprocess with a timeout turns that into a failure
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["bounds", "--mode", "recursion-check", "--params", "1000000,1,1,1000000000"]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "clique_extremal.cli", *argv], env=env, capture_output=True, timeout=30
        )
    except subprocess.TimeoutExpired:
        pytest.fail("recursion-check at d = 10^9 did not finish within 30 s")
    assert done.returncode == 1
    assert b"is invalid" in done.stdout


def test_params_approx_beyond_guard(capsys, tmp_path):
    from clique_extremal import random_graph

    path = str(tmp_path / "big.el")
    Path(path).write_text(write_edge_list(random_graph(40, 0.9, 7)), encoding="ascii")
    code, _, _ = run(capsys, "params", "--input", path)
    assert code == 3  # exact mode refuses
    code, out, _ = run(capsys, "params", "--input", path, "--approx", "--t", "30", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is False
    assert data["t_param_lower_bound"] >= 1
    assert "min_tset_missing_upper_bound" in data


def test_params_approx_lower_bound_matches_brute_scan(capsys, tmp_path):
    from clique_extremal import random_graph, tset_missing_upper_estimate

    for k in range(1, 11):
        g = random_graph(60, k / 10, k)
        path = str(tmp_path / f"g{k}.el")
        Path(path).write_text(write_edge_list(g), encoding="ascii")
        code, out, _ = run(capsys, "params", "--input", path, "--approx", "--json")
        assert code == 0
        scan = max(t for t in range(1, g.n + 1) if tset_missing_upper_estimate(g, t) <= g.n - t)
        assert json.loads(out)["t_param_lower_bound"] == scan


def test_guard_exceeded_exit_code(capsys, tmp_path):
    from clique_extremal import Graph

    path = str(tmp_path / "big.el")
    Path(path).write_text(write_edge_list(Graph.from_edge_list(20, [(0, 1)])), encoding="ascii")
    code, _, err = run(capsys, "sigma", "--input", path)
    assert code == 3
    assert "limited to" in err


def test_limit_n_raises_the_guard_for_its_call(capsys, tmp_path):
    from clique_extremal import Graph

    path = str(tmp_path / "big.el")
    Path(path).write_text(write_edge_list(Graph.from_edge_list(16, [])), encoding="ascii")
    code, _, _ = run(capsys, "sigma", "--input", path)
    assert code == 3
    code, out, _ = run(capsys, "sigma", "--input", path, "--limit-n", "16", "--json")
    assert code == 0
    assert json.loads(out)["sigma"] == 1


def test_limit_n_with_the_peeling_counter_is_usage_error(capsys, tmp_path):
    # only the oracle has a guard, so --limit-n is rejected, not ignored
    from clique_extremal import Graph

    path = str(tmp_path / "small.el")
    Path(path).write_text(write_edge_list(Graph.from_edge_list(5, [(0, 1)])), encoding="ascii")
    code, out, err = run(capsys, "count", "--input", path, "--method", "peeling", "--limit-n", "5")
    assert code == 2
    assert out == "" and "--limit-n is not read by --method peeling" in err
    for method in ("oracle", "both"):
        code, out, _ = run(capsys, "count", "--input", path, "--method", method, "--limit-n", "5", "--json")
        assert code == 0 and json.loads(out)["count_including_empty"] == 7, method


def test_negative_guard_is_a_usage_error(capsys, tmp_path):
    from clique_extremal import Graph

    path = str(tmp_path / "small.el")
    Path(path).write_text(write_edge_list(Graph.from_edge_list(5, [(0, 1)])), encoding="ascii")
    for argv in (("sigma",), ("params",), ("count",), ("count", "--method", "peeling")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", path, "--limit-n", "-1"])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "--limit-n: must be non-negative" in captured.err


def test_the_environment_moves_no_guard(capsys, monkeypatch):
    monkeypatch.setenv("CLIQUE_EXTREMAL_MAX_N", "10")
    code, out, _ = run(capsys, "verify-paper", "--quick", "--json")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "verify_paper_seed0_quick.json").read_text()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # missing --input
    assert exc.value.code == 2


def test_malformed_input_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("not a graph\n")
    code, _, err = run(capsys, "count", "--input", str(path))
    assert code == 2


def test_verify_paper_quick(capsys):
    code, out, _ = run(capsys, "verify-paper", "--quick")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_paper_quick_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "--quick", "--json")
    code2, out2, _ = run(capsys, "verify-paper", "--quick", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert len(report["checks"]) == 14


def test_verify_paper_json_and_csv_together_is_usage_error(capsys):
    # --json is the one machine-readable report; --csv is rejected, alone or not
    for argv in (["--json", "--csv"], ["--csv"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--quick", *argv])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --csv" in captured.err


def test_verify_paper_quick_json_matches_capture(capsys):
    # a committed seed-0 quick report: changes that keep behaviour must
    # reproduce it byte for byte
    expected = (Path(__file__).parent / "data" / "verify_paper_seed0_quick.json").read_text()
    code, out, _ = run(capsys, "verify-paper", "--seed", "0", "--quick", "--json")
    assert code == 0
    assert out == expected


def test_verify_paper_seed1_quick_json_matches_capture(capsys):
    # a second seed: the seeded streams must keep their draw order at every
    # seed, not only at seed 0
    expected = (Path(__file__).parent / "data" / "verify_paper_seed1_quick.json").read_text()
    code, out, _ = run(capsys, "verify-paper", "--seed", "1", "--quick", "--json")
    assert code == 0
    assert out == expected


def test_verify_paper_full_json_matches_capture(capsys):
    # the same at full size: every check, not only the quick ones
    expected = (Path(__file__).parent / "data" / "verify_paper_seed0.json").read_text()
    code, out, _ = run(capsys, "verify-paper", "--seed", "0", "--json")
    assert code == 0
    assert out == expected


def test_verify_paper_threads_is_usage_error(capsys):
    # the suite runs in one process, and --threads is rejected, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--quick", "--threads", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--threads" in captured.err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_bounds", broken)
    code, out, err = run(capsys, "bounds", "--mode", "coarse")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"
