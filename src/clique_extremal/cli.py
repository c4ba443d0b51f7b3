"""Command-line entry point.

Exit codes: 0 success, 1 verification failure or failed precondition,
2 usage or input-format error, 3 size guard exceeded, 4 internal error.

``main`` builds its parser once per process, on its first call, not at
import, and looks each handler ``_cmd_<command>`` up by the command's name
at call time, so a rebound handler runs. A caller that makes many calls in
one process pays the argparse set-up once; a one-shot call pays it once, as
it always did.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import (
    _case1_best_at,
    boundt_value,
    case1_exponent,
    case1_supremum,
    case2_exponent,
    case2_supremum,
    g_recursion_check,
    optimize_constant,
)
from .cliques import count_cliques_oracle, count_cliques_peeling
from .constructions import (
    disjoint_union_matching_complements,
    immersion_tightness,
    matching_complement,
    random_graph,
    star_of_clique,
)
from .embed import (
    certificate_dumps,
    certificate_loads,
    immerse_dense,
    sigma_exhaustive,
    subdivide_dense,
    verify_immersion,
    verify_subdivision,
)
from .errors import FormatError, GuardExceeded, PreconditionViolation
from .formats import _FORMATS, load_graph, write_edge_list, write_graph6
from .graph import Graph
from .limits import MAX_CONSTRUCT_N, ORACLE_MAX_N, SIGMA_MAX_N, SUBSET_MAX_N, check_guard
from .params import min_tset_missing, t_param, t_param_lower_estimate, tset_missing_upper_estimate
from .suite import report_to_json, run_suite


def _parse_terminals(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"terminals must be comma-separated integers, got {raw!r}") from exc


def _parse_params(raw: str, names: tuple[str, ...]) -> list[int]:
    parts = [p for p in raw.split(",") if p.strip() != ""]
    if len(parts) != len(names):
        raise ValueError(f"--params expects {','.join(names)}, got {raw!r}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise ValueError(f"--params must be integers, got {raw!r}") from exc


def _guard_limit(raw: str) -> int:
    """A --limit-n value, rejected when negative whether or not the command
    runs a guarded search."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _emit(data: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# -- subcommands ---------------------------------------------------------------


def _cmd_count(args: argparse.Namespace, g: Graph) -> int:
    oracle = None
    if args.method != "peeling":
        check_guard("count_cliques_oracle", g.n, ORACLE_MAX_N, args.limit_n)
        oracle = count_cliques_oracle(g)
    elif args.limit_n is not None:
        raise ValueError("--limit-n is not read by --method peeling")
    peeling = count_cliques_peeling(g)[0] if args.method != "oracle" else None
    if args.method == "both" and oracle != peeling:
        print(f"COUNT MISMATCH: oracle {oracle} vs peeling {peeling}", file=sys.stderr)
        return 1
    stats = peeling or oracle
    data = {"n": g.n, "method": args.method, **stats._asdict()}
    _emit(
        data,
        args.json,
        [
            f"cliques including empty: {stats.count_including_empty}",
            f"cliques non-empty:      {stats.count_nonempty}",
            f"clique number:          {stats.clique_number}",
        ],
    )
    return 0


def _cmd_sigma(args: argparse.Namespace, g: Graph) -> int:
    check_guard("sigma_exhaustive", g.n, SIGMA_MAX_N, args.limit_n)
    sigma = sigma_exhaustive(g)
    _emit({"n": g.n, "sigma": sigma}, args.json, [f"sigma = {sigma}"])
    return 0


def _cmd_params(args: argparse.Namespace, g: Graph) -> int:
    try:
        check_guard("t_param", g.n, SUBSET_MAX_N, args.limit_n)
    except GuardExceeded:
        if args.approx:
            return _cmd_params_approx(g, args)
        raise
    report = t_param(g)
    data = {"n": g.n, **report._asdict(), "witness": sorted(report.witness)}
    lines = [
        f"t(G) = {report.t_param}  witness {sorted(report.witness)}",
        f"max missing degree = {report.delta}",
        f"sigma sandwich: {report.sigma_lower} <= sigma <= {report.sigma_upper}",
    ]
    if g.n <= SIGMA_MAX_N:
        sigma = sigma_exhaustive(g)
        data["sigma"] = sigma
        lines.append(f"sigma (exhaustive) = {sigma}")
    if args.t is not None:
        value, witness = min_tset_missing(g, args.t)
        data["t"] = args.t
        data["min_tset_missing"] = value
        data["tset_witness"] = sorted(witness)
        lines.append(f"min missing edges over {args.t}-sets = {value}  witness {sorted(witness)}")
    _emit(data, args.json, lines)
    return 0


def _cmd_params_approx(g: Graph, args: argparse.Namespace) -> int:
    """Averaging certificates only: an upper bound on the minimum missing
    count per t and hence a lower bound on the t parameter. Never exact."""
    t_lower = t_param_lower_estimate(g)
    data = {
        "n": g.n,
        "exact": False,
        "t_param_lower_bound": t_lower,
        "delta": g.max_missing_degree(),
    }
    lines = [
        "approximate report (averaging certificates, not exact)",
        f"t(G) >= {t_lower}",
        f"max missing degree = {data['delta']}",
    ]
    if args.t is not None:
        estimate = tset_missing_upper_estimate(g, args.t)
        data["t"] = args.t
        data["min_tset_missing_upper_bound"] = estimate
        lines.append(f"min missing edges over {args.t}-sets <= {estimate}")
    _emit(data, args.json, lines)
    return 0


def _cmd_embed(args: argparse.Namespace, g: Graph) -> int:
    terminals = _parse_terminals(args.terminals)
    if args.lemma == "immersion":
        cert = immerse_dense(g, terminals)
    else:
        cert = subdivide_dense(g, terminals)
    print(certificate_dumps(cert), end="")
    return 0


def _cmd_verify(args: argparse.Namespace, g: Graph) -> int:
    with open(args.certificate, "r", encoding="ascii") as fh:
        cert = certificate_loads(fh.read())
    mode = args.mode or cert.kind.removesuffix("_immersion")
    if mode == "subdivision":
        result = verify_subdivision(g, cert)
    else:
        result = verify_immersion(g, cert, mode)
    data = {"valid": result.ok, "mode": mode, "violations": list(result.violations)}
    lines = [f"certificate {'VALID' if result.ok else 'INVALID'} ({mode})"]
    lines.extend(f"  violation: {v}" for v in result.violations)
    _emit(data, args.json, lines)
    return 0 if result.ok else 1


# Each construct family: the flags it reads, required ones first (--seed is
# optional, 0 when absent), and its builder, called with --n and those flags.
_FAMILIES = {
    "star": (("t",), star_of_clique),
    "matching": ((), matching_complement),
    "union": (("t",), disjoint_union_matching_complements),
    "tightness": (("t",), immersion_tightness),
    "random": (("p", "seed"), lambda n, p, seed: random_graph(n, p, seed or 0)),
}
# The flags each bounds mode reads (case1 reads --d only with --c), and the
# names of --params for the two modes that read it.
_MODES = {
    "boundt": ("params",),
    "case1": ("c", "d"),
    "case2": ("c",),
    "coarse": (),
    "refined": (),
    "recursion-check": ("params",),
}
_PARAMS = {"boundt": ("t", "x", "D"), "recursion-check": ("m", "x", "t", "d")}


def _reject_unread(args: argparse.Namespace, choice: str, reads: dict[str, tuple[str, ...]]) -> None:
    """A flag that the chosen family or mode does not read is a usage error,
    not silently dropped."""
    value = getattr(args, choice)
    for flag in dict.fromkeys(flag for flags in reads.values() for flag in flags):
        if getattr(args, flag) is not None and flag not in reads[value]:
            raise ValueError(f"--{flag} is not read by --{choice} {value}")


def _cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    flags, build = _FAMILIES[family]
    _reject_unread(args, "family", {name: reads for name, (reads, _) in _FAMILIES.items()})
    for flag in flags:
        if flag != "seed" and getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for the {family} family")
    if args.n > MAX_CONSTRUCT_N:
        raise ValueError(f"construct is limited to --n <= {MAX_CONSTRUCT_N}, got --n {args.n}")
    g = build(args.n, *(getattr(args, flag) for flag in flags))
    if family == "tightness":
        g, terminals = g
        if args.output_format == "edgelist":
            print(f"# designated terminals: {','.join(str(v) for v in sorted(terminals))}")
    if args.output_format == "edgelist":
        print(write_edge_list(g), end="")
    else:
        print(write_graph6(g))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    mode = args.mode
    _reject_unread(args, "mode", _MODES)
    if args.d is not None and args.c is None:
        raise ValueError(f"--d is read by --mode {mode} only together with --c")
    if args.c is not None and not math.isfinite(2 * args.c * (args.c - 1)):
        raise ValueError(f"--c {args.c} gives a non-finite delta = 2c(c - 1)")
    if mode in _PARAMS:
        names = _PARAMS[mode]
        if args.params is None:
            raise ValueError(f"--params {','.join(names)} is required for {mode}")
        p = _parse_params(args.params, names)
        if mode == "boundt":
            value = boundt_value(*p)
            data = {
                "mode": mode,
                "log2_cliques": value.log2_cliques,
                "clique_number_bound": str(value.clique_number_bound),
            }
            _emit(data, args.json, [
                f"log2 clique bound = {value.log2_cliques:.6f}",
                f"clique number bound = {value.clique_number_bound}",
            ])
            return 0
        check = g_recursion_check(*p)
        data = {"mode": mode, "passed": check.passed, "failures": list(check.failures)}
        lines = [f"recursion check {'PASS' if check.passed else 'FAIL'}"]
        lines.extend(f"  {f}" for f in check.failures)
        _emit(data, args.json, lines)
        return 0 if check.passed else 1
    if args.c is None:
        suprema = {"case1": case1_supremum, "case2": case2_supremum}
        result = suprema[mode]() if mode in suprema else optimize_constant(mode)
        value, c, d = result.log2_bound, result.c_value, result.d_value
    elif mode == "case1":
        c = args.c
        value, d = _case1_best_at(c) if args.d is None else (case1_exponent(c, args.d), args.d)
    else:
        value, c, d = case2_exponent(args.c), args.c, None
    _emit({"mode": mode, "constant": value, "C": c, "D": d}, args.json, [
        f"constant = {value:.6f}",
        f"maximizer C = {c}, D = {d}",
    ])
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = run_suite(seed=args.seed, quick=args.quick)
    if args.json:
        print(report_to_json(report), end="")
    else:
        width = max(len(r.name) for r in report.results)
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.summary}")
        overall = "PASS" if report.passed else "FAIL"
        print(f"overall: {overall}")
    return 0 if report.passed else 1


# -- parser --------------------------------------------------------------------


def _add_graph_input(sub: argparse.ArgumentParser, guarded: dict[str, dict] | None = None) -> None:
    """--input and --format; for a command that runs a guarded search, then
    its ``guarded`` options and --limit-n."""
    sub.add_argument("--input", required=True, help="path to the graph file")
    sub.add_argument("--format", choices=_FORMATS, default="edgelist")
    if guarded is not None:
        for flag, options in guarded.items():
            sub.add_argument(flag, **options)
        sub.add_argument("--limit-n", type=_guard_limit, default=None, dest="limit_n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clique-extremal")
    subs = parser.add_subparsers(dest="command", required=True)

    count = subs.add_parser("count", help="count cliques exactly")
    _add_graph_input(count, {"--method": {"choices": ("peeling", "oracle", "both"), "default": "both"}})

    sigma = subs.add_parser("sigma", help="exact clique subdivision number")
    _add_graph_input(sigma, {})

    params = subs.add_parser("params", help="t parameter, witness, and sigma sandwich")
    _add_graph_input(params, {"--t": {"type": int, "default": None}})
    params.add_argument(
        "--approx",
        action="store_true",
        help="beyond the subset guard, report averaging certificates instead of exact values",
    )

    embed = subs.add_parser("embed", help="construct an embedding certificate")
    _add_graph_input(embed)
    embed.add_argument("--lemma", choices=("immersion", "subdivision"), required=True)
    embed.add_argument("--terminals", required=True, help="comma-separated vertex list")

    verify = subs.add_parser("verify", help="check a certificate against a graph")
    _add_graph_input(verify)
    verify.add_argument("--certificate", required=True)
    verify.add_argument("--mode", choices=("weak", "strong", "subdivision"), default=None)

    construct = subs.add_parser("construct", help="emit a generator graph")
    construct.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    construct.add_argument("--n", type=int, required=True)
    construct.add_argument("--t", type=int, default=None)
    construct.add_argument("--p", type=float, default=None)
    construct.add_argument("--seed", type=int, default=None, help="random family only; 0 when absent")
    construct.add_argument("--output-format", choices=_FORMATS, default="edgelist", dest="output_format")

    bounds = subs.add_parser("bounds", help="bound evaluators and constants")
    bounds.add_argument("--mode", choices=tuple(_MODES), required=True)
    bounds.add_argument(
        "--params",
        default=None,
        help="comma-separated integers: t,x,D for boundt; m,x,t,d for recursion-check",
    )
    bounds.add_argument("--c", type=float, default=None)
    bounds.add_argument("--d", type=int, default=None)

    paper = subs.add_parser("verify-paper", help="run the full verification suite")
    paper.add_argument("--seed", type=int, default=0)
    paper.add_argument("--quick", action="store_true")

    # construct and embed print a graph or a certificate, and read no --json
    for sub in (count, sigma, params, verify, bounds, paper):
        sub.add_argument("--json", action="store_true")

    return parser


# built by the first call of main; parse_args leaves it as it was
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # handlers are called by name, not stored in the parser, so that rebinding them works
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        graph = (load_graph(args.input, args.format),) if "input" in args else ()
        return handler(args, *graph)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect (say a RecursionError): not a failed verification
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
