"""Command-line front end.

Subcommands: ``simulate`` (walker speed), ``beta`` (recursion, network and
Monte Carlo cross-check table), ``regular`` (closed forms on regular trees),
``speed-curve`` (formula curve with criterion margins and the monotonicity
verdict) and ``verify`` (named check suites). Exit codes: 0 success, 1
invalid input, 2 verification failure.

Numbers are emitted with 9 significant digits; CSV and JSON encode the same
values. Identical command lines, including the seed, produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import islice

from . import verify as verify_mod
from .beta import _check_pool_size, compute_beta, sample_pool
from .errors import UnsupportedRegimeError, VerificationError, _check_bias
from .network import (build_conductances, effective_conductance_to_level,
                      regular_escape_probability, regular_return_gf)
from .offspring import OffspringDistribution, parse_pmf_json, parse_pmf_text
from .speed import _check_curve_size, speed_curve
from .tree import attach_star_root, sample_truncated_tree
from .walker import _check_hitting_size, hitting_beta_mc, simulate_speed

DEFAULT_SEED = 1729
DEFAULT_PMF = "2:0.5,3:0.5"
MAX_GRID_POINTS = 10**5  # largest --lambda-grid accepted
_POOL_CHUNK = 4096  # --pool-out rows per write

CURVE_CSV_FIELDS = ["lambda", "speed_formula", "stderr", "speed_mc", "mc_stderr",
                    "ineq8_margin", "ineq8_stderr", "holds"]
REPLICA_CSV_FIELDS = ["replica", "final_depth", "steps", "speed"]
BETA_CSV_FIELDS = ["lambda", "beta_recursion", "beta_conductance", "beta_mc",
                   "mc_stderr"]
POOL_CSV_FIELDS = ["beta", "dbeta"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage on stderr, not argparse's 2
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.9g}"


def _json_value(value):
    if value is None or isinstance(value, (bool, int)):
        return value
    return float(_fmt(value))


def _csv_lines(fields: list[str], records):
    """The lines of a CSV table, each with its newline: a header, then one row
    per record, made as they are read."""
    yield ",".join(fields) + "\n"
    for rec in records:
        yield ",".join(_fmt(rec.get(f)) for f in fields) + "\n"


def _render(fmt: str, fields: list[str], records) -> str:
    """The text of a table, as CSV (``_csv_lines``) or as a JSON list of
    records: every table on stdout and in every --out file. ``records`` is
    read once, so it may be a generator."""
    if fmt == "csv":
        return "".join(_csv_lines(fields, records))
    payload = [{f: _json_value(rec.get(f)) for f in fields} for rec in records]
    return json.dumps(payload, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_output_path(path: str) -> None:
    """Refuse an output path that cannot be written, before any work."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no such directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise _CliError(f"cannot write {path}: {reason}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # recursion: nested too deep
        raise _CliError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise _CliError("config must be a JSON object")
    return cfg


def _resolve(args, cfg: dict, key: str, default, cast=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key not in cfg:
        return default
    value = cfg[key]
    if cast is None:
        return value
    # int() and float() would take True as 1 and truncate 7.9 to 7
    if not isinstance(value, bool) and not (
            cast is int and isinstance(value, float) and not value.is_integer()):
        try:
            return cast(value)
        except (TypeError, ValueError):
            pass
    raise _CliError(f"config value {value!r} for {key!r} is not "
                    f"a valid {cast.__name__}")


def _resolve_seed(args, cfg: dict) -> int:
    seed = _resolve(args, cfg, "seed", DEFAULT_SEED, int)
    if seed < 0:
        raise _CliError(f"--seed must be >= 0, got {seed}")
    return seed


def _resolve_dist(args, cfg: dict) -> OffspringDistribution:
    if args.pmf and args.pmf_json:
        raise _CliError("give at most one of --pmf and --pmf-json")
    if args.pmf:
        return parse_pmf_text(args.pmf)
    if args.pmf_json:
        with open(args.pmf_json, encoding="utf-8") as fh:
            return parse_pmf_json(fh.read())
    if "pmf" in cfg:
        pmf = cfg["pmf"]
        if isinstance(pmf, str):
            return parse_pmf_text(pmf)
        return parse_pmf_json(json.dumps({"pmf": pmf}))
    return parse_pmf_text(DEFAULT_PMF)


def _parse_grid(text: str) -> list[float]:
    """Grid spec start:stop:step, endpoints included up to float slack."""
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise _CliError(f"cannot parse grid {text!r}, expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise _CliError(f"grid start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise _CliError(f"grid step must be positive, got {step:.9g}")
    if stop < start:
        raise _CliError("grid stop must be >= start")
    limit = stop + 1e-9 * max(1.0, abs(stop))
    if (limit - start) / step >= MAX_GRID_POINTS:
        raise _CliError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    grid = []
    i = 0
    while True:
        value = start + i * step
        if value > limit:
            break
        grid.append(round(value, 12))
        i += 1
    return grid


@functools.cache  # built once per process; parsing leaves it as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="gwspeed", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pmf", help=f'offspring pmf "k:p,k:p,..." (default {DEFAULT_PMF})')
    common.add_argument("--pmf-json", help='path to JSON {"pmf": {"k": p, ...}}')
    common.add_argument("--config", help="JSON config file; explicit flags win")
    common.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    common.add_argument("--out", help="write records to this path")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format for --out (default csv)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker process cap for replica simulation")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("regular", parents=[common],
                       help="closed forms on the d-ary tree")
    p.add_argument("--d", type=int, required=True, help="children per vertex")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--z", type=float, help="also report the return gf at this z")

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo walk speed")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--replicas", type=int)
    p.add_argument("--graph", choices=("T", "T_star"), default="T")

    p = sub.add_parser("beta", parents=[common],
                       help="escape probability: recursion, network and MC table")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="start:stop:step (alternative to --lambda)")
    p.add_argument("--depth", type=int)
    p.add_argument("--trials", type=int, default=4000, help="MC trials per row")
    p.add_argument("--samples", type=int, help="pool size for --pool-out")
    p.add_argument("--method", choices=("tree", "population"), default="tree")
    p.add_argument("--pool-out", help="export a (beta, dbeta) sample pool CSV here")
    p.add_argument("--dump-tree", help="write the tree adjacency JSON here")

    p = sub.add_parser("speed-curve", parents=[common],
                       help="formula speed over a bias grid with CRN")
    p.add_argument("--lambda-grid", dest="lambda_grid", help="start:stop:step")
    p.add_argument("--depth", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tuples", type=int)
    p.add_argument("--mc-steps", type=int, default=0,
                   help="attach walker estimates with this many steps")
    p.add_argument("--mc-replicas", type=int, default=0)
    p.add_argument("--single-depth", action="store_true",
                   help="skip the depth+3 stability rescan")

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   choices=verify_mod.SUITE_NAMES + ("all",))
    return parser


def cmd_regular(args, cfg) -> int:
    d, lam = args.d, args.lam
    escape = regular_escape_probability(d, lam)
    speed = (d - lam) / (d + lam) if lam <= d else 0.0
    u1 = regular_return_gf(d, lam, 1.0)
    # a bad z raises here, before anything is printed
    uz = None if args.z is None else regular_return_gf(d, lam, args.z)
    rec = {"d": d, "lambda": lam, "escape": escape, "speed": speed,
           "return_gf_1": u1}
    fields = ["d", "lambda", "escape", "speed", "return_gf_1"]
    print(f"escape={_fmt(escape)}")
    print(f"speed={_fmt(speed)}")
    print(f"U1={_fmt(u1)}")
    if uz is not None:
        rec["return_gf_z"] = uz
        fields.append("return_gf_z")
        print(f"Uz={_fmt(uz)}")
    if args.out:
        _write(args.out, _render(args.format, fields, [rec]))
    return 0


def cmd_simulate(args, cfg) -> int:
    dist = _resolve_dist(args, cfg)
    seed = _resolve_seed(args, cfg)
    steps = _resolve(args, cfg, "steps", 100000, int)
    replicas = _resolve(args, cfg, "replicas", 32, int)
    est = simulate_speed(dist, args.lam, steps, replicas, seed,
                         graph=args.graph, workers=args.threads)
    print(f"graph={est.graph}")
    print(f"lambda={_fmt(est.lam)}")
    print(f"speed={_fmt(est.mean)}")
    print(f"stderr={_fmt(est.stderr)}")
    print(f"replicas={est.replicas}")
    print(f"steps={est.steps_per_replica}")
    if est.regime_warning:
        print("warning=bias at or above mean branching; not transient")
    if args.out:
        records = [{"replica": i, "final_depth": dep, "steps": steps, "speed": dep / steps}
                   for i, dep in enumerate(est.depths)]
        _write(args.out, _render(args.format, REPLICA_CSV_FIELDS, records))
    return 0


def cmd_beta(args, cfg) -> int:
    dist = _resolve_dist(args, cfg)
    seed = _resolve_seed(args, cfg)
    depth = _resolve(args, cfg, "depth", 10, int)
    flags = args.lam is not None or args.lambda_grid  # flags win over both config keys
    lam = args.lam if flags else _resolve(args, cfg, "lambda", None, float)
    grid_text = args.lambda_grid if flags else _resolve(args, cfg, "lambda_grid", None, str)
    if lam is not None and grid_text:
        raise _CliError("give either " + ("--lambda or --lambda-grid" if flags else
                                          "lambda or lambda_grid in the config") + ", not both")
    grid = _parse_grid(grid_text) if grid_text else [1.0 if lam is None else lam]
    # every count and bias is checked before the table header is printed;
    # --samples sizes only the --pool-out pool
    samples = _resolve(args, cfg, "samples", 100000, int) if args.pool_out else 1
    for name, value in (("--depth", depth), ("--trials", args.trials),
                        ("--samples", samples)):
        if value < 1:
            raise _CliError(f"{name} must be >= 1, got {value}")
    for lam in grid:
        _check_bias(lam)
    if dist.has_leaves:
        raise UnsupportedRegimeError("beta needs a leafless offspring law")
    if args.pool_out:
        _check_pool_size(dist, depth, samples, args.method)
    _check_hitting_size(args.trials)

    tree = sample_truncated_tree(dist, depth, seed)
    attach_star_root(tree)
    records = []
    for i, lam in enumerate(grid):
        rec = {"lambda": lam}
        rec["beta_recursion"] = compute_beta(tree, depth, lam).root_beta
        if lam > 0:
            net = build_conductances(tree, lam)
            rec["beta_conductance"] = effective_conductance_to_level(net, depth)
        else:
            rec["beta_conductance"] = 1.0
        est = hitting_beta_mc(tree, lam, depth, args.trials, seed=seed + i)
        rec["beta_mc"] = est.estimate
        rec["mc_stderr"] = est.stderr
        records.append(rec)
    sys.stdout.write(_render("csv", BETA_CSV_FIELDS, records))
    if args.out:
        _write(args.out, _render(args.format, BETA_CSV_FIELDS, records))
    if args.dump_tree:
        with open(args.dump_tree, "w", encoding="utf-8") as fh:
            fh.writelines(tree.adjacency_json_chunks())
    if args.pool_out:
        pool = sample_pool(dist, grid[0], depth, samples, seed, method=args.method)
        records = ({"beta": b, "dbeta": db} for b, db in zip(pool.beta, pool.dbeta))
        lines = _csv_lines(POOL_CSV_FIELDS, records)
        with open(args.pool_out, "w", encoding="utf-8") as fh:
            while chunk := "".join(islice(lines, _POOL_CHUNK)):
                fh.write(chunk)
    return 0


def cmd_speed_curve(args, cfg) -> int:
    dist = _resolve_dist(args, cfg)
    seed = _resolve_seed(args, cfg)
    depth = _resolve(args, cfg, "depth", 10, int)
    samples = _resolve(args, cfg, "samples", 2000, int)
    tuples = _resolve(args, cfg, "tuples", 50000, int)
    grid_text = _resolve(args, cfg, "lambda_grid", None, str)
    if grid_text:
        grid = _parse_grid(grid_text)
    else:
        if dist.m1 >= 2:
            top = dist.monotonicity_threshold()
        else:
            top = 0.95 * dist.m
        grid = [round(top * i / 13, 12) for i in range(14)]
    steps, replicas = args.mc_steps, args.mc_replicas
    if not (steps == replicas == 0 or (steps >= 1 and replicas >= 2)):
        raise _CliError("the walker cross-check needs steps >= 1 and replicas >= 2, "
                        f"or both 0; got {steps} and {replicas}")
    samples2 = max(64, samples // 8)
    for n, count in [(depth, samples)] + ([] if args.single_depth else [(depth + 3, samples2)]):
        _check_curve_size(dist, n, len(grid), count, tuples)

    curve = speed_curve(dist, grid, depth, samples, tuples, seed)
    records = [{"lambda": p.lam, "speed_formula": p.speed_formula,
                "stderr": p.speed_formula_stderr, "ineq8_margin": p.ineq8_margin,
                "ineq8_stderr": p.ineq8_stderr, "holds": p.ineq8_holds}
               for p in curve.points]
    if steps:  # the walker's independent estimate of each point's speed
        for rec in records:
            est = simulate_speed(dist, rec["lambda"], steps, replicas, seed,
                                 workers=args.threads)
            rec["speed_mc"], rec["mc_stderr"] = est.mean, est.stderr
    sys.stdout.write(_render("csv", CURVE_CSV_FIELDS, records))
    _report_verdict(curve, depth)
    if args.out:
        _write(args.out, _render(args.format, CURVE_CSV_FIELDS, records))

    if not args.single_depth:
        curve2 = speed_curve(dist, grid, depth + 3, samples2, tuples, seed)
        _report_verdict(curve2, depth + 3)
        if (curve.report.strictly_decreasing is not None
                and curve2.report.strictly_decreasing is not None
                and curve.report.strictly_decreasing != curve2.report.strictly_decreasing):
            print("verdict_stability=UNSTABLE")
            return 2
    return 0


def _report_verdict(curve, depth: int) -> None:
    rep = curve.report
    if rep.strictly_decreasing is None:
        reason = rep.refused_reason or "no eligible pairs"
        print(f"monotonicity_depth_{depth}=refused ({reason})")
    else:
        print(f"monotonicity_depth_{depth}="
              f"{'strictly-decreasing' if rep.strictly_decreasing else 'VIOLATED'}"
              f" lambda_star={_fmt(rep.lambda_star)}")


def cmd_verify(args, cfg) -> int:
    dist = _resolve_dist(args, cfg)
    seed = _resolve_seed(args, cfg)
    results = verify_mod.run_suite(args.suite, dist, seed)
    report = verify_mod.render_report(results, dist, seed)
    sys.stdout.write(report)
    if args.out:
        _write(args.out, report)
    return 0 if all(r.ok for r in results) else 2


_COMMANDS = {
    "regular": cmd_regular,
    "simulate": cmd_simulate,
    "beta": cmd_beta,
    "speed-curve": cmd_speed_curve,
    "verify": cmd_verify,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise _CliError(f"--threads must be >= 1, got {args.threads}")
        for path in (getattr(args, key, None) for key in ("out", "dump_tree", "pool_out")):
            if path:
                _check_output_path(path)
        cfg = _load_config(args.config) if args.config else {}
        return _COMMANDS[args.command](args, cfg)
    except (_CliError, ValueError, OSError) as exc:  # UnsupportedRegimeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
