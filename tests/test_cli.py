import concurrent.futures
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import types
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import gwspeed
from gwspeed import beta as beta_mod
from gwspeed import cli as cli_mod
from gwspeed.cli import DEFAULT_PMF, MAX_GRID_POINTS, _parse_grid, run_cli
from gwspeed import network as network_mod
from gwspeed import speed as speed_mod
from gwspeed import tree as tree_mod
from gwspeed import verify as verify_mod
from gwspeed import walker as walker_mod


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_regular_closed_forms(capsys):
    code, out, _ = run(capsys, "regular", "--d", "2", "--lambda", "1")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert float(values["escape"]) == 0.5
    assert float(values["speed"]) == pytest.approx(1 / 3, abs=1e-9)
    assert float(values["U1"]) == 0.5


def test_regular_recurrent_regime_speed_zero(capsys):
    code, out, _ = run(capsys, "regular", "--d", "2", "--lambda", "3")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert float(values["escape"]) == 0.0
    assert float(values["speed"]) == 0.0


def test_regular_bad_z_exits_before_any_output(capsys):
    code, out, err = run(capsys, "regular", "--d", "2", "--lambda", "1", "--z", "5")
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


def test_bad_pmf_reports_sum(capsys):
    code, _, err = run(capsys, "simulate", "--pmf", "2:0.6,3:0.6",
                       "--lambda", "1")
    assert code == 1
    assert "sum to 1.2" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; each call through it gives the
    # stdout, stderr and exit code that a freshly built parser gives
    calls = (("regular", "--d", "3", "--lambda", "0.5"),
             ("regular", "--d", "2", "--warp", "9"),
             ("--help",),
             ("simulate", "--pmf", "2:0.5,3:0.5", "--lambda", "1", "--steps", "200",
              "--replicas", "3", "--seed", "4"),
             ("beta", "--pmf", "2:0.5,3:0.5", "--lambda-grid", "0.5:1:0.5", "--depth", "3",
              "--trials", "20", "--seed", "4"))
    alone = []
    for argv in calls:
        cli_mod.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli_mod.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert cli_mod.build_parser.cache_info().misses == 1
    assert shared == alone
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0]
    assert "usage" in shared[1][2] and "usage" in shared[2][1]


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "regular", "--d", "2", "--lambda", "1",
                       "--warp", "9")
    assert code == 1


def test_conflicting_pmf_sources(capsys, tmp_path):
    pmf_file = tmp_path / "pmf.json"
    pmf_file.write_text('{"pmf": {"2": 1.0}}')
    code, _, err = run(capsys, "simulate", "--pmf", "2:1.0",
                       "--pmf-json", str(pmf_file), "--lambda", "0.5")
    assert code == 1
    assert "one of" in err


def test_simulate_writes_replica_csv(capsys, tmp_path):
    out = tmp_path / "reps.csv"
    code, stdout, _ = run(capsys, "simulate", "--lambda", "0.5",
                          "--steps", "2000", "--replicas", "4",
                          "--seed", "7", "--out", str(out))
    assert code == 0
    assert "speed=" in stdout
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0]) == ["replica", "final_depth", "steps", "speed"]
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert int(row["replica"]) == i
        assert float(row["speed"]) == int(row["final_depth"]) / 2000


def test_simulate_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--lambda", "1", "--steps", "1000", "--replicas", "3",
            "--seed", "5"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_beta_table_consistency(capsys):
    code, out, _ = run(capsys, "beta", "--lambda", "1", "--depth", "5",
                       "--trials", "2000", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,beta_recursion,beta_conductance,beta_mc,mc_stderr"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-9)
    assert abs(float(row[3]) - float(row[1])) < 4 * float(row[4])


def test_beta_at_zero_bias_and_its_out_file(capsys, tmp_path):
    # at zero bias the walk never steps up: every column is exactly 1, and
    # the unit conductance needs no network
    out_path = tmp_path / "beta.csv"
    code, out, _ = run(capsys, "beta", "--lambda", "0", "--depth", "3", "--trials", "50",
                       "--seed", "3", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out
    assert out.splitlines()[1] == "0,1,1,1,0"


def test_beta_refuses_a_bias_and_a_grid_together(capsys):
    code, out, err = run(capsys, "beta", "--lambda", "1", "--lambda-grid", "0:1:0.5",
                         "--depth", "3", "--trials", "50")
    assert (code, out) == (1, "")
    assert err == "error: give either --lambda or --lambda-grid, not both\n"


@pytest.mark.filterwarnings("ignore:bias")
def test_simulate_flags_a_bias_at_the_mean_branching(capsys):
    code, out, _ = run(capsys, "simulate", "--pmf", "2:1", "--lambda", "2", "--steps", "50",
                       "--replicas", "2")
    assert code == 0
    assert out.endswith("\nsteps=50\nwarning=bias at or above mean branching; not transient\n")


@pytest.mark.parametrize("spec, says", [
    ("0:1:0", "grid step must be positive, got 0"),
    ("0:1:-0.5", "grid step must be positive, got -0.5"),
    ("1:0.5:0.1", "grid stop must be >= start"),
])
@pytest.mark.parametrize("command", ["beta", "speed-curve"])
def test_a_grid_that_does_not_step_up_exits_before_any_output(capsys, command, spec, says):
    code, out, err = run(capsys, command, "--lambda-grid", spec)
    assert (code, out, err) == (1, "", f"error: {says}\n")


@pytest.mark.parametrize("text", ["[1, 2]", '"2:1"', "3", "null"])
def test_a_config_that_is_not_a_json_object_exits_one(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "beta", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: config must be a JSON object\n")


def test_a_config_pmf_given_as_text_reads_the_same_law_as_pmf(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pmf": "2:0.25,5:0.75"}')
    argv = ("beta", "--depth", "4", "--trials", "200", "--seed", "5")
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert out == run(capsys, *argv, "--pmf", "2:0.25,5:0.75")[1]
    assert out != run(capsys, *argv)[1]  # not the default law


def test_pmf_json_reads_the_same_law_as_pmf(capsys, tmp_path):
    pmf_file = tmp_path / "pmf.json"
    pmf_file.write_text('{"pmf": {"2": 0.5, "3": 0.5}}')
    argv = ("beta", "--depth", "4", "--trials", "200", "--seed", "5")
    code, out, _ = run(capsys, *argv, "--pmf-json", str(pmf_file))
    assert code == 0
    assert out == run(capsys, *argv, "--pmf", "2:0.5,3:0.5")[1]


def test_regular_return_gf_at_z_and_its_out_file(capsys, tmp_path):
    out_path = tmp_path / "f.json"
    code, out, _ = run(capsys, "regular", "--d", "2", "--lambda", "1", "--z", "0.5",
                       "--format", "json", "--out", str(out_path))
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    [rec] = json.loads(out_path.read_text())
    assert list(rec) == ["d", "lambda", "escape", "speed", "return_gf_1", "return_gf_z"]
    assert rec["return_gf_z"] == float(values["Uz"])
    assert 0.0 < rec["return_gf_z"] < rec["return_gf_1"] == float(values["U1"])


@pytest.mark.parametrize("lam, z", [("1e160", "0.5"), ("1e308", "0.5"),
                                    ("1", "1e-5"), ("1", "1e-8")])
def test_regular_return_gf_neither_overflows_nor_cancels(capsys, lam, z):
    # oracle: the quadratic's smaller root ((lam+d) - sqrt((lam+d)**2 -
    # 4*d*lam*z**2)) / (2*d*z) in 700 digits, since with fewer the subtraction
    # cancels to 0 at lam = 1e160
    with localcontext() as ctx:
        ctx.prec = 700
        d, s, zz = Decimal(2), Decimal(lam) + 2, Decimal(z)
        oracle = float((s - (s * s - 4 * d * Decimal(lam) * zz * zz).sqrt()) / (2 * d * zz))
    u = gwspeed.regular_return_gf(2, float(lam), float(z))
    assert abs(u - oracle) <= 1e-15 * oracle
    code, out, err = run(capsys, "regular", "--d", "2", "--lambda", lam, "--z", z)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"Uz={oracle:.9g}"


def test_beta_with_counts_beyond_int16(capsys):
    # a depth-1 tree: beta_1 = k/(1 + k) for a root with k children
    for seed in range(1, 4):
        code, out, err = run(capsys, "beta", "--pmf", "2:0.5,40000:0.5", "--depth", "1",
                             "--trials", "10", "--lambda", "1", "--seed", str(seed))
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split(",")
        assert row[1] == row[2]
        assert float(row[1]) in (float(f"{2 / 3:.9g}"), float(f"{40000 / 40001:.9g}"))


def test_beta_grid_pool_and_dump(capsys, tmp_path):
    pool_path = tmp_path / "pool.csv"
    tree_path = tmp_path / "tree.json"
    code, out, _ = run(capsys, "beta", "--lambda-grid", "0.5:1.5:0.5",
                       "--depth", "4", "--trials", "500", "--seed", "2",
                       "--samples", "200", "--pool-out", str(pool_path),
                       "--dump-tree", str(tree_path))
    assert code == 0
    assert len(out.splitlines()) == 4  # header + three grid rows
    pool_lines = pool_path.read_text().splitlines()
    assert pool_lines[0] == "beta,dbeta"
    assert len(pool_lines) == 201
    adjacency = json.loads(tree_path.read_text())
    assert adjacency["0"]["depth"] == 0


def test_speed_curve_csv_header_and_verdict(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "speed-curve", "--lambda-grid", "0:1.17:0.39",
                       "--depth", "5", "--samples", "200", "--tuples", "2000",
                       "--seed", "4", "--single-depth", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "lambda,speed_formula,stderr,speed_mc,mc_stderr,ineq8_margin,ineq8_stderr,holds"
    assert len(lines) == 5
    assert "monotonicity_depth_5=strictly-decreasing" in out
    # lam=0 row is exactly 1 and leaves the walker and criterion columns empty
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[5] == ""


def test_speed_curve_two_depth_stability(capsys):
    code, out, _ = run(capsys, "speed-curve", "--lambda-grid", "0:1.17:0.39",
                       "--depth", "4", "--samples", "200", "--tuples", "2000",
                       "--seed", "4")
    assert code == 0
    assert "monotonicity_depth_4=" in out
    assert "monotonicity_depth_7=" in out


def test_speed_curve_attaches_walker_estimates(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "speed-curve", "--lambda-grid", "0:0.5:0.5", "--depth", "5",
                       "--samples", "200", "--tuples", "1000", "--seed", "18",
                       "--mc-steps", "2000", "--mc-replicas", "4", "--single-depth",
                       "--out", str(out_path))
    assert code == 0
    assert out.startswith(out_path.read_text())
    rows = list(csv.DictReader(out_path.open()))
    assert [row["lambda"] for row in rows] == ["0", "0.5"]
    for row in rows:
        assert float(row["mc_stderr"]) >= 0.0
        assert abs(float(row["speed_mc"]) - float(row["speed_formula"])) < 0.05


def test_speed_curve_verdicts_that_disagree_exit_two(capsys, monkeypatch):
    # the depth+3 rescan reports the opposite verdict: the output is still
    # printed in full, then flagged unstable
    def flipped(dist, grid, n, *args):
        curve = speed_curve(dist, grid, n, *args)
        if n == 7:
            curve.report.strictly_decreasing = not curve.report.strictly_decreasing
        return curve

    speed_curve = cli_mod.speed_curve
    monkeypatch.setattr(cli_mod, "speed_curve", flipped)
    code, out, err = run(capsys, "speed-curve", "--lambda-grid", "0:1.17:0.39",
                         "--depth", "4", "--samples", "200", "--tuples", "2000",
                         "--seed", "4")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[-3].startswith("monotonicity_depth_4=strictly-decreasing")
    assert lines[-2].startswith("monotonicity_depth_7=VIOLATED")
    assert lines[-1] == "verdict_stability=UNSTABLE"


def test_speed_curve_prints_a_false_report_as_violated(capsys, monkeypatch):
    def violated(*args):
        curve = speed_curve(*args)
        curve.report.strictly_decreasing = False
        return curve

    speed_curve = cli_mod.speed_curve
    monkeypatch.setattr(cli_mod, "speed_curve", violated)
    code, out, err = run(capsys, "speed-curve", "--lambda-grid", "0:1.17:0.39",
                         "--depth", "4", "--samples", "200", "--tuples", "2000",
                         "--seed", "4", "--single-depth")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("monotonicity_depth_4=VIOLATED lambda_star=")


def test_speed_curve_rescan_evaluates_no_margins(capsys, monkeypatch):
    # the depth+3 rescan prints only its verdict: the default grid's 13
    # positive biases each sum their tuples' beta' once at depth 4, for the
    # margin, and never at depth 7
    depths = []

    def counted(tp, x):
        if x is tp.pool.dbeta:
            depths.append(tp.pool.level)
        return sums(tp, x)

    sums = speed_mod.TuplePool.sums
    monkeypatch.setattr(speed_mod.TuplePool, "sums", counted)
    code, out, err = run(capsys, "speed-curve", "--depth", "4", "--samples", "200",
                         "--tuples", "2000", "--seed", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("monotonicity_depth_7=strictly-decreasing")
    assert depths == [4] * 13


def test_speed_curve_csv_json_same_numbers(capsys, tmp_path):
    base = ["speed-curve", "--lambda-grid", "0:1.17:0.39", "--depth", "4",
            "--samples", "150", "--tuples", "1500", "--seed", "9",
            "--single-depth"]
    csv_path = tmp_path / "c.csv"
    json_path = tmp_path / "c.json"
    assert run_cli(base + ["--out", str(csv_path)]) == 0
    assert run_cli(base + ["--format", "json", "--out", str(json_path)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(csv_path.open()))
    recs = json.loads(json_path.read_text())
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        for key, text in row.items():
            if text == "":
                assert rec[key] is None
            elif text in ("true", "false"):
                assert rec[key] is (text == "true")
            else:
                assert float(text) == rec[key]


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "pmf": {"2": 1.0},
        "seed": 11,
        "steps": 500,
        "replicas": 4,
    }))
    code, out, _ = run(capsys, "simulate", "--lambda", "0",
                       "--config", str(cfg))
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert values["speed"] == "1"   # binary law, zero bias
    assert values["steps"] == "500"
    code, out, _ = run(capsys, "simulate", "--lambda", "0",
                       "--config", str(cfg), "--steps", "250")
    values = dict(line.split("=") for line in out.splitlines())
    assert values["steps"] == "250"


@pytest.mark.parametrize("cfg", [{"seed": None}, {"lambda_grid": 5},
                                 {"pmf": {"2": None}}, {"seed": 7.9},
                                 {"seed": True}, {"seed": float("inf")}])
def test_malformed_config_value_exits_one(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "speed-curve", "--config", str(path),
                       "--depth", "2", "--samples", "64", "--tuples", "100",
                       "--single-depth")
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag,wrap,says", [
    ("--config", "{}", "error: cannot read config "),
    ("--pmf-json", '{{"pmf": {}}}', "error: pmf JSON is nested too deeply to decode"),
])
def test_deeply_nested_json_exits_one_without_a_traceback(capsys, tmp_path, flag, wrap, says):
    # the decoder recurses once per bracket, so this nesting exhausts the
    # interpreter's recursion limit
    path = tmp_path / "deep.json"
    path.write_text(wrap.format("[" * 200_000 + "]" * 200_000))
    code, out, err = run(capsys, "simulate", "--lambda", "1", flag, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(says) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("simulate", "--lambda", "1"), ("beta",),
                                  ("speed-curve",), ("verify",)])
def test_negative_seed_is_refused_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


BETA_SMALL = ("beta", "--trials", "100")  # bias 1 by default


@pytest.mark.parametrize("cfg", [{"depth": True}, {"depth": 2.5},
                                 {"lambda": False}])
def test_config_integers_and_numbers_are_strict(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"depth": 2, **cfg}))
    code, out, err = run(capsys, *BETA_SMALL, "--config", str(path))
    assert code == 1
    assert err.startswith("error: ") and out == ""


def test_config_integral_float_is_an_integer(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7.0, "depth": 2.0}))
    code, out, _ = run(capsys, *BETA_SMALL, "--config", str(path))
    assert code == 0
    assert out == run(capsys, *BETA_SMALL, "--seed", "7", "--depth", "2")[1]


def test_beta_reads_the_lambda_grid_config_key(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda_grid": "0.5:1.0:0.25", "depth": 3}))
    code, out, err = run(capsys, *BETA_SMALL, "--config", str(path))
    assert (code, err) == (0, "")
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0.5", "0.75", "1"]
    assert out == run(capsys, *BETA_SMALL, "--depth", "3", "--lambda-grid", "0.5:1.0:0.25")[1]


def test_beta_lambda_flags_win_over_both_config_keys(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    for cfg in ({"lambda": 0.25}, {"lambda_grid": "0.5:1.0:0.25"},
                {"lambda": 0.25, "lambda_grid": "0.5:1.0:0.25"}):
        path.write_text(json.dumps({"depth": 3, **cfg}))
        for flags in (("--lambda", "0.75"), ("--lambda-grid", "0.25:0.5:0.25")):
            code, out, _ = run(capsys, *BETA_SMALL, "--config", str(path), *flags)
            assert code == 0
            assert out == run(capsys, *BETA_SMALL, "--depth", "3", *flags)[1]


def test_beta_refuses_lambda_and_lambda_grid_in_one_config(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 1.0, "lambda_grid": "0.5:1.0:0.25", "depth": 3}))
    code, out, err = run(capsys, *BETA_SMALL, "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "error: give either lambda or lambda_grid in the config, not both\n"


def test_dump_tree_into_missing_directory_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, *BETA_SMALL, "--depth", "2", "--dump-tree",
                         str(tmp_path / "absent" / "tree.json"))
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("flags", [
    ("--tuples", "0"),
    ("--samples", "0"),
    ("--mc-steps", "-1"),
    ("--mc-replicas", "-2"),
    ("--mc-steps", "10"),
    ("--mc-replicas", "4"),
    ("--mc-steps", "10", "--mc-replicas", "1"),
    ("--depth", "-1"),
])
def test_curve_bad_counts_exit_before_any_output(capsys, flags):
    code, out, err = run(capsys, "speed-curve", "--depth", "3", "--samples", "50",
                         "--tuples", "500", *flags)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("flags", [(), ("--single-depth",)])
def test_curve_refuses_a_forest_level_over_budget(capsys, monkeypatch, flags):
    # the depth-5 rescan of this law would draw a ~1e17-vertex level; the
    # depth-2 curve alone is fine but prints nothing unless both depths fit
    def never(*args, **kwargs):
        raise AssertionError("speed_curve ran")

    monkeypatch.setattr(cli_mod, "speed_curve", never)
    depth = ("--depth", "5") if flags else ("--depth", "2")
    code, out, err = run(capsys, "speed-curve", "--pmf", "2:0.5,40000:0.5", *depth,
                         "--samples", "20", "--tuples", "100",
                         "--lambda-grid", "0:1:0.5", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: a depth-5 forest level would need")


@pytest.mark.parametrize("argv", [
    ("--tuples", "1000000000"),
    ("--samples", "20000", "--lambda-grid", "0:0.5:0.00001"),
])
def test_curve_refuses_pools_and_tuples_over_budget(capsys, monkeypatch, argv):
    # 10^9 tuples, or 50,001 pools of 20,000 samples: refused from the
    # predicted size alone, before the header and before any draw
    def never(*args, **kwargs):
        raise AssertionError("speed_curve ran")

    monkeypatch.setattr(cli_mod, "speed_curve", never)
    code, out, err = run(capsys, "speed-curve", "--depth", "2", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "GiB limit" in err


@pytest.mark.parametrize("single_depth", [False, True])
def test_curve_checks_the_size_at_both_depths(capsys, monkeypatch, single_depth):
    # --samples 200 rescans with 64 samples; only that scan is over budget
    monkeypatch.setattr(speed_mod, "_curve_bytes",
                        lambda dist, points, samples, tuples: 2.0**40 if samples == 64 else 0.0)
    code, out, err = run(capsys, "speed-curve", "--depth", "2", "--samples", "200",
                         "--tuples", "100", "--lambda-grid", "0:1:0.5",
                         *(("--single-depth",) if single_depth else ()))
    if single_depth:
        assert code == 0 and out.startswith("lambda,")
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("error: 3 pools of 64 samples and 100 tuples would need")


def test_beta_pool_out_refuses_a_forest_level_over_budget(capsys, monkeypatch, tmp_path):
    # the depth-3 pool of this law would draw a ~4e8-vertex level; the check
    # runs before the table's tree is sampled
    def never(*args, **kwargs):
        raise AssertionError("a tree was sampled")

    monkeypatch.setattr(cli_mod, "sample_truncated_tree", never)
    code, out, err = run(capsys, "beta", "--pmf", "2:0.5,40000:0.5", "--depth", "3",
                         "--pool-out", str(tmp_path / "f"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: a depth-3 forest level would need")


@pytest.mark.parametrize("argv", [
    ("--trials", "10", "--pool-out", "p.csv", "--method", "population",
     "--samples", "10000000000"),
    ("--trials", "10", "--pool-out", "p.csv", "--samples", "10000000000"),
    ("--trials", "1000000000",),
])
def test_beta_refuses_an_over_budget_pool_or_trial_count_before_any_draw(
        capsys, monkeypatch, tmp_path, argv):
    # 10^10 population samples need about 1.3 TiB, as many tree-method
    # samples about 149 GiB, 10^9 hitting trials about 60 GiB:
    # refused before the table's tree is sampled
    def never(*args, **kwargs):
        raise AssertionError("a tree was sampled")

    monkeypatch.setattr(cli_mod, "sample_truncated_tree", never)
    argv = tuple(str(tmp_path / a) if a.endswith(".csv") else a for a in argv)
    code, out, err = run(capsys, "beta", "--depth", "2", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "GiB limit" in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("method,sample_bytes", [("tree", 16), ("population", 144)])
def test_beta_pool_out_budgets_only_the_pool(capsys, monkeypatch, tmp_path, method, sample_bytes):
    # the CSV is written a chunk at a time, so --pool-out counts the pool's
    # own bytes a sample, 16 for the tree method and 64 + 32 m for a
    # population pool (144 on the demo law): 1,000 samples are refused one
    # byte below that, and reach the table's tree at exactly that
    def never(*args, **kwargs):
        raise AssertionError("a tree was sampled")

    monkeypatch.setattr(cli_mod, "sample_truncated_tree", never)
    monkeypatch.setattr(beta_mod, "_check_forest_depth", lambda dist, n: None)
    argv = ("beta", "--depth", "2", "--trials", "10", "--method", method,
            "--samples", "1000", "--pool-out", str(tmp_path / "p.csv"))
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", sample_bytes * 1000 - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: a {method}") and "pool of 1000 samples would need" in err
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", sample_bytes * 1000)
    with pytest.raises(AssertionError, match="a tree was sampled"):
        run_cli(list(argv))
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("argv", [
    ("beta", "--depth", "20"),  # about 1.5e8 vertices on the demo law
    ("beta", "--pmf", "2:0.5,40000:0.5", "--depth", "4"),
    ("verify", "--suite", "oracles", "--pmf", "2:0.5,40000:0.5"),
])
def test_over_budget_tree_exits_one_before_any_draw(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("a tree level was drawn")

    monkeypatch.setattr(tree_mod, "_sample_offspring_layers", never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: a depth-") and "tree would need" in err


def test_simulate_refuses_a_walk_arena_over_budget(capsys, monkeypatch):
    # a vertex of this law has 40,000 children half the time; at the default
    # 100,000 steps its arena would need tens of GB
    monkeypatch.setattr(tree_mod, "MAX_FOREST_LEVEL_BYTES", 2**20)
    code, out, err = run(capsys, "simulate", "--pmf", "2:0.5,40000:0.5", "--lambda", "1",
                         "--replicas", "2", "--steps", "1000")
    assert (code, out) == (1, "")
    assert err.startswith("error: a walk arena of") and "GiB limit" in err


def test_oracles_on_a_law_with_a_wide_maximum_branching(capsys):
    # the sandwich's 30-regular bracket is reduced one level at a time; a
    # sampled depth-5 tree of it would need about 3 GiB
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--pmf", "2:0.9,30:0.1",
                       "--seed", "7")
    assert code == 0
    assert "PASS oracles/conductance-sandwich" in out
    assert out.rstrip().endswith("7/7 checks passed")


def test_curve_out_into_missing_directory_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "speed-curve", "--depth", "4", "--samples", "50",
                         "--tuples", "500", "--out", str(tmp_path / "absent" / "c.csv"))
    assert code == 1
    assert err.startswith("error: ") and "absent" in err
    assert out == ""


@pytest.mark.parametrize("flags", [
    ("--trials", "0"),
    ("--lambda", "-1"),
    ("--lambda-grid=-0.5:1:0.5",),
    ("--depth", "0"),
    ("--samples", "-1", "--pool-out", "pool.csv"),
])
def test_beta_bad_counts_and_biases_exit_before_any_output(capsys, tmp_path, flags):
    flags = tuple(str(tmp_path / f) if f.endswith(".csv") else f for f in flags)
    code, out, err = run(capsys, "beta", "--depth", "3", "--trials", "10", *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be >= " in err


@pytest.mark.parametrize("flags", [(), ("--pool-out", "pool.csv"),
                                   ("--pool-out", "pool.csv", "--method", "population")])
def test_beta_refuses_a_law_with_leaves_before_any_output(capsys, tmp_path, flags):
    flags = tuple(str(tmp_path / f) if f.endswith(".csv") else f for f in flags)
    code, out, err = run(capsys, "beta", "--pmf", "0:0.2,2:0.8", "--depth", "2",
                         "--trials", "10", "--seed", "3", *flags)
    assert (code, out) == (1, "")
    assert err == "error: beta needs a leafless offspring law\n"
    assert not (tmp_path / "pool.csv").exists()


@pytest.mark.parametrize("command", [("simulate", "--lambda", "1", "--replicas", "2"),
                                     ("regular", "--d", "2", "--lambda", "1")])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_one(capsys, command, threads):
    code, out, err = run(capsys, *command, "--threads", threads)
    assert (code, out) == (1, "")
    assert err == f"error: --threads must be >= 1, got {threads}\n"


class _InlineExecutor:
    """A ProcessPoolExecutor stand-in that records its ``max_workers`` and
    runs each submitted call at once, in this process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("threads, replicas, cpus, started", [
    ("5000", "2", 64, [2]),   # one process per replica at most
    ("8", "10", 3, [3]),      # one per CPU at most
    ("3", "10", 64, [3]),
    ("2", "10", 1, []),       # one CPU: run in this process
    ("1", "10", 64, []),
])
def test_simulate_starts_at_most_one_process_per_replica_and_cpu(
        capsys, monkeypatch, threads, replicas, cpus, started):
    argv = ("simulate", "--lambda", "1", "--steps", "300", "--replicas", replicas,
            "--seed", "4")
    serial = run(capsys, *argv)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlineExecutor, "started", [])
    assert run(capsys, *argv, "--threads", threads) == serial
    assert _InlineExecutor.started == started


def test_speed_curve_walker_estimates_take_threads(capsys, monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("workers"))
        return walker_mod.simulate_speed(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "simulate_speed", spy)
    argv = ("speed-curve", "--lambda-grid", "0.5:1:0.5", "--depth", "3", "--samples", "64",
            "--tuples", "200", "--mc-steps", "200", "--mc-replicas", "2", "--single-depth")
    serial = run(capsys, *argv, "--threads", "1")
    assert serial[0] == 0
    assert run(capsys, *argv, "--threads", "2") == serial
    assert seen == [1, 1, 2, 2]  # two grid points a run


_DEMO = gwspeed.make_distribution({2: 0.5, 3: 0.5})


def _star_tree():
    tree = gwspeed.sample_truncated_tree(_DEMO, 2, seed=1)
    gwspeed.attach_star_root(tree)
    return tree


# every library entry point that takes a bias, as a call on that bias
_BIAS_CALLS = {
    "transition_step": lambda lam: gwspeed.transition_step(
        _star_tree(), gwspeed.WalkState(0, 0, np.random.default_rng(0)), lam),
    "simulate_speed": lambda lam: gwspeed.simulate_speed(_DEMO, lam, 10, 2, 1),
    "hitting_beta_mc": lambda lam: gwspeed.hitting_beta_mc(_DEMO, lam, 2, 5, 1),
    "compute_beta": lambda lam: gwspeed.compute_beta(_star_tree(), 2, lam),
    "sample_pools_shared_trees": lambda lam: gwspeed.sample_pools_shared_trees(
        _DEMO, [0.5, lam], 2, 5, 1),
    "sample_pool_population": lambda lam: gwspeed.sample_pool(
        _DEMO, lam, 2, 5, 1, method="population"),
    "regular_return_gf": lambda lam: gwspeed.regular_return_gf(2, lam, 0.5),
    "regular_escape_probability": lambda lam: gwspeed.regular_escape_probability(2, lam),
    "speed_curve": lambda lam: gwspeed.speed_curve(_DEMO, [0.0, lam], 2, 5, 5, 1),
    "build_conductances": lambda lam: gwspeed.build_conductances(_star_tree(), lam),
    "conductance_sandwich": lambda lam: gwspeed.conductance_sandwich(_star_tree(), lam, 2),
}


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", sorted(_BIAS_CALLS))
def test_negative_or_non_finite_bias_is_refused(name, lam):
    reason = "finite bias > 0" if "conductance" in name else "bias must be >= 0 and finite"
    with pytest.raises(ValueError, match=reason):
        _BIAS_CALLS[name](lam)


@pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [
    ("regular", "--d", "2"),
    ("simulate", "--pmf", "2:1", "--steps", "10", "--replicas", "2"),
    ("beta", "--depth", "3", "--trials", "10"),
])
def test_negative_or_non_finite_bias_exits_before_any_output(capsys, argv, lam):
    code, out, err = run(capsys, *argv, f"--lambda={lam}")
    assert (code, out) == (1, "")
    assert err.startswith("error: bias must be >= 0 and finite")


@pytest.mark.parametrize("spec", ["0:nan:0.1", "0:inf:0.1", "nan:1:0.1",
                                  "0:1:nan", "0:1:inf"])
@pytest.mark.parametrize("argv", [
    ("speed-curve", "--depth", "2", "--samples", "10", "--tuples", "10"),
    ("beta", "--depth", "2", "--trials", "10"),
])
def test_non_finite_grid_exits_before_any_output(capsys, argv, spec):
    code, out, err = run(capsys, *argv, f"--lambda-grid={spec}")
    assert (code, out) == (1, "")
    assert err.startswith("error: grid start, stop and step must be finite")


@pytest.mark.parametrize("spec", ["0:1e6:1e-6", "0:1:1e-5", "0:1e300:1e-300",
                                  "-1e308:1e308:1"])
@pytest.mark.parametrize("argv", [
    ("speed-curve", "--depth", "2", "--samples", "10", "--tuples", "10"),
    ("beta", "--depth", "2", "--trials", "10"),
])
def test_oversized_grid_exits_before_any_output(capsys, argv, spec):
    # refused from the point count alone: the grid itself is never built
    code, out, err = run(capsys, *argv, f"--lambda-grid={spec}")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: grid {spec!r} has more than {MAX_GRID_POINTS} points")


def test_largest_grid_is_accepted():
    assert len(_parse_grid(f"0:1:{1 / (MAX_GRID_POINTS - 1)}")) == MAX_GRID_POINTS


@pytest.mark.parametrize("argv", [
    ("regular", "--d", "2", "--lambda", "1", "--out"),
    ("simulate", "--lambda", "1", "--steps", "10", "--replicas", "2", "--out"),
    BETA_SMALL + ("--depth", "2", "--out"),
    BETA_SMALL + ("--depth", "2", "--pool-out"),
    ("verify", "--suite", "lemma0", "--out"),
])
def test_unusable_output_path_exits_before_any_output(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path / "absent" / "x.csv"))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write ")
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert (code, out) == (1, "")
    assert "is a directory" in err


def test_hitting_round_cap_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(walker_mod, "_MAX_SYNC_ROUNDS", 1)
    code, out, err = run(capsys, *BETA_SMALL, "--depth", "3")
    assert code == 2
    assert err.startswith("error: ") and "round cap" in err
    assert out == ""  # the table is printed only once every row is done


def test_beta_at_a_huge_finite_bias_reduces_without_overflow(capsys):
    # lam ** 2 passes the largest float: both columns agree on 0, and the
    # command exits 0 with its table
    code, out, _ = run(capsys, "beta", "--pmf", "2:1", "--depth", "2", "--trials", "10",
                       "--lambda", "1e200")
    assert code == 0
    (row,) = csv.DictReader(out.splitlines())
    assert row["beta_recursion"] == row["beta_conductance"] == "0"
    # a bias whose powers stay finite keeps its output byte for byte
    code, out, _ = run(capsys, "beta", "--pmf", "2:1", "--depth", "10", "--trials", "10",
                       "--lambda", "1e30")
    assert (code, out) == (0, "lambda,beta_recursion,beta_conductance,beta_mc,mc_stderr\n"
                              "1e+30,1.024e-297,1.024e-297,0,0\n")


def test_beta_at_a_huge_bias_warns_nothing(capsys):
    # the level step's squared denominator overflows to inf, which is no error
    argv = ("beta", "--pmf", "2:1", "--depth", "2", "--trials", "10", "--lambda", "1e200")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv)[1]


def test_hitting_mc_far_from_the_recursion_is_a_failed_check(capsys, monkeypatch):
    # every Monte Carlo estimate is 1, tens of sigma from the recursion's
    # beta on each of the three trees
    def far(tree, lam, n, trials, seed):
        return walker_mod.HittingEstimate(1.0, 0.0, trials, trials, lam, n, "quenched")

    monkeypatch.setattr(verify_mod, "hitting_beta_mc", far)
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--seed", "7")
    assert code == 2
    assert "\nFAIL oracles/hitting-mc: combos=3 worst_z=" in out


def test_sandwich_violation_is_a_failed_check(capsys, monkeypatch):
    # conductances to a level never exceed 1, so 2 breaks low <= mid
    monkeypatch.setattr(network_mod, "_regular_conductance", lambda d, lam, n: 2.0)
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--seed", "7")
    assert code == 2
    assert "FAIL oracles/conductance-sandwich: tree=0 conductance ordering" in out
    assert out.rstrip().endswith("checks passed")


def test_sandwich_ordering_within_slack_is_a_failed_check(capsys, monkeypatch):
    # passes conductance_sandwich's float slack, fails the strict ordering
    monkeypatch.setattr(verify_mod, "conductance_sandwich",
                        lambda tree, lam, n: (0.5 + 1e-14, 0.5, 0.75))
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--seed", "7")
    assert code == 2
    assert ("FAIL oracles/conductance-sandwich: tree=0 ordering held only "
            "within float slack") in out


def test_verify_criterion_margin_under_three_stderr_fails(capsys, monkeypatch):
    # every point's margin is 2 stderr, and every pair decreases: only the
    # margin gate can fail, and verify must exit 2
    def thin_margins(dist, grid, n, *args):
        points = [speed_mod.SpeedCurvePoint(lam, 1.0 - lam / 4, 0.01, 2e-3, 1e-3, True)
                  for lam in grid]
        pairs = [speed_mod.PairCheck(a, b, 0.1, 0.01, 10.0, True, True)
                 for a, b in zip(grid, grid[1:])]
        return speed_mod.SpeedCurve(points, speed_mod.MonotonicityReport(grid[-1], pairs, True))

    monkeypatch.setattr(verify_mod, "speed_curve", thin_margins)
    code, out, _ = run(capsys, "verify", "--suite", "monotonicity", "--seed", "7")
    assert code == 2
    for n in (7, 10):
        assert f"PASS monotonicity/strict-decrease: depth={n} pairs=13 min_pair_z=10\n" in out
        assert (f"FAIL monotonicity/criterion-margin: depth={n} points=14 "
                "min_margin_over_stderr=2\n") in out


def test_bounds_pool_violation_is_a_failed_check(capsys, monkeypatch):
    # one envelope violation in every pool must print FAIL and exit 2
    def violated(pool, m1, m2, lam):
        return beta_mod.BoundReport(lam, m1, m2, pool.beta.size, envelope_violations=1,
                                    derivative_violations=0, denominator_violations=0)

    monkeypatch.setattr(verify_mod, "check_bounds", violated)
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--pmf", "2:1")
    assert code == 2
    assert ("\nFAIL bounds/pool: lambda=0.25 samples=3000 envelope=1 derivative=0 "
            "denominator=0\n") in out


def test_bounds_tuple_denominator_under_its_floor_is_a_failed_check(capsys, monkeypatch):
    # a least tuple denominator one ulp under m1 - lam/m1 in every pool must
    # print FAIL and exit 2; verify reads only the tuple pool's denominators
    def under_the_floor(dist, pool, count, seed):
        floor = dist.m1 - pool.lam / dist.m1
        return types.SimpleNamespace(denominators=np.full(count, np.nextafter(floor, 0.0)))

    monkeypatch.setattr(verify_mod, "make_tuple_pool", under_the_floor)
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--pmf", "2:1")
    assert code == 2
    assert out.count("\nFAIL bounds/tuple-denominator: ") == 4
    assert "\nFAIL bounds/tuple-denominator: lambda=0.25 min=1.875 floor=1.875\n" in out


def _verify_oracles_fails(capsys, name):
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--pmf", "2:1", "--seed", "7")
    assert code == 2
    assert f"\nFAIL {name}: " in out
    return out


def test_beta_conductance_disagreement_is_a_failed_check(capsys, monkeypatch):
    # a conductance of 2 against a root beta of at most 1
    monkeypatch.setattr(verify_mod, "effective_conductance_to_level", lambda net, n: 2.0)
    out = _verify_oracles_fails(capsys, "oracles/beta-vs-conductance")
    assert "\nPASS oracles/derivative-vs-path-sum: " in out


def test_derivative_path_sum_disagreement_is_a_failed_check(capsys, monkeypatch):
    # a path sum of 1 against a root derivative of at most 0
    monkeypatch.setattr(verify_mod, "beta_derivative_path_sum", lambda table: 1.0)
    out = _verify_oracles_fails(capsys, "oracles/derivative-vs-path-sum")
    assert "\nPASS oracles/beta-vs-conductance: " in out


def test_a_conductance_ten_times_the_gate_off_is_a_failed_check(capsys, monkeypatch):
    # a relative 1e-11 against the 1e-12 gate (the oracle agrees to 4e-16)
    real = verify_mod.effective_conductance_to_level
    monkeypatch.setattr(verify_mod, "effective_conductance_to_level",
                        lambda net, n: real(net, n) * (1.0 + 1e-11))
    out = _verify_oracles_fails(capsys, "oracles/beta-vs-conductance")
    assert "\nFAIL oracles/beta-vs-conductance: trees=20 worst_rel=1.000e-11\n" in out


def test_a_path_sum_ten_times_the_gate_off_is_a_failed_check(capsys, monkeypatch):
    # 1e-11 in the gate's own measure, relative to max(1, |path sum|)
    real = verify_mod.beta_derivative_path_sum

    def tilted(table):
        ps = real(table)
        return ps + 1e-11 * max(1.0, abs(ps))

    monkeypatch.setattr(verify_mod, "beta_derivative_path_sum", tilted)
    out = _verify_oracles_fails(capsys, "oracles/derivative-vs-path-sum")
    assert "\nFAIL oracles/derivative-vs-path-sum: trees=20 worst_rel=1.000e-11\n" in out


def test_a_hitting_estimate_five_sigma_off_is_a_failed_check(capsys, monkeypatch):
    # each estimate sits 5 binomial sigma at 4,000 trials above the
    # recursion's beta on its tree, past the 4 sigma gate
    def off(tree, lam, n, trials, seed):
        b = verify_mod.compute_beta(tree, n, lam).root_beta
        est = b + 5.0 * math.sqrt(b * (1.0 - b) / trials)
        return walker_mod.HittingEstimate(est, 0.0, trials, 0, lam, n, "quenched")

    monkeypatch.setattr(verify_mod, "hitting_beta_mc", off)
    out = _verify_oracles_fails(capsys, "oracles/hitting-mc")
    assert "\nFAIL oracles/hitting-mc: combos=3 worst_z=5 gate=4\n" in out


def test_finite_difference_disagreement_is_a_failed_check(capsys, monkeypatch):
    # only the finite-difference check reads depth 8: its derivative is off by 1e-3
    real = verify_mod.compute_beta

    def tilted(tree, n, lam):
        table = real(tree, n, lam)
        if n == 8:
            table.dbeta = table.dbeta + 1e-3
        return table

    monkeypatch.setattr(verify_mod, "compute_beta", tilted)
    out = _verify_oracles_fails(capsys, "oracles/finite-difference")
    assert "\nFAIL oracles/finite-difference: h=0.0001 worst_abs=1.000e-03\n" in out


def test_return_gf_off_its_quadratic_is_a_failed_check(capsys, monkeypatch):
    # off by 1e-9 below z = 1 only, so the complement check, at z = 1, still passes
    real = verify_mod.regular_return_gf
    monkeypatch.setattr(verify_mod, "regular_return_gf",
                        lambda d, lam, z: real(d, lam, z) + (1e-9 if z < 1.0 else 0.0))
    out = _verify_oracles_fails(capsys, "oracles/return-gf-quadratic")
    assert "\nPASS oracles/gf-escape-complement: worst_abs=0.000e+00\n" in out


def test_escape_off_the_gf_complement_is_a_failed_check(capsys, monkeypatch):
    real = verify_mod.regular_escape_probability
    monkeypatch.setattr(verify_mod, "regular_escape_probability",
                        lambda d, lam: real(d, lam) + 2.0 ** -40)
    out = _verify_oracles_fails(capsys, "oracles/gf-escape-complement")
    assert "\nPASS oracles/return-gf-quadratic: " in out


def test_lemma0_speed_mismatch_at_the_gate_is_a_failed_check(capsys, monkeypatch):
    # z exactly at the gate fails: the check is z < gate
    est = types.SimpleNamespace(mean=0.5)
    monkeypatch.setattr(verify_mod, "lemma0_compare",
                        lambda dist, lam, steps, replicas, seed: (est, est, 4.0))
    code, out, _ = run(capsys, "verify", "--suite", "lemma0", "--pmf", "2:1", "--seed", "7")
    assert code == 2
    assert out.count("\nFAIL lemma0/speed-match: ") == 3
    assert "\nFAIL lemma0/speed-match: lambda=0.5 T=0.5 Tstar=0.5 z=4 gate=4\n" in out


def test_a_curve_that_is_not_strictly_decreasing_is_a_failed_check(capsys, monkeypatch):
    real = verify_mod.speed_curve

    def violated(*args):
        curve = real(*args)
        curve.report.strictly_decreasing = False
        return curve

    monkeypatch.setattr(verify_mod, "speed_curve", violated)
    code, out, _ = run(capsys, "verify", "--suite", "monotonicity", "--pmf", "2:1",
                       "--seed", "7")
    assert code == 2
    for n in (7, 10):
        assert f"\nFAIL monotonicity/strict-decrease: depth={n} pairs=13 " in out
        assert f"\nPASS monotonicity/criterion-margin: depth={n} " in out


@pytest.mark.parametrize("suite", verify_mod.SUITE_NAMES + ("all",))
def test_verify_refuses_a_law_with_leaves_before_any_work(capsys, monkeypatch, suite):
    def never(*args):
        raise AssertionError("a suite ran")

    for name in verify_mod.SUITES:
        monkeypatch.setitem(verify_mod.SUITES, name, never)
    code, out, err = run(capsys, "verify", "--suite", suite, "--pmf", "0:0.2,2:0.8")
    assert (code, out, err) == (1, "", "error: verify needs a leafless offspring law\n")


@pytest.mark.parametrize("suite, pmf, checks", [
    ("bounds", "2:1", 8),        # a 2-regular pool sits on the 2-regular tree's beta_10
    ("monotonicity", "2:1", 5),  # a one-point pool gives margins with stderr exactly 0
    ("all", "1:1", 18), ("all", "2:1", 23), ("all", "3:1", 23),
    ("all", "4:1", 23), ("all", "5:1", 23),
])
def test_verify_passes_one_point_laws(capsys, suite, pmf, checks):
    code, out, err = run(capsys, "verify", "--suite", suite, "--pmf", pmf)
    assert (code, err) == (0, "")
    assert out.endswith(f"\n{checks}/{checks} checks passed\n")


@pytest.mark.parametrize("pmf", ["1:0.5,2:0.5", "1:1"])
def test_a_monotonicity_check_that_did_not_run_is_not_a_pass(capsys, pmf):
    # below m1 = 2 there is no certified range: the line says so without a
    # verdict, no check counts as passed, and nothing failed
    code, out, err = run(capsys, "verify", "--suite", "monotonicity", "--pmf", pmf)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["SKIP monotonicity/skipped: m1=1 below 2; no certified range",
                                    "0/0 checks passed"]


@pytest.mark.parametrize("pmf, digest", [
    pytest.param("4:1", "26424bc263f70fe08b3a7ee9aad33212d3040e148b9bd73758484f6ef8d30d64",
                 id="4:1"),
    pytest.param("5:1", "d82deb6da0f1e985f3c8a61b38e99a2a6d2ecfa91f9afe7e144f5580c6319a01",
                 id="5:1"),
])
def test_one_point_verify_report_is_pinned(capsys, pmf, digest):
    # digests recorded from pools that drew and merged a forest (one tree a
    # chunk on 5:1, about 3 minutes a run); a one-point pool evaluates its
    # k-regular tree once, and must print the same bytes. Re-recorded when
    # the speed moved onto the margin's tuple terms: only the strict-decrease
    # lines' min_pair_z moved, which is rounding noise on a one-point law
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7", "--pmf", pmf)
    assert code == 0
    assert _sha256(out.encode()) == digest


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pinned_outputs_are_byte_identical(capsys, tmp_path):
    # digests of pinned-seed outputs recorded before the breadth-first tree
    # layout; a refactor that changes any digit of them changes results. The
    # verify digest was re-recorded when regular_return_gf was rationalized:
    # its quadratic residual line went from 1.520e-15 to 1.110e-16
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--seed", "7")
    assert code == 0
    assert _sha256(out.encode()) == (
        "29ae839c88a91766f4414e03962afc204de32437679e60be008a4b1f3155d6c9")
    tree_path = tmp_path / "tree.json"
    code, out, _ = run(capsys, "beta", "--lambda-grid", "0.25:1.5:0.25",
                       "--depth", "6", "--trials", "500", "--seed", "7",
                       "--dump-tree", str(tree_path))
    assert code == 0
    assert _sha256(out.encode()) == (
        "254fe9a689368fd87c361572a19ddc789e9ea850f0cf426ea5c0bf7fb4ddc33a")
    assert _sha256(tree_path.read_bytes()) == (
        "35081d9e7e5856332b37d4b60057e5f524cc97aa4781659ecd40a16bc86b03d6")


def test_pinned_bench_sized_tree_dump(capsys, tmp_path):
    # the benchmark's beta task: 15,403 vertices, four default chunks, the
    # star root alone near the end of the last; digests recorded while the
    # dump gathered its arguments vertex by vertex
    tree_path = tmp_path / "tree.json"
    code, out, _ = run(capsys, "beta", "--pmf", "2:0.5,3:0.5", "--lambda-grid", "0.25:1.5:0.25",
                       "--depth", "10", "--trials", "50", "--seed", "11",
                       "--dump-tree", str(tree_path))
    assert code == 0
    assert _sha256(out.encode()) == (
        "21f1c14c2f484949d41eadb7f8486256c12d2a4efc5202bbbc01361b7ae44266")
    assert _sha256(tree_path.read_bytes()) == (
        "74d748b6a3a12ba240eb010dd46df891eedba4648a66996c0f961b0c49be68c6")


def test_pinned_pool_outputs_are_byte_identical(capsys, tmp_path):
    # digests recorded before identical subtrees were merged in the forest
    # recursion; the curve and the pool file are what that recursion feeds.
    # The curve's were re-recorded when the speed moved onto the margin's
    # tuple terms: the speed and stderr columns moved, and nothing else. All
    # three were re-recorded when the bottom three levels of each forest
    # became one atom a vertex drawn from the depth-3 shape law
    curve_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "speed-curve", "--depth", "6", "--samples", "300",
                       "--tuples", "5000", "--seed", "7", "--out", str(curve_path))
    assert code == 0
    assert _sha256(out.encode()) == (
        "11a8e5aea6b3f74b5fa8a5293c4c570826064f627762251aa81c928dd3db0e13")
    assert _sha256(curve_path.read_bytes()) == (
        "8b1a19a49f03eec163b2962d2a79df8fe7f8d78faeda5d4f98f66e4f74354b23")
    pool_path = tmp_path / "pool.csv"
    code, _, _ = run(capsys, "beta", "--depth", "6", "--samples", "2000",
                     "--seed", "7", "--pool-out", str(pool_path))
    assert code == 0
    assert _sha256(pool_path.read_bytes()) == (
        "173d2b3e798a4786f2dcd58b05640e6dd8fbd92cc35bf4a3b1a38aec571e2d9d")


@pytest.mark.parametrize("argv,digests", [
    # single-value blocks and blocks longer than 8 values, one depth
    (("--pmf", "1:0.5,12:0.5", "--single-depth", "--depth", "3", "--samples", "200",
      "--tuples", "3000"),
     ("3a0fd20296e1cbec5ccf3ba37de0293011fe935cf2f5e3f093b4780475cf1c96",
      "109ad72830e01a65854417c939c27b59fc1b508893a47e30408152c6c2001738")),
    # blocks of 2 to 5 values in the forest and the tuples, both depths
    (("--pmf", "2:0.3,3:0.3,4:0.4", "--depth", "5", "--samples", "300", "--tuples", "5000"),
     ("22f6d2fa9401db3930e1bb202bec6cc7f8015db3c5920e50681a549679ce4365",
      "00731263100b41422e3a9512772979afede28b0ef1b47897ec140f4045061be8")),
])
def test_pinned_curve_outputs_off_the_demo_law(capsys, tmp_path, argv, digests):
    # digests recorded before the block sums moved off np.add.reduceat for
    # blocks of at most 8 values, and re-recorded when the speed moved onto
    # the margin's tuple terms (speed and stderr columns only). The second
    # was re-recorded when the forest's bottom levels became atoms drawn from
    # the depth-j shape law; the first draws its one atom level (j = 1) with
    # the same uniforms as the two-point count draw, and did not move
    curve_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "speed-curve", *argv, "--seed", "7", "--out", str(curve_path))
    assert code == 0
    assert (_sha256(out.encode()), _sha256(curve_path.read_bytes())) == digests


def test_pinned_simulate_outputs_are_byte_identical(capsys, tmp_path):
    # replica CSV digests of (pmf, bias, graph), 40,000 steps crossing every
    # block size. The demo-law digests were recorded before annealed hitting
    # moved onto the production walk loop and that loop began drawing its
    # uniforms in doubling blocks; the one-point-law digests were recorded
    # on the tree walk, before those laws moved onto the depth chain.
    digests = {
        (DEFAULT_PMF, "1", "T"):
            "210bcffadc765f81dcd5fcc1b8214e30cd3a615be1c4dddc0d46514075edcc5e",
        (DEFAULT_PMF, "1", "T_star"):
            "e8c9a4ec73719cc6d7132bc14de89952e10271be5a8faeef49d6a6da05b3bf70",
        ("2:1", "0.25", "T"):
            "0d941e1ed556f31a7884edb11dd1a11e6f1882c4564fa6b49c4b145f492d09dd",
        ("2:1", "0.25", "T_star"):
            "e055bf85ad8b93257f23bcfd2ee3d368b7fafabdacd11037a02024d8cfe75a8f",
        ("2:1", "1.5", "T"):
            "6c6c30eb9c57bb192fc41e28ae19bd3f2aedcb0d634224eff50aef4d3d6bc202",
        ("2:1", "1.5", "T_star"):
            "51d27f60b4b41c0fe2f623be7bbcd0e55f1f2f65b942e1a1542d737f6c366fcc",
        ("3:1", "0", "T"):
            "ac0ca07b8242e8de8bf22f17622bc655e564b3e78164d9a43f9695d28c360794",
        ("3:1", "0", "T_star"):
            "ac0ca07b8242e8de8bf22f17622bc655e564b3e78164d9a43f9695d28c360794",
    }
    for (pmf, lam, graph), digest in digests.items():
        path = tmp_path / "replicas.csv"
        code, _, _ = run(capsys, "simulate", "--pmf", pmf, "--lambda", lam,
                         "--steps", "40000", "--replicas", "4", "--graph", graph,
                         "--seed", "7", "--out", str(path))
        assert code == 0
        assert _sha256(path.read_bytes()) == digest


def test_verify_suite_reports_and_succeeds(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma0", "--seed", "7")
    assert code == 0
    assert out.startswith(f"pmf {DEFAULT_PMF} seed 7")
    assert "PASS lemma0/speed-match" in out
    assert out.rstrip().endswith("checks passed")


def test_verify_byte_identical_and_out_file(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(["verify", "--suite", "lemma0", "--seed", "7",
                    "--out", str(a)]) == 0
    first = capsys.readouterr().out
    assert run_cli(["verify", "--suite", "lemma0", "--seed", "7",
                    "--out", str(b)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == first


def test_verify_failure_exits_two(capsys, monkeypatch):
    def fake_suite(name, dist, seed):
        return [verify_mod.CheckResult(False, "stub/check", "planted failure")]
    monkeypatch.setattr(verify_mod, "run_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "1")
    assert code == 2
    assert "FAIL stub/check" in out


def test_unknown_suite_is_refused_by_name():
    assert verify_mod.SUITE_NAMES == ("bounds", "oracles", "lemma0", "monotonicity")
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; expected one of "
                                         r"bounds, oracles, lemma0, monotonicity, all$"):
        verify_mod.run_suite("nope", gwspeed.parse_pmf_text(DEFAULT_PMF), 1)


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gwspeed.cli"],
                          capture_output=True, text=True)
    assert proc.returncode in (1, 2)  # no subcommand given

    proc = subprocess.run(
        [sys.executable, "-c",
         "from gwspeed.cli import run_cli; import sys; "
         "sys.exit(run_cli(['regular', '--d', '3', '--lambda', '0']))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "escape=1" in proc.stdout
