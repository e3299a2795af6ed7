import csv
import hashlib
import json
import subprocess
import sys

import pytest

from gwspeed.cli import run_cli, DEFAULT_PMF
from gwspeed import network as network_mod
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


def test_bad_pmf_reports_sum(capsys):
    code, _, err = run(capsys, "simulate", "--pmf", "2:0.6,3:0.6",
                       "--lambda", "1")
    assert code == 1
    assert "sum to 1.2" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


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
    # lam=0 row pins the exact value and leaves criterion columns empty
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[5] == ""


def test_speed_curve_two_depth_stability(capsys):
    code, out, _ = run(capsys, "speed-curve", "--lambda-grid", "0:1.17:0.39",
                       "--depth", "4", "--samples", "200", "--tuples", "2000",
                       "--seed", "4")
    assert code == 0
    assert "monotonicity_depth_4=" in out
    assert "monotonicity_depth_7=" in out


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
])
def test_curve_bad_counts_exit_before_any_output(capsys, flags):
    code, out, err = run(capsys, "speed-curve", "--depth", "3", "--samples", "50",
                         "--tuples", "500", *flags)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


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
    code, _, err = run(capsys, *BETA_SMALL, "--depth", "3")
    assert code == 2
    assert err.startswith("error: ") and "round cap" in err


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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pinned_outputs_are_byte_identical(capsys, tmp_path):
    # digests of pinned-seed outputs recorded before the breadth-first tree
    # layout; a refactor that changes any digit of them changes results
    code, out, _ = run(capsys, "verify", "--suite", "oracles", "--seed", "7")
    assert code == 0
    assert _sha256(out.encode()) == (
        "d40f6d96529d918478eb0bdf0b3cf0094b5435844864b892b58bfd4a02cd3593")
    tree_path = tmp_path / "tree.json"
    code, out, _ = run(capsys, "beta", "--lambda-grid", "0.25:1.5:0.25",
                       "--depth", "6", "--trials", "500", "--seed", "7",
                       "--dump-tree", str(tree_path))
    assert code == 0
    assert _sha256(out.encode()) == (
        "254fe9a689368fd87c361572a19ddc789e9ea850f0cf426ea5c0bf7fb4ddc33a")
    assert _sha256(tree_path.read_bytes()) == (
        "35081d9e7e5856332b37d4b60057e5f524cc97aa4781659ecd40a16bc86b03d6")


def test_pinned_pool_outputs_are_byte_identical(capsys, tmp_path):
    # digests recorded before identical subtrees were merged in the forest
    # recursion; the curve and the pool file are what that recursion feeds
    curve_path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "speed-curve", "--depth", "6", "--samples", "300",
                       "--tuples", "5000", "--seed", "7", "--out", str(curve_path))
    assert code == 0
    assert _sha256(out.encode()) == (
        "7a17af62f4b7d98f8521609e37dba1f5dddfbeab87bb6aad94607033dbae6d46")
    assert _sha256(curve_path.read_bytes()) == (
        "ab2fbda8282d1e118c9d3f16d7b75b63906f3ac8399849649278e68bd7ccdaa7")
    pool_path = tmp_path / "pool.csv"
    code, _, _ = run(capsys, "beta", "--depth", "6", "--samples", "2000",
                     "--seed", "7", "--pool-out", str(pool_path))
    assert code == 0
    assert _sha256(pool_path.read_bytes()) == (
        "3c50f00929c07d64d7564e948633c113894d3af7a3d1f9842037605d5f740974")


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
