"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``). Statistical
checks run at pinned seeds, so the whole module is deterministic; the gates
are the stated multiples of the standard errors.

Run with: pytest tests/test_acceptance.py -v
"""

import math
import subprocess
import sys

import numpy as np

from gwspeed import (
    attach_star_root,
    beta_derivative_path_sum,
    check_bounds,
    compute_beta,
    build_conductances,
    effective_conductance_to_level,
    hitting_beta_mc,
    lemma0_compare,
    make_distribution,
    make_tuple_pool,
    regular_return_gf,
    sample_pool,
    sample_pools_shared_trees,
    sample_truncated_tree,
    simulate_speed,
    speed_curve,
    speed_exact_lambda1,
    speed_formula_mc,
)

SEED = 20250808
TRIPLE_ORACLE_SEED = 2002  # one fixed draw of the 900 three-sigma checks

BINARY = make_distribution({2: 1.0})
TERNARY = make_distribution({3: 1.0})
MIX = make_distribution({2: 0.5, 3: 0.5})
LEAFY = make_distribution({0: 0.25, 2: 0.75})


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_regular_tree_speed():
    """simulate_speed matches (d-lam)/(d+lam) on regular trees."""
    worst = 0.0
    ok = True
    for d, dist in ((2, BINARY), (3, TERNARY)):
        for lam in (0.0, 0.5, 1.0, 1.5):
            est = simulate_speed(dist, lam, 100_000, 32, seed=SEED)
            target = (d - lam) / (d + lam)
            err = abs(est.mean - target)
            ok &= err <= 0.01 and (err <= 3 * est.stderr or err == 0.0)
            worst = max(worst, err)
    _report("1 regular-tree speed", ok,
            f"8 combos, worst abs err {worst:.2e}, gates 3*stderr and 0.01")


def test_criterion_2_triple_oracle_beta():
    """Recursion, network reduction and hitting MC agree on 100 trees."""
    worst_rel = 0.0
    worst_z = 0.0
    for i in range(100):
        tree = sample_truncated_tree(MIX, 8, seed=TRIPLE_ORACLE_SEED + i)
        attach_star_root(tree)
        for n in (1, 4, 8):
            for j, lam in enumerate((0.25, 1.0, 1.5)):
                beta = compute_beta(tree, n, lam).root_beta
                cond = effective_conductance_to_level(
                    build_conductances(tree, lam), n)
                worst_rel = max(worst_rel, abs(beta - cond) / beta)
                est = hitting_beta_mc(
                    tree, lam, n, 10_000,
                    seed=TRIPLE_ORACLE_SEED * 1000 + i * 9 + n * 3 + j)
                sigma = math.sqrt(beta * (1.0 - beta) / 10_000)
                z = abs(est.estimate - beta) / sigma if sigma else 0.0
                worst_z = max(worst_z, z)
    ok = worst_rel <= 1e-12 and worst_z < 3.0
    _report("2 triple-oracle beta", ok,
            f"900 combos, worst rel {worst_rel:.2e} (gate 1e-12), "
            f"worst MC z {worst_z:.2f} (gate 3)")


def test_criterion_3_regular_tree_closed_forms():
    """Hitting MC reaches the closed-form escape probability; the return
    generating function satisfies its quadratic."""
    est = hitting_beta_mc(BINARY, 1.0, 20, 10_000, seed=SEED)
    sigma = math.sqrt(0.5 * 0.5 / 10_000)
    z = abs(est.estimate - 0.5) / sigma
    worst = 0.0
    for d in (2, 3):
        for lam in np.linspace(0.0, 4.0, 10):
            for z_arg in np.linspace(0.1, 1.0, 5):
                u = regular_return_gf(d, float(lam), float(z_arg))
                resid = abs(u - lam * z_arg / (lam + d)
                            - d * z_arg * u * u / (lam + d))
                worst = max(worst, resid)
    ok = z < 3.0 and worst <= 1e-12
    _report("3 regular closed forms", ok,
            f"hit z {z:.2f} (gate 3), quadratic resid {worst:.2e} on 100-point grid")


def test_criterion_4_derivative_correctness():
    """Local recursion equals the unrolled path sum; both match central
    finite differences on a fixed tree."""
    worst_rel = 0.0
    for i in range(30):
        tree = sample_truncated_tree(MIX, 6, seed=SEED + i)
        for lam in (0.25, 0.5, 1.0, 1.5):
            table = compute_beta(tree, 6, lam)
            ps = beta_derivative_path_sum(table)
            worst_rel = max(worst_rel, abs(table.root_dbeta - ps) / abs(ps))
    tree = sample_truncated_tree(MIX, 10, seed=SEED)
    h = 1e-4
    worst_fd = 0.0
    for lam in (0.25, 0.5, 1.0, 1.5):
        table = compute_beta(tree, 10, lam)
        fd = (compute_beta(tree, 10, lam + h).root_beta
              - compute_beta(tree, 10, lam - h).root_beta) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - table.root_dbeta))
    ok = worst_rel <= 1e-12 and worst_fd < 1e-5
    _report("4 derivative correctness", ok,
            f"path-sum rel {worst_rel:.2e} (gate 1e-12), "
            f"finite-diff abs {worst_fd:.2e} (gate 1e-5)")


def test_criterion_5_sample_bounds():
    """Zero violations of the escape envelope, the derivative ratio bound
    and the tuple denominator floor over 1e4 tree-method samples."""
    lams = (0.25, 0.5, 1.0, 1.1)
    pools = sample_pools_shared_trees(MIX, lams, 12, 10_000, seed=SEED)
    ok = True
    details = []
    for pool in pools:
        rep = check_bounds(pool, MIX.m1, MIX.m2, pool.lam)
        tuples = make_tuple_pool(MIX, pool, 100_000, seed=SEED)
        dmin = float(tuples.denominators.min())
        floor = 2.0 - pool.lam / 2.0
        good = (rep.envelope_violations == 0 and rep.derivative_violations == 0
                and rep.denominator_violations == 0 and dmin >= floor)
        ok &= good
        details.append(f"lam={pool.lam:g}:{'ok' if good else 'VIOLATED'}")
    _report("5 bound certificates", ok,
            "10000 samples at depth 12, " + " ".join(details))


def test_criterion_6_unit_bias_speed():
    """Exact 5/12 at unit bias; the formula and the simulation both agree."""
    exact = speed_exact_lambda1(MIX)
    exact_ok = exact == 5 / 12
    pool = sample_pool(MIX, 1.0, 14, 100_000, seed=SEED, method="population")
    fs = speed_formula_mc(MIX, 1.0, pool, 100_000, seed=SEED)
    err_f = abs(fs.speed - 5 / 12)
    formula_ok = err_f <= 0.01 and err_f <= 3 * fs.stderr
    est = simulate_speed(MIX, 1.0, 100_000, 32, seed=SEED)
    err_s = abs(est.mean - 5 / 12)
    sim_ok = err_s <= 3 * est.stderr
    _report("6 unit-bias speed", exact_ok and formula_ok and sim_ok,
            f"exact={exact!r}, formula err {err_f:.2e} (3se={3*fs.stderr:.2e}), "
            f"sim err {err_s:.2e} (3se={3*est.stderr:.2e})")


def test_criterion_7_strict_decrease_certificate():
    """Strict decrease with common random numbers at depths 12 and 15 over
    the certified bias range, with criterion margins above 3 stderr."""
    grid = [round(0.09 * i, 10) for i in range(14)]  # 0, 0.09, ..., 1.17
    assert grid[-1] <= MIX.monotonicity_threshold()
    ok = True
    details = []
    for depth, samples in ((12, 1000), (15, 128)):
        curve = speed_curve(MIX, grid, depth, samples, 20_000, seed=SEED)
        rep = curve.report
        decreasing = rep.strictly_decreasing is True
        margins = [(p.ineq8_margin, p.ineq8_stderr)
                   for p in curve.points if p.lam > 0.0]
        margin_ok = all(m > 3 * s for m, s in margins)
        ok &= decreasing and margin_ok
        details.append(
            f"depth {depth}: decrease={decreasing} "
            f"min pair z={min(p.z for p in rep.pairs):.0f} "
            f"min margin/se={min(m / s for m, s in margins):.0f}")
    _report("7 strict decrease", ok, "; ".join(details))


def test_criterion_8_two_graph_speed_match():
    """The walk with and without the artificial root has the same speed."""
    worst = 0.0
    for dist, lam in ((BINARY, 1.0), (MIX, 0.5), (MIX, 1.0)):
        _, _, z = lemma0_compare(dist, lam, 100_000, 32, seed=SEED)
        worst = max(worst, z)
    _report("8 two-graph speed match", worst < 3.0,
            f"3 combos, worst z {worst:.2f} (gate 3)")


def test_criterion_9_extinction_probability():
    """Smallest fixed point of the generating function to 1e-10."""
    q = LEAFY.extinction_probability()
    err = abs(q - 1.0 / 3.0)
    _report("9 extinction probability", err < 1e-10,
            f"|q - 1/3| = {err:.2e} (gate 1e-10)")


def test_criterion_10_verify_determinism():
    """verify --suite all --seed 7 twice produces byte-identical reports."""
    cmd = [sys.executable, "-c",
           "from gwspeed.cli import run_cli; import sys; "
           "sys.exit(run_cli(['verify', '--suite', 'all', '--seed', '7']))"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout != b"")
    _report("10 verify determinism", ok,
            f"exit codes {first.returncode}/{second.returncode}, "
            f"{len(first.stdout)} bytes, byte-identical="
            f"{first.stdout == second.stdout}")
