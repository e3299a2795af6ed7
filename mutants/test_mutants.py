"""Mutation checks: every listed mutant must be killed by its own tests.

    python -m pytest mutants

A mutant is one exact edit of one source file, and the tests expected to kill
it. For each mutant the repository is copied to a temporary directory, the
edit is applied there, and only that mutant's tests run, against the copy.
The check fails when the old text does not occur exactly once in the file
(the mutant no longer matches the code), or when the tests do not fail (the
mutant survived). A mutant marked ``digest_only`` is killed only by a
pinned-output test: that shows that bytes moved, not that a test checks the
logic.

Each check runs its tests in a fresh interpreter, stopping at the first
failure. The module is not part of the tier-1 suite (``testpaths`` is
``tests``).
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".benchmarks", ".work", "mutants")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    digest_only: bool = False


MUTANTS = [
    Mutant("inequality8-drops-dbeta-term", "src/gwspeed/speed.py",
           "sc = sb + (1.0 - lam) * tp.sums(tp.pool.dbeta)", "sc = sb",
           ("tests/test_speed.py::test_inequality8_exact_binary_half_bias",)),
    Mutant("level-step-scales-dbeta", "src/gwspeed/beta.py",
           "return s / denom, (lam * sp - s) / (denom * denom)",
           "return s / denom, 1.001 * (lam * sp - s) / (denom * denom)",
           ("tests/test_acceptance.py::test_criterion_4_derivative_correctness",)),
    Mutant("threshold-times-0.9", "src/gwspeed/offspring.py",
           "return self.m1 / (1.0 + math.sqrt(1.0 - 1.0 / self.m1))",
           "return 0.9 * self.m1 / (1.0 + math.sqrt(1.0 - 1.0 / self.m1))",
           ("tests/test_acceptance.py::test_criterion_7_strict_decrease_certificate",)),
    Mutant("mc-gate-4-to-40", "src/gwspeed/verify.py",
           "_MC_GATE = 4.0", "_MC_GATE = 40.0",
           ("tests/test_cli.py::test_pinned_outputs_are_byte_identical",),
           digest_only=True),
    Mutant("decreasing-tolerates-increase", "src/gwspeed/speed.py",
           "decreasing=diff > 0.0,", "decreasing=diff > -1e-3,",
           ("tests/test_speed.py::test_equal_speeds_are_not_a_decrease",)),
    Mutant("verify-margin-gate-dropped", "src/gwspeed/verify.py",
           "ok = all(m > 3.0 * s for _, m, s in margins)",
           "ok = all(m > 0.0 * s for _, m, s in margins)",
           ("tests/test_cli.py::test_verify_criterion_margin_under_three_stderr_fails",)),
    Mutant("chain-hits-failure-one-below", "src/gwspeed/walker.py",
           "(path < 0)", "(path < -1)",
           ("tests/test_walker.py::test_chain_hits_match_a_scalar_chain",)),
    Mutant("chain-hits-success-one-past", "src/gwspeed/walker.py",
           "(path == n)", "(path == n + 1)",
           ("tests/test_walker.py::test_chain_hits_match_a_scalar_chain",)),
    Mutant("verify-hitting-mc-gate-dropped", "src/gwspeed/verify.py",
           'CheckResult(worst_z < _MC_GATE, "oracles/hitting-mc"',
           'CheckResult(True, "oracles/hitting-mc"',
           ("tests/test_cli.py::test_hitting_mc_far_from_the_recursion_is_a_failed_check",)),
    Mutant("envelope-back-to-its-limit", "src/gwspeed/beta.py",
           "_forest_root_values(_regular_levels(m2, pool.level), None, lam, 1)[0][0]",
           "1.0 - lam / m2",
           ("tests/test_beta.py::test_check_bounds_regular_pools_sit_on_the_envelope",)),
    Mutant("envelope-one-level-deeper", "src/gwspeed/beta.py",
           "_regular_levels(m2, pool.level)", "_regular_levels(m2, pool.level + 1)",
           ("tests/test_beta.py::test_check_bounds_counts_a_sample_just_past_the_regular_envelope",)),
    Mutant("regular-levels-one-level-deeper", "src/gwspeed/beta.py",
           "for level in range(n)]", "for level in range(n + 1)]",
           ("tests/test_beta.py::test_one_point_pools_equal_the_forest_path_bit_for_bit",)),
    Mutant("derivative-upper-bound-dropped", "src/gwspeed/beta.py",
           "((neg <= 0.0) | (neg > cap))", "(neg <= 0.0)",
           ("tests/test_beta.py::test_check_bounds_counts_a_derivative_one_ulp_past_its_bound",)),
    Mutant("denominator-floor-slack", "src/gwspeed/beta.py",
           "threshold = m1 - lam / m1", "threshold = m1 - lam / m1 - 1e-3",
           ("tests/test_beta.py::"
            "test_check_bounds_counts_a_denominator_floor_one_ulp_under_its_threshold",)),
    Mutant("regular-reduction-reads-in-place", "src/gwspeed/network.py",
           "np.add.reduceat(inv if index is None else inv[index], off)",
           "np.add.reduceat(inv, off)",
           ("tests/test_network.py::test_regular_conductance_equals_the_tree_reduction",)),
    Mutant("verify-bounds-pool-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(rep.ok, "bounds/pool"', 'CheckResult(True, "bounds/pool"',
           ("tests/test_cli.py::test_bounds_pool_violation_is_a_failed_check",)),
    Mutant("verify-tuple-denominator-verdict-dropped", "src/gwspeed/verify.py",
           'dmin >= thr, "bounds/tuple-denominator"', 'True, "bounds/tuple-denominator"',
           ("tests/test_cli.py::test_bounds_tuple_denominator_under_its_floor_is_a_failed_check",)),
    Mutant("return-gf-sign-flip", "src/gwspeed/network.py",
           "(1.0 + math.sqrt(", "(1.0 - math.sqrt(",
           ("tests/test_cli.py::test_regular_return_gf_neither_overflows_nor_cancels",)),
    Mutant("stderr-divides-by-m-squared", "src/gwspeed/speed.py",
           "((m - 1) * m)", "(m * m)",
           ("tests/test_speed.py::test_delta_kernel_ratio_stderr_matches_closed_form",)),
    Mutant("pair-influences-added", "src/gwspeed/speed.py",
           "_stderr(prev_psi - psi)", "_stderr(prev_psi + psi)",
           ("tests/test_speed.py::test_curve_crn_pairing_beats_independent_runs",)),
    Mutant("depth-0-derivative-guard-inverted", "src/gwspeed/beta.py",
           "if pool.level == 0:", "if pool.level != 0:",
           ("tests/test_beta.py::test_check_bounds_skips_the_derivative_of_a_depth_0_pool",)),
    Mutant("certified-end-doubled", "src/gwspeed/speed.py",
           "lam <= lam_star + _CERTIFIED_SLACK", "lam <= 2 * lam_star + _CERTIFIED_SLACK",
           ("tests/test_speed.py::test_an_increase_just_past_the_certified_end_is_not_judged",)),
    Mutant("certified-end-halved", "src/gwspeed/speed.py",
           "lam <= lam_star + _CERTIFIED_SLACK", "lam <= 0.5 * lam_star + _CERTIFIED_SLACK",
           ("tests/test_speed.py::test_an_increase_ending_at_the_certified_end_is_a_violation",)),
    Mutant("no-eligible-pair-is-a-decrease", "src/gwspeed/speed.py",
           "if eligible else None", "if eligible else True",
           ("tests/test_speed.py::test_a_grid_past_the_certified_end_gives_no_verdict",)),
    Mutant("inequality8-holds-at-equality", "src/gwspeed/speed.py",
           "holds=lhs < rhs", "holds=lhs <= rhs",
           ("tests/test_speed.py::test_inequality8_does_not_hold_at_equality",)),
    Mutant("lemma0-z-divided-by-10", "src/gwspeed/walker.py",
           "diff / denom if denom > 0", "diff / denom / 10 if denom > 0",
           ("tests/test_walker.py::test_lemma0_z_is_the_mean_gap_over_the_joint_stderr",)),
    Mutant("verify-beta-conductance-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(worst_pair <= 1e-12, "oracles/beta-vs-conductance"',
           'CheckResult(True, "oracles/beta-vs-conductance"',
           ("tests/test_cli.py::test_beta_conductance_disagreement_is_a_failed_check",)),
    Mutant("verify-derivative-path-sum-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(worst_deriv <= 1e-12, "oracles/derivative-vs-path-sum"',
           'CheckResult(True, "oracles/derivative-vs-path-sum"',
           ("tests/test_cli.py::test_derivative_path_sum_disagreement_is_a_failed_check",)),
    Mutant("verify-finite-difference-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(worst_fd <= 1e-5, "oracles/finite-difference"',
           'CheckResult(True, "oracles/finite-difference"',
           ("tests/test_cli.py::test_finite_difference_disagreement_is_a_failed_check",)),
    Mutant("verify-return-gf-quadratic-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(worst_quad <= 1e-12, "oracles/return-gf-quadratic"',
           'CheckResult(True, "oracles/return-gf-quadratic"',
           ("tests/test_cli.py::test_return_gf_off_its_quadratic_is_a_failed_check",)),
    Mutant("verify-gf-escape-complement-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(comp == 0.0, "oracles/gf-escape-complement"',
           'CheckResult(True, "oracles/gf-escape-complement"',
           ("tests/test_cli.py::test_escape_off_the_gf_complement_is_a_failed_check",)),
    Mutant("verify-sandwich-verdict-dropped", "src/gwspeed/verify.py",
           'CheckResult(sandwich_ok, "oracles/conductance-sandwich"',
           'CheckResult(True, "oracles/conductance-sandwich"',
           ("tests/test_cli.py::test_sandwich_violation_is_a_failed_check",)),
    Mutant("verify-lemma0-verdict-dropped", "src/gwspeed/verify.py",
           'z < _MC_GATE, "lemma0/speed-match"', 'True, "lemma0/speed-match"',
           ("tests/test_cli.py::test_lemma0_speed_mismatch_at_the_gate_is_a_failed_check",)),
    Mutant("verify-strict-decrease-verdict-dropped", "src/gwspeed/verify.py",
           'bool(rep.strictly_decreasing), "monotonicity/strict-decrease"',
           'True, "monotonicity/strict-decrease"',
           ("tests/test_cli.py::test_a_curve_that_is_not_strictly_decreasing_is_a_failed_check",)),
    Mutant("verify-criterion-margin-verdict-dropped", "src/gwspeed/verify.py",
           'ok, "monotonicity/criterion-margin"', 'True, "monotonicity/criterion-margin"',
           ("tests/test_cli.py::test_verify_criterion_margin_under_three_stderr_fails",)),
]

# verify lines that report without a verdict, so no mutant can force them
_UNGATED_CHECKS = {"monotonicity/skipped", "monotonicity/unit-bias-reference"}


def _apply(root: Path, mutant: Mutant) -> None:
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    assert found == 1, f"old text occurs {found} times in {mutant.path}, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=lambda m: m.name + "-digest-only" * m.digest_only)
def test_mutant_is_killed(mutant, tmp_path):
    copy = tmp_path / "repo"
    shutil.copytree(ROOT, copy, ignore=_SKIP)
    _apply(copy, mutant)
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *mutant.tests], cwd=copy, env=env, capture_output=True,
                          text=True, timeout=600)
    # exit 1: tests ran and failed; 0 is a survivor, and 2-5 (collection or
    # usage errors, no tests selected) say nothing about the mutant
    assert proc.returncode == 1, f"not killed (pytest exit {proc.returncode}):\n{proc.stdout}"


def test_every_verify_verdict_has_a_mutant():
    # a verdict is covered when some mutant edits text inside its CheckResult
    # call; only the lines in _UNGATED_CHECKS may pass the literal True
    path = "src/gwspeed/verify.py"
    source = (ROOT / path).read_text(encoding="utf-8")
    edits = [m.old for m in MUTANTS if m.path == path]
    ungated, uncovered = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult":
            verdict, name = node.args[:2]
            if isinstance(verdict, ast.Constant) and verdict.value is True:
                ungated.add(name.value)
            elif not any(old in ast.get_source_segment(source, node) for old in edits):
                uncovered.append(name.value)
    assert ungated == _UNGATED_CHECKS
    assert uncovered == []
