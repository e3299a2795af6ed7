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
]


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
