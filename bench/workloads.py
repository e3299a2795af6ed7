"""The three benchmark workloads: their tasks, how a task runs, and the
checks of every task's output against exact anchors.

Each task drives the package through ``gwspeed.cli.run_cli`` or a public
library function, with ``--threads 1``. A task's output bytes are its
captured stdout followed by the files it wrote, in a fixed order; their
sha256 digest tells a bit-identical change from one that consumes random
streams differently.

Deterministic anchors are checked per task. Monte Carlo anchors are checked
once per run and kind of task, on the mean deviation of all that kind's tasks
against the standard error of that mean, at the same 4-sigma gate that
``gwspeed verify`` uses. Checking the pooled deviation keeps the chance of a
false alarm per run at the gate's nominal rate however many tasks a run
makes, and it still fails a run in which one task is far off. A failed pooled
check fails every task that fed it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import gwspeed.beta
import gwspeed.cli
import gwspeed.offspring
import gwspeed.tree
import gwspeed.walker

WORKLOADS = ("curve", "walk", "oracles")
DEMO = "2:0.5,3:0.5"
BINARY = "2:1"
MC_GATE = 4.0
BETA_GRID = "0.25:1.5:0.25"

# Task sizes: "full" is what the benchmark measures, "tiny" is the warm-up
# task and the smoke test.
SIZES = {
    "full": {
        "curve": {"depth": 8, "samples": 800, "tuples": 50000},
        "sim_fresh": {"steps": 30000, "replicas": 8},
        "sim_revisit": {"steps": 60000, "replicas": 8},
        "sim_T": {"steps": 50000, "replicas": 8},
        "sim_T_star": {"steps": 50000, "replicas": 8},
        "hit_annealed": {"level": 10, "trials": 4000},
        "beta": {"depth": 10, "trials": 4000},
        "verify": {},
    },
    "tiny": {
        "curve": {"depth": 3, "samples": 64, "tuples": 2000},
        "sim_fresh": {"steps": 2000, "replicas": 16},
        "sim_revisit": {"steps": 2000, "replicas": 16},
        "sim_T": {"steps": 2000, "replicas": 16},
        "sim_T_star": {"steps": 2000, "replicas": 16},
        "hit_annealed": {"level": 4, "trials": 400},
        "beta": {"depth": 4, "trials": 400},
        "verify": {},
    },
}

# The kinds of task in one round of each workload. ``oracles`` runs one
# ``verify`` per forty ``beta`` tasks: the verify suite carries its own
# 4-sigma gates, and one beta task is one random tree whose size varies by
# about a third from seed to seed, so a run needs many of them to be steady.
ROUNDS = {
    "full": {
        "curve": ("curve",),
        "walk": ("sim_fresh", "sim_revisit", "sim_T", "sim_T_star", "hit_annealed"),
        "oracles": ("verify",) + ("beta",) * 40,
    },
    "tiny": {
        "curve": ("curve",),
        "walk": ("sim_fresh", "sim_revisit", "sim_T", "sim_T_star", "hit_annealed"),
        "oracles": ("verify", "beta", "beta"),
    },
}

# (pmf, bias, graph) of the walk tasks. sim_fresh mostly steps onto fresh
# vertices (tree growth); sim_revisit mostly steps back onto known ones.
_SIMULATE = {
    "sim_fresh": (BINARY, 0.25, "T"),
    "sim_revisit": (BINARY, 1.5, "T"),
    "sim_T": (DEMO, 1.0, "T"),
    "sim_T_star": (DEMO, 1.0, "T_star"),
}
_HIT_BIAS = 1.0


@dataclass(frozen=True)
class Task:
    kind: str
    seed: int
    size: str = "full"

    @property
    def params(self) -> dict:
        return SIZES[self.size][self.kind]


@dataclass
class TaskResult:
    kind: str
    seed: int
    wall_s: float
    cpu_s: float
    rc: int
    digest: str
    output_bytes: int
    ok: bool = True
    reason: str = ""
    mc: list = field(default_factory=list)  # (anchor name, deviation, stderr)


def task_list(workload: str, seed: int, rounds: int, size: str = "full") -> list[Task]:
    """Tasks of ``rounds`` rounds; task seeds come from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [Task(kind, rng.randrange(1, 2**31), size)
            for _ in range(rounds) for kind in ROUNDS[size][workload]]


def warmup_tasks(workload: str) -> list[Task]:
    """One tiny task of every kind the workload runs."""
    kinds = dict.fromkeys(ROUNDS["full"][workload])
    return [Task(kind, 1, "tiny") for kind in kinds]


# running ------------------------------------------------------------------


def _cli_argv(task: Task, out: str) -> tuple[list[str], list[str]]:
    """(argv, files the command writes, in digest order)."""
    p = task.params
    seed = str(task.seed)
    if task.kind == "curve":
        argv = ["speed-curve", "--pmf", DEMO, "--depth", str(p["depth"]),
                "--samples", str(p["samples"]), "--tuples", str(p["tuples"]),
                "--seed", seed, "--out", out + ".csv"]
        return argv, [out + ".csv"]
    if task.kind in _SIMULATE:
        pmf, lam, graph = _SIMULATE[task.kind]
        argv = ["simulate", "--pmf", pmf, "--lambda", str(lam), "--graph", graph,
                "--steps", str(p["steps"]), "--replicas", str(p["replicas"]),
                "--seed", seed, "--out", out + ".csv"]
        return argv, [out + ".csv"]
    if task.kind == "beta":
        argv = ["beta", "--pmf", DEMO, "--lambda-grid", BETA_GRID,
                "--depth", str(p["depth"]), "--trials", str(p["trials"]),
                "--seed", seed, "--dump-tree", out + ".json"]
        return argv, [out + ".json"]
    if task.kind == "verify":
        return ["verify", "--suite", "oracles", "--pmf", DEMO, "--seed", seed], []
    raise ValueError(f"no command for task kind {task.kind!r}")


def run_task(task: Task, workdir: str, corrupt=None) -> tuple[TaskResult, dict]:
    """Run one task and time it. Returns the result, not yet checked, and the
    task's outputs by name ("stdout" and each file's base name)."""
    stdout = io.StringIO()
    files: list[str] = []
    reason = ""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if task.kind == "hit_annealed":
            p = task.params
            dist = gwspeed.offspring.parse_pmf_text(BINARY)
            est = gwspeed.walker.hitting_beta_mc(dist, _HIT_BIAS, p["level"],
                                                 p["trials"], task.seed, mode="annealed")
            stdout.write(f"estimate={est.estimate!r} stderr={est.stderr!r} "
                         f"successes={est.successes} trials={est.trials}\n")
            rc = 0
        else:
            argv, files = _cli_argv(task, os.path.join(workdir, "task"))
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = gwspeed.cli.run_cli(argv + ["--threads", "1"])
    except Exception as exc:  # a task that raises is a failed task, not a crash
        rc, reason = -1, f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outputs = {"stdout": stdout.getvalue().encode()}
    for path in files:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[os.path.basename(path)] = fh.read()
            os.remove(path)
    if corrupt is not None:
        outputs = corrupt(task, outputs)
    digest = hashlib.sha256()
    for blob in outputs.values():
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    result = TaskResult(task.kind, task.seed, wall, cpu, rc, digest.hexdigest(),
                        sum(len(b) for b in outputs.values()), reason=reason)
    return result, outputs


# checking -----------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _csv_rows(blob: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(blob.decode())))


def _stdout_fields(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def unit_bias_speed(pmf: str) -> float:
    """sum p_k (k-1)/(k+1), the exact speed at unit bias (Lyons, Pemantle and
    Peres 1996), from the pmf text."""
    total = Fraction(0)
    for part in pmf.split(","):
        k, p = part.split(":")
        total += Fraction(p) * Fraction(int(k) - 1, int(k) + 1)
    return float(total)


def regular_speed_mean(d: int, lam: float, steps: int) -> float:
    """Expected depth/steps of the walk from the root of the d-ary tree.

    The depth is a birth-death chain that goes one level deeper with
    probability d/(d+lam) and is reflected at the root, so its drift is
    v = (d-lam)/(d+lam) except at the root, where the step is +1 and adds
    1 - v. The walk returns to the root with probability lam/d each time, so
    it visits the root 1/(1-lam/d) times in expectation, and
    E[depth] = v*steps + (1-v)/(1-lam/d) up to a term that decays
    exponentially in steps (lam < d).
    """
    v = (d - lam) / (d + lam)
    return v + (1.0 - v) / ((1.0 - lam / d) * steps)


@lru_cache(maxsize=None)
def binary_escape(level: int, lam: float) -> float:
    """beta_level at the root of the binary tree, by the package's exact
    recursion on the (deterministic) truncated binary tree."""
    dist = gwspeed.offspring.parse_pmf_text(BINARY)
    tree = gwspeed.tree.sample_truncated_tree(dist, level, 0)
    return gwspeed.beta.compute_beta(tree, level, lam).root_beta


def _binomial_stderr(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def _check_curve(task, out, res):
    verdicts = [line for line in out["stdout"].decode().splitlines()
                if line.startswith("monotonicity_depth_")]
    depth = task.params["depth"]
    _require([v.split("=")[0] for v in verdicts]
             == [f"monotonicity_depth_{depth}", f"monotonicity_depth_{depth + 3}"],
             f"expected verdicts at depths {depth} and {depth + 3}, got {verdicts}")
    for v in verdicts:
        _require(v.split("=", 1)[1].startswith("strictly-decreasing "),
                 f"verdict not strictly-decreasing: {v}")
    rows = _csv_rows(out["task.csv"])
    _require(len(rows) == 14, f"expected the 14-point grid, got {len(rows)} rows")
    _require(rows[0]["lambda"] == "0" and rows[0]["speed_formula"] == "1",
             f"bias-0 row is not speed 1: {rows[0]}")


def _check_simulate(task, out, res):
    p = task.params
    fields = _stdout_fields(out["stdout"].decode())
    rows = _csv_rows(out["task.csv"])
    _require(fields.get("replicas") == str(p["replicas"])
             and fields.get("steps") == str(p["steps"])
             and len(rows) == p["replicas"], "replica count or step count differs")
    for row in rows:
        _require(float(row["speed"]) == float(f"{int(row['final_depth']) / p['steps']:.9g}"),
                 f"replica speed is not final_depth/steps: {row}")
    pmf, lam, _ = _SIMULATE[task.kind]
    if pmf == BINARY:
        anchor = regular_speed_mean(2, lam, p["steps"])
    else:
        anchor = unit_bias_speed(pmf)
    res.mc.append((task.kind, float(fields["speed"]) - anchor, float(fields["stderr"])))


def _check_hit(task, out, res):
    p = task.params
    fields = dict(item.split("=") for item in out["stdout"].decode().split())
    _require(int(fields["trials"]) == p["trials"], "trial count differs")
    exact = binary_escape(p["level"], _HIT_BIAS)
    res.mc.append((task.kind, float(fields["estimate"]) - exact,
                   _binomial_stderr(exact, p["trials"])))


def _check_beta(task, out, res):
    rows = _csv_rows(out["stdout"])
    _require(len(rows) == 6, f"expected 6 grid rows, got {len(rows)}")
    for row in rows:
        _require(row["beta_recursion"] == row["beta_conductance"],
                 f"recursion differs from conductance at printed precision: {row}")
        exact = float(row["beta_recursion"])
        res.mc.append((f"beta@{row['lambda']}", float(row["beta_mc"]) - exact,
                       _binomial_stderr(exact, task.params["trials"])))
    tree = json.loads(out["task.json"])
    depth = task.params["depth"]
    _require(tree["0"]["depth"] == 0
             and max(v["depth"] for v in tree.values()) == depth,
             "tree dump does not span depths 0..depth")


def _check_verify(task, out, res):
    lines = out["stdout"].decode().splitlines()
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    _require(m is not None and m.group(1) == m.group(2)
             and not any(line.startswith("FAIL") for line in lines),
             f"verify did not pass every check: {lines[-1] if lines else ''}")


_CHECKS = {"curve": _check_curve, "sim_fresh": _check_simulate,
           "sim_revisit": _check_simulate, "sim_T": _check_simulate,
           "sim_T_star": _check_simulate, "hit_annealed": _check_hit,
           "beta": _check_beta, "verify": _check_verify}


def check_task(task: Task, outputs: dict, res: TaskResult) -> None:
    """Apply the per-task checks; record Monte Carlo deviations for the
    pooled check."""
    try:
        _require(res.rc == 0, res.reason or f"exit code {res.rc}")
        _CHECKS[task.kind](task, outputs, res)
    except (CheckFailed, KeyError, ValueError, IndexError) as exc:
        res.ok = False
        res.reason = f"{type(exc).__name__}: {exc}"


def pooled_checks(results: list[TaskResult]) -> list[dict]:
    """4-sigma check of the mean deviation per Monte Carlo anchor. Marks every
    task that fed a failed check as failed."""
    groups: dict[str, list] = {}
    for i, res in enumerate(results):
        for name, dev, se in res.mc:
            groups.setdefault(name, []).append((i, dev, se))
    report = []
    for name, items in sorted(groups.items()):
        total_dev = sum(dev for _, dev, _ in items)
        total_se = math.sqrt(sum(se * se for _, _, se in items))
        z = total_dev / total_se if total_se > 0 else (0.0 if total_dev == 0 else math.inf)
        ok = abs(z) < MC_GATE
        report.append({"anchor": name, "tasks": len(items), "z": z, "ok": ok})
        if not ok:
            for i, _, _ in items:
                results[i].ok = False
                results[i].reason = results[i].reason or f"{name}: |z|={abs(z):.3g} >= {MC_GATE}"
    return report
