"""Tests of the benchmark itself: ``python3 -m pytest bench``.

A tiny-size run of every workload must emit every metric of BENCHMARK.json
with its unit, and a deliberately corrupted task output must count as a
failed task.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc, result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.startswith(f"{m['name']} ") and line.split()[2] == m["unit"]
                   for line in proc.stdout.splitlines()), m["name"]
    if trace:
        assert "trace digests_match=True" in proc.stdout


def test_corrupted_output_raises_fail_frac(tmp_path):
    def corrupt(task, outputs):
        # the bias-0 row must read exactly speed 1
        outputs["task.csv"] = outputs["task.csv"].replace(b"\n0,1,", b"\n0,0.999999999,", 1)
        return outputs

    tasks = workloads.task_list("curve", 3, 2, "tiny")
    clean = [worker.run_checked(t, str(tmp_path)) for t in tasks]
    assert all(r.ok for r in clean)
    corrupted = [worker.run_checked(t, str(tmp_path), corrupt=corrupt) for t in tasks]
    fail_frac = sum(not r.ok for r in corrupted) / len(corrupted)
    assert fail_frac == 1.0
    assert "bias-0 row" in corrupted[0].reason


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
