"""gwspeed benchmark: run one workload and report its metrics.

    python3 bench/run.py --workload curve|walk|oracles --seed N --seconds S
                         --trace 0|1 [--tiny]

Run it from anywhere; it measures the package in ``src/`` next to this
directory and refuses to run (exit 2, no result) when that is missing.

The workload runs in its own process (``bench/worker.py``): one caller, a
closed loop, ``--threads 1`` and BLAS pinned to one thread. A run is a fixed
number of rounds of the workload's tasks, set so that the run takes about
``--seconds`` at the commit that defined the benchmark; a faster program
finishes sooner rather than doing more work. Task seeds come from ``--seed``.

Set-up time is measured nine times per run, each in a fresh process, from
process start to the end of one untimed warm-up task of every kind: in the
measured process and in four set-up-only processes before it and four after.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``bench/tracer.py``. Lines before it
give each metric with its unit, every task's output digest, the Monte Carlo
anchor checks and the provenance. Only this run's own processes are
measured: no machine-wide tracing, no cache drops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Wall seconds of one round of each workload on the 2-core Xeon sandbox the
# benchmark was defined on; they turn --seconds into a fixed round count.
NOMINAL_ROUND_S = {"curve": 2.9, "walk": 2.45, "oracles": 13.8}
# Set-up-only processes per run, half before and half after the measured one,
# so that the set-up median spans the run as the task times do.
SETUP_PROBES = 8
SPAWNED_AT = "GWSPEED_BENCH_SPAWNED_AT"
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10

E2E_METRICS = {
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class WorkerError(Exception):
    pass


def spawn(worker_args: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run one workload process to its end; returns its set-up time, which it
    measures from the spawn time passed in its environment, and its stdout
    lines."""
    env = {**env, SPAWNED_AT: repr(time.monotonic())}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *worker_args],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("workload process did not end before the time limit") from None
    lines = proc.stdout.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise WorkerError(f"workload process exited with code {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return float(ready[0].split()[1]), lines


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least
    TAIL_BEYOND tasks beyond it; the maximum when there are too few tasks."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def provenance(args, argv: list[str], numpy_version: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": commit or "unknown (not a git checkout)",
        "workload": args.workload, "seed": args.seed, "argv": argv,
        "measured": "only this benchmark's own processes (wall clock, "
                    "process_time and getrusage of the workload process); "
                    "no machine-wide tracing, no cache drops",
    }


def run(args) -> tuple[dict, list[float]]:
    """Spawn the set-up probes and the measured worker; returns the worker's
    result and the set-up samples."""
    rounds = 1 if args.tiny else max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)  # the traced pass repeats the untraced one
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workroot = BENCH / ".work"
    workroot.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--workdir", str(workroot)]
    if args.tiny:
        common.append("--tiny")
    deadline = time.monotonic() + TIME_LIMIT_S
    probe = [*common, "--seed", "0", "--setup-only"]
    try:
        setup = [spawn(probe, env, deadline)[0] for _ in range(SETUP_PROBES // 2)]
        ready, lines = spawn([*common, "--seed", str(args.seed), "--rounds", str(rounds),
                              "--trace", str(args.trace)], env, deadline)
        setup.append(ready)
        setup += [spawn(probe, env, deadline)[0] for _ in range(SETUP_PROBES // 2)]
    finally:
        try:
            workroot.rmdir()
        except OSError:
            pass
    line = next((line for line in lines if line.startswith("RESULT ")), None)
    if line is None:
        raise WorkerError("workload process printed no RESULT line")
    return json.loads(line[len("RESULT "):]), setup


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(NOMINAL_ROUND_S), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one round of tiny tasks (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "gwspeed" / "__init__.py").is_file():
        print(f"error: no gwspeed package under {SRC}", file=sys.stderr)
        return 2
    try:
        result, setup = run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tasks = result["tasks"]
    timed = [t for t in tasks if t["pass"] == "untraced"]
    failed = sum(not t["ok"] for t in tasks)
    latencies = [t["wall_s"] for t in timed]
    tail, tail_pct = tail_latency(latencies)
    e2e = {
        "wall_s": sum(latencies),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "cpu_s": sum(t["cpu_s"] for t in timed),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    notes = {"task_tail_s": f"p{tail_pct:.1f} of {len(latencies)} tasks",
             "setup_s": f"median of {len(setup)}: "
                        + " ".join(f"{s:.4f}" for s in setup)}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={len(timed)}")
    for name, unit in E2E_METRICS.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {e2e[name]!r} {unit}{note}")
    print(f"fail_frac {failed / len(tasks)!r} ratio  ({failed}/{len(tasks)} tasks)")
    for check in result["pooled"]:
        print(f"mc_anchor {check['anchor']} tasks={check['tasks']} "
              f"z={check['z']:.3f} {'ok' if check['ok'] else 'FAILED'}")
    for i, t in enumerate(tasks):
        status = "ok" if t["ok"] else f"FAILED {t['reason']}"
        print(f"task {i} {t['pass']} {t['kind']} seed={t['seed']} "
              f"wall_s={t['wall_s']:.4f} sha256={t['digest']} {status}")
    run_digest = hashlib.sha256("".join(t["digest"] for t in timed).encode()).hexdigest()
    print(f"run_digest {run_digest}  (sha256 of the untraced task digests in order)")
    if args.trace:
        layers = result["trace"]["layers"]
        print(f"trace digests_match={result['trace']['digests_match']}")
        for name, unit in LAYER_METRICS.items():
            print(f"{name} {layers[name]!r} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_METRICS.items()}
    print("provenance " + json.dumps(provenance(args, [sys.executable, __file__, *argv],
                                                 result["numpy"])))
    print(json.dumps({"correct": failed == 0, "attempted": len(tasks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
