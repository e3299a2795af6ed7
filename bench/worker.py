"""Workload process: one caller running one workload's tasks in a closed loop.

    python3 bench/worker.py --workload NAME --seed N --rounds K --trace 0|1
                            --workdir DIR [--tiny] [--setup-only]

It imports gwspeed, runs one tiny task of each kind as an untimed warm-up,
then prints ``READY <set-up seconds>``: the time since ``bench/run.py``
spawned it, as the ``time.monotonic()`` reading that run.py passes in the
environment variable ``GWSPEED_BENCH_SPAWNED_AT``. That clock is system-wide,
so the two processes' readings compare. With ``--setup-only`` it exits there.
Otherwise it runs the timed tasks one after another and prints
``RESULT <json>``.

With ``--trace 1`` every task runs twice: untraced, then at once again with
the tracer installed. The traced runs must reproduce every output digest of
the untraced ones; the ratio of their wall times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import asdict

import numpy

import tracer as tracing
import workloads as wl


def run_checked(task, workdir: str, tracer=None, corrupt=None) -> wl.TaskResult:
    """Run one task, traced when a tracer is given, and check its output."""
    if tracer is not None:
        tracer.install()
        tracer.kind = task.kind
    try:
        res, outputs = wl.run_task(task, workdir, corrupt)
    finally:
        if tracer is not None:
            tracer.kind = None
            tracer.uninstall()
    wl.check_task(task, outputs, res)
    return res


def _records(results, label: str) -> list[dict]:
    return [{**{k: v for k, v in asdict(r).items() if k != "mc"}, "pass": label}
            for r in results]


def run(workload: str, seed: int, rounds: int, trace: bool, size: str,
        workdir: str) -> dict:
    tasks = wl.task_list(workload, seed, rounds, size)
    tracer = tracing.Tracer() if trace else None
    results, traced = [], []
    for task in tasks:
        results.append(run_checked(task, workdir))
        if tracer is not None:
            # right after its untraced run, so that drift in the machine's
            # speed falls on both passes alike
            traced.append(run_checked(task, workdir, tracer))
    out = {"tasks": _records(results, "untraced"), "pooled": wl.pooled_checks(results)}
    if tracer is not None:
        mismatched = [i for i, (a, b) in enumerate(zip(results, traced))
                      if a.digest != b.digest]
        for i in mismatched:
            traced[i].ok = False
            traced[i].reason = traced[i].reason or "traced output digest differs"
        overhead = (sum(r.wall_s for r in traced) / sum(r.wall_s for r in results)) - 1.0
        out["tasks"] += _records(traced, "traced")
        out["pooled"] += wl.pooled_checks(traced)
        out["trace"] = {
            "digests_match": not mismatched,
            "layers": tracer.metrics(sum(r.output_bytes for r in traced), overhead),
        }
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["numpy"] = numpy.__version__
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="worker-", dir=args.workdir)
    try:
        for task in wl.warmup_tasks(args.workload):
            wl.run_task(task, workdir)
        setup_s = time.monotonic() - float(os.environ["GWSPEED_BENCH_SPAWNED_AT"])
        print(f"READY {setup_s!r}", flush=True)
        if args.setup_only:
            return 0
        result = run(args.workload, args.seed, args.rounds, bool(args.trace),
                     "tiny" if args.tiny else "full", workdir)
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
