"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py

For each workload of ``BENCHMARK.json`` it runs ``bench/run.py`` once per seed
1..10 with tracing off and once more with tracing on, at the ``run_seconds``
of ``BENCHMARK.json``. It prints, per end-to-end metric, the median and the
spread (distance between the first and third quartile, as a share of the
median) next to the metric's bound, and writes medians, quartiles, every
run's values, the traced run's per-layer metrics, each run's output digest
and the provenance to ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
OUT = BENCH / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str]:
    """(final result line, provenance, run digest) of one run; raises on a
    failed run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    digest = next(line.split()[1] for line in lines if line.startswith("run_digest "))
    return json.loads(lines[-1]), prov, digest


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in why:
        runs = []
        digests = {}
        for seed in SEEDS:
            result, prov, digests[seed] = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        traced, _, _ = run_once(workload, SEEDS[0], seconds, 1)
        entry = {
            "why": why[workload],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "run_digests": digests,
        }
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        for name, (bound, unit) in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": unit, "bound": bound, **stats}
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"{workload:8s} {name:12s} median={stats['median']:.4f} {unit:4s} "
                  f"spread={stats['spread']:.4f} bound={bound} "
                  f"{'ok' if ok else 'WIDE (above bound/3)'}", flush=True)
        print(f"{workload:8s} fail_frac={entry['fail_frac']} correct={entry['correct']}")
        report["workloads"][workload] = entry
        report["provenance"] = {k: v for k, v in prov.items()
                                if k not in ("workload", "seed", "argv")}
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUT}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
