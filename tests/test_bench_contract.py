"""The package names the benchmark's tracer reads.

``bench/tracer.py`` wraps gwspeed's functions and methods by name at run time
and reads some of their argument names. A rename or deletion it depends on
shows up here, in the tier-1 suite, instead of only in
``python -m pytest bench``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gwspeed.cli import run_cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("gwspeed_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_uninstall_restores_every_patched_attribute(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_beta_call_runs(tracing, tmp_path):
    argv = ["beta", "--depth", "3", "--lambda", "1", "--trials", "50", "--seed", "3",
            "--dump-tree"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.kind = "beta"
        code = run_cli(argv + [str(tmp_path / "tree.json")])
    finally:
        tracer.kind = None
        tracer.uninstall()
    assert code == 0
    # the dump reads arrays(), which the tracer wraps: the bytes are the same
    assert run_cli(argv + [str(tmp_path / "plain.json")]) == 0
    assert (tmp_path / "tree.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    names = {span.name for span in tracer.spans}
    assert {"beta.compute_beta", "network.effective_conductance_to_level",
            "walker.hit_quenched"} <= names
    tracer.metrics(0, 0.0)


def test_traced_speed_curve_call_runs(tracing):
    # the walker columns are the command's own: both estimators show up as
    # spans of their own layers
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.kind = "curve"
        code = run_cli(["speed-curve", "--depth", "2", "--samples", "64", "--tuples", "200",
                        "--mc-steps", "50", "--mc-replicas", "2", "--single-depth"])
    finally:
        tracer.kind = None
        tracer.uninstall()
    assert code == 0
    names = {span.name for span in tracer.spans}
    assert {"speed.speed_curve", "walker.simulate_speed"} <= names
    tracer.metrics(0, 0.0)
