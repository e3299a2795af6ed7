"""Span tracing of gwspeed's layer boundaries, installed at runtime.

The package has no tracing of its own, so the benchmark records spans by
replacing, for the duration of a traced task, every public function that one
gwspeed module imports from another (``cli.compute_beta``,
``speed.sample_pools_shared_trees``, ``walker.substream``, ...) with a wrapper.
The public methods that modules call on another module's objects
(``OffspringDistribution.draw_counts`` and four ``QuenchedTree`` methods) and
the functions the benchmark itself calls (``cli.run_cli``,
``walker.hitting_beta_mc``) are wrapped where they are defined.

Calls inside one module are not wrapped, so a span covers one crossing of a
layer boundary. The per-step ``QuenchedTree.children`` is left alone: at about
a microsecond per call the wrapper would cost as much as the step.

A span's self time is its duration minus the durations of its direct child
spans. Spans are kept in memory and reduced to the per-layer metrics of
``LAYER_METRICS`` when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

MODULES = ("offspring", "rng", "tree", "beta", "network", "walker", "speed",
           "verify", "cli")

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "offspring.draw_counts.calls": "count",
    "offspring.draw_counts.values": "count",
    "offspring.draw_counts.self_s": "s",
    "rng.substream.calls": "count",
    "rng.substream.self_s": "s",
    "tree.sample_truncated_tree.self_s": "s",
    "tree.vertices": "count",
    "tree.ns_per_vertex": "ns",
    "tree.to_adjacency.self_s": "s",
    "cli.output_bytes": "bytes",
    "beta.pool.self_s": "s",
    "beta.pool.vertex_biases": "count",
    "beta.pool.ns_per_vertex_bias": "ns",
    "beta.pool.max_level_width": "count",
    "beta.pool.max_level_bytes_computed": "bytes",
    "beta.table.self_s": "s",
    "beta.table.ns_per_vertex": "ns",
    "beta.path_sum.self_s": "s",
    "network.reduce.self_s": "s",
    "network.ns_per_vertex": "ns",
    "network.sandwich.self_s": "s",
    "walker.simulate.self_s": "s",
    "walker.steps": "count",
    "walker.ns_per_step.fresh": "ns",
    "walker.ns_per_step.revisit": "ns",
    "walker.hit_annealed.self_s": "s",
    "walker.hit_annealed.trials": "count",
    "walker.hit_annealed.us_per_trial": "us",
    "walker.hit_quenched.self_s": "s",
    "walker.hit_quenched.trials": "count",
    "speed.curve.self_s": "s",
    "speed.tuple_points": "count",
    "speed.ns_per_tuple_point": "ns",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Bytes per vertex of the widest forest level that the recursion keeps live:
# the float64 beta and beta' arrays. A computed figure, not a measurement.
_FOREST_BYTES_PER_VERTEX = 16


@dataclass
class Span:
    name: str
    kind: str
    start: float
    end: float
    parent: str | None
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _hitting_name(bound) -> str:
    mode = bound.arguments.get("mode", "quenched")
    return "walker.hit_annealed" if mode == "annealed" else "walker.hit_quenched"


def _draw_counts(bound, result, span, parent):
    size = int(bound.arguments["size"])
    out = int(result.sum())
    span.counts["values"] = size
    if parent is not None:
        # the caller's forest: vertices drawn below this level, widest level
        parent.counts["drawn"] = parent.counts.get("drawn", 0) + out
        parent.counts["width"] = max(parent.counts.get("width", 0), size, out)


def _pool(bound, result, span, parent):
    args = bound.arguments
    lams = len(args["lams"]) if "lams" in args else 1
    vertices = int(args["count"]) + span.counts.get("drawn", 0)
    span.counts["vertex_biases"] = vertices * lams


def _tree_result(bound, result, span, parent):
    span.counts["vertices"] = len(result)


def _tree_arg(key, attr=None):
    def count(bound, result, span, parent):
        obj = bound.arguments[key]
        span.counts["vertices"] = len(getattr(obj, attr) if attr else obj)
    return count


def _simulate(bound, result, span, parent):
    span.counts["steps"] = int(bound.arguments["steps"]) * int(bound.arguments["replicas"])


def _hitting(bound, result, span, parent):
    span.counts["trials"] = int(bound.arguments["trials"])


def _curve(bound, result, span, parent):
    span.counts["tuple_points"] = (int(bound.arguments["tuples"])
                                   * len(bound.arguments["lambda_grid"]))


_COUNTERS = {
    "offspring.draw_counts": _draw_counts,
    "beta.sample_pools_shared_trees": _pool,
    "beta.sample_pool": _pool,
    "tree.sample_truncated_tree": _tree_result,
    "beta.compute_beta": _tree_arg("tree"),
    "beta.compute_beta_derivative": _tree_arg("table", "tree"),
    "network.effective_conductance_to_level": _tree_arg("net", "tree"),
    "walker.simulate_speed": _simulate,
    "walker.hit_annealed": _hitting,
    "walker.hit_quenched": _hitting,
    "speed.speed_curve": _curve,
}


class Tracer:
    """Records spans for calls made while a task is active.

    ``install`` patches the package; ``uninstall`` restores every patched
    attribute. Calls made while ``kind``, the kind of the running task, is
    None pass straight through, so the benchmark's own checks never show up
    as spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.kind: str | None = None
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # patching ---------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"gwspeed.{m}") for m in MODULES}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if home.startswith("gwspeed.") and home != mod.__name__:
                    self._patch(mod, attr, f"{home.split('.')[-1]}.{value.__name__}")
        self._patch(mods["offspring"].OffspringDistribution, "draw_counts",
                    "offspring.draw_counts")
        for method in ("is_materialized_to", "level_ids", "arrays", "to_adjacency"):
            self._patch(mods["tree"].QuenchedTree, method, f"tree.{method}")
        self._patch(mods["verify"], "run_suite", "verify.run_suite")
        self._patch(mods["verify"], "render_report", "verify.render_report")
        self._patch(mods["cli"], "run_cli", "cli.run_cli")
        self._patch(mods["walker"], "hitting_beta_mc", "walker.hitting_beta_mc")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        named = _hitting_name if name == "walker.hitting_beta_mc" else None
        needs_args = named is not None or name in _COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.kind is None:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs) if needs_args else None
            parent = self._stack[-1] if self._stack else None
            span = Span(named(bound) if named else name, self.kind,
                        time.perf_counter(), 0.0,
                        None if parent is None else parent.name)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)
            counter = _COUNTERS.get(span.name)
            if counter is not None:
                counter(bound, result, span, parent)
            return result

        return traced

    # reduction --------------------------------------------------------------

    def metrics(self, output_bytes: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics over the recorded spans. The task kind of each
        span separates the low-bias (fresh) and high-bias (revisit) walk
        tasks."""
        def pick(names, kinds=None):
            return [s for s in self.spans if s.name in names
                    and (kinds is None or s.kind in kinds)]

        def self_s(names, kinds=None):
            return sum(s.self_s for s in pick(names, kinds))

        def count(names, key, kinds=None):
            return sum(s.counts.get(key, 0) for s in pick(names, kinds))

        def per(numer_s, denom, scale):
            return numer_s / denom * scale if denom else 0.0

        pool = ("beta.sample_pools_shared_trees", "beta.sample_pool")
        table = ("beta.compute_beta", "beta.compute_beta_derivative")
        reduce_ = ("network.build_conductances",
                   "network.effective_conductance_to_level")
        width = max((s.counts.get("width", 0) for s in pick(pool)), default=0)
        out = {
            "offspring.draw_counts.calls": len(pick(("offspring.draw_counts",))),
            "offspring.draw_counts.values": count(("offspring.draw_counts",), "values"),
            "offspring.draw_counts.self_s": self_s(("offspring.draw_counts",)),
            "rng.substream.calls": len(pick(("rng.substream",))),
            "rng.substream.self_s": self_s(("rng.substream",)),
            "tree.sample_truncated_tree.self_s": self_s(("tree.sample_truncated_tree",)),
            "tree.vertices": count(("tree.sample_truncated_tree",), "vertices"),
            "tree.to_adjacency.self_s": self_s(("tree.to_adjacency",)),
            "cli.output_bytes": output_bytes,
            "beta.pool.self_s": self_s(pool),
            "beta.pool.vertex_biases": count(pool, "vertex_biases"),
            "beta.pool.max_level_width": width,
            "beta.pool.max_level_bytes_computed": width * _FOREST_BYTES_PER_VERTEX,
            "beta.table.self_s": self_s(table),
            "beta.path_sum.self_s": self_s(("beta.beta_derivative_path_sum",)),
            "network.reduce.self_s": self_s(reduce_),
            "network.sandwich.self_s": self_s(("network.conductance_sandwich",)),
            "walker.simulate.self_s": self_s(("walker.simulate_speed",)),
            "walker.steps": count(("walker.simulate_speed",), "steps"),
            "walker.hit_annealed.self_s": self_s(("walker.hit_annealed",)),
            "walker.hit_annealed.trials": count(("walker.hit_annealed",), "trials"),
            "walker.hit_quenched.self_s": self_s(("walker.hit_quenched",)),
            "walker.hit_quenched.trials": count(("walker.hit_quenched",), "trials"),
            "speed.curve.self_s": self_s(("speed.speed_curve",)),
            "speed.tuple_points": count(("speed.speed_curve",), "tuple_points"),
            "verify.self_s": self_s(("verify.run_suite", "verify.render_report")),
            "cli.self_s": self_s(("cli.run_cli",)),
            "trace.overhead_frac": overhead_frac,
        }
        out["tree.ns_per_vertex"] = per(out["tree.sample_truncated_tree.self_s"],
                                        out["tree.vertices"], 1e9)
        out["beta.pool.ns_per_vertex_bias"] = per(out["beta.pool.self_s"],
                                                  out["beta.pool.vertex_biases"], 1e9)
        out["beta.table.ns_per_vertex"] = per(out["beta.table.self_s"],
                                              count(table, "vertices"), 1e9)
        out["network.ns_per_vertex"] = per(out["network.reduce.self_s"],
                                           count(reduce_, "vertices"), 1e9)
        for role, kind in (("fresh", "sim_fresh"), ("revisit", "sim_revisit")):
            sim = ("walker.simulate_speed",)
            out[f"walker.ns_per_step.{role}"] = per(
                self_s(sim, (kind,)), count(sim, "steps", (kind,)), 1e9)
        out["walker.hit_annealed.us_per_trial"] = per(
            out["walker.hit_annealed.self_s"], out["walker.hit_annealed.trials"], 1e6)
        out["speed.ns_per_tuple_point"] = per(out["speed.curve.self_s"],
                                              out["speed.tuple_points"], 1e9)
        return {name: out[name] for name in LAYER_METRICS}
