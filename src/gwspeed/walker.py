"""Quenched simulation of the biased walk, speed and hitting estimators.

From a vertex with k children the walk steps to the parent with probability
lam/(lam+k) and to each child with probability 1/(lam+k); at a parentless
vertex it picks a child uniformly. The artificial root, when present, has one
child, so the walk leaves it deterministically; the same parentless rule
covers it.

Speed is estimated from each replica's final depth (after ``steps`` steps),
which the estimate keeps, divided by the step count: one independent tree and
walk per replica, with the standard error taken across replicas. Replicas are
iid by construction, so no autocorrelation correction is needed.

Speed replicas and annealed hitting trials take one of two paths, chosen by
the offspring law alone, in ``_final_depth``. On a one-point law
(``m1 == m2``, the regular tree) every vertex looks the same, so
``_chain_final_depth`` walks the depth as a reflected +-1 chain and grows no
tree (in numpy blocks for a speed replica). On every other law
``_walk_final_depth`` walks a lazily grown tree that it keeps itself: a
two-list arena (first child and offspring count per vertex) and a stack of the
current vertex's ancestors, with no QuenchedTree behind it. Both read the same
uniforms in the same order, so the chain's depths equal the tree walk's bit
for bit; the tree walk is the reference the chain is tested against, and
``transition_step`` on a lazily grown QuenchedTree, fed the same tree stream,
is the scalar reference for the tree walk.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .errors import UnsupportedRegimeError, VerificationError, _check_bias
from .offspring import OffspringDistribution
from .rng import D_HIT, D_TREE, D_WALK, D_WALK_TREE, substream, substreams
from .tree import _UBUF, ROOT, QuenchedTree, _check_budget, sample_truncated_tree

_GRAPH_CODES = {"T": 0, "T_star": 1}
_BLOCK = 1 << 14
_MAX_SYNC_ROUNDS = 10_000_000
# Bytes an arena entry holds: one pointer in each of the two lists.
_ARENA_BYTES_PER_ENTRY = 16


@dataclass
class WalkState:
    """Mutable walk cursor: current vertex, step count and its own stream."""

    position: int
    steps: int
    rng: np.random.Generator


@dataclass
class SpeedEstimate:
    mean: float
    stderr: float
    replicas: int
    steps_per_replica: int
    lam: float
    graph: str
    depths: list  # final depth of each replica, in index order
    regime_warning: bool = False


@dataclass
class HittingEstimate:
    estimate: float
    stderr: float
    trials: int
    successes: int
    lam: float
    level: int
    mode: str


def transition_step(tree: QuenchedTree, state: WalkState, lam: float) -> WalkState:
    """Advance the walk one step, generating children lazily on first visit."""
    _check_bias(lam)
    pos = state.position
    kids = tree.children(pos)
    k = len(kids)
    par = tree.parent[pos]
    u = state.rng.random()
    if k == 0:
        if par < 0:
            raise ValueError("walk is stuck at a childless, parentless vertex")
        state.position = par
    elif par < 0:
        j = int(u * k)
        state.position = kids[j if j < k else k - 1]
    else:
        t = u * (lam + k) - lam
        if t < 0.0:
            state.position = par
        else:
            j = int(t)
            state.position = kids[j if j < k else k - 1]
    state.steps += 1
    return state


def _walk_pieces(rng: np.random.Generator, steps: int):
    """The walk stream as the scalar loops read it: lists of 64 uniforms,
    doubling up to _BLOCK and capped by the steps left. The grouping changes no
    value (float64 draws concatenate across calls); it bounds what a walk that
    stops early draws past its end, and keeps memory flat."""
    block = 64
    while steps > 0:
        us = rng.random(min(block, steps)).tolist()
        steps -= len(us)
        block = min(2 * block, _BLOCK)
        yield us


def _walk_final_depth(dist: OffspringDistribution, tree_rng: np.random.Generator,
                      lam: float, steps: int, rng: np.random.Generator,
                      star: bool, stop: int = -2) -> int:
    """Depth after ``steps`` steps from the root of a tree grown lazily from
    ``tree_rng`` (T, or T_star when ``star``); tight-loop equivalent of
    transition_step on a QuenchedTree drawn from the same streams (the same
    uniforms and offspring counts, in the same order). With ``stop >= 1`` the
    walk returns early: ``stop`` on its first arrival at that depth, -1 on its
    first arrival at the artificial root.

    The walk owns its arena: ``first_child`` and ``nu`` per vertex (-1 until
    drawn), in lists that double when a growth would overflow them, laid out
    as QuenchedTree would lay them out; a growth that would take the two
    lists past ``MAX_FOREST_LEVEL_BYTES`` raises ValueError. The ancestors of
    the current vertex sit on a path stack, so a step up pops it and an empty
    stack means no parent; the artificial root, vertex 1, is at its bottom."""
    cap = 1024
    first_child = [-1] * cap
    nu_list = [-1] * cap
    if star:
        first_child[1] = ROOT
        nu_list[1] = 1
        path = [1]
        size = 2
    else:
        path = []
        size = 1
    push = path.append
    pop = path.pop
    nus = []
    ni = _UBUF  # offspring counts, refilled _UBUF at a time as QuenchedTree does
    pos = ROOT
    dep = 0
    for us in _walk_pieces(rng, steps):
        for u in us:
            k = nu_list[pos]
            if k < 0:
                if dep == stop:
                    return dep
                if ni == _UBUF:
                    nus = dist.draw_counts(tree_rng, _UBUF).tolist()
                    ni = 0
                k = nus[ni]
                ni += 1
                if size + k > cap:
                    grow = max(cap, size + k - cap)
                    _check_budget(_ARENA_BYTES_PER_ENTRY * (cap + grow),
                                  f"a walk arena of {cap + grow} vertices")
                    first_child.extend(repeat(-1, grow))
                    nu_list.extend(repeat(-1, grow))
                    cap += grow
                first_child[pos] = size
                nu_list[pos] = k
                size += k
            if path:
                t = u * (lam + k) - lam
                if t < 0.0:
                    pos = pop()
                    dep -= 1
                    continue
                j = int(t)
            else:
                if dep < 0 < stop:  # at the artificial root
                    return dep
                j = int(u * k)
            push(pos)
            pos = first_child[pos] + (j if j < k else k - 1)
            dep += 1
    return dep


def _chain_final_depth(k: int, lam: float, steps: int, rng: np.random.Generator,
                       star: bool, stop: int = -2) -> int:
    """``_walk_final_depth`` on the k-regular tree (T, or T_star when
    ``star``), without the tree: the same depth from the same walk stream.

    Every vertex has k children, so the depth is a +-1 chain: down exactly
    when the tree walk would step to the parent (``u*(lam + k) - lam < 0.0``),
    except at the parentless vertex, where every step goes to a child.
    Without ``stop`` it sums blocks of up to _BLOCK uniforms with numpy; with
    ``stop >= 1`` (T_star only) it steps one uniform at a time and returns at
    its first arrival at depth ``stop`` or at the artificial root, -1."""
    floor = -1 if star else 0  # depth of the parentless vertex
    c = lam + k
    if stop < 1:
        h = -floor  # height above the parentless vertex, where x <- |x + s|
        for done in range(0, steps, _BLOCK):
            us = rng.random(min(_BLOCK, steps - done))
            free = h + np.cumsum(np.where(us * c - lam < 0.0, -1, 1))
            # each new odd low point of the free path is a reflection, +2
            h = int(free[-1]) + 2 * max(0, (1 - int(free.min())) // 2)
        return h + floor
    dep = 0
    for us in _walk_pieces(rng, steps):
        for u in us:
            if u * c - lam < 0.0:
                dep -= 1
                if dep <= floor:
                    return dep
            else:
                dep += 1
                if dep == stop:
                    return dep
    return dep


def _final_depth(dist: OffspringDistribution, lam: float, steps: int,
                 rng: np.random.Generator, star: bool, tree_stream,
                 stop: int = -2) -> int:
    """The one choice of walk kernel: the depth chain on a one-point law, else
    the tree walk on a tree grown from ``tree_stream()``, which the chain never
    calls, so it derives no tree stream."""
    if dist.m1 == dist.m2:
        return _chain_final_depth(dist.m1, lam, steps, rng, star, stop)
    return _walk_final_depth(dist, tree_stream(), lam, steps, rng, star, stop)


def _replica_depths(entries, lam, steps, seed, graph, indices) -> list[int]:
    dist = OffspringDistribution(entries)
    gcode = _GRAPH_CODES[graph]
    star = graph == "T_star"
    return [_final_depth(dist, lam, steps, substream(seed, D_WALK, gcode, i), star,
                         partial(substream, seed, D_WALK_TREE, gcode, i)) for i in indices]


def simulate_speed(dist: OffspringDistribution, lam: float, steps: int,
                   replicas: int, seed: int, graph: str = "T",
                   workers: int = 1) -> SpeedEstimate:
    """Monte Carlo speed estimate: fresh tree and walk per replica.

    Deterministic in (dist, lam, steps, replicas, seed, graph) and independent
    of ``workers``, the cap on worker processes (at most one per replica and
    per CPU is started); replica streams are keyed by index, and the final
    depths are returned and aggregated in index order.
    """
    if graph not in _GRAPH_CODES:
        raise ValueError(f"graph must be one of {sorted(_GRAPH_CODES)}, got {graph!r}")
    if dist.has_leaves:
        raise UnsupportedRegimeError("speed simulation needs a leafless offspring law")
    _check_bias(lam)
    if steps < 1 or replicas < 2 or workers < 1:
        raise ValueError("need steps >= 1, replicas >= 2 and workers >= 1")
    regime_warning = lam >= dist.m
    if regime_warning:
        warnings.warn(
            f"bias {lam:.9g} at or above mean branching {dist.m:.9g}; the walk "
            "is not transient and the speed estimate is only a finite-time statistic",
            UserWarning, stacklevel=2)

    # the executor may start all of its processes at the first submit
    workers = min(workers, replicas, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        cuts = [c * replicas // workers for c in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_replica_depths, dist.entries, lam, steps, seed,
                                graph, range(a, b)) for a, b in zip(cuts, cuts[1:])]
            depths = [dep for fut in futs for dep in fut.result()]
    else:
        depths = _replica_depths(dist.entries, lam, steps, seed, graph, range(replicas))

    speeds = np.array(depths, dtype=float) / steps
    mean = float(speeds.mean())
    stderr = float(speeds.std(ddof=1) / np.sqrt(replicas))
    return SpeedEstimate(mean=mean, stderr=stderr, replicas=replicas,
                         steps_per_replica=steps, lam=lam, graph=graph,
                         depths=depths, regime_warning=regime_warning)


def hitting_beta_mc(dist_or_tree, lam: float, n: int, trials: int, seed: int,
                    mode: str = "quenched") -> HittingEstimate:
    """Estimate the probability of reaching depth n before the artificial
    root, walking from the root.

    quenched: all trials on one fixed tree (supplied or sampled from the
    seed; it must pass ``QuenchedTree.levels(n)``). annealed: a fresh tree
    per trial, estimating the tree-averaged probability. Both modes need a
    leafless law, and both raise VerificationError when a walk has not
    absorbed within the round cap.
    """
    _check_bias(lam)
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode not in ("quenched", "annealed"):
        raise ValueError(f"mode must be quenched or annealed, got {mode!r}")

    fixed = not isinstance(dist_or_tree, OffspringDistribution)
    if fixed and mode == "annealed":
        raise ValueError("annealed mode requires an offspring law, not a fixed tree")
    dist = dist_or_tree.dist if fixed else dist_or_tree
    if dist.has_leaves:
        raise UnsupportedRegimeError("hitting simulation needs a leafless offspring law")

    if mode == "annealed":
        successes = 0
        trees = partial(next, substreams(seed, D_TREE, count=trials))
        for rng in substreams(seed, D_HIT, count=trials):
            end = _final_depth(dist, lam, _MAX_SYNC_ROUNDS, rng, True, trees, n)
            if end != n and end != -1:
                raise VerificationError("hitting walk failed to absorb within the round cap")
            successes += end == n
    else:
        _check_hitting_size(trials)
        tree = dist_or_tree if fixed else sample_truncated_tree(dist, n, seed)
        successes = _hit_level_vectorized(tree, lam, n, trials, substream(seed, D_HIT, 0))
    p = successes / trials
    return HittingEstimate(estimate=p, stderr=float(np.sqrt(p * (1 - p) / trials)),
                           trials=trials, successes=successes, lam=lam,
                           level=n, mode=mode)


def _check_hitting_size(trials: int) -> None:
    """Refuse, before any draw, quenched hitting trials over the memory budget,
    at 64 bytes a trial (tracemalloc peaks: 49-51)."""
    _check_budget(64.0 * trials, f"{trials} quenched hitting trials")


def _hit_level_vectorized(tree: QuenchedTree, lam: float, n: int, trials: int,
                          rng: np.random.Generator) -> int:
    start, _ = tree.levels(n)
    goal = start[n]  # walkers move from depths < n, the ids below goal
    parent, _, first_child, nu = (a[:goal] for a in tree.arrays())
    up = parent.copy()
    up[ROOT] = -1  # a step above the root is a failure; no artificial root
    scale, top = lam + nu, nu - 1
    pos = np.full(trials, ROOT, dtype=np.int64)
    successes = 0
    for _ in range(_MAX_SYNC_ROUNDS):
        if pos.size == 0:
            return successes
        t = rng.random(pos.size) * scale[pos] - lam  # = u * (lam + k) - lam
        j = t.astype(np.int64)  # a child's rank when t >= 0
        np.minimum(j, top[pos], out=j)
        pos = np.where(t >= 0.0, first_child[pos] + j, up[pos])
        pos = pos[pos >= 0]
        succ = pos >= goal
        successes += int(np.count_nonzero(succ))
        pos = pos[~succ]
    raise VerificationError("hitting walk failed to absorb within the round cap")


def lemma0_compare(dist: OffspringDistribution, lam: float, steps: int,
                   replicas: int, seed: int) -> tuple[SpeedEstimate, SpeedEstimate, float]:
    """Speed on the bare tree versus the tree with the artificial root,
    estimated with independent randomness, plus the discrepancy z-score."""
    est_t = simulate_speed(dist, lam, steps, replicas, seed, graph="T")
    est_s = simulate_speed(dist, lam, steps, replicas, seed, graph="T_star")
    if est_t.mean == est_s.mean:
        z = 0.0
    else:
        denom = float(np.hypot(est_t.stderr, est_s.stderr))
        z = abs(est_t.mean - est_s.mean) / denom if denom > 0 else float("inf")
    return est_t, est_s, z
