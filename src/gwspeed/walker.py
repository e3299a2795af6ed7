"""Quenched simulation of the biased walk, speed and hitting estimators.

From a vertex with k children the walk steps to the parent with probability
lam/(lam+k) and to each child with probability 1/(lam+k); at a parentless
vertex it picks a child uniformly. The artificial root, when present, has one
child, so the walk leaves it deterministically; the same parentless rule
covers it.

Speed is estimated from the terminal statistic (depth after ``steps`` steps)
divided by the step count, one independent tree and walk per replica, with
the standard error taken across replicas. Replicas are iid by construction,
so no autocorrelation correction is needed.

Speed replicas and annealed hitting trials take one of two paths, chosen by
the offspring law alone. On a one-point law (``m1 == m2``, the regular tree)
every vertex looks the same, so ``_chain_final_depth`` walks the depth as a
reflected +-1 chain and grows no tree. On every other law
``_walk_final_depth`` walks a lazily grown tree. Both read the walk stream
identically, so the chain's depths equal the tree walk's bit for bit; the tree
walk is the reference the chain is tested against, and ``transition_step`` is
the scalar reference for the tree walk.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegimeError, VerificationError
from .offspring import OffspringDistribution
from .rng import D_HIT, D_TREE, D_WALK, D_WALK_TREE, substream
from .tree import ROOT, QuenchedTree, attach_star_root, sample_truncated_tree

_GRAPH_CODES = {"T": 0, "T_star": 1}
_BLOCK = 1 << 14
_MAX_SYNC_ROUNDS = 10_000_000


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
    regime_warning: bool = False
    per_replica: list | None = None


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
    if lam < 0:
        raise ValueError(f"bias must be >= 0, got {lam:.9g}")
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


def _walk_final_depth(tree: QuenchedTree, lam: float, steps: int,
                      rng: np.random.Generator, stop: int = -2) -> int:
    """Depth after ``steps`` steps from the root; tight-loop equivalent of
    transition_step (consumes the identical uniform stream). With ``stop >=
    1`` the walk returns early: ``stop`` on its first arrival at that depth,
    -1 on its first arrival at the artificial root. The depth check runs where
    a vertex grows its children, so the tree must be grown by this walk alone."""
    parent = tree.parent
    depth = tree.depth
    first_child = tree.first_child
    nu_list = tree.nu
    draw_nu = tree._draw_nu
    pos = ROOT
    dep = depth[ROOT]
    remaining = steps
    block = 64  # doubles up to _BLOCK, so a short walk draws few uniforms
    while remaining > 0:
        us = rng.random(min(block, remaining)).tolist()
        remaining -= len(us)
        block = min(2 * block, _BLOCK)
        for u in us:
            k = nu_list[pos]
            if k < 0:
                if dep == stop:
                    return dep
                k = draw_nu()
                fc = len(parent)
                parent.extend([pos] * k)
                depth.extend([dep + 1] * k)
                first_child.extend([-1] * k)
                nu_list.extend([-1] * k)
                first_child[pos] = fc
                nu_list[pos] = k
            par = parent[pos]
            if par < 0:
                if dep < 0 < stop:
                    return dep
                j = int(u * k)
                pos = first_child[pos] + (j if j < k else k - 1)
                dep += 1
            else:
                t = u * (lam + k) - lam
                if t < 0.0:
                    pos = par
                    dep -= 1
                else:
                    j = int(t)
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
    With ``stop >= 1`` (T_star only) the walk returns at its first arrival at
    depth ``stop`` or at the artificial root, -1."""
    floor = -1 if star else 0  # depth of the parentless vertex
    dep = 0
    c = lam + k
    remaining = steps
    block = 64  # the tree walk's pieces, so memory stays flat
    while remaining > 0:
        us = rng.random(min(block, remaining)).tolist()
        remaining -= len(us)
        block = min(2 * block, _BLOCK)
        for u in us:
            if u * c - lam < 0.0:
                dep -= 1
                if dep <= floor:
                    if stop >= 1:
                        return dep
                    if dep < floor:
                        dep = floor + 1
            else:
                dep += 1
                if dep == stop:
                    return dep
    return dep


def _replica_depths(entries, lam, steps, seed, graph, indices) -> list[int]:
    dist = OffspringDistribution(entries)
    gcode = _GRAPH_CODES[graph]
    star = graph == "T_star"
    out = []
    for i in indices:
        walk_rng = substream(seed, D_WALK, gcode, i)
        if dist.m1 == dist.m2:
            out.append(_chain_final_depth(dist.m1, lam, steps, walk_rng, star))
            continue
        tree = QuenchedTree(dist, substream(seed, D_WALK_TREE, gcode, i))
        if star:
            attach_star_root(tree)
        out.append(_walk_final_depth(tree, lam, steps, walk_rng))
    return out


def simulate_speed(dist: OffspringDistribution, lam: float, steps: int,
                   replicas: int, seed: int, graph: str = "T",
                   keep_replicas: bool = False, workers: int = 1) -> SpeedEstimate:
    """Monte Carlo speed estimate: fresh tree and walk per replica.

    Deterministic in (dist, lam, steps, replicas, seed, graph) and independent
    of ``workers``; replica streams are keyed by index and results are
    aggregated in index order.
    """
    if graph not in _GRAPH_CODES:
        raise ValueError(f"graph must be one of {sorted(_GRAPH_CODES)}, got {graph!r}")
    if dist.has_leaves:
        raise UnsupportedRegimeError("speed simulation needs a leafless offspring law")
    if lam < 0:
        raise ValueError(f"bias must be >= 0, got {lam:.9g}")
    if steps < 1 or replicas < 2:
        raise ValueError("need steps >= 1 and replicas >= 2")
    regime_warning = lam >= dist.m
    if regime_warning:
        warnings.warn(
            f"bias {lam:.9g} at or above mean branching {dist.m:.9g}; the walk "
            "is not transient and the speed estimate is only a finite-time statistic",
            UserWarning, stacklevel=2)

    indices = list(range(replicas))
    if workers > 1:
        cuts = [c * replicas // workers for c in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_replica_depths, dist.entries, lam, steps, seed,
                                graph, indices[a:b])
                    for a, b in zip(cuts, cuts[1:]) if a < b]
            depths = [dep for fut in futs for dep in fut.result()]
    else:
        depths = _replica_depths(dist.entries, lam, steps, seed, graph, indices)

    speeds = np.array(depths, dtype=float) / steps
    mean = float(speeds.mean())
    stderr = float(speeds.std(ddof=1) / np.sqrt(replicas))
    per = ([(i, depths[i], steps, float(speeds[i])) for i in indices]
           if keep_replicas else None)
    return SpeedEstimate(mean=mean, stderr=stderr, replicas=replicas,
                         steps_per_replica=steps, lam=lam, graph=graph,
                         regime_warning=regime_warning, per_replica=per)


def hitting_beta_mc(dist_or_tree, lam: float, n: int, trials: int, seed: int,
                    mode: str = "quenched") -> HittingEstimate:
    """Estimate the probability of reaching depth n before the artificial
    root, walking from the root.

    quenched: all trials on one fixed tree (supplied or sampled from the
    seed). annealed: a fresh tree per trial, estimating the tree-averaged
    probability. Both modes need a leafless law, and both raise
    VerificationError when a walk has not absorbed within the round cap.
    """
    if lam < 0:
        raise ValueError(f"bias must be >= 0, got {lam:.9g}")
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
        for t in range(trials):
            walk_rng = substream(seed, D_HIT, t)
            if dist.m1 == dist.m2:
                end = _chain_final_depth(dist.m1, lam, _MAX_SYNC_ROUNDS, walk_rng, True, n)
            else:
                tree = QuenchedTree(dist, substream(seed, D_TREE, t))
                attach_star_root(tree)
                end = _walk_final_depth(tree, lam, _MAX_SYNC_ROUNDS, walk_rng, n)
            if end != n and end != -1:
                raise VerificationError("hitting walk failed to absorb within the round cap")
            successes += end == n
    else:
        tree = dist_or_tree if fixed else sample_truncated_tree(dist, n, seed)
        if not tree.is_materialized_to(n):
            raise ValueError(f"fixed tree is not materialized to depth {n}")
        successes = _hit_level_vectorized(tree, lam, n, trials, substream(seed, D_HIT, 0))
    p = successes / trials
    return HittingEstimate(estimate=p, stderr=float(np.sqrt(p * (1 - p) / trials)),
                           trials=trials, successes=successes, lam=lam,
                           level=n, mode=mode)


def _hit_level_vectorized(tree: QuenchedTree, lam: float, n: int, trials: int,
                          rng: np.random.Generator) -> int:
    parent, depth, first_child, nu = tree.arrays()
    parent[ROOT] = -1  # a step above the root is a failure; no artificial root
    pos = np.full(trials, ROOT, dtype=np.int64)
    successes = 0
    for _ in range(_MAX_SYNC_ROUNDS):
        if pos.size == 0:
            return successes
        u = rng.random(pos.size)
        k = nu[pos]
        t = u * (lam + k) - lam
        j = t.astype(np.int64)
        np.minimum(j, k - 1, out=j)
        np.maximum(j, 0, out=j)
        pos = np.where(t >= 0.0, first_child[pos] + j, parent[pos])
        pos = pos[pos >= 0]  # before any depth lookup: index -1 is a vertex
        succ = depth[pos] == n
        successes += int(succ.sum())
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
