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
the offspring law alone. On a one-point law (``m1 == m2``, the regular tree)
every vertex looks the same, so the depth is a +-1 chain and no tree is
grown: ``_chain_final_depth`` sums a speed replica's chain in numpy blocks,
and ``_chain_hits`` runs a batch of annealed trials' chains as the rows of
one array until each is absorbed. On every other law the one walk loop,
``_walk_final_depth``, walks a lazily grown tree that it keeps itself.
For each piece of uniforms numpy first fills step tables (an int32 column per
support count, and one for T's root) from the scalar step's float expression,
so a step is a table read, a push or pop and an arena lookup. That costs O(S)
per uniform on a law with S support points: the tables beat a scalar float
loop below about 20 points (0.75 of its time on 2 points, 1.09 on 25), and
an annealed trial, which reads about two dozen uniforms of its first 64, pays
one fill (1.3 times its time on 2). Both paths read the same uniforms in the
same order, so the chain's depths equal the tree walk's bit for bit; the tree
walk is the reference the chain is tested against, and ``transition_step`` on
a lazily grown QuenchedTree, fed the same tree stream through the same
``_count_stream``, is the scalar reference for the tree walk.
"""

from __future__ import annotations

import math
import os
import warnings
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, repeat

import numpy as np

from .errors import UnsupportedRegimeError, VerificationError, _check_bias
from .offspring import OffspringDistribution
from .rng import D_HIT, D_TREE, D_WALK, D_WALK_TREE, substream, substreams
from .tree import ROOT, QuenchedTree, _check_budget, _count_stream, sample_truncated_tree

_GRAPH_CODES = {"T": 0, "T_star": 1}
_BLOCK = 1 << 14
_MAX_SYNC_ROUNDS = 10_000_000
# Quenched hitting walkers left when the scalar rounds take over: a numpy round
# costs about 7 us up to 128 walkers, a scalar one about 0.2 us a walker.
_TAIL_WALKERS = 64
_TABLE_ENTRIES = 1 << 18  # a piece's columns times uniforms: about 4 MiB of tables
_HIT_BATCH = 256  # annealed chain trials per batch: a first piece of 16 K uniforms
_FRESH = array("i", [-2]) * _BLOCK  # the step column of a vertex not drawn yet
_ZEROS = array("i", [0]) * _BLOCK  # the artificial root's: to its one child
_ARENA_BYTES_PER_ENTRY = 16  # one pointer in each of the walk arena's two lists


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
    fc, k = tree._block(pos)
    par = tree._rows[0][pos]
    u = state.rng.random()
    if k == 0:
        if par < 0:
            raise ValueError("walk is stuck at a childless, parentless vertex")
        state.position = par
    elif par < 0:
        j = int(u * k)
        state.position = fc + (j if j < k else k - 1)
    else:
        t = u * (lam + k) - lam
        if t < 0.0:
            state.position = par
        else:
            j = int(t)
            state.position = fc + (j if j < k else k - 1)
    state.steps += 1
    return state


def _walk_pieces(rng: np.random.Generator, steps: int, most: int = _BLOCK):
    """The walk stream in the pieces the tree walk reads: 64 uniforms,
    doubling up to ``most`` and capped by the steps left. The grouping changes
    no value (float64 draws concatenate across calls); it bounds what a walk
    that stops early draws past its end, and the memory its step tables take."""
    block = min(64, most)
    while steps > 0:
        us = rng.random(min(block, steps))
        steps -= us.size
        block = min(2 * block, most)
        yield us


@lru_cache(maxsize=64)
def _step_rows(dist: OffspringDistribution, lam: float, free: int):
    """(counts, scale, shift, top) for ``_fill_tables``: a row per support
    count, then, when ``free``, a parentless vertex's with ``free`` children."""
    ks = [k for k, _ in dist.entries]
    rows = [[lam + k, lam, k - 1] for k in ks] + [[free, 0.0, free - 1]] * (free > 0)
    return ks, *np.array(rows).T[..., None]


def _fill_tables(us, scale, shift, top, cols: list) -> None:
    """Refill each int32 column in place with each uniform's step there,
    ``clip(floor(u * scale - shift), -1, top)``: -1 (up) exactly when
    ``u * (lam + k) - lam < 0.0``, else that float's int clipped to k - 1."""
    t = us * scale - shift
    np.minimum(t, top, out=t)
    np.floor(t, out=t)
    if shift[0, 0] > 1.0:  # t >= -lam, so floor(t) >= -1 already when lam <= 1
        np.maximum(t, -1.0, out=t)
    for col, row in zip(cols, t.astype(np.int32)):
        del col[:]
        col.frombytes(row.tobytes())


def _walk_final_depth(dist: OffspringDistribution, tree_rng: np.random.Generator,
                      lam: float, steps: int, rng: np.random.Generator,
                      star: bool, stop: int = -2) -> int:
    """Depth after ``steps`` steps from the root of a tree grown lazily from
    ``tree_rng`` (T, or T_star when ``star``); tight-loop equivalent of
    transition_step on a QuenchedTree drawn from the same streams (the same
    uniforms and offspring counts, in the same order). With ``stop >= 1`` the
    walk returns early: ``stop`` on its first arrival at that depth, -1 on its
    first arrival at the artificial root.

    The arena holds ``first_child`` and the step column ``rules`` per vertex
    (``_FRESH`` until its count is drawn), laid out as in QuenchedTree, in
    lists that double on overflow; a growth past ``MAX_FOREST_LEVEL_BYTES``
    raises ValueError. The depth is the length of the path stack of ancestors
    (the artificial root, vertex 1, at its bottom). The counts come from
    ``_count_stream``, as QuenchedTree's do; the root's, the first, is drawn
    before the first step, so every vertex grown in the loop has a parent."""
    nus = _count_stream(dist, tree_rng)
    k = next(nus)
    ks, scale, shift, top = _step_rows(dist, lam, 0 if star else k)
    cols = [array("i") for _ in scale]
    by_count = dict(zip(ks, cols))
    path = [1] if star else []
    size = len(path) + 1 + k
    cap = max(1024, size)
    _check_budget(_ARENA_BYTES_PER_ENTRY * cap, f"a walk arena of {cap} vertices")
    first_child = [-1] * cap
    rules = [_FRESH] * cap
    first_child[ROOT] = size - k
    rules[ROOT] = by_count[k] if star else cols[-1]  # T's root is parentless
    if star:  # _FRESH at the artificial root ends a first passage
        first_child[1] = ROOT
        rules[1] = _FRESH if stop >= 1 else _ZEROS
    halt = stop + star  # the path length at depth stop
    pos = ROOT
    push, pop = path.append, path.pop
    for us in _walk_pieces(rng, steps, min(_BLOCK, max(1, _TABLE_ENTRIES // len(cols)))):
        _fill_tables(us, scale, shift, top, cols)
        for i in range(us.size):
            j = rules[pos][i]
            if j == -2:  # a fresh vertex: stop before it, or draw its count
                if stop > 0 and (len(path) == halt or (not path and star)):
                    return len(path) - star
                k = next(nus)
                if size + k > cap:
                    grow = max(cap, size + k - cap)
                    _check_budget(_ARENA_BYTES_PER_ENTRY * (cap + grow),
                                  f"a walk arena of {cap + grow} vertices")
                    first_child.extend(repeat(-1, grow))
                    rules.extend(repeat(_FRESH, grow))
                    cap += grow
                first_child[pos] = size
                rules[pos] = rule = by_count[k]
                size += k
                j = rule[i]
            if j < 0:
                pos = pop()
            else:
                push(pos)
                pos = first_child[pos] + j
    return len(path) - star


def _chain_final_depth(k: int, lam: float, steps: int, rng: np.random.Generator,
                       star: bool) -> int:
    """``_walk_final_depth`` on the k-regular tree (T, or T_star when
    ``star``), without the tree: the same depth from the same walk stream.

    Every vertex has k children, so the depth is a +-1 chain: down exactly
    when the tree walk would step to the parent (``u*(lam + k) - lam < 0.0``),
    except at the parentless vertex, where every step goes to a child. It
    sums blocks of up to _BLOCK uniforms with numpy."""
    floor = -1 if star else 0  # depth of the parentless vertex
    c = lam + k
    h = -floor  # height above the parentless vertex, where x <- |x + s|
    for done in range(0, steps, _BLOCK):
        us = rng.random(min(_BLOCK, steps - done))
        free = h + np.cumsum(np.where(us * c - lam < 0.0, -1, 1))
        # each new odd low point of the free path is a reflection, +2
        h = int(free[-1]) + 2 * max(0, (1 - int(free.min())) // 2)
    return h + floor


def _chain_hits(k: int, lam: float, n: int, streams) -> int:
    """Successes of annealed first passages on the k-regular tree with its
    artificial root, a walk stream a trial: the depth chain from the root to
    depth n (a success) or -1 (a failure), ``_HIT_BATCH`` trials at a time.
    A round reads each live trial's next piece (64 uniforms, doubling up to
    _BLOCK, rows times width at most _TABLE_ENTRIES) into a row of one array,
    so each trial reads its stream in order and steps on the tree walk's
    floats; one argmax over a row's depths finds its first absorption."""
    c = lam + k
    successes = 0
    while batch := list(islice(streams, _HIT_BATCH)):
        dep, block, read = np.zeros(len(batch), dtype=np.int64), 64, 0
        while batch and read < _MAX_SYNC_ROUNDS:
            width = min(block, _TABLE_ENTRIES // len(batch), _MAX_SYNC_ROUNDS - read)
            us = np.empty((len(batch), width))
            for gen, row in zip(batch, us):
                gen.random(out=row)
            path = dep[:, None] + np.cumsum(np.where(us * c - lam < 0.0, -1, 1), axis=1)
            hit = (path == n) | (path < 0)
            first = hit.argmax(axis=1)
            done = hit[np.arange(len(batch)), first]
            successes += int(np.count_nonzero(path[done, first[done]] > 0))
            live = np.flatnonzero(~done)
            batch, dep = [batch[i] for i in live.tolist()], path[live, -1]
            read, block = read + width, min(2 * block, _BLOCK)
        if batch:
            raise VerificationError("hitting walk failed to absorb within the round cap")
    return successes


def _final_depth(dist: OffspringDistribution, lam: float, steps: int,
                 rng: np.random.Generator, star: bool, tree_stream) -> int:
    """The one choice of speed-replica kernel: the depth chain on a one-point
    law, else the tree walk on a tree grown from ``tree_stream()``, which the
    chain never calls, so it derives no tree stream."""
    if dist.m1 == dist.m2:
        return _chain_final_depth(dist.m1, lam, steps, rng, star)
    return _walk_final_depth(dist, tree_stream(), lam, steps, rng, star)


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

    if mode == "annealed" and dist.m1 == dist.m2:
        successes = _chain_hits(dist.m1, lam, n, substreams(seed, D_HIT, count=trials))
    elif mode == "annealed":
        successes = 0
        trees = partial(next, substreams(seed, D_TREE, count=trials))
        for rng in substreams(seed, D_HIT, count=trials):
            end = _walk_final_depth(dist, trees(), lam, _MAX_SYNC_ROUNDS, rng, True, n)
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
    at 64 bytes a trial (tracemalloc peak: 32, in the first round)."""
    _check_budget(64.0 * trials, f"{trials} quenched hitting trials")


def _hit_level_vectorized(tree: QuenchedTree, lam: float, n: int, trials: int,
                          rng: np.random.Generator) -> int:
    """Successes of ``trials`` walkers from the root of a tree laid out to
    depth n, absorbed at depth n (a success) or on a step above the root (a
    failure, with or without the artificial root). Each round draws one
    uniform per walker still moving and hands them out in walker order.

    The walkers move from the ids below ``goal``. Each such vertex gets a row
    ``[parent, child 0, ..., child k-1, child k-1]`` of the neighbour table
    ``nb``, at whose child 0 ``base`` points, so a round is a few whole-array
    calls: ``floor(u * (lam + k) - lam)``, the loop's own float, clamped at
    -1 (up), indexes the row from child 0. The repeated last child takes the
    rare float that rounds to k itself, as ``min(j, k - 1)`` does. Once
    ``_TAIL_WALKERS`` or fewer are left, the same rounds read the same tables
    one walker at a time, where numpy's fixed cost per call would outweigh
    the work. Both phases share the round cap."""
    start, _ = tree.levels(n)
    goal = start[n]
    parent, _, first_child, nu = (a[:goal] for a in tree.arrays())
    width = nu + 2
    ends = np.cumsum(width)
    base = ends - width + 1
    # count on from each row's child 0, then overwrite the parent slots
    nb = np.repeat(first_child - base, width) + np.arange(ends[-1])
    nb[base - 1] = parent
    nb[ROOT] = -1  # a step above the root is a failure
    nb[ends - 1] -= 1
    scale = lam + nu
    pos = np.full(trials, ROOT, dtype=np.intp)
    failures = 0
    rounds = _MAX_SYNC_ROUNDS
    while pos.size > _TAIL_WALKERS and rounds:
        rounds -= 1
        s = scale[pos]
        s *= rng.random(pos.size)
        s -= lam  # = u * (lam + k) - lam
        np.floor(s, out=s)
        if lam > 1.0:  # s >= -lam, so floor(s) >= -1 already when lam <= 1
            np.maximum(s, -1.0, out=s)
        pos = nb[s.astype(np.intp) + base[pos]]
        failures += int(np.count_nonzero(pos < 0))
        pos = pos[pos.view(np.uintp) < goal]  # neither failed nor at depth n
    nb, base, scale = memoryview(nb), memoryview(base), memoryview(scale)
    pos = pos.tolist()
    while pos and rounds:
        rounds -= 1
        moving = []
        for v, u in zip(pos, rng.random(len(pos)).tolist()):
            t = u * scale[v] - lam
            v = nb[base[v] + (int(t) if t >= 0.0 else -1)]
            if v < 0:
                failures += 1
            elif v < goal:
                moving.append(v)
        pos = moving
    if pos:
        raise VerificationError("hitting walk failed to absorb within the round cap")
    return trials - failures


def lemma0_compare(dist: OffspringDistribution, lam: float, steps: int,
                   replicas: int, seed: int) -> tuple[SpeedEstimate, SpeedEstimate, float]:
    """Speed on the bare tree versus the tree with the artificial root,
    estimated with independent randomness, plus the discrepancy z-score."""
    est_t = simulate_speed(dist, lam, steps, replicas, seed, graph="T")
    est_s = simulate_speed(dist, lam, steps, replicas, seed, graph="T_star")
    diff, denom = abs(est_t.mean - est_s.mean), float(np.hypot(est_t.stderr, est_s.stderr))
    return est_t, est_s, diff / denom if denom > 0 else (math.inf if diff else 0.0)
